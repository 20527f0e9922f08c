"""Mutated copies of certificates, each made so that `verify` must reject it.

A mutation is (name, JSON text).  `verify` must reject each one, with exit 1
(invalid) or 2 (malformed); the comment on each says which today.  Positions
are picked by a fixed seed, never by the benchmark's --seed, so the same
certificate always yields the same mutations.

The last three of ``step_mutations`` are faults of the verifier today: one
is accepted, two crash `verify` with an exception.  The benchmark counts each
as a failed operation on every round until the verifier is mended.
"""

from __future__ import annotations

import copy
import json
import random

MUTATION_SEED = 20100701


def _rng():
    return random.Random(MUTATION_SEED)


def _dump(d):
    return json.dumps(d, sort_keys=True)


def _edit(cert, fn):
    d = copy.deepcopy(cert)
    fn(d)
    return _dump(d)


def header_mutations(cert: dict) -> list:
    """Mutations that need no steps, so they apply to every certificate."""
    text = _dump(cert)

    def mode(d):
        d["mode"] = "hamiltonian"

    def no_steps(d):
        del d["steps"]

    def p_plus_one(d):
        d["p"] += 1

    def broken_partner(d):
        d["graphs"][-1]["half_edges"][0]["partner"] = 10 ** 6

    return [
        ("mode_unknown", _edit(cert, mode)),  # exit 2
        ("steps_missing", _edit(cert, no_steps)),  # exit 2
        ("truncated", text[: len(text) // 2]),  # exit 2
        ("partner_unknown", _edit(cert, broken_partner)),  # exit 2
        ("p_plus_one", _edit(cert, p_plus_one)),  # exit 1
    ]


def step_mutations(cert: dict) -> list:
    """Mutations of one step's fields, plus the known faults.  The
    certificate needs at least one step that records cycles."""
    rng = _rng()
    steps = cert["steps"]
    k = rng.randrange(len(steps))
    k_cyc = rng.choice([i for i, s in enumerate(steps) if "cycles" in s])
    out = []

    def left_index(d):
        d["steps"][k]["left_index"] = len(d["graphs"])

    def left_edge(d):
        d["steps"][k]["left_edge"] = 10 ** 6

    def not_injective(kind):
        def fn(d):
            w = d["steps"][k]["witness"][kind]
            a, b = sorted(w, key=int)[:2]
            w[b] = w[a]
        return fn

    def cycles_equal(d):
        cyc = d["steps"][k_cyc]["cycles"]
        cyc[1] = list(cyc[0])

    out += [
        ("left_index_out_of_range", _edit(cert, left_index)),  # exit 2
        ("left_edge_missing", _edit(cert, left_edge)),  # exit 1
        ("witness_vertices_not_injective", _edit(cert, not_injective("vertices"))),  # exit 1
        ("witness_edges_not_injective", _edit(cert, not_injective("edges"))),  # exit 1
        ("cycles_equal", _edit(cert, cycles_equal)),  # exit 1
    ]

    def leg_mode(d):
        d["leg_mode"] = -1

    def witness_object(d):
        w = d["steps"][k]["witness"]["vertices"]
        w[sorted(w, key=int)[0]] = {}

    def cycle_null(d):
        d["steps"][k_cyc]["cycles"][0][1] = None

    out += [
        ("leg_mode_unknown", _edit(cert, leg_mode)),  # accepted: exit 0
        ("witness_value_object", _edit(cert, witness_object)),  # TypeError in _check_witness
        ("cycle_entry_null", _edit(cert, cycle_null)),  # KeyError in Graph.edge_halves
    ]
    return out
