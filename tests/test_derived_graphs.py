"""Derived graphs are built without re-validation: `contract` and
`with_endpoints` set a graph's slots directly.  Every slot they set must be
the one the validating constructor would set on the same data, they must
reject what it rejects, and verification must build no validated graph
beyond the chain graphs it parses."""

import contextlib
import io
import json
import random
import re

import pytest
from hypothesis import assume, given, settings, strategies as st

from tropilink import cli
from tropilink.graphs import (Graph, GraphError, _component_roots,
                              build_graph, contract, petersen_graph)
from tropilink.linkage import link
from tropilink.normal_form import build_polygon

from certificate_json_oracle import certificate_to_json_dict
from conftest import perfbench_module, random_connected_multigraph

def _assert_same_slots(g: Graph, want: Graph):
    for slot in Graph.__slots__:
        assert getattr(g, slot) == getattr(want, slot), slot
        assert type(getattr(g, slot)) is type(getattr(want, slot)), slot


def _validated(g: Graph) -> Graph:
    return Graph(g.vertices, g.involution, g.endpoint, g.leg_labels)


def _raises_like(fn, message: str):
    with pytest.raises(GraphError, match="^" + re.escape(message) + "$"):
        fn()


@settings(max_examples=400, derandomize=True, deadline=None)
@given(st.integers(0, 2**32), st.integers(0, 8), st.integers(0, 3),
       st.integers(0, 3), st.booleans())
def test_contract_equals_the_validating_constructor(seed, extra, legs, k,
                                                    with_loop):
    rng = random.Random(seed)
    g = random_connected_multigraph(rng, max_vertices=9, max_extra=extra,
                                    legs=legs)
    loops = [e for e in g.edges if g.is_loop(e)]
    S = set(rng.sample(g.edges, min(k, len(g.edges))))
    if with_loop and loops:
        S.add(rng.choice(loops))
    t = contract(g, S)
    _assert_same_slots(t, _validated(t))
    assert t.legs is g.legs and t.leg_labels is g.leg_labels
    roots = _component_roots(g.vertices, (g.edge_ends(e) for e in S))
    assert t.vertices == tuple(sorted(set(roots.values())))
    assert t.endpoint == {h: roots[g.endpoint[h]] for h in t.half_edges}

    # a leg or an unknown key among the edges: the same GraphError as ever
    for extra_key in g.legs + (max(g.half_edges, default=0) + 1, -1):
        bad = S | {extra_key}
        _raises_like(lambda: contract(g, bad),
                     "not contractible edges (legs or unknown keys): "
                     f"{sorted(bad - set(g.edges))}")


@settings(max_examples=400, derandomize=True, deadline=None)
@given(st.integers(0, 2**32), st.integers(0, 8), st.integers(0, 2),
       st.integers(1, 3), st.sampled_from(["known", "vertex", "half-edge"]))
def test_with_endpoints_equals_the_validating_constructor(seed, extra, legs,
                                                          k, kind):
    rng = random.Random(seed)
    g = random_connected_multigraph(rng, max_vertices=8, max_extra=extra,
                                    legs=legs)
    assume(g.half_edges)
    reassign = {h: rng.choice(g.vertices)
                for h in rng.sample(g.half_edges, min(k, len(g.half_edges)))}
    if kind == "vertex":
        reassign[rng.choice(g.half_edges)] = max(g.vertices) + 1
    elif kind == "half-edge":
        reassign[max(g.half_edges) + 1] = g.vertices[0]
    ep = dict(g.endpoint)
    ep.update(reassign)
    try:
        want = Graph(g.vertices, g.involution, ep, g.leg_labels)
    except GraphError as exc:
        _raises_like(lambda: g.with_endpoints(reassign), str(exc))
        return
    _assert_same_slots(g.with_endpoints(reassign), want)


def test_with_endpoints_still_rejects_a_disconnecting_reattachment():
    g = build_graph([(0, 1), (1, 1)])      # the edge 0-1 is a bridge
    _raises_like(lambda: g.with_endpoints({1: 0}), "graph is not connected")
    # the same re-attachment is fine once a second edge joins 0 and 1
    h = build_graph([(0, 1), (1, 1), (0, 1)])
    _assert_same_slots(h.with_endpoints({1: 0}),
                       Graph(h.vertices, h.involution,
                             {**h.endpoint, 1: 0}, h.leg_labels))


def _variants(rng: random.Random, g: Graph) -> list:
    """Graphs near g: the same data in another dict order, another label on
    one leg, one endpoint moved, and an unrelated graph."""
    out = [Graph(reversed(g.vertices), dict(reversed(g.involution.items())),
                 dict(reversed(g.endpoint.items())),
                 dict(reversed(g.leg_labels.items())))]
    if g.legs:
        labels = dict(g.leg_labels)
        labels[rng.choice(g.legs)] = max(labels.values()) + 1
        out.append(Graph(g.vertices, g.involution, g.endpoint, labels))
    if g.half_edges:
        h = rng.choice(g.half_edges)
        with contextlib.suppress(GraphError):
            out.append(Graph(g.vertices, g.involution,
                             {**g.endpoint, h: rng.choice(g.vertices)},
                             g.leg_labels))
    out.append(random_connected_multigraph(rng, max_vertices=3, max_extra=2,
                                           legs=len(g.legs)))
    return out


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.integers(0, 2**32), st.integers(0, 2))
def test_equality_agrees_with_the_sorted_key(seed, legs):
    rng = random.Random(seed)
    g = random_connected_multigraph(rng, max_vertices=4, max_extra=3,
                                    legs=legs)
    for h in _variants(rng, g):
        assert (g == h) == (g._key() == h._key()) == (h == g)
        if g == h:
            assert hash(g) == hash(h)
    assert g != g._key()


def _init_calls_of_verify(monkeypatch, tmp_path, doc) -> int:
    """Graph.__init__ calls made by `tropilink verify` on doc (exit 0)."""
    calls = []
    init = Graph.__init__

    def counting(self, *args, **kwargs):
        calls.append(1)
        init(self, *args, **kwargs)

    path = tmp_path / "cert.json"
    path.write_text(json.dumps(doc))
    with monkeypatch.context() as m, \
            contextlib.redirect_stdout(io.StringIO()):
        m.setattr(Graph, "__init__", counting)
        assert cli.main(["verify", str(path)]) == 0
    return len(calls)


def test_verify_builds_one_validated_graph_per_chain_graph(monkeypatch,
                                                           tmp_path):
    inputs = perfbench_module("inputs")
    rng = random.Random(16)
    pair = [build_graph(edges, isolated=range(n)) for n, edges, _ in
            (inputs.random_regular(rng, 16, 3, simple=True) for _ in "ab")]
    for cert in (link(petersen_graph(), build_polygon(3, 10), "3ec"),
                 link(*pair)):
        doc = certificate_to_json_dict(cert)
        assert len(doc["steps"]) >= 4
        assert _init_calls_of_verify(monkeypatch, tmp_path, doc) == \
            len(doc["graphs"])
