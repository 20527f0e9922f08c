"""`verify` against an independent checker, on value mutations.

`perfbench/oracle.py` checks certificates with its own contraction code and
networkx isomorphism and imports nothing of tropilink.  Each mutation below
keeps the certificate loadable (it replaces an integer by another existing
id), so it tests the verdict, not the loader: `verify` must exit 0 exactly
when the oracle finds no fault, and 1 otherwise.  The mutation classes are
- a witness vertex, edge or leg entry pointed at another id;
- two entries of one witness map swapped;
- `left_edge` or `right_edge` set to another existing edge.
Positions are drawn by a fixed seed.  The certificates are plain (acceptance
criterion 1 and a seeded 14-vertex cubic pair), 3ec (Petersen to P10) and
legged (criterion 6).

A second set moves one integer by +-1, at every position outside
`cycles` of the plain, 3ec and legged certificates and at 40 seeded
positions of the 14-vertex pair (all of its 4715 would take minutes).
Such a mutation may make the certificate malformed (exit 2); when it
loads, `verify`'s verdict must equal the oracle's on the mutated chain,
whose ends are its own first and last graphs since `verify` is given no
endpoints.  `p` set to p + 1 must exit 1 and p = 2 exit 2.  The oracle
does not read `cycles`, so a recorded cycle edge moved by +-1 must only
not pass (exit 1 or 2).

Two more classes: two edges of one chain graph exchange their half-edge
ids, where `verify` must again agree with the oracle; and one edge dropped
from a recorded cycle, at every position of every recorded cycle of the
Petersen to P10 certificate, which must exit 1.
"""

import contextlib
import copy
import io
import json
import random

from tropilink import cli
from tropilink.atlas import enumerate_p_regular
from tropilink.graphs import build_graph, petersen_graph
from tropilink.linkage import link
from tropilink.normal_form import build_polygon

from certificate_json_oracle import certificate_to_json_dict
from conftest import perfbench_module

PER_CLASS = 20   # mutations of each class on each certificate
SAMPLED = 40     # +-1 positions of the 14-vertex pair


def _certificates():
    plain = enumerate_p_regular(3, 3)
    legged = enumerate_p_regular(3, 2, legs=2)
    rng = random.Random(14)
    inputs = perfbench_module("inputs")
    pair = [build_graph(edges, isolated=range(n)) for n, edges, _ in
            (inputs.random_regular(rng, 14, 3, simple=True) for _ in "ab")]
    return [link(plain[0], plain[-1]),
            link(*pair),
            link(petersen_graph(), build_polygon(3, 10), "3ec"),
            link(legged[0], legged[-1])]


def _ids(graph: dict, kind: str) -> list:
    """The vertex ids, edge keys or leg half-edges of a graph document."""
    if kind == "vertices":
        return [v["id"] for v in graph["vertices"]]
    if kind == "edges":
        return [h["id"] for h in graph["half_edges"] if h["partner"] > h["id"]]
    return [leg["half_edge"] for leg in graph["legs"]]


def _mutated(doc, cls: str, rng: random.Random) -> dict:
    """A copy of doc with one step mutated by the class cls."""
    d = copy.deepcopy(doc)
    i = rng.randrange(len(d["steps"]))
    step = d["steps"][i]
    if cls == "step_edge":
        side = rng.choice(["left", "right"])
        old = step[side + "_edge"]
        step[side + "_edge"] = rng.choice(
            [e for e in _ids(d["graphs"][i + (side == "right")], "edges")
             if e != old])
        return d
    kind = rng.choice([k for k in sorted(step["witness"])
                       if len(step["witness"][k]) >= 2])
    m = step["witness"][kind]
    a, b = rng.sample(sorted(m), 2)
    if cls == "witness_swap":
        m[a], m[b] = m[b], m[a]
    else:
        # another id of the same kind in the left graph, which may be one
        # the contraction removed
        m[a] = rng.choice([x for x in _ids(d["graphs"][i], kind) if x != m[a]])
    return d


def _verify(workdir, doc) -> int:
    path = workdir / "cert.json"
    path.write_text(json.dumps(doc))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(["verify", str(path)])
    report = json.loads(out.getvalue())
    assert "error" in report if rc == 2 else report["valid"] is (rc == 0)
    return rc


def test_verify_verdicts_equal_the_oracle_on_value_mutations(tmp_path):
    oracle = perfbench_module("oracle")
    rng = random.Random(20100701)
    rejected = {}
    for doc in map(certificate_to_json_dict, _certificates()):
        first, last = (oracle.G.from_json(doc["graphs"][k]) for k in (0, -1))

        def faults(d):
            return oracle.check_certificate(d, first, last, doc["mode"],
                                            doc["p"])

        assert faults(doc) == [] and _verify(tmp_path, doc) == 0
        for cls in ("witness_target", "witness_swap", "step_edge"):
            for _ in range(PER_CLASS):
                d = _mutated(doc, cls, rng)
                rc = _verify(tmp_path, d)
                assert rc in (0, 1), (cls, rc)
                found = faults(d)
                assert (rc == 0) == (not found), (cls, rc, found)
                rejected[cls] = rejected.get(cls, 0) + (rc == 1)
    assert len(rejected) == 3 and all(rejected.values()), rejected


def _int_paths(node, path=()):
    """The path of every integer in a JSON document, booleans left out."""
    if isinstance(node, dict):
        for k, v in node.items():
            yield from _int_paths(v, path + (k,))
    elif isinstance(node, list):
        for i, v in enumerate(node):
            yield from _int_paths(v, path + (i,))
    elif type(node) is int:
        yield path


def test_verify_verdicts_equal_the_oracle_on_integer_steps(tmp_path):
    oracle = perfbench_module("oracle")
    rng = random.Random(20100115)
    rcs = {}
    for n, doc in enumerate(map(certificate_to_json_dict, _certificates())):
        paths = list(_int_paths(doc))
        if n == 1:
            paths = rng.sample(paths, SAMPLED)
        for path in paths:
            *parents, last = path
            box = doc
            for k in parents:
                box = box[k]
            old = box[last]
            for delta in (-1, 1):
                box[last] = old + delta
                rc = _verify(tmp_path, doc)
                kind = ("cycles" if "cycles" in path
                        else "p" if path == ("p",) else "other")
                rcs.setdefault(kind, set()).add(rc)
                if kind == "cycles":
                    assert rc in (1, 2), (path, delta)
                elif rc != 2:
                    ends = [oracle.G.from_json(doc["graphs"][k])
                            for k in (0, -1)]
                    found = oracle.check_certificate(doc, *ends, doc["mode"],
                                                     doc["p"])
                    assert (rc == 0) == (not found), (path, delta, rc, found)
                if kind == "p":
                    assert rc == (2 if old + delta == 2 else 1), (delta, rc)
            box[last] = old
    assert rcs["p"] == {1, 2} and {1, 2} <= rcs["other"], rcs
    assert 1 in rcs["cycles"] and rcs["cycles"] <= {1, 2}, rcs


def _edge_ids_exchanged(doc, rng: random.Random) -> dict:
    """A copy of doc in which two edges of one chain graph exchange their
    half-edge ids."""
    d = copy.deepcopy(doc)
    graph = d["graphs"][rng.randrange(len(d["graphs"]))]
    a, b = rng.sample(_ids(graph, "edges"), 2)
    partner = {h["id"]: h["partner"] for h in graph["half_edges"]}
    ids = {a: b, partner[a]: partner[b], b: a, partner[b]: partner[a]}
    for h in graph["half_edges"]:
        h["id"] = ids.get(h["id"], h["id"])
        h["partner"] = ids.get(h["partner"], h["partner"])
    graph["half_edges"].sort(key=lambda h: h["id"])
    return d


def test_verify_verdicts_equal_the_oracle_on_edge_id_exchanges(tmp_path):
    oracle = perfbench_module("oracle")
    rng = random.Random(20100801)
    rcs = []
    for doc in map(certificate_to_json_dict, _certificates()):
        for _ in range(PER_CLASS):
            d = _edge_ids_exchanged(doc, rng)
            rc = _verify(tmp_path, d)
            ends = [oracle.G.from_json(d["graphs"][k]) for k in (0, -1)]
            found = oracle.check_certificate(d, *ends, d["mode"], d["p"])
            assert rc in (0, 1) and (rc == 0) == (not found), (rc, found)
            rcs.append(rc)
    assert 1 in rcs, rcs


def test_verify_rejects_every_dropped_recorded_cycle_edge(tmp_path):
    doc = certificate_to_json_dict(
        link(petersen_graph(), build_polygon(3, 10), "3ec"))
    rcs = []
    for step in doc["steps"]:
        for cycle in step.get("cycles", ()):
            for t in range(len(cycle)):
                edge = cycle.pop(t)
                rcs.append(_verify(tmp_path, doc))
                cycle.insert(t, edge)
    assert rcs == [1] * 24
