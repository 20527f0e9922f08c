"""The verifier is total on mutated certificates.

One field of a valid certificate's JSON (at any depth) is replaced by a
value from a fixed pool, or deleted, or an integer field is replaced by
another integer (its value plus or minus one, or another integer of the
same document), and `tropilink verify` is run on the result in-process.
The pool's values mostly have the wrong type and stop in the reader (exit
2); the integer mutations mostly load, so at least a quarter of all
mutations reach the checks past the reader.

Whatever the mutation, the exit code is 0 (valid), 1 (invalid) or 2
(malformed), never 4 or an escaped exception, and stdout is one JSON
object.  A mutation that still verifies must describe the same
chain: graphs pairwise isomorphic to the original's.  Under `graphs` the
reader is strict: a mutation there that still verifies must leave the field
as it was (same type and value) or delete one whose default it held (a
weight 0, an empty `legs`).  A mutation that loads (exit 0 or 1) must get
the verdict of `perfbench/oracle.py`, an independent checker, on the
mutated chain, unless it lies inside a step's `cycles`, which the oracle
does not read: such a mutation must only not pass, unless it changes
nothing.  The certificates are those of acceptance criteria 1 (plain), 3
(Petersen to P10, 3ec) and 6 (legged).

Two kinds of insertion must be malformed (exit 2) wherever they land: a
field the schema does not know, added to any object of the certificate, and
a witness key respelled so that it still reads as its integer (" 9", "09",
"+9", "1_0", full-width digits).
"""

import contextlib
import copy
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from tropilink import cli
from tropilink.atlas import enumerate_p_regular
from tropilink.canonical import are_isomorphic
from tropilink.certificates import certificate_from_json_dict
from tropilink.graphs import petersen_graph
from tropilink.linkage import link
from tropilink.normal_form import build_polygon

from certificate_json_oracle import certificate_to_json_dict
from conftest import perfbench_module

DELETE = object()
POOL = [None, True, False, 0, 1, -1, 2, 3, 10 ** 6, 1.5, -0.0, "", "x", "3",
        "plain", "3ec", "labeled", [], [0], [0, 1], {}, {"x": 0}, {"0": 0},
        DELETE]


def _certificates():
    plain = enumerate_p_regular(3, 3)
    legged = enumerate_p_regular(3, 2, legs=2)
    return [
        link(plain[0], plain[-1]),                                 # criterion 1
        link(petersen_graph(), build_polygon(3, 10), "3ec"),       # criterion 3
        link(legged[0], legged[-1]),                               # criterion 6
    ]


@pytest.fixture(scope="module")
def originals(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz"), [
        (cert, certificate_to_json_dict(cert)) for cert in _certificates()]


def _paths_by_depth(doc) -> dict:
    """{depth: [path, ...]} over every field of doc (dict values and list
    items, at any depth)."""
    by_depth, todo = {}, [((), doc)]
    while todo:
        path, node = todo.pop()
        keys = sorted(node) if isinstance(node, dict) else \
            range(len(node)) if isinstance(node, list) else ()
        for key in keys:
            by_depth.setdefault(len(path) + 1, []).append(path + (key,))
            todo.append((path + (key,), node[key]))
    return by_depth


def _field(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _int_paths(doc, by_depth) -> tuple[dict, list]:
    """({depth: [path, ...]} over the integer fields of doc, the distinct
    integers of doc in order), from its _paths_by_depth."""
    paths = {}
    for depth, found in by_depth.items():
        found = [path for path in found if type(_field(doc, path)) is int]
        if found:
            paths[depth] = found
    ids = sorted({_field(doc, path) for found in paths.values() for path in found})
    return paths, ids


@st.composite
def mutations(draw, docs, fields, ints):
    """(certificate index, path to a field, replacement or DELETE), where
    fields[i] is _paths_by_depth of docs[i] and ints[i] its _int_paths.
    The depth is drawn first, so top-level fields and deep ones are hit
    alike.  Half of the mutations keep the type: an integer field becomes
    its value plus or minus one, or another integer of the same document,
    so that most of them load and meet the checks past the reader."""
    i = draw(st.integers(0, len(fields) - 1))
    if draw(st.booleans()):
        paths, ids = ints[i]
        path = draw(st.sampled_from(paths[draw(st.sampled_from(sorted(paths)))]))
        old = _field(docs[i], path)
        return i, path, draw(st.sampled_from([old - 1, old + 1])
                             | st.sampled_from(ids))
    depth = draw(st.sampled_from(sorted(fields[i])))
    return i, draw(st.sampled_from(fields[i][depth])), draw(st.sampled_from(POOL))


def _mutated(doc, path, value):
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def _changes_nothing(doc, path, value) -> bool:
    """Whether replacing (or deleting) the field at path leaves the same
    document up to a defaulted field: same type and value, or the deletion
    of a weight 0 or of an empty `legs`."""
    old = _field(doc, path)
    if value is DELETE:
        return (path[-1], old) in (("weight", 0), ("legs", []))
    return type(value) is type(old) and value == old


def test_verify_exits_0_1_or_2_on_mutated_certificates(originals):
    oracle = perfbench_module("oracle")
    workdir, certs = originals
    docs = [d for _, d in certs]
    for cert, doc in certs:
        assert cli.main(["verify", _write(workdir, doc)]) == 0

    fields = [_paths_by_depth(doc) for doc in docs]
    loaded = []

    @settings(max_examples=1200, derandomize=True, deadline=None)
    @given(mutations(docs, fields, [_int_paths(d, f) for d, f in zip(docs, fields)]))
    def check(mutation):
        i, path, value = mutation
        doc = _mutated(docs[i], path, value)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(["verify", _write(workdir, doc)])
        assert rc in (0, 1, 2), err.getvalue()
        loaded.append(rc != 2)
        report = json.loads(out.getvalue())
        assert isinstance(report, dict)
        if "cycles" in path:
            assert rc != 0 or _changes_nothing(docs[i], path, value)
        elif rc != 2:
            ends = [oracle.G.from_json(doc["graphs"][k]) for k in (0, -1)]
            # the schema lets `leg_mode` be absent; the oracle reads it
            found = oracle.check_certificate({"leg_mode": "labeled", **doc},
                                             *ends, doc["mode"], doc["p"])
            assert (rc == 0) == (not found), (path, value, rc, found)
        if rc == 0:
            graphs = certificate_from_json_dict(doc).graphs
            original = certs[i][0].graphs
            assert len(graphs) == len(original)
            assert all(are_isomorphic(a, b) for a, b in zip(graphs, original))
            if path[0] == "graphs":
                assert _changes_nothing(docs[i], path, value), (path, value)

    check()
    assert sum(loaded) >= 300, (sum(loaded), len(loaded))


UNKNOWN_KEYS = ["color", "lengths", "", "x", "Id", "weight ", "half-edges",
                "0x9", "cycle"]
FULL_WIDTH = str.maketrans("0123456789", "\uff10\uff11\uff12\uff13\uff14"
                           "\uff15\uff16\uff17\uff18\uff19")


def _objects_by_depth(doc) -> dict:
    """{depth: [path, ...]} over every object (dict) of doc, the root at 0."""
    by_depth, todo = {}, [((), doc)]
    while todo:
        path, node = todo.pop()
        if isinstance(node, dict):
            by_depth.setdefault(len(path), []).append(path)
            todo.extend((path + (k,), node[k]) for k in sorted(node))
        elif isinstance(node, list):
            todo.extend((path + (i,), x) for i, x in enumerate(node))
    return by_depth


@st.composite
def insertions(draw, objects):
    """(certificate index, path to an object, unknown key, value); the depth
    is drawn first, as in `mutations`."""
    i = draw(st.integers(0, len(objects) - 1))
    depth = draw(st.sampled_from(sorted(objects[i])))
    return (i, draw(st.sampled_from(objects[i][depth])),
            draw(st.sampled_from(UNKNOWN_KEYS)),
            draw(st.sampled_from(POOL[:-1])))


def _respellings(key: str) -> list:
    """Spellings of a decimal key that int() reads as the same integer."""
    out = [" " + key, key + " ", "0" + key, "+" + key, key.translate(FULL_WIDTH)]
    if len(key) > 1:
        out.append(key[0] + "_" + key[1:])
    if key == "0":
        out.append("-0")
    return out


@st.composite
def respellings(draw, docs):
    """(certificate index, path to a witness map, key, its respelling)."""
    i = draw(st.integers(0, len(docs) - 1))
    step = draw(st.integers(0, len(docs[i]["steps"]) - 1))
    witness = docs[i]["steps"][step]["witness"]
    kind = draw(st.sampled_from([k for k in sorted(witness) if witness[k]]))
    key = draw(st.sampled_from(sorted(witness[kind])))
    return (i, ("steps", step, "witness", kind), key,
            draw(st.sampled_from(_respellings(key))))


def _verify_exits_2(workdir, doc):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(["verify", _write(workdir, doc)])
    assert rc == 2, (rc, out.getvalue(), err.getvalue())
    assert "malformed" in json.loads(out.getvalue())["error"]


def test_verify_rejects_unknown_fields_and_respelled_keys(originals):
    workdir, certs = originals
    docs = [d for _, d in certs]

    def edited(i, path, edit):
        doc = copy.deepcopy(docs[i])
        node = doc
        for key in path:
            node = node[key]
        edit(node)
        return doc

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(insertions([_objects_by_depth(doc) for doc in docs]))
    def check_insertion(insertion):
        i, path, key, value = insertion
        _verify_exits_2(workdir, edited(i, path,
                                        lambda obj: obj.__setitem__(key, value)))

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(respellings(docs))
    def check_respelling(respelling):
        i, path, key, spelling = respelling
        _verify_exits_2(workdir, edited(
            i, path, lambda m: m.__setitem__(spelling, m.pop(key))))

    check_insertion()
    check_respelling()


def _write(workdir, doc) -> str:
    path = workdir / "cert.json"
    path.write_text(json.dumps(doc))
    return str(path)
