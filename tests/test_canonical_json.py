"""`dumps_canonical` against the json one-liner it replaces.

Certificates, graph files and every CLI output are written by
`graphs.dumps_canonical`.  Its layout is defined as
`json.dumps(x, indent=2, sort_keys=True) + "\\n"`; `oracle` is that
one-liner, and the writer must give the same bytes, or raise TypeError
where json raises it, on every JSON value.
"""

import ast
import json
import math
import pathlib

import pytest
from hypothesis import given, settings, strategies as st

import tropilink
from tropilink.graphs import (Graph, WeightedGraph, build_graph, contract,
                              dumps_canonical, petersen_graph, theta_graph,
                              to_json_dict)


def oracle(x) -> str:
    return json.dumps(x, indent=2, sort_keys=True) + "\n"


class Record(dict):
    pass


class Row(list):
    pass


class Code(int):
    pass


text = st.text(alphabet=st.characters(max_codepoint=0x2FFF, exclude_categories=("Cs",)),
               max_size=6)
floats = st.floats(allow_nan=True, allow_infinity=True)
scalars = st.one_of(
    st.none(), st.booleans(), text, floats,
    st.integers(), st.integers(min_value=-10 ** 30, max_value=10 ** 30),
    st.sampled_from([0, -0.0, 2, 10, -1, math.nan, math.inf, -math.inf]),
)
# keys of one dict are all strings, all numbers (bools included) or None:
# json sorts them before it stringifies them
key_sets = st.one_of(
    st.lists(text, max_size=5),
    st.lists(st.integers(min_value=-20, max_value=20), max_size=5),
    st.lists(floats, max_size=4),
    st.lists(st.one_of(st.booleans(), st.integers(-3, 3), floats), max_size=5),
    st.lists(st.none(), max_size=1),
)


row_keys = st.one_of(
    st.lists(st.one_of(text, st.sampled_from(["id", "vertex", "%d", "a%sb"])),
             min_size=1, max_size=4, unique=True),
    st.lists(st.integers(-2, 2), min_size=1, max_size=3, unique=True))


def _absent(keys):
    """A key of the type of keys that none of them equals."""
    return max(keys) + 1 if isinstance(keys[0], int) else "~" + "".join(keys)


def rows(children):
    """Lists of dicts that mostly share one key set and hold mostly int
    values, the shape of a graph's vertex and half-edge lists."""
    values = st.one_of(st.integers(), st.integers(), st.booleans(), children)
    return row_keys.flatmap(lambda keys: st.lists(
        st.fixed_dictionaries({k: values for k in keys},
                              optional={_absent(keys): st.integers()}),
        min_size=1, max_size=4))


def containers(children):
    def mapping(keys_and_values):
        keys, values = keys_and_values
        return dict(zip(keys, values))
    dicts = st.tuples(key_sets, st.lists(children, min_size=5, max_size=5)).map(mapping)
    lists = st.lists(children, max_size=5)
    return st.one_of(dicts, lists, lists.map(tuple), dicts.map(Record),
                     lists.map(Row), st.lists(st.integers(), max_size=6),
                     rows(children), rows(children).map(tuple))


json_values = st.recursive(scalars, containers, max_leaves=30)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(json_values)
def test_writer_matches_json_dumps(x):
    assert dumps_canonical(x) == oracle(x)


@pytest.mark.parametrize("x", [
    {}, [], (), {"a": {}, "b": [], "c": ()}, [[], {}, [[]]],
    {2: "two", 10: "ten", -3: None},
    {1.5: 0, -0.0: 1, math.inf: 2, -math.inf: 3},
    {True: 1, False: 0}, {None: [1, 2]},
    {"é中": "\x00\x1f\"\\ ", "\n": "tab\t"},
    [True, False, None, 1, -1, 10 ** 40, -(10 ** 40), 0.1, -0.0],
    [math.nan, math.inf, -math.inf], {"x": math.nan},
    Record(b=Row([1, 2]), a=Record()), Row([Record(z=1), ()]),
    [Code(7), {"k": Code(-2)}], {Code(3): 1},
    [{"b": 1, "a": -2}, {"a": 3, "b": 10 ** 20}], [{"%d": 1, "%": 2}] * 2,
    [{"a": 1, "b": 2}, {"a": 1, "c": 2}], [{"a": 1, "b": True}],
    [{"a": 1, "b": Code(2)}], [{"a": 1, "b": 2}, Record(a=1, b=2)],
    [{1: 5, 2: 6}, {True: 5, 2: 6}], [{"a": 1}, {"a": 2}], [{}, {}],
    Row([{"a": 1, "b": 2}]), [{"a": 1, "b": 2}, 3],
    "a string", 7, -0.0, None, True,
])
def test_writer_matches_json_dumps_on_edge_cases(x):
    assert dumps_canonical(x) == oracle(x)


def test_non_json_values_raise_type_error_like_json():
    for bad in [{1, 2}, {"a": {1}}, [b"bytes"], {"a": 1, 2: "b"},
                {None: 0, "n": 1}, {(1, 2): 0}, object()]:
        with pytest.raises(TypeError):
            oracle(bad)
        with pytest.raises(TypeError):
            dumps_canonical(bad)


def test_only_graphs_calls_json_dump():
    """The byte layout is defined once: no other module of the package
    writes JSON itself."""
    package = pathlib.Path(tropilink.__file__).parent
    callers = set()
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and node.attr in ("dump", "dumps")
                    and isinstance(node.value, ast.Name) and node.value.id == "json"):
                callers.add(path.stem)
            elif (isinstance(node, ast.ImportFrom) and node.module == "json"
                    and {a.name for a in node.names} & {"dump", "dumps"}):
                callers.add(path.stem)
    assert callers <= {"graphs"}


# Graphs that `dumps_canonical` renders from their slots: weighted, legged,
# one vertex with no edge, ids with gaps (a contraction), and no legs.
GRAPHS = [
    theta_graph(),
    contract(petersen_graph(), {0, 10}),
    build_graph([], isolated=[0]),
    build_graph([], weights={0: 2}, isolated=[0]),
    build_graph([(0, 0), (0, 1)], legs=[(1, 7), (0, 2)]),
    build_graph([(0, 1), (1, 2), (1, 1)], legs=[(2, 1)], weights={0: 1, 2: 3}),
    WeightedGraph(theta_graph()),
]


def as_dicts(x):
    """x with every graph in it replaced by its to_json_dict."""
    if isinstance(x, (Graph, WeightedGraph)):
        return to_json_dict(x)
    if isinstance(x, dict):
        return {k: as_dicts(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [as_dicts(v) for v in x]
    return x


def graph_containers(children):
    lists = st.lists(children, max_size=4)
    dicts = st.dictionaries(st.sampled_from(["graph", "id", "legs", "a"]),
                            children, max_size=4)
    return st.one_of(lists, lists.map(tuple), dicts)


values_with_graphs = st.recursive(
    st.one_of(st.sampled_from(GRAPHS), st.integers(), text),
    graph_containers, max_leaves=12)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(values_with_graphs)
def test_graphs_are_written_as_their_json_dict(x):
    want = oracle(as_dicts(x))
    assert dumps_canonical(as_dicts(x)) == want
    assert dumps_canonical(x) == want


@pytest.mark.parametrize("g", GRAPHS)
def test_graph_alone_and_nested(g):
    for x in (g, [g], {"graph": g}, [[{"a": [g, g]}], {"b": (g,)}]):
        assert dumps_canonical(x) == oracle(as_dicts(x))


def test_graph_rows_are_written_only_by_graphs():
    """The graph row layout exists once: no other module of the package
    spells a half-edge, leg or vertex row."""
    package = pathlib.Path(tropilink.__file__).parent
    fields = ('"partner"', '"half_edge', '"label"', '"weight"')
    spelled = {path.stem for path in package.glob("*.py")
               if any(f in path.read_text() for f in fields)}
    assert spelled == {"graphs"}
