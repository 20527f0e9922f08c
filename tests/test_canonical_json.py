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
from tropilink.graphs import dumps_canonical


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
