"""Half-edge multigraphs with legs and vertex weights: combinatorial types.

A graph is stored as a finite set of vertex ids, a finite set of half-edge
ids, an involution pairing half-edges into edges (its fixed points are the
legs, i.e. marked half-edges), and an endpoint map attaching every half-edge
to a vertex.  Loops and parallel edges are allowed; the underlying
topological graph must be connected.

Edges are referenced by a stable *key*: the smaller of the two half-edge ids
forming the edge.  Legs are referenced by their half-edge id.  Contraction
keeps the ids of everything it does not touch and names a merged component
by its least vertex, so edge keys survive contraction; this is what makes
transformation certificates auditable.

All values are immutable after construction.  Derived graphs (a
contraction, a re-attachment) share the immutable parts of their source,
such as the leg tuple, the leg labels and the half-edge lists of untouched
vertices, so nothing may mutate a graph's dicts.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from functools import cache
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii
from typing import Iterable, Mapping


class GraphError(ValueError):
    """Malformed graph data or an operation applied out of its domain."""


class InternalConsistencyError(RuntimeError):
    """A structural guarantee the algorithms rely on failed to hold."""


class Graph:
    """Connected multigraph with legs, in the half-edge representation."""

    __slots__ = (
        "vertices",
        "half_edges",
        "involution",
        "endpoint",
        "leg_labels",
        "edges",
        "legs",
        "_at_vertex",
    )

    def __init__(
        self,
        vertices: Iterable[int],
        involution: Mapping[int, int],
        endpoint: Mapping[int, int],
        leg_labels: Mapping[int, int] | None = None,
    ):
        vs = tuple(sorted(vertices))
        if not vs:
            raise GraphError("a graph needs at least one vertex")
        if len(set(vs)) != len(vs):
            raise GraphError("duplicate vertex ids")
        inv = dict(involution)
        hs = tuple(sorted(inv))
        ep = dict(endpoint)
        if set(ep) != set(hs):
            raise GraphError("endpoint map must cover exactly the half-edges")
        for h, h2 in inv.items():
            if h2 not in inv or inv[h2] != h:
                raise GraphError("involution is not an involution")
        vset = set(vs)
        for h, v in ep.items():
            if v not in vset:
                raise GraphError(f"half-edge {h} attached to unknown vertex {v}")

        legs = tuple(h for h in hs if inv[h] == h)
        labels = dict(leg_labels) if leg_labels else {}
        if set(labels) != set(legs):
            raise GraphError("leg labels must cover exactly the legs")
        if len(set(labels.values())) != len(labels):
            raise GraphError("leg labels must be distinct")

        self.vertices = vs
        self.half_edges = hs
        self.involution = inv
        self.endpoint = ep
        self.leg_labels = labels
        self.legs = legs
        self.edges = tuple(h for h in hs if inv[h] > h)
        # hs is sorted, so every list is built sorted
        at: dict[int, list[int]] = {v: [] for v in vs}
        for h in hs:
            at[ep[h]].append(h)
        self._at_vertex = {v: tuple(at[v]) for v in vs}

        if not self._connected():
            raise GraphError("graph is not connected")

    @classmethod
    def _derived(cls, vertices, half_edges, involution, endpoint, leg_labels,
                 edges, legs, at_vertex) -> "Graph":
        """A graph from slots its caller has proved valid and connected;
        nothing is checked or copied.  Only derivations of a valid graph
        that argue their result valid (`contract`, `with_endpoints`) may
        call it."""
        g = object.__new__(cls)
        g.vertices = vertices
        g.half_edges = half_edges
        g.involution = involution
        g.endpoint = endpoint
        g.leg_labels = leg_labels
        g.edges = edges
        g.legs = legs
        g._at_vertex = at_vertex
        return g

    # -- basic accessors ---------------------------------------------------

    def edge_halves(self, key: int) -> tuple[int, int]:
        h2 = self.involution.get(key, key)
        if h2 == key:
            if key in self.involution:
                raise GraphError(f"{key} is a leg, not an edge")
            raise GraphError(f"edge {key} does not exist")
        return (key, h2) if key < h2 else (h2, key)

    def edge_ends(self, key: int) -> tuple[int, int]:
        h1, h2 = self.edge_halves(key)
        a, b = self.endpoint[h1], self.endpoint[h2]
        return (a, b) if a <= b else (b, a)

    def is_loop(self, key: int) -> bool:
        a, b = self.edge_ends(key)
        return a == b

    def half_edges_at(self, v: int) -> tuple[int, ...]:
        return self._at_vertex[v]

    def valency(self, v: int) -> int:
        return len(self._at_vertex[v])

    def legs_at(self, v: int) -> tuple[int, ...]:
        return tuple(h for h in self._at_vertex[v] if self.involution[h] == h)

    def edges_at(self, v: int) -> tuple[int, ...]:
        """Edge keys incident to v (a loop listed once)."""
        seen = []
        for h in self._at_vertex[v]:
            if self.involution[h] != h:
                k = min(h, self.involution[h])
                if k not in seen:
                    seen.append(k)
        return tuple(seen)

    def other_end(self, key: int, v: int) -> int:
        a0, b0 = self.edge_ends(key)
        if v == a0:
            return b0
        if v == b0:
            return a0
        raise GraphError(f"vertex {v} is not an end of edge {key}")

    @property
    def b1(self) -> int:
        return len(self.edges) - len(self.vertices) + 1

    def is_regular(self) -> int | None:
        """The common valency, or None if the graph is not regular."""
        vals = {self.valency(v) for v in self.vertices}
        return vals.pop() if len(vals) == 1 else None

    def _connected(self) -> bool:
        start = self.vertices[0]
        seen = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for h in self._at_vertex[v]:
                u = self.endpoint[self.involution[h]]
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        return len(seen) == len(self.vertices)

    # -- structural identity ----------------------------------------------

    def _key(self):
        return (
            self.vertices,
            tuple(sorted(self.involution.items())),
            tuple(sorted(self.endpoint.items())),
            tuple(sorted(self.leg_labels.items())),
        )

    def __eq__(self, other):
        # dict equality ignores order, so this agrees with comparing _key()
        return self is other or (
            isinstance(other, Graph)
            and self.vertices == other.vertices
            and self.involution == other.involution
            and self.endpoint == other.endpoint
            and self.leg_labels == other.leg_labels)

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return (
            f"Graph(|V|={len(self.vertices)}, |E|={len(self.edges)}, "
            f"legs={len(self.legs)}, b1={self.b1})"
        )

    # -- derived copies ----------------------------------------------------

    def with_endpoints(self, reassign: Mapping[int, int]) -> "Graph":
        """The graph with some half-edges re-attached to other vertices.

        Only the endpoints and the half-edge lists of the vertices a moved
        half-edge leaves or joins are rebuilt; everything else is shared.
        The half-edges and vertices must be known, and the result must be
        connected (a re-attachment can disconnect a graph), else
        GraphError."""
        ep = dict(self.endpoint)
        if not ep.keys() >= reassign.keys():
            raise GraphError("endpoint map must cover exactly the half-edges")
        at = dict(self._at_vertex)
        touched = set()
        for h, v in reassign.items():
            if v not in at:
                raise GraphError(f"half-edge {h} attached to unknown vertex {v}")
            touched.add(ep[h])
            touched.add(v)
            ep[h] = v
        for u in touched:
            at[u] = tuple(sorted(
                [h for h in at[u] if h not in reassign]
                + [h for h, v in reassign.items() if v == u]))
        g = Graph._derived(self.vertices, self.half_edges, self.involution,
                           ep, self.leg_labels, self.edges, self.legs, at)
        if not g._connected():
            raise GraphError("graph is not connected")
        return g


class WeightedGraph:
    """Graph together with a nonnegative integer vertex weight."""

    __slots__ = ("graph", "weight")

    def __init__(self, graph: Graph, weight: Mapping[int, int] | None = None):
        w = {v: 0 for v in graph.vertices}
        if weight:
            for v, x in weight.items():
                if v not in w:
                    raise GraphError(f"weight on unknown vertex {v}")
                if x < 0:
                    raise GraphError("weights must be nonnegative")
                w[v] = int(x)
        self.graph = graph
        self.weight = w

    @property
    def total_weight(self) -> int:
        return sum(self.weight.values())

    def __eq__(self, other):
        return (
            isinstance(other, WeightedGraph)
            and self.graph == other.graph
            and self.weight == other.weight
        )

    def __hash__(self):
        return hash((self.graph, tuple(sorted(self.weight.items()))))

    def __repr__(self):
        return f"WeightedGraph({self.graph!r}, total_weight={self.total_weight})"


def _as_weighted(obj) -> WeightedGraph:
    """obj itself when it is a WeightedGraph, a Graph with weight 0 on every
    vertex, else GraphError."""
    if isinstance(obj, WeightedGraph):
        return obj
    if isinstance(obj, Graph):
        return WeightedGraph(obj)
    raise GraphError(f"expected a graph, got {type(obj).__name__}")


def genus(wg: WeightedGraph | Graph) -> int:
    """First Betti number plus total vertex weight."""
    if isinstance(wg, Graph):
        return wg.b1
    return wg.graph.b1 + wg.total_weight


# -- construction helpers ---------------------------------------------------


def build_graph(
    edge_list: Iterable[tuple[int, int]],
    legs: Iterable[tuple[int, int]] = (),
    weights: Mapping[int, int] | None = None,
    isolated: Iterable[int] = (),
):
    """Build a graph from (u, v) edge pairs and (vertex, label) legs.

    Edge i gets half-edges 2i and 2i+1, so its key is 2i; legs get the ids
    after the edges.  Returns a WeightedGraph when weights are given.
    Vertex ids, labels and weights must be ints (not bools), else
    GraphError.
    """
    edge_list = list(edge_list)
    legs = list(legs)
    isolated = list(isolated)
    for x in chain(chain.from_iterable(edge_list), isolated, *zip(*legs),
                   *(weights or {}).items()):
        if type(x) is not int:
            raise GraphError(f"ids, labels and weights must be ints, not {x!r}")
    inv: dict[int, int] = {}
    ep: dict[int, int] = {}
    vs = set(isolated)
    for i, (u, v) in enumerate(edge_list):
        a, b = 2 * i, 2 * i + 1
        inv[a], inv[b] = b, a
        ep[a], ep[b] = u, v
        vs.update((u, v))
    base = 2 * len(edge_list)
    labels = {}
    for j, (v, label) in enumerate(legs):
        h = base + j
        inv[h] = h
        ep[h] = v
        labels[h] = label
        vs.add(v)
    g = Graph(vs, inv, ep, labels)
    if weights is not None:
        return WeightedGraph(g, weights)
    return g


def theta_graph() -> Graph:
    """Two vertices joined by three parallel edges."""
    return build_graph([(0, 1), (0, 1), (0, 1)])


def dumbbell_graph() -> Graph:
    """Two loop vertices joined by a bridge."""
    return build_graph([(0, 0), (0, 1), (1, 1)])


def k4_graph() -> Graph:
    return build_graph([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


def cycle_graph(n: int) -> Graph:
    if n < 1:
        raise GraphError("cycle length must be >= 1")
    if n == 1:
        return build_graph([(0, 0)])
    return build_graph([(i, (i + 1) % n) for i in range(n)])


def petersen_graph() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return build_graph(outer + spokes + inner)


# -- contraction -------------------------------------------------------------


def _component_roots(vertices: Iterable, pairs: Iterable[tuple]) -> dict:
    """Union-find: map every vertex to the least vertex of its component in
    the graph on `vertices` with an edge for each (a, b) in `pairs`.  The
    vertices may be any hashable, totally ordered values."""
    # a parent is never larger than its child, so after the unions one pass
    # in increasing order resolves every vertex to its root
    parent = {v: v for v in sorted(vertices)}
    for a, b in pairs:
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a < b:
            parent[b] = a
        elif b < a:
            parent[a] = b
    for v in parent:
        parent[v] = parent[parent[v]]
    return parent


def _without(items: tuple, drop: list) -> tuple:
    """The sorted tuple items less drop, a sorted list of some of its
    members, found by bisection."""
    pieces, i = [], 0
    for x in drop:
        j = bisect_left(items, x, i)
        pieces.append(items[i:j])
        i = j + 1
    pieces.append(items[i:])
    return tuple(chain.from_iterable(pieces))


def contract(g: Graph, S: Iterable[int]) -> Graph:
    """Collapse the edges in S, leaving everything else unchanged.

    Besides copying the maps and tuples of g, the work is proportional to
    what changes.  Each component of (V, S) becomes its least vertex, its
    root, so a one-edge contraction merges e into `g.edge_ends(e)[0]`.
    Only the half-edges at a merged vertex are re-pointed, and only the
    roots' half-edge lists are rebuilt; legs and leg labels are shared
    with g.

    The target is built without re-validation, which is sound because g is
    a valid connected graph:
    - the involution restricted to a union of its orbits (every half-edge
      but the two of each edge in S) is an involution;
    - every endpoint is the root of the old endpoint's component, and every
      root is a vertex of the target;
    - S holds edges only, so no leg is consumed and the legs and their
      distinct labels are those of g;
    - contracting edges of a connected graph leaves it connected.
    """
    S = frozenset(S)
    inv = g.involution
    bad = [key for key in S if not (key in inv and inv[key] > key)]
    if bad:
        raise GraphError(f"not contractible edges (legs or unknown keys): {sorted(bad)}")

    ends = [g.edge_ends(key) for key in S]
    roots = _component_roots(set(chain.from_iterable(ends)), ends)
    merged = sorted(v for v, r in roots.items() if r != v)
    keys = sorted(S)
    drop = sorted(chain(keys, (inv[key] for key in keys)))

    inv, ep, at = dict(inv), dict(g.endpoint), dict(g._at_vertex)
    for h in drop:
        del inv[h]
        del ep[h]
    dropped = set(drop)
    halves: dict[int, list[int]] = {r: [] for r in roots.values()}
    for v, r in roots.items():
        kept = [h for h in at.pop(v) if h not in dropped]
        if v != r:
            for h in kept:
                ep[h] = r
        halves[r] += kept
    for r, hs in halves.items():
        at[r] = tuple(sorted(hs))

    return Graph._derived(_without(g.vertices, merged),
                          _without(g.half_edges, drop), inv, ep,
                          g.leg_labels, _without(g.edges, keys), g.legs, at)


# -- JSON and DOT -------------------------------------------------------------


def to_json_dict(obj) -> dict:
    """Bit-stable JSON form of a Graph or WeightedGraph."""
    wg = _as_weighted(obj)
    g = wg.graph
    return {
        "vertices": [{"id": v, "weight": wg.weight[v]} for v in g.vertices],
        "half_edges": [
            {"id": h, "vertex": g.endpoint[h], "partner": g.involution[h]}
            for h in g.half_edges
        ],
        "legs": [
            {"half_edge": h, "label": g.leg_labels[h]} for h in g.legs
        ],
    }


def _json_int(x, what: str, doc: str = "graph") -> int:
    """x itself when it is an int (bools excluded), else GraphError."""
    if type(x) is not int:
        raise GraphError(f"malformed {doc} JSON: {what} must be an integer, "
                         f"not {x!r}")
    return x


def _json_fields(objs: list, allowed: frozenset, what: str,
                 doc: str = "graph"):
    """GraphError unless no object of `objs` has a field outside `allowed`:
    the union of their key sets, compared once."""
    unknown = set().union(*map(dict.keys, objs)) - allowed
    if unknown:
        raise GraphError(f"malformed {doc} JSON: unknown fields "
                         f"{sorted(map(str, unknown))} in {what}")


_GRAPH_FIELDS = frozenset(("vertices", "half_edges", "legs"))
_VERTEX_FIELDS = frozenset(("id", "weight"))
_HALF_EDGE_FIELDS = frozenset(("id", "vertex", "partner"))
_LEG_FIELDS = frozenset(("half_edge", "label"))


def from_json_dict(d: dict) -> Graph | WeightedGraph:
    """Inverse of to_json_dict: a WeightedGraph when some vertex weight is
    nonzero, else a Graph.

    The document is an object whose fields are the arrays `vertices`,
    `half_edges` and, optionally, `legs`, and nothing else.  A vertex entry
    has the fields `id` and, optionally, `weight`; a half-edge entry `id`,
    `vertex` and `partner`; a leg entry `half_edge` and `label`; and no
    others.  Ids, weights, partners and labels must be JSON integers (not
    booleans or floats); a missing weight is 0.  Anything else raises
    GraphError.
    """
    if not isinstance(d, dict):
        raise GraphError(f"malformed graph JSON: a graph is an object, not "
                         f"{type(d).__name__}")
    _json_fields([d], _GRAPH_FIELDS, "a graph")
    for field in ("vertices", "half_edges", "legs"):
        if field in d and not isinstance(d[field], list):
            raise GraphError(f"malformed graph JSON: {field} must be an array, "
                             f"not {type(d[field]).__name__}")
    try:
        vs, hs, legs = d["vertices"], d["half_edges"], d.get("legs", [])
        vertices = [_json_int(v["id"], "vertex id") for v in vs]
        weights = {v["id"]: _json_int(v.get("weight", 0), "vertex weight")
                   for v in vs}
        inv = {_json_int(h["id"], "half-edge id"):
               _json_int(h["partner"], "half-edge partner") for h in hs}
        ep = {h["id"]: _json_int(h["vertex"], "half-edge vertex") for h in hs}
        labels = {_json_int(leg["half_edge"], "leg half_edge"):
                  _json_int(leg["label"], "leg label") for leg in legs}
    except (KeyError, TypeError) as exc:
        raise GraphError(f"malformed graph JSON: {exc}") from exc
    _json_fields(vs, _VERTEX_FIELDS, "a vertex")
    # every field of a half-edge or leg entry was read above, so the entries
    # carry no other field exactly when their sizes add up
    if sum(map(len, hs)) != 3 * len(hs):
        _json_fields(hs, _HALF_EDGE_FIELDS, "a half-edge")
    if sum(map(len, legs)) != 2 * len(legs):
        _json_fields(legs, _LEG_FIELDS, "a leg")
    if len(inv) != len(hs):
        raise GraphError("malformed graph JSON: duplicate half-edge ids")
    g = Graph(vertices, inv, ep, labels)
    if any(weights.values()):
        return WeightedGraph(g, weights)
    return g


def dumps_canonical(d) -> str:
    """Serialize a JSON value with a fixed layout so round trips are byte-identical.

    The layout is `json.dumps(d, indent=2, sort_keys=True) + "\\n"`: a
    two-space indent, keys sorted by their value before they are
    stringified, non-ASCII characters as `\\u` escapes, and a trailing
    newline.  A Graph or WeightedGraph anywhere in d is written as its
    `to_json_dict`.  json's pure-Python encoder, which it runs for an
    indent, is slow on certificates, so `_write_json` writes the same bytes
    directly; `tests/test_canonical_json.py` pins it to that one-liner.  As
    in json, mixed-type keys and values that are not JSON raise TypeError (a
    circular container, not a JSON value either, raises RecursionError).
    """
    out = []
    _write_json(d, "", out, {})
    out.append("\n")
    return "".join(out)


# One C encoder for the scalars the fast paths leave: strings, floats
# (NaN and the infinities included), booleans and null.
_encode_scalar = json.JSONEncoder(sort_keys=True).encode


def _json_key(k) -> str:
    """A dict key as json writes it: a string, or a number, boolean or null
    stringified and then quoted."""
    if isinstance(k, str):
        return encode_basestring_ascii(k)
    if isinstance(k, (int, float)) or k is None:
        return encode_basestring_ascii(_encode_scalar(k))
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {k.__class__.__name__}")


def _block(row, values, ind: str, brackets: str = "[]") -> str:
    """The JSON list (or object) at indent ind of the texts row(value)."""
    text = (",\n  " + ind).join(map(row, values))
    return f"{brackets[0]}\n  {ind}{text}\n{ind}{brackets[1]}" if text else brackets


def _graph_json(obj, ind: str, memo: dict) -> str:
    """The text of to_json_dict(obj) at indent ind, from the slots of a
    Graph or WeightedGraph (ids, labels and weights are ints).  Each
    document's memo keeps the row formatters, so its graphs share rows."""
    rows = memo.get(("graph rows", ind))
    if rows is None:
        r, i4 = "\n" + ind + " " * 6, ind + " " * 4
        rows = memo["graph rows", ind] = [cache(t.__mod__) for t in (
            f'{{{r}"id": %d,{r}"partner": %d,{r}"vertex": %d\n{i4}}}',
            f'{{{r}"half_edge": %d,{r}"label": %d\n{i4}}}',
            f'{{{r}"id": %d,{r}"weight": %d\n{i4}}}')]
    half, leg, vertex = rows
    if isinstance(obj, WeightedGraph):
        g, weights = obj.graph, map(obj.weight.get, obj.graph.vertices)
    else:
        g, weights = obj, repeat(0)
    hs, ls = g.half_edges, g.legs
    ends = zip(hs, map(g.involution.get, hs), map(g.endpoint.get, hs))
    i2 = ind + "  "
    return (f'{{\n{i2}"half_edges": {_block(half, ends, i2)},\n{i2}"legs": '
            f'{_block(leg, zip(ls, map(g.leg_labels.get, ls)), i2)},\n{i2}'
            f'"vertices": {_block(vertex, zip(g.vertices, weights), i2)}\n{ind}}}')


def _write_json(v, ind: str, out: list, memo: dict):
    """Append the text of v at indent ind to out; memo holds one document's
    encoded str keys and graph row formatters."""
    if isinstance(v, dict):
        if not v:
            out.append("{}")
            return
        inner = ind + "  "
        sep = "{\n" + inner
        for k, x in sorted(v.items()):
            ek = memo.get(k) if type(k) is str else None
            if ek is None:
                ek = _json_key(k)
                if type(k) is str:
                    memo[k] = ek
            if type(x) is int:
                out.append(f"{sep}{ek}: {x}")
            else:
                out.append(f"{sep}{ek}: ")
                _write_json(x, inner, out, memo)
            sep = ",\n" + inner
        out.append("\n" + ind + "}")
    elif isinstance(v, (list, tuple)):
        if not v:
            out.append("[]")
            return
        inner = ind + "  "
        sep = ",\n" + inner
        if all(type(x) is int for x in v):
            out.append(f"[\n{inner}{sep.join(map(int.__repr__, v))}\n{ind}]")
            return
        out.append("[\n" + inner)
        for i, x in enumerate(v):
            if i:
                out.append(sep)
            _write_json(x, inner, out, memo)
        out.append("\n" + ind + "]")
    elif type(v) is int:
        out.append(int.__repr__(v))
    elif isinstance(v, (Graph, WeightedGraph)):
        out.append(_graph_json(v, ind, memo))
    else:
        out.append(_encode_scalar(v))


def underlying_graph(obj) -> Graph:
    """obj as a plain Graph, for linkage and its certificates, which are
    defined on unweighted graphs: GraphError when obj carries a nonzero
    vertex weight or is no graph at all."""
    wg = _as_weighted(obj)
    heavy = {v: w for v, w in wg.weight.items() if w}
    if heavy:
        raise GraphError(f"linkage is defined on unweighted graphs, but this "
                         f"graph has vertex weights {heavy}")
    return wg.graph


def to_dot(obj, name: str = "G") -> str:
    """DOT rendering: parallel edges drawn separately, weights as labels,
    legs as arrowless stubs."""
    wg = _as_weighted(obj)
    g = wg.graph
    lines = [f"graph {name} {{"]
    for v in g.vertices:
        w = wg.weight[v]
        label = f"{v}" if w == 0 else f"{v} (w={w})"
        lines.append(f'  v{v} [label="{label}"];')
    for e in g.edges:
        a, b = g.edge_ends(e)
        lines.append(f"  v{a} -- v{b} [label=\"e{e}\"];")
    for h in g.legs:
        stub = f"leg{h}"
        lines.append(f'  {stub} [shape=none, label="leg {g.leg_labels[h]}"];')
        lines.append(f"  v{g.endpoint[h]} -- {stub};")
    lines.append("}")
    return "\n".join(lines) + "\n"
