"""Canonical forms and isomorphism of weighted multigraphs with legs.

Canonicalization is exact individualization-refinement: vertices are first
partitioned by (weight, valency, loop count, leg data, marks), the partition
is refined by neighbour-class multiplicity profiles, and remaining ties are
broken by branching over the first smallest non-singleton cell.  The
canonical encoding is the minimum over all leaves of the search tree, so two
graphs have equal encodings iff they are isomorphic (respecting weights,
marks, and leg labels).

The search is pruned by automorphisms (McKay, "Practical graph
isomorphism", Congr. Numer. 30, 1981).  A leaf whose encoding equals the
first leaf's, or the best one's, gives the automorphism ref_order[i] ->
order[i].  It fixes the path the two leaves share, so it maps the branch
that holds the reference leaf onto the later branch that holds the new
one, and the rest of that later branch is abandoned.  A child of a node is
skipped when it lies in the orbit of an explored sibling under the stored
automorphisms that fix every vertex individualized on the path to that
node.  Either way a skipped subtree is the automorphic image of one
explored before it, with the same encodings, and the best leaf is replaced
only on a strict `<`; so the first leaf that reaches the least encoding is
never skipped, and the encoding and its order are those of the unpruned
search (`tests/canonical_oracle.py`).  A symmetric graph costs a few leaves
instead of one per automorphism: 5 instead of 120 on Petersen, and 3 (at
most 5) instead of 2 gamma on a p-polygon.

`are_isomorphic` first compares a label-invariant profile, the sorted
per-vertex BFS layers of vertex colours, and searches only when it agrees.
"""

from __future__ import annotations

from typing import Iterable

from .graphs import (Graph, GraphError, WeightedGraph, _as_weighted,
                     _component_roots, build_graph)


class _Canonizer:
    """Search state over vertices 0..n-1, given by their colours (weight,
    valency, loop count, leg labels, marked) and neighbour multiplicities
    (adj[x][y] = number of x-y edges, x != y).  The encoding found is the
    least over all leaves, so it does not depend on the numbering."""

    def __init__(self, colors, adj):
        self.n = len(colors)
        self.color = colors
        self.adj = adj
        # leaves as (encoding, order, path); autos as lists x -> image
        self.first: tuple | None = None
        self.best: tuple | None = None
        self.autos: list[list[int]] = []

    # partition = list of cells (lists of vertex indices); order matters

    def _refine(self, partition):
        partition = [list(c) for c in partition]
        changed = True
        while changed:
            changed = False
            cell_of = {}
            for ci, cell in enumerate(partition):
                for x in cell:
                    cell_of[x] = ci
            new_partition = []
            for cell in partition:
                if len(cell) == 1:
                    new_partition.append(cell)
                    continue
                sig = {}
                for x in cell:
                    profile = tuple(sorted(
                        (cell_of[y], m) for y, m in self.adj[x].items()
                    ))
                    sig.setdefault(profile, []).append(x)
                if len(sig) > 1:
                    changed = True
                for profile in sorted(sig):
                    new_partition.append(sorted(sig[profile]))
            partition = new_partition
        return partition

    def _encode(self, order):
        pos = {x: i for i, x in enumerate(order)}
        colors = tuple(self.color[x] for x in order)
        rows = []
        for i, x in enumerate(order):
            row = [0] * (self.n - i)
            for y, m in self.adj[x].items():
                if pos[y] > i:
                    row[pos[y] - i] = m
            row[0] = self.color[x][2]
            rows.append(tuple(row))
        return (colors, tuple(rows))

    def _search(self, partition, path):
        """Search below the node that individualizes `path`.  Returns the
        depth to go on at: len(path), or less when a leaf has shown the rest
        of an ancestor's branch to be the image of an explored one."""
        partition = self._refine(partition)
        depth = len(path)
        target = None
        for ci, cell in enumerate(partition):
            if len(cell) > 1:
                if target is None or len(cell) < len(partition[target]):
                    target = ci
        if target is None:
            order = [c[0] for c in partition]
            enc = self._encode(order)
            if self.first is None:
                self.first = (enc, order, path)
            else:
                for ref_enc, ref_order, ref_path in (self.first, self.best):
                    if enc == ref_enc:
                        auto = [0] * self.n
                        for x, y in zip(ref_order, order):
                            auto[x] = y
                        self.autos.append(auto)
                        shared = 0  # distinct leaves: the paths part early
                        while path[shared] == ref_path[shared]:
                            shared += 1
                        return shared
            if self.best is None or enc < self.best[0]:
                self.best = (enc, order, path)
            return depth
        cell = partition[target]
        # orbits on the cell of the stored automorphisms that fix the path;
        # they map the refined cell to itself
        folded, fixing, orbit, explored = 0, [], None, []
        for x in cell:
            new = [a for a in self.autos[folded:] if all(a[y] == y for y in path)]
            folded = len(self.autos)
            if new:
                fixing += new
                orbit = _component_roots(
                    cell, ((y, a[y]) for a in fixing for y in cell))
            if orbit and orbit[x] in {orbit[y] for y in explored}:
                continue
            branched = (
                partition[:target]
                + [[x], [y for y in cell if y != x]]
                + partition[target + 1:]
            )
            back = self._search(branched, path + [x])
            if back < depth:
                return back
            explored.append(x)
        return depth

    def run(self):
        cells = {}
        for x in range(self.n):
            cells.setdefault(self.color[x], []).append(x)
        partition = [sorted(cells[c]) for c in sorted(cells)]
        self._search(partition, [])
        return self.best[:2]


def _tables(wg: WeightedGraph, marked: frozenset[int]):
    """The canonizer's colours and adjacency for a graph, its vertices
    numbered in sorted order."""
    g = wg.graph
    index = {v: i for i, v in enumerate(g.vertices)}
    loops = [0] * len(index)
    adj: list[dict[int, int]] = [{} for _ in index]
    for e in g.edges:
        a, b = g.edge_ends(e)
        a, b = index[a], index[b]
        if a == b:
            loops[a] += 1
        else:
            adj[a][b] = adj[a].get(b, 0) + 1
            adj[b][a] = adj[b].get(a, 0) + 1
    colors = [
        (wg.weight[v], g.valency(v), loops[i],
         tuple(sorted(g.leg_labels[h] for h in g.legs_at(v))), v in marked)
        for v, i in index.items()
    ]
    return colors, adj


def canonical_labeling(
    obj, *, marked: Iterable[int] = ()
) -> tuple[tuple, tuple[int, ...]]:
    """Canonical encoding plus the vertex order realizing it.

    Equal encodings <=> isomorphic (weights, marks and leg labels respected).
    """
    wg = _as_weighted(obj)
    enc, order = _Canonizer(*_tables(wg, frozenset(marked))).run()
    verts = wg.graph.vertices
    return enc, tuple(verts[x] for x in order)


def canonical_form(obj, *, marked: Iterable[int] = ()) -> tuple:
    return canonical_labeling(obj, marked=marked)[0]


def from_canonical_form(form: tuple) -> WeightedGraph:
    """The graph a labeled canonical form encodes, in canonical order.

    Vertices are 0..n-1 in canonical order, with weights from their colour;
    edges are listed row by row (a vertex's loops, then its edges to later
    vertices), and legs by label.  Equal forms give identical graphs.
    """
    colors, rows = form
    edges = []
    for i, row in enumerate(rows):
        edges += [(i, i)] * row[0]
        for j, m in enumerate(row[1:], i + 1):
            edges += [(i, j)] * m
    legs = sorted((label, i) for i, c in enumerate(colors) for label in c[3])
    return build_graph(edges, legs=[(i, label) for label, i in legs],
                       weights={i: c[0] for i, c in enumerate(colors)},
                       isolated=range(len(rows)))


def form_hash(form: tuple) -> str:
    """Short stable hex id of a canonical form."""
    import hashlib

    return hashlib.sha256(repr(form).encode()).hexdigest()[:12]


def _match_edges(ga: Graph, gb: Graph, alpha_v: dict[int, int]) -> dict[int, int]:
    """Edge bijection induced by a vertex bijection, pairing parallel edges
    in key order."""
    by_pair_b: dict[tuple[int, int], list[int]] = {}
    for e in gb.edges:
        by_pair_b.setdefault(gb.edge_ends(e), []).append(e)
    for es in by_pair_b.values():
        es.sort()
    used: dict[tuple[int, int], int] = {}
    alpha_e = {}
    for e in sorted(ga.edges):
        a, b = ga.edge_ends(e)
        ta, tb = alpha_v[a], alpha_v[b]
        pair = (ta, tb) if ta <= tb else (tb, ta)
        i = used.get(pair, 0)
        try:
            alpha_e[e] = by_pair_b[pair][i]
        except (KeyError, IndexError):
            raise GraphError("vertex map does not induce an edge bijection")
        used[pair] = i + 1
    return alpha_e


def _match_legs(ga: Graph, gb: Graph, alpha_v: dict[int, int]) -> dict[int, int]:
    """Leg bijection pairing equal labels, given a vertex bijection."""
    alpha_l = {}
    by_label = {gb.leg_labels[h]: h for h in gb.legs}
    for h in ga.legs:
        h2 = by_label.get(ga.leg_labels[h])
        if h2 is None or gb.endpoint[h2] != alpha_v[ga.endpoint[h]]:
            raise GraphError("vertex map does not respect leg labels")
        alpha_l[h] = h2
    return alpha_l


def isomorphism_witness(a, b, *, marked=((), ())):
    """A triple (alpha_V, alpha_E, alpha_L) taking a to b, or None.

    marked = (vertices of a, vertices of b): the witness must map the first
    mark set onto the second."""
    wa, wb = _as_weighted(a), _as_weighted(b)
    enc_a, order_a = canonical_labeling(wa, marked=marked[0])
    enc_b, order_b = canonical_labeling(wb, marked=marked[1])
    if enc_a != enc_b:
        return None
    alpha_v = dict(zip(order_a, order_b))
    alpha_e = _match_edges(wa.graph, wb.graph, alpha_v)
    alpha_l = _match_legs(wa.graph, wb.graph, alpha_v)
    return alpha_v, alpha_e, alpha_l


def _profile(wg: WeightedGraph) -> tuple:
    """A label-invariant summary: the sorted vertex colours of `_tables`,
    then the sorted per-vertex BFS layers of colour ranks.  Isomorphic
    graphs have equal profiles."""
    color, adj = _tables(wg, frozenset())
    rank = {c: i for i, c in enumerate(sorted(set(color)))}
    profiles = []
    for v in range(len(color)):
        seen, layer, layers = {v}, [v], []
        while layer:
            layers.append(tuple(sorted(rank[color[u]] for u in layer)))
            nxt = []
            for u in layer:
                for w in adj[u]:
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
            layer = nxt
        profiles.append(tuple(layers))
    return sorted(color), sorted(profiles)


def are_isomorphic(a, b) -> bool:
    """Isomorphism test respecting weights and leg labels.  Graphs whose
    profiles differ are answered without a canonical search."""
    if a is b:
        return True
    wa, wb = _as_weighted(a), _as_weighted(b)
    if _profile(wa) != _profile(wb):
        return False
    return isomorphism_witness(wa, wb) is not None
