"""Canonical forms and isomorphism of weighted multigraphs with legs.

Canonicalization is exact individualization-refinement: vertices are first
partitioned by (weight, valency, loop count, leg data, marks), the partition
is refined by neighbour-class multiplicity profiles, and remaining ties are
broken by branching over the first smallest non-singleton cell.  The
canonical encoding is the minimum over all leaves of the search tree, so two
graphs have equal encodings iff they are isomorphic (respecting weights,
marks, and leg labels).  Sizes here are small enough that the exact search
is cheap.
"""

from __future__ import annotations

from typing import Iterable

from .graphs import Graph, GraphError, WeightedGraph, _as_weighted, build_graph


class _Canonizer:
    def __init__(self, wg: WeightedGraph, marked: frozenset[int]):
        g = wg.graph
        self.g = g
        self.n = len(g.vertices)
        self.verts = list(g.vertices)
        self.index = {v: i for i, v in enumerate(self.verts)}

        loops = {v: 0 for v in g.vertices}
        adj: dict[int, dict[int, int]] = {v: {} for v in g.vertices}
        for e in g.edges:
            a, b = g.edge_ends(e)
            if a == b:
                loops[a] += 1
            else:
                adj[a][b] = adj[a].get(b, 0) + 1
                adj[b][a] = adj[b].get(a, 0) + 1
        self.adj = {
            self.index[v]: {self.index[u]: m for u, m in adj[v].items()}
            for v in g.vertices
        }

        self.color = {
            self.index[v]: (
                wg.weight[v],
                g.valency(v),
                loops[v],
                tuple(sorted(g.leg_labels[h] for h in g.legs_at(v))),
                v in marked,
            )
            for v in g.vertices
        }
        self.loops = {self.index[v]: loops[v] for v in g.vertices}
        self.best: tuple | None = None
        self.best_order: list[int] | None = None

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
            row[0] = self.loops[x]
            rows.append(tuple(row))
        return (colors, tuple(rows))

    def _search(self, partition):
        partition = self._refine(partition)
        target = None
        for ci, cell in enumerate(partition):
            if len(cell) > 1:
                if target is None or len(cell) < len(partition[target]):
                    target = ci
        if target is None:
            order = [c[0] for c in partition]
            enc = self._encode(order)
            if self.best is None or enc < self.best:
                self.best = enc
                self.best_order = order
            return
        for x in partition[target]:
            branched = (
                partition[:target]
                + [[x], [y for y in partition[target] if y != x]]
                + partition[target + 1:]
            )
            self._search(branched)

    def run(self):
        cells = {}
        for x in range(self.n):
            cells.setdefault(self.color[x], []).append(x)
        partition = [sorted(cells[c]) for c in sorted(cells)]
        self._search(partition)
        order = [self.verts[x] for x in self.best_order]
        return self.best, order


def canonical_labeling(
    obj, *, marked: Iterable[int] = ()
) -> tuple[tuple, tuple[int, ...]]:
    """Canonical encoding plus the vertex order realizing it.

    Equal encodings <=> isomorphic (weights, marks and leg labels respected).
    """
    wg = _as_weighted(obj)
    marked = frozenset(marked)
    cache = wg.graph._canon_cache
    key = (marked, tuple(sorted(wg.weight.items())))
    hit = cache.get(key)
    if hit is None:
        enc, order = _Canonizer(wg, marked).run()
        hit = (enc, tuple(order))
        cache[key] = hit
    return hit


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


def are_isomorphic(a, b) -> bool:
    """Isomorphism test respecting weights and leg labels."""
    return isomorphism_witness(a, b) is not None
