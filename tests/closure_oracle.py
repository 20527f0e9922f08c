"""The graph-level closure moves: the oracles for the moves of
`tropilink.atlas`, which work on canonical keys.

- **Strata.**  Every stratum is a weighted graph, one edge per pair of end
  vertices is contracted with `weighted_contract`, and each result is
  canonicalized through `canonical_form`.  This is how the library closed
  strata before it contracted multiplicity matrices.
- **Strong links.**  `strong_links` rebuilds the graph of a key, contracts
  one non-loop edge per pair of end vertices with `graphs.contract`, splits
  the merged vertex over half-edge subsets with
  `hamiltonize.vertex_splits`, and canonicalizes every split.  This is how
  the library enumerated p-regular classes before it split merged rows by
  multiplicities.
"""

from typing import Iterable

from tropilink.canonical import canonical_form, from_canonical_form
from tropilink.graphs import WeightedGraph, contract

from conftest import contraction_roots
from tropilink.hamiltonize import vertex_splits


def strong_links(key: tuple):
    """The key of every class one strong link away: contract a non-loop
    edge, one per pair of end vertices, then split the merged vertex with
    its first half-edge on the old side."""
    g = from_canonical_form(key).graph
    by_ends: dict[tuple[int, int], int] = {}
    for e in g.edges:
        ends = g.edge_ends(e)
        if ends[0] != ends[1]:
            by_ends.setdefault(ends, e)
    for e in by_ends.values():
        mid = contract(g, {e})
        w = g.edge_ends(e)[0]
        for split, _ in vertex_splits(mid, w, mid.half_edges_at(w)[:1], ()):
            yield canonical_form(split)


def weighted_contract(wg: WeightedGraph, S: Iterable[int]) -> WeightedGraph:
    """Contract S and fold the collapsed Betti number into the weights."""
    S = frozenset(S)
    g = wg.graph
    target = contract(g, S)
    roots = contraction_roots(g, S)

    comp_vertices: dict[int, list[int]] = {v: [] for v in target.vertices}
    for v in g.vertices:
        comp_vertices[roots[v]].append(v)
    comp_edges: dict[int, int] = {v: 0 for v in target.vertices}
    for key in S:
        comp_edges[roots[g.edge_ends(key)[0]]] += 1

    w = {}
    for vbar in target.vertices:
        b1_comp = comp_edges[vbar] - len(comp_vertices[vbar]) + 1
        w[vbar] = b1_comp + sum(wg.weight[v] for v in comp_vertices[vbar])
    return WeightedGraph(target, w)


def _contractions(wg: WeightedGraph):
    """Every weighted contraction of one edge, one per pair of end
    vertices: contracting two edges with the same ends gives isomorphic
    graphs."""
    g = wg.graph
    by_ends: dict[tuple[int, int], int] = {}
    for e in g.edges:
        by_ends.setdefault(g.edge_ends(e), e)
    for e in by_ends.values():
        yield weighted_contract(wg, {e})


def contraction_closure(keys) -> dict[tuple, set[tuple]]:
    """Every stratum below the ones with the given keys, by key, mapped to
    the keys of its one-edge weighted contractions."""
    targets: dict[tuple, set[tuple] | None] = dict.fromkeys(keys)
    todo = [(key, from_canonical_form(key)) for key in targets]
    while todo:
        key, wg = todo.pop()
        out = targets[key] = set()
        for h in _contractions(wg):
            hkey = canonical_form(h)
            out.add(hkey)
            if hkey not in targets:
                targets[hkey] = None
                todo.append((hkey, h))
    return targets
