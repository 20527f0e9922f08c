"""Exhaustive enumeration oracles for desk-scale graph classes.

Generation works on multiplicity matrices (loop counts on the diagonal)
filled row by row under degree budgets, followed by a connectivity filter
and canonical-form deduplication.  Completeness is by construction: every
labeled multigraph with the prescribed degrees appears, and the canonical
form identifies isomorphic ones.  Class lists are sorted by canonical
encoding, so their order is reproducible.
"""

from __future__ import annotations

from .canonical import canonical_form
from .connectivity import edge_connectivity_capped
from .graphs import (Graph, GraphError, WeightedGraph, _component_roots,
                     build_graph, contract)


def regular_counts(p: int, b: int, legs: int = 0) -> tuple[int, int]:
    """(number of vertices, number of edges) forced on a p-regular graph of
    first Betti number b with the given number of legs."""
    if p < 3:
        raise GraphError("p must be >= 3")
    if legs < 0:
        raise GraphError("the number of legs must be >= 0")
    if b < 2 and legs == 0:
        raise GraphError("enumeration needs b >= 2 when there are no legs")
    num = 2 * b - 2 + legs
    if num <= 0 or num % (p - 2):
        raise GraphError(
            f"no {p}-regular graphs with b1={b} and {legs} legs: "
            f"2b-2+n = {num} is not a positive multiple of p-2"
        )
    nv = num // (p - 2)
    ne = b - 1 + nv
    return nv, ne


def _matrices(degrees: list[int]):
    """All loop/multiplicity fillings realizing the degree sequence.

    Yields (loops, mult) with loops[v] the loop count at v and mult[u][v]
    the number of u-v edges (u < v).
    """
    n = len(degrees)
    loops = [0] * n
    mult = [[0] * n for _ in range(n)]
    remaining = list(degrees)

    def fill(v):
        if v == n:
            yield ([*loops], [row[:] for row in mult])
            return
        # distribute remaining[v] into loops (2 each) and edges to u > v
        def place(u, left):
            if left == 0:
                yield from fill(v + 1)
                return
            if u == n:
                return
            cap = min(left, remaining[u])
            for m in range(cap, -1, -1):
                mult[v][u] = m
                remaining[u] -= m
                yield from place(u + 1, left - m)
                remaining[u] += m
                mult[v][u] = 0

        for nl in range(remaining[v] // 2, -1, -1):
            loops[v] = nl
            yield from place(v + 1, remaining[v] - 2 * nl)
            loops[v] = 0

    yield from fill(0)


def _edges_of(loops, mult):
    edges = []
    n = len(loops)
    for v in range(n):
        edges.extend([(v, v)] * loops[v])
        for u in range(v + 1, n):
            edges.extend([(v, u)] * mult[v][u])
    return edges


def _is_connected(n, edges):
    return not any(_component_roots(range(n), edges).values())  # all roots 0


def _leg_distributions(n_legs, nv):
    """All assignments of labeled legs 1..n to vertices."""
    if n_legs == 0:
        yield {}
        return

    def rec(label, acc):
        if label > n_legs:
            yield dict(acc)
            return
        for v in range(nv):
            acc[label] = v
            yield from rec(label + 1, acc)
            del acc[label]

    yield from rec(1, {})


def enumerate_p_regular(p: int, b: int, filter: str = "all",
                        legs: int = 0) -> list[Graph]:
    """All connected p-regular multigraphs of first Betti number b, one per
    isomorphism class (leg labels respected when legs > 0).

    filter="3ec" keeps the 3-edge-connected classes only.
    """
    if filter not in ("all", "3ec"):
        raise GraphError(f"unknown filter {filter!r}")
    nv, _ = regular_counts(p, b, legs)

    found: dict[tuple, Graph] = {}
    for leg_at in _leg_distributions(legs, nv):
        degree = [p] * nv
        for v in leg_at.values():
            degree[v] -= 1
        if any(d < 0 for d in degree):
            continue
        for loops, mult in _matrices(degree):
            edges = _edges_of(loops, mult)
            if not _is_connected(nv, edges):
                continue
            g = build_graph(edges, legs=[(v, lab) for lab, v in sorted(leg_at.items())])
            key = canonical_form(g, "labeled")
            if key not in found:
                found[key] = g
    out = [found[k] for k in sorted(found)]
    if filter == "3ec":
        out = [g for g in out if edge_connectivity_capped(g) == 3]
    return out


def _degree_sequences(nv: int, total: int, min_each: int):
    """Compositions of `total` into nv parts, each at least min_each."""

    def rec(v, left, acc):
        if v == nv - 1:
            if left >= min_each:
                acc.append(left)
                yield tuple(acc)
                acc.pop()
            return
        for d in range(min_each, left - min_each * (nv - 1 - v) + 1):
            acc.append(d)
            yield from rec(v + 1, left - d, acc)
            acc.pop()

    yield from rec(0, total, [])


def enumerate_stable(g: int, n: int) -> list[WeightedGraph]:
    """All stable weighted graphs of genus g with n labeled legs, one per
    isomorphism class, each of dimension |E|."""
    if n < 0:
        raise GraphError("the number of legs must be >= 0")
    if 2 * g - 2 + n <= 0:
        raise GraphError("stable graphs need 2g-2+n > 0")

    found: dict[tuple, WeightedGraph] = {}
    max_v = 2 * g - 2 + n
    for nv in range(1, max_v + 1):
        for b0 in range(0, g + 1):
            ne = b0 + nv - 1
            budget = g - b0
            min_deg = 1 if nv > 1 else 0
            for leg_at in _leg_distributions(n, nv):
                legs_on = [0] * nv
                for v in leg_at.values():
                    legs_on[v] += 1
                for degree in _degree_sequences(nv, 2 * ne, min_deg):
                    val = [degree[v] + legs_on[v] for v in range(nv)]
                    need = sum(
                        2 if x == 0 else (1 if x < 3 else 0) for x in val
                    )
                    if need > budget:
                        continue
                    for loops, mult in _matrices(list(degree)):
                        edges = _edges_of(loops, mult)
                        if not _is_connected(nv, edges):
                            continue
                        for w in _weightings(val, budget):
                            wg = build_graph(
                                edges,
                                legs=[(v, lab) for lab, v in sorted(leg_at.items())],
                                weights=dict(enumerate(w)),
                                isolated=range(nv),
                            )
                            key = canonical_form(wg, "labeled")
                            if key not in found:
                                found[key] = wg
    return [found[k] for k in sorted(found)]


def _weightings(valency, budget):
    """Weight vectors summing to budget that make every vertex stable."""
    n = len(valency)

    def rec(v, left, acc):
        if v == n:
            if left == 0:
                yield tuple(acc)
            return
        lo = 0
        if valency[v] < 3:
            lo = 1
        if valency[v] < 1:
            lo = 2
        for w in range(lo, left + 1):
            acc.append(w)
            yield from rec(v + 1, left - w, acc)
            acc.pop()
        return

    yield from rec(0, budget, [])


def _marked_contraction_keys(g: Graph, leg_mode: str, three_ec_middles: bool):
    """Canonical forms of all one-non-loop-edge contractions, with the
    contraction vertex marked."""
    keys = set()
    for e in g.edges:
        if g.is_loop(e):
            continue
        mid, cm = contract(g, {e})
        if three_ec_middles and edge_connectivity_capped(mid) != 3:
            continue
        keys.add(canonical_form(mid, leg_mode, marked={cm.image_vertex(e)}))
    return keys


def move_graph(classes: list[Graph], leg_mode: str = "labeled",
               three_ec_middles: bool = False) -> dict[int, set[int]]:
    """Strong-link adjacency over isomorphism classes (self-links ignored).

    Two classes are adjacent iff some non-loop contraction of one matches a
    contraction of the other, including the contracted-vertex image.  With
    three_ec_middles=True only 3-edge-connected middles count.
    """
    marks = [
        _marked_contraction_keys(g, leg_mode, three_ec_middles) for g in classes
    ]
    adj: dict[int, set[int]] = {i: set() for i in range(len(classes))}
    for i in range(len(classes)):
        for j in range(i + 1, len(classes)):
            if marks[i] & marks[j]:
                adj[i].add(j)
                adj[j].add(i)
    return adj


def is_connected_adjacency(adj: dict[int, set[int]]) -> bool:
    if not adj:
        return True
    seen = set()
    stack = [next(iter(adj))]
    while stack:
        v = stack.pop()
        if v in seen:
            continue
        seen.add(v)
        stack.extend(adj[v] - seen)
    return len(seen) == len(adj)
