"""Matrix enumeration: the independent oracle for the closure enumerators.

Generation works on multiplicity matrices (loop counts on the diagonal)
filled row by row under degree budgets, followed by a connectivity filter
and canonical-form deduplication.  Completeness is by construction: every
labeled multigraph with the prescribed degrees appears, and the canonical
form identifies isomorphic ones.  Class lists are sorted by canonical
encoding; each class is represented by the first labeled graph found, in
matrix order, so the representatives are the ones the library emitted
before it enumerated by closure (tests/test_golden.py links them).

The move graph is recomputed pairwise: every marked one-edge contraction
of every class, intersected over all pairs of classes.  The library reads
it off the records of its enumeration closure instead.

It shares no generation code with `tropilink.atlas`: it takes the vertex
count from `regular_counts` and compares through the library's canonical
form, edge connectivity and (weighted) contraction.
"""

from functools import lru_cache

from tropilink.canonical import canonical_form
from tropilink.connectivity import edge_connectivity_capped
from tropilink.graphs import (GraphError, _component_roots, build_graph,
                              contract)
from tropilink.atlas import regular_counts

from closure_oracle import weighted_contract


def _matrices(degrees):
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


def _degree_sequences(nv, total, min_each):
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

    yield from rec(0, budget, [])


def enumerate_p_regular(p, b, filter="all", legs=0):
    """All connected p-regular multigraphs of first Betti number b, one per
    isomorphism class (leg labels respected), sorted by canonical key."""
    if filter not in ("all", "3ec"):
        raise GraphError(f"unknown filter {filter!r}")
    out = list(_p_regular_classes(p, b, legs))
    if filter == "3ec":
        out = [g for g in out if edge_connectivity_capped(g) == 3]
    return out


@lru_cache(maxsize=None)
def _p_regular_classes(p, b, legs):
    """Memoized per process: graphs are immutable, so callers may share them."""
    nv, _ = regular_counts(p, b, legs)
    found = {}
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
            key = canonical_form(g)
            if key not in found:
                found[key] = g
    return tuple(found[k] for k in sorted(found))


def enumerate_stable(g, n):
    """All stable weighted graphs of genus g with n labeled legs, one per
    isomorphism class, sorted by canonical key."""
    if n < 0:
        raise GraphError("the number of legs must be >= 0")
    if 2 * g - 2 + n <= 0:
        raise GraphError("stable graphs need 2g-2+n > 0")

    found = {}
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
                            key = canonical_form(wg)
                            if key not in found:
                                found[key] = wg
    return [found[k] for k in sorted(found)]


def one_edge_covers(strata):
    """Covers of a stratum list, recomputed edge by edge: (i, j) whenever
    contracting one edge of stratum i gives stratum j."""
    index = {canonical_form(wg): i for i, wg in enumerate(strata)}
    covers = set()
    for i, wg in enumerate(strata):
        for e in wg.graph.edges:
            smaller = weighted_contract(wg, {e})
            j = index.get(canonical_form(smaller))
            if j is not None and j != i:
                covers.add((i, j))
    return sorted(covers)


def _marked_contraction_keys(g, three_ec_middles):
    """Canonical forms of all one-non-loop-edge contractions, with the
    contraction vertex marked."""
    keys = set()
    for e in g.edges:
        if g.is_loop(e):
            continue
        mid = contract(g, {e})
        if three_ec_middles and edge_connectivity_capped(mid) != 3:
            continue
        keys.add(canonical_form(mid, marked={g.edge_ends(e)[0]}))
    return keys


def move_graph(classes, three_ec_middles=False):
    """Strong-link adjacency over the given classes (self-links ignored):
    two classes are adjacent iff some non-loop contraction of one matches a
    contraction of the other, contracted-vertex image included.  With
    three_ec_middles=True only 3-edge-connected middles count."""
    marks = [_marked_contraction_keys(g, three_ec_middles) for g in classes]
    adj = {i: set() for i in range(len(classes))}
    for i in range(len(classes)):
        for j in range(i + 1, len(classes)):
            if marks[i] & marks[j]:
                adj[i].add(j)
                adj[j].add(i)
    return adj
