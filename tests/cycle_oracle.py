"""Exhaustive cycle enumeration: the oracle for `longest_cycle`.

`all_cycles` lists every cycle of a multigraph once, a loop as a cycle of
length 1 and a parallel pair as one of length 2.  A cycle of length >= 2 is
read from its least vertex in the direction whose first edge key is below
its closing key; `longest_cycle` picks the least key (-length, canonical
vertex sequence, edge keys) over this list, which the library's lex-first
search must reproduce without enumerating.
"""

from __future__ import annotations

import itertools

from tropilink.connectivity import (CYCLE_SEARCH_BUDGET, Cycle,
                                    CycleSearchBudgetExceeded)


def all_cycles(g, budget=None) -> list[Cycle]:
    """Every cycle of g, each exactly once (recursive DFS with
    canonical-start pruning; raises CycleSearchBudgetExceeded)."""
    if budget is None:
        budget = CYCLE_SEARCH_BUDGET
    cycles = []
    steps = 0

    for e in g.edges:
        if g.is_loop(e):
            cycles.append(Cycle(g, (g.edge_ends(e)[0],), (e,)))

    nonloop_at = {v: [] for v in g.vertices}
    for e in sorted(g.edges):
        if not g.is_loop(e):
            a, b = g.edge_ends(e)
            nonloop_at[a].append((e, b))
            nonloop_at[b].append((e, a))

    def extend(start, v, path_v, path_e, on_path):
        nonlocal steps
        for e, u in nonloop_at[v]:
            steps += 1
            if steps > budget:
                raise CycleSearchBudgetExceeded(f"budget {budget} exhausted")
            if e in path_e:
                continue
            if u == start:
                if len(path_e) >= 1 and path_e[0] < e:
                    cycles.append(Cycle(g, tuple(path_v), tuple(path_e) + (e,)))
                continue
            if u < start or u in on_path:
                continue
            path_v.append(u)
            path_e.append(e)
            on_path.add(u)
            extend(start, u, path_v, path_e, on_path)
            path_v.pop()
            path_e.pop()
            on_path.remove(u)

    for s in g.vertices:
        extend(s, s, [s], [], {s})
    return cycles


def canonical_vertices(c: Cycle) -> tuple[int, ...]:
    """Least vertex tuple over all rotations and the two directions."""
    vs = c.vertices
    return min(seq[r:] + seq[:r] for seq in (vs, vs[::-1]) for r in range(len(vs)))


def longest_cycle(g, budget=None) -> Cycle | None:
    """The cycle of least key (-length, canonical vertices, edge keys)."""
    return min(all_cycles(g, budget), default=None,
               key=lambda c: (-c.length, canonical_vertices(c), c.edge_keys))


def two_cycle_criterion(g, budget=None) -> bool:
    """Every edge lies in two cycles meeting only in that edge.

    Sufficient for 3-edge-connectivity.  A loop lies in a single cycle, so
    any loop makes the criterion fail.
    """
    by_edge = {e: [] for e in g.edges}
    for c in all_cycles(g, budget):
        for e in c.edge_keys:
            by_edge[e].append(frozenset(c.edge_keys))
    return all(any(s1 & s2 == {e} for s1, s2 in itertools.combinations(sets, 2))
               for e, sets in by_edge.items())
