import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from tropilink.atlas import enumerate_p_regular
from tropilink.connectivity import (Cycle, CycleSearchBudgetExceeded,
                                    edge_connectivity_capped, longest_cycle)
from tropilink.graphs import (GraphError, build_graph, contract, cycle_graph,
                              dumbbell_graph, k4_graph, petersen_graph,
                              theta_graph)
from tropilink.normal_form import build_polygon

from conftest import is_hamiltonian, random_connected_multigraph
from cycle_oracle import (all_cycles, canonical_vertices, two_cycle_criterion,
                          longest_cycle as oracle_longest_cycle)


def test_regularity():
    assert k4_graph().is_regular() == 3
    assert cycle_graph(1).is_regular() == 2         # loop counts twice
    assert dumbbell_graph().is_regular() == 3       # loop 2 + bridge 1
    assert build_graph([(0, 1)]).is_regular() != 3
    legged = build_graph([(0, 1), (0, 1)], legs=[(0, 1), (1, 2)])
    assert legged.is_regular() == 3                 # legs count toward valency


def test_edge_connectivity_small_cases():
    assert edge_connectivity_capped(dumbbell_graph()) == 1
    for n in (3, 5, 8):
        assert edge_connectivity_capped(cycle_graph(n)) == 2
    assert edge_connectivity_capped(theta_graph()) == 3
    assert edge_connectivity_capped(k4_graph()) == 3
    assert edge_connectivity_capped(petersen_graph()) == 3


def test_edge_connectivity_vacuous_one_vertex():
    loops = build_graph([(0, 0), (0, 0)])
    assert edge_connectivity_capped(loops) == 3
    lonely = build_graph([], isolated=[0], legs=[(0, 1)])
    assert edge_connectivity_capped(lonely) == 3


def test_edge_connectivity_ignores_legs():
    g = build_graph([(0, 1)], legs=[(0, 1), (0, 2), (1, 3), (1, 4)])
    assert edge_connectivity_capped(g) == 1


def test_two_cycle_criterion_cases():
    assert two_cycle_criterion(theta_graph())
    assert not two_cycle_criterion(dumbbell_graph())
    assert two_cycle_criterion(build_polygon(3, 6))
    assert edge_connectivity_capped(build_polygon(3, 6)) == 3


def test_two_cycle_criterion_implies_3ec_exhaustively():
    for b in (2, 3, 4):
        for g in enumerate_p_regular(3, b):
            if two_cycle_criterion(g):
                assert edge_connectivity_capped(g) == 3


def test_contraction_preserves_3ec_exhaustively():
    for b in (2, 3):
        for g in enumerate_p_regular(3, b, "3ec"):
            for r in range(1, len(g.edges) + 1):
                for S in itertools.combinations(g.edges, r):
                    target = contract(g, set(S))
                    assert edge_connectivity_capped(target) == 3


def test_cycles_include_loops_and_parallel_pairs():
    d = dumbbell_graph()
    cycles = all_cycles(d)
    assert sorted(c.length for c in cycles) == [1, 1]
    t = theta_graph()
    assert sorted(c.length for c in all_cycles(t)) == [2, 2, 2]


def test_longest_cycle_values():
    for n in (1, 2, 5, 9):
        assert longest_cycle(cycle_graph(n)).length == n
    assert longest_cycle(k4_graph()).length == 4
    assert longest_cycle(petersen_graph()).length == 9
    tree = build_graph([(0, 1), (1, 2)])
    assert longest_cycle(tree) is None


def _petersen_longest_oracle():
    """Independent check: DFS over simple paths, no pruning tricks."""
    g = petersen_graph()
    adj = {v: set() for v in g.vertices}
    for e in g.edges:
        a, b = g.edge_ends(e)
        adj[a].add(b)
        adj[b].add(a)
    best = 0

    def walk(start, v, seen):
        nonlocal best
        for u in adj[v]:
            if u == start and len(seen) >= 3:
                best = max(best, len(seen))
            elif u > start and u not in seen:
                seen.add(u)
                walk(start, u, seen)
                seen.remove(u)

    for s in g.vertices:
        walk(s, s, {s})
    return best


def test_petersen_not_hamiltonian_by_oracle():
    assert _petersen_longest_oracle() == 9
    assert not is_hamiltonian(petersen_graph())


def test_hamiltonian_cases():
    assert is_hamiltonian(k4_graph())
    assert is_hamiltonian(theta_graph())
    assert not is_hamiltonian(dumbbell_graph())
    assert not is_hamiltonian(cycle_graph(1))  # one vertex: never hamiltonian


def test_longest_cycle_deterministic_tiebreak():
    k = k4_graph()
    c1 = longest_cycle(k)
    c2 = longest_cycle(k4_graph())
    assert c1.vertices == c2.vertices and c1.edge_keys == c2.edge_keys
    assert canonical_vertices(c1)[0] == min(k.vertices)


def test_cycle_validation():
    k = k4_graph()
    with pytest.raises(GraphError):
        Cycle(k, (0, 1, 2), (0, 1))  # length mismatch
    with pytest.raises(GraphError):
        Cycle(k, (0, 1, 1), (0, 3, 1))  # repeated vertex


def test_budget_errors_out():
    with pytest.raises(CycleSearchBudgetExceeded, match="budget 10 exhausted"):
        longest_cycle(petersen_graph(), budget=10)


# -- the lex-first search against the exhaustive oracle ------------------------


def _same(found, want):
    if want is None:
        return found is None
    return (found is not None and found.vertices == want.vertices
            and found.edge_keys == want.edge_keys)


def test_longest_cycle_matches_oracle_exhaustively():
    # every class and every one-edge contraction of it, which brings in
    # loops, parallel pairs and graphs without a hamiltonian cycle
    kinds = set()
    for p, b in ((3, 2), (3, 3), (3, 4), (3, 5), (4, 3), (4, 4), (5, 4)):
        for g in enumerate_p_regular(p, b):
            for h in [g] + [contract(g, {e}) for e in g.edges
                            if not g.is_loop(e)]:
                want = oracle_longest_cycle(h)
                assert _same(longest_cycle(h), want), (p, b, h)
                kinds.add(want.length == len(h.vertices))      # hamiltonian
                kinds.add(f"length {min(want.length, 3)}")
    assert kinds == {True, False, "length 1", "length 2", "length 3"}


@settings(max_examples=400, derandomize=True, deadline=None)
@given(st.integers(0, 2**32), st.integers(0, 10), st.integers(0, 2))
def test_longest_cycle_matches_oracle_by_hypothesis(seed, extra, legs):
    g = random_connected_multigraph(random.Random(seed), max_vertices=10,
                                    max_extra=extra, legs=legs)
    assert _same(longest_cycle(g), oracle_longest_cycle(g))


def test_longest_cycle_long_ring_without_recursion():
    # the recursive enumeration it replaces overflowed the stack here
    c = longest_cycle(cycle_graph(1200))
    assert c.length == 1200
    assert c.vertices == tuple(range(1200))


def test_longest_cycle_stays_inside_blocks():
    # Petersen bridged to the 30-polygon: a search from Petersen's vertices
    # that crossed the bridge would walk the polygon's long paths in vain
    p, q = petersen_graph(), build_polygon(3, 30)
    edges = [p.edge_ends(e) for e in p.edges] + [(0, 10)]
    edges += [(a + 10, b + 10) for a, b in map(q.edge_ends, q.edges)]
    c = longest_cycle(build_graph(edges), budget=10_000)
    assert c.length == 30 and min(c.vertices) == 10
