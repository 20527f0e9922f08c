import itertools

import pytest

from tropilink.connectivity import (Cycle, CycleSearchBudgetExceeded, all_cycles,
                                    edge_connectivity_capped, is_p_regular,
                                    longest_cycle)
from tropilink.graphs import (GraphError, build_graph, cycle_graph,
                              dumbbell_graph, k4_graph, petersen_graph,
                              theta_graph)
from tropilink.normal_form import build_polygon

from conftest import is_hamiltonian


def two_cycle_criterion(g, budget=None) -> bool:
    """Oracle: every edge lies in two cycles meeting only in that edge.

    Sufficient for 3-edge-connectivity.  A loop lies in a single cycle, so
    any loop makes the criterion fail.
    """
    by_edge = {e: [] for e in g.edges}
    for c in all_cycles(g, budget):
        for e in c.edge_keys:
            by_edge[e].append(c.edge_set)
    return all(any(s1 & s2 == {e} for s1, s2 in itertools.combinations(sets, 2))
               for e, sets in by_edge.items())


def test_regularity():
    assert is_p_regular(k4_graph(), 3)
    assert is_p_regular(cycle_graph(1), 2)          # loop counts twice
    assert is_p_regular(dumbbell_graph(), 3)        # loop 2 + bridge 1
    assert not is_p_regular(build_graph([(0, 1)]), 3)
    legged = build_graph([(0, 1), (0, 1)], legs=[(0, 1), (1, 2)])
    assert is_p_regular(legged, 3)                  # legs count toward valency
    with pytest.raises(GraphError):
        is_p_regular(k4_graph(), 0)


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
    from tropilink.atlas import enumerate_p_regular

    for b in (2, 3, 4):
        for g in enumerate_p_regular(3, b):
            if two_cycle_criterion(g):
                assert edge_connectivity_capped(g) == 3


def test_contraction_preserves_3ec_exhaustively():
    from tropilink.atlas import enumerate_p_regular
    from tropilink.graphs import contract

    for b in (2, 3):
        for g in enumerate_p_regular(3, b, "3ec"):
            for r in range(1, len(g.edges) + 1):
                for S in itertools.combinations(g.edges, r):
                    target, _ = contract(g, set(S))
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
    assert c1.canonical_vertices()[0] == min(k.vertices)


def test_cycle_validation():
    k = k4_graph()
    with pytest.raises(GraphError):
        Cycle(k, (0, 1, 2), (0, 1))  # length mismatch
    with pytest.raises(GraphError):
        Cycle(k, (0, 1, 1), (0, 3, 1))  # repeated vertex


def test_budget_errors_out():
    with pytest.raises(CycleSearchBudgetExceeded):
        all_cycles(petersen_graph(), budget=10)
