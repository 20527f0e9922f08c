import pytest

from tropilink.atlas import (enumerate_p_regular, enumerate_stable,
                             is_connected_adjacency, move_graph, regular_counts)
from tropilink.canonical import canonical_form
from tropilink.graphs import GraphError, dumbbell_graph, genus, theta_graph

from closure_oracle import weighted_contract
from conftest import is_stable, loops_at


def test_counts_formulas():
    assert regular_counts(3, 2) == (2, 3)
    assert regular_counts(3, 4) == (6, 9)
    assert regular_counts(4, 3) == (2, 4)
    assert regular_counts(4, 4) == (3, 6)
    with pytest.raises(GraphError):
        regular_counts(5, 3)  # 2b-2 = 4 is not a multiple of p-2 = 3


def test_enumerate_3_2():
    cl = enumerate_p_regular(3, 2)
    assert len(cl) == 2
    keys = {canonical_form(g) for g in cl}
    assert keys == {canonical_form(theta_graph()), canonical_form(dumbbell_graph())}
    assert len(enumerate_p_regular(3, 2, "3ec")) == 1


def test_enumerate_4_3_hand_audit():
    cl = enumerate_p_regular(4, 3)
    assert len(cl) == 2
    shapes = sorted(
        tuple(sorted(loops_at(g, v) for v in g.vertices)) for g in cl
    )
    assert shapes == [(0, 0), (1, 1)]  # the 4-banana and the looped pair
    assert len(enumerate_p_regular(4, 3, "3ec")) == 1


def test_frozen_class_counts():
    # regression constants derived from this enumerator
    assert len(enumerate_p_regular(3, 3)) == 5
    assert len(enumerate_p_regular(3, 4)) == 17
    assert len(enumerate_p_regular(3, 3, "3ec")) == 1
    assert len(enumerate_p_regular(3, 4, "3ec")) == 2
    assert len(enumerate_p_regular(3, 1, legs=1)) == 1
    assert len(enumerate_p_regular(3, 1, legs=2)) == 2
    assert len(enumerate_p_regular(3, 2, legs=1)) == 3
    assert len(enumerate_p_regular(3, 2, legs=2)) == 10


def test_cubic_genus_5_count():
    # connected cubic multigraphs with loops, 8 vertices: OEIS A005967
    assert len(enumerate_p_regular(3, 5)) == 71


def test_remark_count_invariants():
    for p, b in [(3, 2), (3, 3), (3, 4), (4, 3)]:
        nv, ne = regular_counts(p, b)
        for g in enumerate_p_regular(p, b):
            assert g.is_regular() == p
            assert len(g.vertices) == nv == (2 * b - 2) // (p - 2)
            assert len(g.edges) == ne == p * (b - 1) // (p - 2)
            assert 2 * len(g.edges) == p * len(g.vertices)


def test_enumerate_infeasible_is_empty_with_diagnostic():
    with pytest.raises(GraphError) as err:
        regular_counts(5, 3)
    assert "not a positive multiple" in str(err.value)


def test_negative_betti_number_has_no_classes():
    # 2b-2+n = 1 passes the count formula, but no graph has b1 < 0
    assert enumerate_p_regular(3, -1, legs=5) == []
    assert enumerate_stable(-1, 5) == []


def test_enumerate_stable_small():
    assert len(enumerate_stable(0, 3)) == 1
    one_one = enumerate_stable(1, 1)
    assert len(one_one) == 2
    profiles = sorted(
        (len(wg.graph.edges), wg.total_weight) for wg in one_one
    )
    assert profiles == [(0, 1), (1, 0)]


def test_enumerate_stable_2_0_profile():
    cl = enumerate_stable(2, 0)
    assert len(cl) == 7
    prof = {}
    for wg in cl:
        d = len(wg.graph.edges)
        prof[d] = prof.get(d, 0) + 1
    assert prof == {3: 2, 2: 2, 1: 2, 0: 1}


def test_enumerate_stable_rejects_unstable_range():
    with pytest.raises(GraphError):
        enumerate_stable(0, 2)


def test_stable_all_stable_and_right_genus():
    for g, n in [(1, 1), (1, 2), (2, 0), (2, 1)]:
        for wg in enumerate_stable(g, n):
            assert is_stable(wg)
            assert genus(wg) == g
            assert len(wg.graph.legs) == n


def test_stable_closed_under_contraction():
    for g, n in [(2, 0), (1, 2), (2, 1)]:
        keys = {canonical_form(wg) for wg in enumerate_stable(g, n)}
        for wg in enumerate_stable(g, n):
            for e in wg.graph.edges:
                smaller = weighted_contract(wg, {e})
                assert is_stable(smaller)
                assert canonical_form(smaller) in keys


def test_one_edge_contractions_of_stable_2_0_stay_stable():
    for wg in enumerate_stable(2, 0):
        for e in wg.graph.edges:
            out = weighted_contract(wg, {e})
            assert is_stable(out)
            assert genus(out) == 2


def test_move_graph_3_2():
    cl, adj = move_graph(3, 2)
    assert len(cl) == 2
    assert adj == {0: {1}, 1: {0}}


def test_move_graphs_connected():
    for p, b in [(3, 2), (3, 3), (3, 4), (4, 3)]:
        _, adj = move_graph(p, b)
        assert is_connected_adjacency(adj)
        _, adj3 = move_graph(p, b, "3ec")
        assert is_connected_adjacency(adj3)


def test_legged_move_graphs_connected():
    for g, n in [(1, 1), (1, 2), (2, 1), (2, 2)]:
        _, adj = move_graph(3, g, legs=n)
        assert is_connected_adjacency(adj)
