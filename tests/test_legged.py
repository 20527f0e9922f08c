import itertools

import pytest

from tropilink.atlas import (enumerate_p_regular, is_connected_adjacency,
                             move_graph)
from tropilink.canonical import are_isomorphic
from tropilink.certificates import verify_certificate
from tropilink.connectivity import edge_connectivity_capped
from tropilink.graphs import GraphError, build_graph
from tropilink.linkage import _add_leg, _claim_move, _remove_leg, link


def legged_classes(g, n):
    return enumerate_p_regular(3, g, legs=n)


def test_one_one_single_class():
    cl = legged_classes(1, 1)
    assert len(cl) == 1
    cert = link(cl[0], cl[0])
    assert cert.steps == []
    assert verify_certificate(cert, endpoints=(cl[0], cl[0])).valid


def test_add_remove_round_trip():
    g = legged_classes(2, 1)[0]
    big, v = _add_leg(g, ("edge", g.edges[0]), 2)
    assert big.is_regular() == 3
    back, pos = _remove_leg(big, 2)
    assert are_isomorphic(back, g)
    # subdividing a leg works too
    big2, v2 = _add_leg(g, ("leg", g.legs[0]), 2)
    assert big2.is_regular() == 3
    assert len(big2.legs_at(v2)) == 2
    back2, pos2 = _remove_leg(big2, 2)
    assert are_isomorphic(back2, g)
    assert pos2[0] == "leg"


def test_two_insertions_over_same_base_linked():
    # two leg additions on the same base are joined by a claim walk
    base = legged_classes(2, 1)[1]
    positions = [("edge", e) for e in base.edges] + [("leg", base.legs[0])]
    for qa, qb in itertools.combinations(positions, 2):
        steps = _claim_move(base, qa, qb, 2)
        A, _ = _add_leg(base, qa, 2)
        B, _ = _add_leg(base, qb, 2)
        if not steps:
            assert A == B
            continue
        assert steps[0].left == A
        assert steps[-1].right == B
        from tropilink.certificates import LinkageCertificate

        cert = LinkageCertificate([A] + [s.right for s in steps], steps,
                                  "plain", 3)
        assert verify_certificate(cert).valid


def test_adjacent_insertions_single_strong_link():
    # both new vertices at distance 1 from the reference vertex: one step
    base = build_graph([(0, 0), (0, 1)], legs=[(1, 1)])
    loop, stem = base.edges
    steps = _claim_move(base, ("edge", loop), ("edge", stem), 2)
    assert len(steps) == 1


def _bfs_linked_oracle(g, n):
    """Move-graph reachability: every pair of classes in one component."""
    _, adj = move_graph(3, g, legs=n)
    return is_connected_adjacency(adj)


@pytest.mark.parametrize("g,n", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_legged_pairwise_linked(g, n):
    cl = legged_classes(g, n)
    assert _bfs_linked_oracle(g, n)
    for a, b in itertools.combinations(cl, 2):
        cert = link(a, b)
        rep = verify_certificate(cert, endpoints=(a, b))
        assert rep.valid, (g, n, rep.first_violation)


def test_legged_rejects_mismatches():
    a = legged_classes(1, 1)[0]
    b = legged_classes(2, 1)[0]
    with pytest.raises(GraphError):
        link(a, b)
    c = build_graph([(0, 1), (0, 1), (0, 1)], legs=[(0, 1), (1, 2)])
    d = build_graph([(0, 1), (0, 1), (0, 1)], legs=[(0, 7), (1, 8)])
    with pytest.raises(GraphError):
        link(c, d)  # different label sets


def test_legged_links_3_regular_in_plain_mode_only():
    # the one-vertex class at (1, 1) is 3-edge-connected, so only the mode
    # rule refuses it in 3ec mode; the (1, 2) classes are not
    one = legged_classes(1, 1)[0]
    assert edge_connectivity_capped(one) == 3
    a, b = legged_classes(1, 2)[:2]
    for g, h in ((one, one), (a, b), (a, a)):
        with pytest.raises(GraphError):
            link(g, h, "3ec")
    four_regular = build_graph([(0, 1), (0, 1), (0, 1)], legs=[(0, 1), (1, 2)])
    with pytest.raises(GraphError):
        link(four_regular, four_regular)


def test_legged_certificates_respect_labels():
    cl = legged_classes(2, 2)
    a, b = cl[0], cl[3]
    cert = link(a, b)
    for g in cert.graphs:
        assert sorted(g.leg_labels.values()) == [1, 2]
    assert verify_certificate(cert, endpoints=(a, b)).valid
