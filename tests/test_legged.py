import itertools

import networkx as nx
import pytest

from tropilink.atlas import (enumerate_p_regular, is_connected_adjacency,
                             move_graph)
from tropilink.canonical import are_isomorphic
from tropilink.certificates import LinkageCertificate, verify_certificate
from tropilink.connectivity import edge_connectivity_capped
from tropilink.graphs import GraphError, build_graph
from tropilink.linkage import (_add_leg, _claim_move, _fresh_position,
                               _remove_leg, link)


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


def _position_graph(base):
    """networkx graph on the insertion positions of base (edges, a loop
    once, legs), two of them adjacent when they share a vertex."""
    at = {}
    for e in base.edges:
        for v in set(base.edge_ends(e)):
            at.setdefault(v, []).append(("edge", e))
    for h in base.legs:
        at.setdefault(base.endpoint[h], []).append(("leg", h))
    pg = nx.Graph()
    for ps in at.values():
        pg.add_nodes_from(ps)
        pg.add_edges_from(itertools.combinations(ps, 2))
    return pg


@pytest.mark.parametrize("g,n", [(1, 2), (2, 1), (2, 2)])
def test_two_insertions_over_same_base_linked(g, n):
    # a leg moves between two insertions over the same base in as many
    # slides as the positions are apart
    label = n + 1
    for base in legged_classes(g, n):
        pg = _position_graph(base)
        for qa, qb in itertools.combinations(sorted(pg), 2):
            steps = _claim_move(base, qa, qb, label)
            A, _ = _add_leg(base, qa, label)
            B, _ = _add_leg(base, qb, label)
            assert len(steps) == nx.shortest_path_length(pg, qa, qb)
            assert steps[0].left == A
            assert steps[-1].right == B
            cert = LinkageCertificate([A] + [s.right for s in steps], steps,
                                      "plain", 3)
            assert verify_certificate(cert, endpoints=(A, B)).valid


@pytest.mark.parametrize("g,n", [(2, 0), (2, 1), (3, 0), (3, 1)])
def test_fresh_position_is_one_slide_away(g, n):
    # the leg steps off an edge a base step contracts in one slide
    for base in enumerate_p_regular(3, g, legs=n):
        for e in base.edges:
            q = _fresh_position(base, e)
            assert q != ("edge", e)
            assert len(_claim_move(base, ("edge", e), q, n + 1)) == 1


def test_adjacent_insertions_single_strong_link():
    # a loop and its stem share a vertex: one slide
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
