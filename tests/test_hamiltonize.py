import pytest

from tropilink.atlas import enumerate_p_regular
from tropilink.canonical import are_isomorphic
from tropilink.certificates import StrongLinkStep
from tropilink.connectivity import edge_connectivity_capped, longest_cycle
from tropilink.graphs import GraphError, build_graph, contract, petersen_graph
from tropilink.hamiltonize import (hamiltonize, lengthen_cycle_step,
                                   remove_loop_step,
                                   valency_reducing_extension)
from tropilink.normal_form import build_polygon

from conftest import is_hamiltonian


def test_extension_round_trip_is_exact():
    # contract a K4 edge, then split it back
    from tropilink.graphs import k4_graph

    k = k4_graph()
    e = k.edges[0]
    gp = contract(k, {e})
    w = k.edge_ends(e)[0]
    halves = gp.half_edges_at(w)
    g2, new_edge = valency_reducing_extension(gp, w, [halves[0]], [halves[1]])
    back = contract(g2, {new_edge})
    assert back == gp
    assert are_isomorphic(g2, k) or g2.is_regular() == 3


def test_extension_respects_required_sides():
    gp = build_graph([(0, 0), (0, 0), (0, 1), (0, 1), (1, 1)])
    # vertex 0 has valency 6 = 2p-2 for p = 4
    halves = gp.half_edges_at(0)
    left, right = [halves[0]], [halves[1]]
    g2, new_edge = valency_reducing_extension(gp, 0, left, right)
    u1, u2 = g2.edge_ends(new_edge)
    assert g2.endpoint[halves[0]] != g2.endpoint[halves[1]]
    assert {g2.endpoint[halves[0]], g2.endpoint[halves[1]]} == {u1, u2}
    assert g2.valency(u1) == g2.valency(u2) == 4


def test_extension_requires_even_excess():
    gp = build_graph([(0, 1), (0, 1), (0, 1)])
    with pytest.raises(GraphError):
        valency_reducing_extension(gp, 0, [], [])


def test_extension_3ec_search():
    for b in (3, 4):
        for g in enumerate_p_regular(3, b, "3ec"):
            for e in g.edges:
                if g.is_loop(e):
                    continue
                gp = contract(g, {e})
                w = g.edge_ends(e)[0]
                g2, new_edge = valency_reducing_extension(gp, w, [], [], "3ec")
                assert edge_connectivity_capped(g2) == 3
                back = contract(g2, {new_edge})
                assert back == gp


def test_lengthen_petersen():
    p = petersen_graph()
    delta = longest_cycle(p)
    assert delta.length == 9
    g2, step = lengthen_cycle_step(p, delta)
    assert isinstance(step, StrongLinkStep)
    assert step.left is p
    assert longest_cycle(g2).length == 10
    assert g2.is_regular() == 3


def test_lengthen_rejects_hamiltonian_cycle():
    from tropilink.graphs import k4_graph

    k = k4_graph()
    with pytest.raises(GraphError):
        lengthen_cycle_step(k, longest_cycle(k))


def test_lengthen_increases_longest_cycle_exhaustively():
    for b in (2, 3):
        for g in enumerate_p_regular(3, b):
            if is_hamiltonian(g):
                continue
            delta = longest_cycle(g)
            g2, _ = lengthen_cycle_step(g, delta)
            assert longest_cycle(g2).length > delta.length


def test_remove_loop_double_banana_case():
    # p = 4, gamma = 2: double edge plus a loop at each vertex descends to
    # the 4-banana; the trade may clear one or both loops per step
    g = build_graph([(0, 1), (0, 1), (0, 0), (1, 1)])
    loops_before = 2
    while True:
        loops = [e for e in g.edges if g.is_loop(e)]
        if not loops:
            break
        g2, step = remove_loop_step(g, longest_cycle(g), loops[0])
        assert isinstance(step, StrongLinkStep)
        assert g2.is_regular() == 4
        now = sum(1 for e in g2.edges if g2.is_loop(e))
        assert now < loops_before
        assert len(g2.edges) == len(g.edges)
        assert len(g2.vertices) == len(g.vertices)
        loops_before = now
        g = g2
    assert are_isomorphic(g, build_polygon(4, 2))


def test_loop_forces_p_at_least_4_when_hamiltonian():
    for g in enumerate_p_regular(3, 3):
        if is_hamiltonian(g):
            assert not any(g.is_loop(e) for e in g.edges)


def test_remove_loop_counts():
    g = build_graph([(0, 1), (0, 1), (0, 0), (1, 1)])
    g1, _ = remove_loop_step(g, longest_cycle(g), 4)
    assert len(g1.edges) == len(g.edges)
    assert len(g1.vertices) == len(g.vertices)


def test_hamiltonize_petersen_one_step():
    h, steps, _ = hamiltonize(petersen_graph())
    assert len(steps) == 1
    assert is_hamiltonian(h)
    assert not any(h.is_loop(e) for e in h.edges)


def test_hamiltonize_identity_on_p_hamiltonian():
    from tropilink.graphs import k4_graph

    h, steps, _ = hamiltonize(k4_graph())
    assert steps == []
    assert h == k4_graph()


def test_hamiltonize_exhaustive_with_verifier():
    from tropilink.certificates import LinkageCertificate, verify_certificate

    for p, b in [(3, 2), (3, 3), (4, 3)]:
        for g in enumerate_p_regular(p, b):
            h, steps, _ = hamiltonize(g)
            assert is_hamiltonian(h)
            assert not any(h.is_loop(e) for e in h.edges)
            cert = LinkageCertificate([g] + [s.right for s in steps], steps,
                                      "plain", p)
            assert verify_certificate(cert).valid


def test_hamiltonize_returns_the_frame_a_search_would_find():
    for mode, p, b in [("plain", 3, 2), ("plain", 3, 3), ("plain", 4, 3), ("3ec", 3, 4)]:
        for g in enumerate_p_regular(p, b, "3ec" if mode == "3ec" else "all"):
            h, _, cycle = hamiltonize(g, mode)
            assert cycle.length == len(h.vertices)
            found = longest_cycle(h)
            assert (cycle.vertices, cycle.edge_keys) == (found.vertices, found.edge_keys)


def test_hamiltonize_3ec_mode_exhaustive():
    from tropilink.certificates import LinkageCertificate, verify_certificate

    for p, b in [(3, 3), (3, 4)]:
        for g in enumerate_p_regular(p, b, "3ec"):
            h, steps, _ = hamiltonize(g, "3ec")
            assert edge_connectivity_capped(h) == 3
            for s in steps:
                assert edge_connectivity_capped(s.right) == 3
            cert = LinkageCertificate([g] + [s.right for s in steps], steps,
                                      "3ec", p)
            assert verify_certificate(cert).valid


def test_hamiltonize_rejects_bad_inputs():
    with pytest.raises(GraphError):
        hamiltonize(build_graph([(0, 1), (0, 1), (0, 2)]))  # not regular
    with pytest.raises(GraphError):
        hamiltonize(build_graph([(0, 0), (0, 0)]))  # single vertex


def test_hamiltonize_loop_count_monotone():
    for p, b in [(3, 2), (4, 3), (3, 3)]:
        for g in enumerate_p_regular(p, b):
            counts = [sum(1 for e in g.edges if g.is_loop(e))]
            cur, steps, _ = hamiltonize(g)
            for s in steps:
                counts.append(sum(1 for e in s.right.edges if s.right.is_loop(e)))
            assert all(b2 <= a2 for a2, b2 in zip(counts, counts[1:]))
            assert counts[-1] == 0
