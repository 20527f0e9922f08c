import importlib
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from tropilink.atlas import enumerate_p_regular
from tropilink.canonical import are_isomorphic
import tropilink.connectivity as connectivity
import tropilink.normal_form as normal_form
from tropilink.certificates import (LinkageCertificate, StrongLinkFailure,
                                    StrongLinkStep, strong_link_check,
                                    verify_certificate)
from tropilink.connectivity import edge_connectivity_capped
from tropilink.graphs import (GraphError, build_graph, contract,
                              dumbbell_graph, k4_graph, petersen_graph,
                              theta_graph)
from tropilink.hamiltonize import hamiltonize
from tropilink.linkage import _select_claim_pair, _walk, link, reduce_to_polygon
from tropilink.normal_form import NormalizedForm, build_polygon, epsilon, normalize

from certificate_json_oracle import certificate_to_json_dict
from conftest import is_hamiltonian
from partner_chord_oracle import select_claim_pair
from test_golden import _random_cubic
from test_normal_form import nf_with_chords, p_hamiltonian_classes
from twist_oracle import factor_twist, twist, twist_3ec


# -- twist ---------------------------------------------------------------------


def chord_multiset(nf):
    return sorted((i, j) for i, j, _ in nf.chords)


def test_twist_k4():
    nf = normalize(k4_graph())
    out = twist(nf, (1, 3), (2, 4), swap=(3, 4))
    nf2 = NormalizedForm(out, nf.order, nf.cycle_edges)
    assert nf2.chord_positions() == [(1, 4), (2, 3)]


def test_twist_schematic_pattern():
    # (d_{1,j}, d_{k,l}) into (d_{1,k}, d_{j,l})
    nf = nf_with_chords(8, [(1, 3), (4, 6), (2, 7), (5, 8)])
    out = twist(nf, (1, 3), (4, 6), swap=(3, 4))
    nf2 = NormalizedForm(out, nf.order, nf.cycle_edges)
    assert (1, 4) in nf2.chord_positions()
    assert (3, 6) in nf2.chord_positions()


def test_twist_is_involution():
    nf = normalize(k4_graph())
    out = twist(nf, (1, 3), (2, 4), swap=(3, 4))
    nf2 = NormalizedForm(out, nf.order, nf.cycle_edges)
    back = twist(nf2, (1, 4), (2, 3), swap=(4, 3))
    assert back == nf.base


def test_twist_rejects_loops():
    nf = nf_with_chords(6, [(1, 3), (3, 5), (2, 6)])
    with pytest.raises(GraphError):
        twist(nf, (1, 3), (3, 5), swap=(3, 5))  # would close (3, 3)


# -- strong links --------------------------------------------------------------


def test_strong_link_fig1_pattern():
    p = petersen_graph()
    h, steps, _ = hamiltonize(p)
    step = steps[0]
    redo = strong_link_check(step.left, step.left_edge, step.right,
                             step.right_edge)
    assert isinstance(redo, StrongLinkStep)
    assert is_hamiltonian(step.right)


def test_strong_link_self():
    k = k4_graph()
    s = strong_link_check(k, k.edges[0], k, k.edges[0])
    assert isinstance(s, StrongLinkStep)


def test_strong_link_theta_dumbbell():
    t, d = theta_graph(), dumbbell_graph()
    bridge = next(e for e in d.edges if not d.is_loop(e))
    s = strong_link_check(t, t.edges[0], d, bridge)
    assert isinstance(s, StrongLinkStep)


def test_strong_link_failure_kinds():
    t, k = theta_graph(), k4_graph()
    with pytest.raises(StrongLinkFailure) as r:
        strong_link_check(t, t.edges[0], k, k.edges[0])
    assert r.value.kind == "not_isomorphic"

    # both contract to the doubled path, but the merged vertex sits at the
    # middle on one side and at an end on the other
    g1 = build_graph([(0, 1), (0, 1), (1, 2), (2, 3), (2, 3)])
    g2 = build_graph([(0, 1), (1, 2), (1, 2), (2, 3), (2, 3)])
    e1 = next(e for e in g1.edges if g1.edge_ends(e) == (1, 2))
    e2 = next(e for e in g2.edges if g2.edge_ends(e) == (0, 1))
    with pytest.raises(StrongLinkFailure) as r2:
        strong_link_check(g1, e1, g2, e2)
    assert r2.value.kind == "no_marked_witness"

    with pytest.raises(GraphError):
        d = dumbbell_graph()
        loop = next(e for e in d.edges if d.is_loop(e))
        strong_link_check(d, loop, d, loop)


# -- factoring -----------------------------------------------------------------


def _steps_cert(first, steps, mode="plain", p=3):
    return LinkageCertificate([first] + [s.right for s in steps], steps, mode, p)


def test_factor_consecutive_is_single_step():
    nf = nf_with_chords(6, [(1, 2), (3, 4), (5, 6)])
    steps = factor_twist(nf, (1, 2), (3, 4), swap=(2, 3))
    assert len(steps) == 1
    assert verify_certificate(_steps_cert(nf.base, steps)).valid


def test_factor_distance_two_gives_three_steps():
    nf = nf_with_chords(8, [(1, 2), (4, 5), (3, 7), (6, 8)])
    steps = factor_twist(nf, (1, 2), (4, 5), swap=(2, 4))
    assert len(steps) == 3
    assert verify_certificate(_steps_cert(nf.base, steps)).valid
    end = steps[-1].right
    want = twist(nf, (1, 2), (4, 5), swap=(2, 4))
    assert are_isomorphic(end, want)


@pytest.mark.parametrize("chord_a, chord_b, swap", [
    ((1, 2), (1, 4), (1, 1)),   # both ends at one position
    ((1, 2), (2, 3), (1, 2)),   # the twist closes (2, 2)
    ((1, 2), (1, 4), (2, 4)),   # the walk past mid chord (2, 3) closes (2, 2)
])
def test_factor_twist_rejects_what_it_cannot_walk(chord_a, chord_b, swap):
    nf = nf_with_chords(4, [(1, 2), (1, 4), (2, 3), (3, 4)])
    with pytest.raises(GraphError):
        factor_twist(nf, chord_a, chord_b, swap)


def test_factor_twist_rejects_a_chord_with_itself():
    nf = nf_with_chords(6, [(1, 3), (2, 5), (4, 6)])
    for fn in (twist, factor_twist):
        with pytest.raises(GraphError, match="with itself"):
            fn(nf, (1, 3), (1, 3), (1, 3))


def test_factor_twist_rejects_a_swap_off_the_chords():
    h, _, cycle = hamiltonize(petersen_graph())
    nf = normalize(h, cycle)
    assert {(1, 5), (2, 7)} <= set(nf.chord_positions())
    for fn in (twist, factor_twist):
        with pytest.raises(GraphError, match="does not name ends"):
            fn(nf, (1, 5), (2, 7), (1, 4))  # 4 is no end of (2, 7)


def test_factor_matches_twist_on_random_claim_pairs(rng):
    cases = 0
    for g in p_hamiltonian_classes(3, 4):
        nf = normalize(g)
        sel = _select_claim_pair(nf)
        if sel is None:
            continue
        cases += 1
        frame, j, k, key1, key2 = sel
        steps = _walk(frame, key1, j, key2, k)
        assert len(steps) == 2 * (k - j) - 1
        assert verify_certificate(_steps_cert(nf.base, steps)).valid
    assert cases > 0


# -- the 3ec twist -------------------------------------------------------------


def test_twist_3ec_case_a_cycles():
    # chord_b starts at j+1 and does not cross chord_a
    nf = nf_with_chords(8, [(1, 4), (5, 8), (2, 6), (3, 7)])
    assert edge_connectivity_capped(nf.base) == 3
    ka = next(k for i, j, k in nf.chords if (i, j) == (1, 4))
    kb = next(k for i, j, k in nf.chords if (i, j) == (5, 8))
    g2, step = twist_3ec(nf, (1, 4), (5, 8))
    assert edge_connectivity_capped(g2) == 3
    cyc1, cyc2 = step.cert_cycles
    assert list(cyc1) == [nf.cycle_edge(4), ka] + \
        [nf.cycle_edge(t) for t in (1, 2, 3)]
    assert list(cyc2) == [nf.cycle_edge(t) for t in (4, 5, 6, 7)] + [kb]
    assert set(cyc1) & set(cyc2) == {nf.cycle_edge(4)}
    assert verify_certificate(_steps_cert(nf.base, [step])).valid
    nf2 = NormalizedForm(g2, nf.order, nf.cycle_edges)
    assert (1, 5) in nf2.chord_positions()
    assert (4, 8) in nf2.chord_positions()


def test_twist_3ec_case_b():
    # chord_b = d_{3,6} crosses chord_a = d_{1,5}; d_{4,8} witnesses case (b)
    nf2 = nf_with_chords(8, [(1, 5), (3, 6), (4, 8), (2, 7)])
    assert edge_connectivity_capped(nf2.base) == 3
    ka = next(k for i, j, k in nf2.chords if (i, j) == (1, 5))
    kb = next(k for i, j, k in nf2.chords if (i, j) == (3, 6))
    kw = next(k for i, j, k in nf2.chords if (i, j) == (4, 8))
    g2, step = twist_3ec(nf2, (1, 5), (3, 6))
    cyc1, cyc2 = step.cert_cycles
    assert list(cyc1) == [nf2.cycle_edge(5), ka, nf2.cycle_edge(1),
                          nf2.cycle_edge(2), kb]
    assert list(cyc2) == [nf2.cycle_edge(5), nf2.cycle_edge(6),
                          nf2.cycle_edge(7), kw, nf2.cycle_edge(4)]
    assert edge_connectivity_capped(g2) == 3
    assert verify_certificate(_steps_cert(nf2.base, [step])).valid


def test_twist_3ec_rejects_when_no_case_applies():
    nf = nf_with_chords(6, [(1, 4), (2, 5), (3, 6)])
    with pytest.raises(GraphError):
        twist_3ec(nf, (1, 4), (3, 6))  # second chord not at j+1


def test_twist_3ec_preserves_3ec_exhaustively():
    checked = 0
    for b in (3, 4):
        for g in p_hamiltonian_classes(3, b):
            if edge_connectivity_capped(g) != 3:
                continue
            nf = normalize(g)
            for i, j, key in nf.chords:
                for c2 in nf.chords_at(j + 1):
                    if c2[2] == key:
                        continue
                    try:
                        g2, step = twist_3ec(nf, (i, j, key), c2)
                    except GraphError:
                        continue
                    checked += 1
                    assert edge_connectivity_capped(g2) == 3
    assert checked > 0


def test_twist_3ec_is_the_one_swap_walk():
    # the descent realizes each 3ec twist as a one-swap walk on the frame
    # rotated to start at chord_a's fixed end; in case (a) the walk's own
    # certifying cycles are the twist lemma's
    cases = {"a": 0, "b": 0}
    for b in (3, 4, 5):
        for g in p_hamiltonian_classes(3, b):
            if edge_connectivity_capped(g) != 3:
                continue
            nf = normalize(g)
            for i, j, ka in nf.chords:
                for c2 in nf.chords_at(j + 1):
                    if c2[2] == ka:
                        continue
                    try:
                        g2, step = twist_3ec(nf, (i, j, ka), c2)
                    except GraphError:
                        continue
                    frame, kb = nf.rebased(i, 1), c2[2]
                    walk = _walk(frame, ka, j - i + 1, kb, j - i + 2)
                    assert len(walk) == 1 and walk[0].right == g2
                    case = "a" if c2[0] == j + 1 else "b"
                    cases[case] += 1
                    if case == "a":
                        walk3 = _walk(frame, ka, j - i + 1, kb, j - i + 2,
                                      "3ec")
                        assert walk3[0].cert_cycles == step.cert_cycles
    assert cases["a"] > 0 and cases["b"] > 0


# -- claim pair selection ------------------------------------------------------


def _same_claim_pair(nf) -> bool:
    """Assert that the interval selection and the arc oracle agree on nf;
    True when they select a pair."""
    got, want = _select_claim_pair(nf), select_claim_pair(nf)
    if got is None or want is None:
        assert got is None and want is None, (nf, got, want)
        return False
    assert got[1:] == want[1:], nf
    assert (got[0].order, got[0].cycle_edges) == \
        (want[0].order, want[0].cycle_edges), nf
    return True


def test_claim_pair_equals_the_arc_oracle_on_every_rebasing():
    frames = selected = 0
    for p, bs in ((3, range(2, 6)), (4, range(2, 5))):
        for b in bs:
            for g in p_hamiltonian_classes(p, b):
                nf = normalize(g)
                for dirn in (1, -1):
                    for start in range(1, nf.gamma + 1):
                        frames += 1
                        selected += _same_claim_pair(nf.rebased(start, dirn))
    assert 0 < selected < frames


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.sampled_from([3, 4]), st.integers(4, 40), st.randoms())
def test_claim_pair_equals_the_arc_oracle_on_random_frames(p, gamma, rnd):
    """A gamma-cycle plus the chords of a random pairing of p - 2 ends per
    position, loops dropped; gamma is even when p = 3."""
    if p == 3:
        gamma -= gamma % 2
    ends = [t for t in range(1, gamma + 1) for _ in range(p - 2)]
    rnd.shuffle(ends)
    _same_claim_pair(nf_with_chords(
        gamma, [(a, b) for a, b in zip(ends[::2], ends[1::2]) if a != b]))


# -- descent -------------------------------------------------------------------


def test_reduce_polygon_is_empty():
    for p, gamma in [(3, 4), (3, 6), (4, 6), (3, 32)]:
        cert = reduce_to_polygon(build_polygon(p, gamma))
        assert cert.steps == []
        assert verify_certificate(cert).valid


@pytest.mark.parametrize("n", [32, 40, 60])
def test_link_simple_cubic_beyond_30_vertices(n):
    # 32 vertices used to exhaust the cycle-search budget
    rng = random.Random(f"cubic:{n}")
    g1, g2 = _random_cubic(rng, n, True), _random_cubic(rng, n, True)
    cert = link(g1, g2)
    assert cert.steps
    assert verify_certificate(cert, endpoints=(g1, g2)).valid


def test_reduce_exhaustive_3_3_plain_and_3ec():
    poly = build_polygon(3, 4)
    for g in p_hamiltonian_classes(3, 3):
        trace = []
        cert = reduce_to_polygon(g, epsilon_trace=trace)
        assert are_isomorphic(cert.graphs[-1], poly)
        assert verify_certificate(cert, endpoints=(g, poly)).valid
        assert all(b - a <= -1 for a, b in zip(trace, trace[1:]))
        if edge_connectivity_capped(g) == 3:
            cert3 = reduce_to_polygon(g, "3ec")
            rep = verify_certificate(cert3, endpoints=(g, poly))
            assert rep.valid
            for gr in cert3.graphs:
                assert edge_connectivity_capped(gr) == 3


def test_claim_decrease_at_least_two():
    for b in (3, 4):
        for g in p_hamiltonian_classes(3, b):
            trace = []
            reduce_to_polygon(g, epsilon_trace=trace)
            assert all(b2 - a2 <= -2 for a2, b2 in zip(trace, trace[1:]))


def _same_steps_but_cycles(plain, tec):
    """The 3ec steps are the plain ones, each with its cycle pair added."""
    assert len(plain) == len(tec)
    for a, b in zip(plain, tec):
        assert (a.left_edge, a.right_edge, a.witness, a.right) == \
            (b.left_edge, b.right_edge, b.witness, b.right)
        assert a.cert_cycles is None and b.cert_cycles is not None


def test_schedules_compose_to_claim_twist():
    cases = 0
    for g in p_hamiltonian_classes(3, 4):
        if edge_connectivity_capped(g) != 3:
            continue
        nf = normalize(g)
        sel = _select_claim_pair(nf)
        if sel is None:
            continue
        cases += 1
        frame, j, k, key1, key2 = sel
        plain = _walk(frame, key1, j, key2, k)
        sched = _walk(frame, key1, j, key2, k, "3ec")
        plain_end = frame.with_base(plain[-1].right)
        sched_end = frame.with_base(sched[-1].right)
        assert chord_multiset(plain_end) == chord_multiset(sched_end)
        assert are_isomorphic(plain_end.base, sched_end.base)
        _same_steps_but_cycles(plain, sched)
    assert cases > 0


def _plain_json(cert):
    d = certificate_to_json_dict(cert)
    for step in d["steps"]:
        step.pop("cycles", None)
    return dict(d, mode="plain")


def test_plain_and_3ec_descents_differ_only_in_cycles():
    # every 3ec class at (3,4), (4,3), (4,4), Petersen, and seeded random
    # 3ec cubic graphs, whose descents take many-swap walks
    graphs = [petersen_graph()]
    for p, b in [(3, 4), (4, 3), (4, 4)]:
        graphs += [g for g in enumerate_p_regular(p, b)
                   if edge_connectivity_capped(g) == 3]
    rng = random.Random(3)
    graphs += [_random_cubic(rng, n, True) for n in (12, 14, 16)]
    walked = 0
    for g in graphs:
        h, _, cycle = hamiltonize(g, "3ec")
        plain = reduce_to_polygon(h, "plain", cycle)
        tec = reduce_to_polygon(h, "3ec", cycle)
        _same_steps_but_cycles(plain.steps, tec.steps)
        assert _plain_json(tec) == certificate_to_json_dict(plain)
        walked += len(tec.steps)
    assert walked > 20


# -- full linkage --------------------------------------------------------------


def test_link_theta_dumbbell():
    t, d = theta_graph(), dumbbell_graph()
    cert = link(t, d)
    assert cert.steps
    assert verify_certificate(cert, endpoints=(t, d)).valid


def test_link_petersen_polygon_3ec():
    p = petersen_graph()
    poly = build_polygon(3, 10)
    cert = link(p, poly, "3ec")
    rep = verify_certificate(cert, p=3, mode="3ec", endpoints=(p, poly))
    assert rep.valid
    # first step realizes the Petersen-to-hamiltonian strong link
    first = cert.steps[0]
    assert first.left == p
    assert is_hamiltonian(first.right)


def test_link_searches_each_hamiltonization_graph_once(monkeypatch):
    # g1 takes lengthening and loop-removal moves, g2 one lengthening move;
    # the cycle that ends each chain also frames its descent
    g1 = build_graph([(0, 0), (0, 1), (1, 2), (1, 3), (2, 2), (3, 4), (3, 5),
                      (4, 4), (5, 5)])
    g2 = build_graph([(0, 1), (0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5),
                      (4, 5), (4, 5)])
    chains = []
    for g in (g1, g2):
        _, steps, _ = hamiltonize(g)
        assert steps
        chains += [g] + [s.right for s in steps]

    searched = []
    real = connectivity.longest_cycle

    def counting(g, *args, **kwargs):
        searched.append(g)
        return real(g, *args, **kwargs)

    # the package exports the function `hamiltonize` under the module's name
    hamiltonize_module = importlib.import_module("tropilink.hamiltonize")
    for mod in (connectivity, hamiltonize_module, normal_form):
        monkeypatch.setattr(mod, "longest_cycle", counting)
    cert = link(g1, g2)
    assert searched == chains
    assert verify_certificate(cert, endpoints=(g1, g2)).valid


def test_link_identity():
    k = k4_graph()
    cert = link(k, k)
    assert cert.steps == []
    assert verify_certificate(cert, endpoints=(k, k)).valid


def test_link_rejects_mismatches():
    with pytest.raises(GraphError):
        link(theta_graph(), k4_graph())  # different genus
    with pytest.raises(GraphError):
        link(theta_graph(), build_graph([(0, 1), (0, 1), (0, 1), (0, 1)]))
    with pytest.raises(GraphError):
        link(dumbbell_graph(), theta_graph(), "3ec")  # dumbbell has a bridge


def test_link_symmetric_and_reversal_valid():
    t, d = theta_graph(), dumbbell_graph()
    cert = link(t, d)
    rev = LinkageCertificate(cert.graphs[::-1],
                             [s.reversed() for s in reversed(cert.steps)],
                             cert.mode, cert.p)
    assert verify_certificate(rev, endpoints=(d, t)).valid


def test_chain_counts_constant():
    cert = link(petersen_graph(), build_polygon(3, 10), "3ec")
    counts = {(len(g.vertices), len(g.edges)) for g in cert.graphs}
    assert len(counts) == 1


# -- verifier hardening ---------------------------------------------------------


def test_empty_certificate_on_isomorphic_endpoints():
    k = k4_graph()
    cert = LinkageCertificate([k], [], "plain", 3)
    assert verify_certificate(cert, endpoints=(k, build_polygon(3, 4))).valid


def test_verifier_rejects_wrong_endpoints():
    k = k4_graph()
    cert = LinkageCertificate([k], [], "plain", 3)
    rep = verify_certificate(cert, endpoints=(k, theta_graph()))
    assert not rep.valid
    assert rep.first_violation[1] == "endpoint"


def test_verifier_reports_a_step_off_the_chain_first():
    cert = link(petersen_graph(), build_polygon(3, 10), "3ec")
    s = cert.steps[0]
    assert cert.graphs[-1] != cert.graphs[0]
    cert.steps[0] = StrongLinkStep(cert.graphs[-1], s.left_edge, s.right,
                                   s.right_edge, s.witness, s.cert_cycles)
    rep = verify_certificate(cert)
    assert rep.first_violation[:2] == (0, "chain")
    assert "left" in rep.first_violation[2]


def test_verifier_reports_a_certificate_without_graphs_as_empty():
    rep = verify_certificate(LinkageCertificate([], [], "plain", 3))
    assert [(step, code) for step, code, _ in rep.problems] == [(None, "empty")]
    assert rep.checked_steps == 0


def test_witness_corruption_detected_and_located():
    t, d = theta_graph(), dumbbell_graph()
    cert = link(t, d)
    target = 1 if len(cert.steps) > 1 else 0
    step = cert.steps[target]
    av, ae, al = step.witness
    bad_av = dict(av)
    key = sorted(bad_av)[0]
    others = [v for v in bad_av.values() if v != bad_av[key]]
    bad_av[key] = others[0] if others else bad_av[key] + 1
    step.witness = (bad_av, ae, al)
    rep = verify_certificate(cert)
    assert not rep.valid
    assert rep.first_violation[0] == target


def test_factor_matches_twist_on_random_configs(rng):
    # random supported endpoint swaps across the (3,4) hamiltonian classes
    done = 0
    for g in p_hamiltonian_classes(3, 4):
        nf = normalize(g)
        chords = list(nf.chords)
        for (c1, c2) in itertools.combinations(chords, 2):
            for pa in (c1[0], c1[1]):
                for pb in (c2[0], c2[1]):
                    keep_a = c1[0] + c1[1] - pa
                    keep_b = c2[0] + c2[1] - pb
                    if keep_a == pb or keep_b == pa or pa == pb:
                        continue
                    try:
                        steps = factor_twist(nf, c1, c2, swap=(pa, pb))
                    except GraphError:
                        continue  # blocked in both directions: out of scope
                    done += 1
                    want = twist(nf, c1, c2, swap=(pa, pb))
                    assert are_isomorphic(steps[-1].right, want)
                    assert verify_certificate(
                        _steps_cert(nf.base, steps)).valid
    assert done > 20


def _run_schedules(nf, pair1, pair2, j, k):
    """Both walks of the claim pair read off nf's own frame."""
    key1 = next(key for i, jj, key in nf.chords if (i, jj) == pair1)
    key2 = next(key for i, jj, key in nf.chords if (i, jj) == pair2)
    plain = _walk(nf, key1, j, key2, k)
    steps = _walk(nf, key1, j, key2, k, "3ec")
    cert = _steps_cert(nf.base, steps, "3ec", p=nf.base.is_regular())
    assert verify_certificate(cert, mode="3ec").valid
    end = nf.with_base(steps[-1].right)
    assert chord_multiset(end) == chord_multiset(nf.with_base(plain[-1].right))
    return end.base, steps


def test_schedule_ii_mid_ending_at_k():
    # 4-regular: the interior mid chord (3,4) ends exactly at k = 4
    nf = nf_with_chords(8, [(1, 2), (4, 6), (3, 4), (3, 7), (1, 5), (2, 8),
                            (5, 8), (6, 7)])
    assert edge_connectivity_capped(nf.base) == 3
    end, steps = _run_schedules(nf, (1, 2), (4, 6), j=2, k=4)
    assert len(steps) == 2 * (4 - 2) - 1


def test_schedule_ii_mid_between_k_and_l():
    # the interior mid chord (3,5) has k < 5 < l
    nf = nf_with_chords(8, [(1, 2), (4, 6), (3, 5), (3, 7), (1, 8), (5, 8),
                            (2, 6), (4, 7)])
    assert edge_connectivity_capped(nf.base) == 3
    _run_schedules(nf, (1, 2), (4, 6), j=2, k=4)


def test_descent_with_single_short_chord_odd_gamma():
    # at odd gamma the defect can be positive with only one short chord; the
    # selected partner then has maximal amplitude and the defect drops by 1
    nf = nf_with_chords(5, [(1, 3), (1, 3), (1, 3), (1, 4), (2, 4), (2, 4),
                            (2, 5), (2, 5), (3, 5), (4, 5)])
    g = nf.base
    assert g.is_regular() == 6
    assert epsilon(nf) == 1
    trace = []
    cert = reduce_to_polygon(g, epsilon_trace=trace)
    assert trace == [1, 0]
    assert verify_certificate(cert).valid
    assert are_isomorphic(cert.graphs[-1], build_polygon(6, 5))
    cert3 = reduce_to_polygon(g, "3ec")
    assert verify_certificate(cert3, mode="3ec").valid


def _three_ec_problems(report):
    return [p for p in report.problems if p[1] == "three_ec"]


def test_3ec_verify_reports_a_non_3ec_graph_once():
    # every edge cut of G/e is one of G, so a step's middle is not checked
    # apart from its left graph: a chain graph that is not 3-edge-connected,
    # whose contraction is not either, is one three_ec problem
    bad = next(g for g in enumerate_p_regular(3, 3)
               if edge_connectivity_capped(g) < 3)
    e = next(e for e in bad.edges if not bad.is_loop(e)
             and edge_connectivity_capped(contract(bad, {e})) < 3)
    good = k4_graph()
    step = StrongLinkStep(bad, e, good, good.edges[0], ({}, {}, {}))
    report = verify_certificate(LinkageCertificate([bad, good], [step], "3ec", 3))
    assert not report.valid
    assert _three_ec_problems(report) == [
        (0, "three_ec", "graph 0 is not 3-edge-connected")]


def test_3ec_verify_of_plain_chains_flags_exactly_the_non_3ec_graphs():
    classes = enumerate_p_regular(3, 3)
    for a, b in itertools.combinations(classes, 2):
        cert = link(a, b)
        report = verify_certificate(cert, mode="3ec")
        assert [p[0] for p in _three_ec_problems(report)] == [
            i for i, g in enumerate(cert.graphs) if edge_connectivity_capped(g) != 3]
