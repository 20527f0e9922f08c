import pytest
from hypothesis import given, settings, strategies as st

from tropilink.atlas import enumerate_p_regular
from tropilink.canonical import are_isomorphic, canonical_form
from tropilink.connectivity import edge_connectivity_capped, longest_cycle
from tropilink.graphs import (GraphError, build_graph, k4_graph, theta_graph)
from tropilink.normal_form import (NormalizedForm, amplitude, build_polygon,
                                   epsilon, normalize)

from conftest import is_hamiltonian
from partner_chord_oracle import find_partner_short_chord, is_short, short_arc


def nf_with_chords(gamma, pairs):
    """Normalized form with a prescribed labeling: cycle 1..gamma plus the
    given chords (1-based position pairs)."""
    edges = [(i, (i + 1) % gamma) for i in range(gamma)]
    edges += [(i - 1, j - 1) for i, j in pairs]
    g = build_graph(edges)
    order = list(range(gamma))
    cycle_edges = [2 * t for t in range(gamma)]
    return NormalizedForm(g, order, cycle_edges)


def p_hamiltonian_classes(p, b):
    return [g for g in enumerate_p_regular(p, b)
            if is_hamiltonian(g) and not any(g.is_loop(e) for e in g.edges)]


def test_normalize_k4():
    nf = normalize(k4_graph())
    assert nf.gamma == 4
    assert nf.chord_positions() == [(1, 3), (2, 4)]


def test_normalize_theta():
    nf = normalize(theta_graph())
    assert nf.gamma == 2
    assert nf.chord_positions() == [(1, 2)]


def test_normalize_rejects_loops_and_nonhamiltonian():
    from tropilink.graphs import dumbbell_graph

    with pytest.raises(GraphError):
        normalize(dumbbell_graph())


def test_rebased_reads_the_same_cycle_from_any_start():
    nf = nf_with_chords(7, [(1, 3), (2, 5), (4, 7), (6, 2)])
    same = nf.rebased(1, 1)
    assert (same.order, same.cycle_edges, same.chords) == \
        (nf.order, nf.cycle_edges, nf.chords)
    for s in range(1, 8):
        back = nf.rebased(s, -1)
        assert back.base is nf.base
        assert list(back.order) == [nf.vertex(s - t) for t in range(7)]
        for t in range(1, 8):
            # e_t of the reversed frame joins its positions t and t+1
            assert back.cycle_edge(t) == nf.edge_between(s - t + 1, s - t)
        assert back.pos[nf.vertex(s)] == 1
        assert sorted(key for *_, key in back.chords) == \
            sorted(key for *_, key in nf.chords)


def _assert_rebasings_validate(nf):
    """Every rebasing of nf equals the validating constructor's frame on
    the same order and cycle edges, slot by slot."""
    for dirn in (1, -1):
        for start in range(1, nf.gamma + 1):
            got = nf.rebased(start, dirn)
            want = NormalizedForm(nf.base, got.order, got.cycle_edges)
            assert got.base is nf.base
            assert (got.order, got.cycle_edges, got.chords, got.pos) == \
                (want.order, want.cycle_edges, want.chords, want.pos)


def test_rebased_equals_the_validating_constructor_exhaustively():
    for p, b in [(3, 3), (3, 4), (4, 3)]:
        for g in p_hamiltonian_classes(p, b):
            _assert_rebasings_validate(normalize(g))


@st.composite
def frames(draw):
    gamma = draw(st.integers(2, 12))
    pairs = draw(st.lists(st.tuples(st.integers(1, gamma), st.integers(1, gamma))
                          .filter(lambda c: c[0] != c[1]), max_size=10))
    return nf_with_chords(gamma, pairs)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(frames())
def test_rebased_equals_the_validating_constructor_on_random_frames(nf):
    _assert_rebasings_validate(nf)


def test_chord_count_is_b_minus_one_exhaustively():
    for p, b in [(3, 2), (3, 3), (3, 4), (4, 3)]:
        for g in p_hamiltonian_classes(p, b):
            nf = normalize(g)
            assert len(nf.chords) == g.b1 - 1


def test_chord_multiplicity_bound():
    for p, b in [(3, 3), (4, 3)]:
        for g in p_hamiltonian_classes(p, b):
            nf = normalize(g)
            counts = {}
            for i, j, _ in nf.chords:
                counts[(i, j)] = counts.get((i, j), 0) + 1
            assert all(m <= p - 2 for m in counts.values())


def test_amplitude_values():
    nf10 = nf_with_chords(10, [(1, 4), (1, 10), (5, 8), (2, 7)])
    assert amplitude(nf10, (1, 4)) == 3
    assert amplitude(nf10, (1, 10)) == 1
    nf4 = nf_with_chords(4, [(1, 3), (2, 4)])
    assert amplitude(nf4, (1, 3)) == 2


def test_amplitude_bounds_exhaustively():
    for p, b in [(3, 3), (3, 4), (4, 3)]:
        for g in p_hamiltonian_classes(p, b):
            nf = normalize(g)
            for i, j, _ in nf.chords:
                assert 1 <= amplitude(nf, (i, j)) <= nf.gamma / 2


def test_epsilon_direct_formula():
    nf = nf_with_chords(6, [(1, 2), (3, 6), (4, 5)])
    assert nf.base.is_regular() == 3
    assert epsilon(nf) == (3 - 1) + (3 - 3) + (3 - 1) == 4


def test_epsilon_zero_on_polygons():
    for p, gamma in [(3, 4), (3, 6), (4, 6), (6, 5), (3, 10), (4, 9)]:
        nf = normalize(build_polygon(p, gamma))
        assert epsilon(nf) == 0
        assert not any(is_short(nf, (i, j)) for i, j, _ in nf.chords)


def test_partner_short_chord_basic():
    nf = nf_with_chords(6, [(1, 2), (3, 4), (5, 6)])
    k, l, _ = find_partner_short_chord(nf, (1, 2))
    assert (k, l) == (3, 4)
    assert l - k < nf.gamma // 2
    assert not set(short_arc(nf, (1, 2))) & set(short_arc(nf, (k, l)))


def test_partner_exists_exhaustively():
    for p, b in [(3, 2), (3, 3), (3, 4)]:
        for g in p_hamiltonian_classes(p, b):
            nf = normalize(g)
            for i, j, key in nf.chords:
                if not is_short(nf, (i, j)):
                    continue
                k, l, _ = find_partner_short_chord(nf, (i, j, key))
                assert is_short(nf, (k, l))
                assert not set(short_arc(nf, (i, j))) & set(short_arc(nf, (k, l)))


def test_partner_fallback_at_odd_gamma():
    nf = nf_with_chords(5, [(1, 3), (1, 3), (1, 3), (1, 4), (2, 4), (2, 4),
                            (2, 5), (2, 5), (3, 5), (4, 5)])
    k, l, _ = find_partner_short_chord(nf, (4, 5))
    assert amplitude(nf, (k, l)) == nf.gamma // 2  # no short partner exists
    assert l - k == amplitude(nf, (k, l))          # near side is the short one


def test_polygon_small_cases():
    assert are_isomorphic(build_polygon(3, 4), k4_graph())
    p46 = build_polygon(4, 6)
    assert p46.b1 == 7
    assert p46.is_regular() == 4
    # three antipodal pairs, two chords each
    nf = normalize(p46)
    pair_counts = {}
    for i, j, _ in nf.chords:
        pair_counts[(i, j)] = pair_counts.get((i, j), 0) + 1
    assert sorted(pair_counts.values()) == [2, 2, 2]
    assert all(amplitude(nf, c) == 3 for c in pair_counts)


def test_polygon_odd_cases():
    p56 = build_polygon(6, 5)
    assert p56.is_regular() == 6
    nf = normalize(p56)
    # at each vertex: two chords at distance 2, two at distance 3
    per_vertex = {t: [] for t in range(1, 6)}
    for i, j, _ in nf.chords:
        per_vertex[i].append((i, j))
        per_vertex[j].append((i, j))
    for t, cs in per_vertex.items():
        assert len(cs) == 4
        assert sorted(amplitude(nf, c) for c in cs) == [2, 2, 2, 2]

    p49 = build_polygon(4, 9)
    assert p49.is_regular() == 4
    assert is_hamiltonian(p49)


def test_polygon_parity_rejected():
    with pytest.raises(GraphError):
        build_polygon(3, 5)
    with pytest.raises(GraphError):
        build_polygon(5, 9)


def test_polygons_loop_free_hamiltonian_3ec():
    cases = [(p, gamma) for p in (3, 4, 5, 6) for gamma in range(2, 9)
             if not (gamma % 2 and p % 2)]
    for p, gamma in cases:
        g = build_polygon(p, gamma)
        assert g.is_regular() == p
        assert not any(g.is_loop(e) for e in g.edges)
        assert longest_cycle(g).length == gamma
        assert edge_connectivity_capped(g) == 3


def test_polygon_uniqueness_exhaustive():
    # the only p-hamiltonian class without short chords, at desk scale
    for p, b in [(3, 2), (3, 3), (3, 4), (4, 3)]:
        gamma = (2 * b - 2) // (p - 2)
        poly_key = canonical_form(build_polygon(p, gamma))
        hits = []
        for g in p_hamiltonian_classes(p, b):
            if epsilon(normalize(g)) == 0:
                hits.append(canonical_form(g))
        assert hits == [poly_key]
