"""The automorphism-pruned canonical search against the unpruned oracle.

The pruned search must return the oracle's encoding and vertex order, with
no marks, one marked vertex and two marked vertices, on every stratum and
regular class at desk scale, on every p-polygon up to 30 vertices, and on
random weighted multigraphs with legs.  Its leaf counts on symmetric graphs
are pinned, and the profile that `are_isomorphic` compares first is checked
to be a class function.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from tropilink import canonical
from tropilink.atlas import enumerate_p_regular, enumerate_stable
from tropilink.canonical import (_Canonizer, _profile, _tables,
                                 are_isomorphic, canonical_form,
                                 canonical_labeling)
from tropilink.graphs import (Graph, _as_weighted, build_graph, k4_graph,
                              petersen_graph)
from tropilink.normal_form import build_polygon

from canonical_oracle import unpruned_labeling
from conftest import random_connected_multigraph
from test_canonical import shuffled_weighted_copy


def _mark_sets(g: Graph, rng: random.Random):
    vs = sorted(g.vertices)
    return [(), (rng.choice(vs),), tuple(rng.sample(vs, min(2, len(vs))))]


def _assert_matches_oracle(graphs, seed):
    rng = random.Random(seed)
    for obj in graphs:
        wg = _as_weighted(obj)
        for g in (wg, shuffled_weighted_copy(wg, rng)):
            for marked in _mark_sets(g.graph, rng):
                enc, order = _Canonizer(*_tables(g, frozenset(marked))).run()
                order = tuple(g.graph.vertices[x] for x in order)
                assert (enc, order) == unpruned_labeling(g, marked), \
                    (g.graph, marked)


@pytest.mark.parametrize("g,n", [(2, 0), (3, 0), (4, 0), (1, 1), (2, 1),
                                 (3, 1), (1, 2), (2, 2)])
def test_pruned_search_matches_oracle_on_strata(g, n):
    _assert_matches_oracle(enumerate_stable(g, n), seed=100 * g + n)


@pytest.mark.parametrize("p,b", [(3, 2), (3, 3), (3, 4), (3, 5), (4, 4)])
def test_pruned_search_matches_oracle_on_regular_classes(p, b):
    _assert_matches_oracle(enumerate_p_regular(p, b), seed=100 * p + b)


@pytest.mark.parametrize("p", [3, 4, 5])
def test_pruned_search_matches_oracle_on_polygons(p):
    polygons = [build_polygon(p, gamma) for gamma in range(2, 31)
                if gamma % 2 == 0 or p % 2 == 0]
    _assert_matches_oracle(polygons, seed=p)


# Cubic graphs of genus 6 on which a search that went back to the root after
# every automorphism, abandoning more than the image of an explored branch,
# returns another order (the first) or even another encoding (the second).
LONG_JUMP_WITNESSES = [
    [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (2, 6), (2, 7), (3, 8), (3, 9),
     (4, 5), (4, 6), (5, 6), (7, 8), (7, 9), (8, 9)],
    [(0, 4), (0, 7), (0, 9), (1, 2), (1, 3), (1, 4), (2, 3), (2, 8), (3, 8),
     (4, 6), (5, 6), (5, 7), (5, 9), (6, 8), (7, 9)],
]


def test_pruned_search_matches_oracle_on_long_jump_witnesses():
    _assert_matches_oracle([build_graph(e) for e in LONG_JUMP_WITNESSES], 6)


@settings(max_examples=80, derandomize=True, deadline=None)
@given(st.integers(0, 10 ** 9), st.integers(1, 9), st.integers(0, 8),
       st.integers(0, 3), st.integers(0, 2))
def test_pruned_search_matches_oracle_on_random_multigraphs(
        seed, nv, extra, legs, max_weight):
    rng = random.Random(seed)
    g = random_connected_multigraph(rng, max_vertices=nv, max_extra=extra,
                                    legs=legs, max_weight=max_weight)
    _assert_matches_oracle([g], seed)


def _leaves(monkeypatch, labeling, g) -> int:
    """Leaves that labeling(g) visits: calls of `_Canonizer._encode`."""
    count = [0]
    encode = _Canonizer._encode

    def counted(self, order):
        count[0] += 1
        return encode(self, order)

    with monkeypatch.context() as m:
        m.setattr(_Canonizer, "_encode", counted)
        labeling(g)
    return count[0]


def test_symmetric_graphs_cost_few_leaves(monkeypatch):
    named = {"Petersen": petersen_graph(), "K4": k4_graph(),
             "K33": build_polygon(3, 6)}
    for p in (3, 4, 5):
        for gamma in range(2, 61):
            if gamma % 2 == 0 or p % 2 == 0:
                named[f"P({p},{gamma})"] = build_polygon(p, gamma)
    counts = {name: _leaves(monkeypatch, canonical_labeling, g)
              for name, g in named.items()}
    assert max(counts.values()) <= 8, counts
    # the unpruned search visits one leaf per automorphism
    assert _leaves(monkeypatch, unpruned_labeling, petersen_graph()) == 120
    assert _leaves(monkeypatch, unpruned_labeling, build_polygon(3, 60)) == 120


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.integers(0, 10 ** 9), st.integers(1, 10), st.integers(0, 8),
       st.integers(0, 3), st.integers(0, 2))
def test_profile_is_invariant_under_relabeling(seed, nv, extra, legs,
                                               max_weight):
    rng = random.Random(seed)
    g = _as_weighted(random_connected_multigraph(
        rng, max_vertices=nv, max_extra=extra, legs=legs,
        max_weight=max_weight))
    assert _profile(g) == _profile(shuffled_weighted_copy(g, rng))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.integers(0, 10 ** 9), st.integers(1, 6), st.integers(0, 5),
       st.integers(0, 2))
def test_are_isomorphic_agrees_with_canonical_forms(seed, nv, extra, legs):
    rng = random.Random(seed)
    a, b = (random_connected_multigraph(rng, max_vertices=nv, max_extra=extra,
                                        legs=legs) for _ in range(2))
    assert are_isomorphic(a, b) == (canonical_form(a) == canonical_form(b))


def test_are_isomorphic_skips_the_search_on_distinct_profiles(monkeypatch):
    calls = []
    monkeypatch.setattr(canonical, "isomorphism_witness",
                        lambda a, b: calls.append((a, b)))
    g = petersen_graph()
    assert are_isomorphic(g, g)
    assert not are_isomorphic(g, build_polygon(3, 10))
    assert calls == []
