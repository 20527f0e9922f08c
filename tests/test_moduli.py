import time

import pytest

from tropilink.canonical import canonical_form
from tropilink.connectivity import edge_connectivity_capped
from tropilink.atlas import is_connected_adjacency
from tropilink.graphs import (GraphError, build_graph, dumbbell_graph, genus,
                              theta_graph)
from tropilink.moduli import (StrataPoset, Stratum, build_poset,
                              check_schottky_codim1,
                              connected_through_codim_one, poset_to_dot,
                              poset_to_json_dict)


def test_poset_2_0_shape():
    po = build_poset(2, 0)
    assert len(po.strata) == 7
    assert po.dimension_profile() == {3: 2, 2: 2, 1: 2, 0: 1}
    assert len(po.maximal_strata()) == 2
    assert po.max_dimension == 3 == 3 * 2 - 3


def test_poset_1_1_cover():
    po = build_poset(1, 1)
    assert len(po.strata) == 2
    assert po.covers == [(1, 0)] or po.covers == [(0, 1)]
    upper, lower = po.covers[0]
    assert po.strata[upper].dimension == po.strata[lower].dimension + 1
    assert po.strata[lower].wgraph.total_weight == 1


def test_3ec_maximal_stratum_is_theta():
    po = build_poset(2, 0, "3ec")
    tops = po.maximal_strata()
    assert len(tops) == 1
    assert canonical_form(po.strata[tops[0]].wgraph) == \
        canonical_form(theta_graph())


def test_covers_drop_dimension_by_one():
    for g, n in [(1, 1), (2, 0), (1, 2), (2, 1)]:
        po = build_poset(g, n)
        for a, b in po.covers:
            assert po.strata[a].dimension == po.strata[b].dimension + 1


def test_dimension_bound_and_top_strata():
    for g, n in [(1, 1), (2, 0), (2, 1), (3, 0)]:
        po = build_poset(g, n)
        top = 3 * g - 3 + n
        for s in po.strata:
            assert s.dimension <= top
            is_top = s.dimension == top
            pure_trivalent = (
                s.wgraph.total_weight == 0 and s.wgraph.graph.is_regular() == 3
            )
            assert is_top == pure_trivalent
        assert po.max_dimension == top


def test_every_stratum_below_some_maximal():
    for g, n, locus in [(2, 0, "all"), (3, 0, "3ec"), (2, 1, "all")]:
        po = build_poset(g, n, locus)
        up = {i: set() for i in range(len(po.strata))}
        for a, b in po.covers:
            up[b].add(a)
        tops = set(po.maximal_strata())
        for i in range(len(po.strata)):
            frontier = {i}
            seen = set()
            while frontier:
                x = frontier.pop()
                if x in tops:
                    break
                seen.add(x)
                frontier |= up[x] - seen
            else:
                pytest.fail(f"stratum {i} not below a maximal stratum")


def test_genus_and_legs_constant_across_poset():
    po = build_poset(2, 1)
    assert {genus(s.wgraph) for s in po.strata} == {2}
    assert {len(s.wgraph.graph.legs) for s in po.strata} == {1}


def test_codim1_connected_small():
    for g, n in [(1, 1), (1, 2), (2, 0), (2, 1), (3, 0)]:
        for locus in ("all", "pure"):
            conn, comps = connected_through_codim_one(g, n, locus)
            assert conn, (g, n, locus, comps)


TWO_LEVEL_POINTS = (
    [(g, 0, locus) for g in (2, 3, 4, 5)
     for locus in ("all", "pure", "3ec", "preg:4")]
    + [(g, n, locus) for g, n in [(1, 2), (2, 1), (2, 2), (3, 1)]
       for locus in ("all", "pure")]
    + [(6, 0, "3ec"), (6, 0, "pure")])


@pytest.mark.parametrize("g, n, locus", TWO_LEVEL_POINTS)
def test_two_levels_equal_the_full_poset_oracle(g, n, locus):
    # the check that builds only the top two levels gives the verdict and
    # the components that the whole poset gives
    from schottky_oracle import connected_through_codim_one as oracle

    po = build_poset(g, n, locus)
    want_conn, want_comps = oracle(po)
    conn, comps = connected_through_codim_one(g, n, locus)
    assert conn == want_conn
    assert comps == [[po.strata[i].key for i in c] for c in want_comps]


@pytest.mark.parametrize("g, n", [(2, 0), (3, 0), (2, 2), (3, 1), (4, 0)])
def test_pure_closure_equals_filter(g, n):
    # non-loop contractions of the trivalent classes reach every weight-0
    # stratum that filtering all of M_{g,n} keeps, and the same covers
    from schottky_oracle import filtered_pure_poset

    keys, covers = filtered_pure_poset(g, n)
    po = build_poset(g, n, "pure")
    assert [s.key for s in po.strata] == keys
    assert po.covers == covers


def test_pure_closure_genus_5_counts():
    po = build_poset(5, 0, "pure")
    assert (len(po.strata), len(po.covers)) == (1076, 4981)


def test_codim1_single_stratum():
    po = build_poset(1, 1, "pure")
    assert len(po.strata) == 1
    conn, comps = connected_through_codim_one(1, 1, "pure")
    assert conn and comps == [[po.strata[0].key]]


def test_schottky_codim1():
    assert check_schottky_codim1(2)
    assert check_schottky_codim1(3)


def test_genus_5_strata_count():
    # Maggiolo-Pagani, "Generating stable modular graphs", JSC 2011
    po = build_poset(5, 0)
    assert len(po.strata) == 4555
    assert po.max_dimension == 12
    assert po.dimension_profile()[12] == 71


def test_schottky_codim1_genus_5():
    assert check_schottky_codim1(5)


def test_schottky_codim1_genus_7_within_3_s():
    # 57 top cells and 259 of codimension one; the whole poset has 17 324
    start = time.perf_counter()
    assert check_schottky_codim1(7)
    assert time.perf_counter() - start <= 3.0


def test_schottky_maximal_dimension():
    for g in (2, 3):
        po = build_poset(g, 0, "3ec")
        assert po.max_dimension == 3 * g - 3
        for i in po.maximal_strata():
            s = po.strata[i]
            assert s.wgraph.total_weight == 0
            assert s.wgraph.graph.is_regular() == 3
            assert edge_connectivity_capped(s.wgraph.graph) == 3


def test_three_ec_locus_closed_and_filtered():
    po = build_poset(3, 0, "3ec")
    for s in po.strata:
        assert edge_connectivity_capped(s.wgraph.graph) == 3
    # downward closed: contracting stays in the locus
    keys = {s.key for s in po.strata}
    from closure_oracle import weighted_contract

    for s in po.strata:
        for e in s.wgraph.graph.edges:
            out = weighted_contract(s.wgraph, {e})
            assert canonical_form(out) in keys


def test_preg_locus():
    po = build_poset(3, 0, "preg:4")
    assert po.max_dimension == 4 * (3 - 1) // (4 - 2)
    conn, _ = connected_through_codim_one(3, 0, "preg:4")
    assert conn
    for i in po.maximal_strata():
        s = po.strata[i]
        assert s.wgraph.graph.is_regular() == 4
        assert s.wgraph.total_weight == 0
    with pytest.raises(GraphError):
        build_poset(3, 1, "preg:4")


def test_locus_rejections():
    with pytest.raises(GraphError):
        build_poset(2, 1, "3ec")
    for locus in ("all", "3ec", "preg:4"):
        with pytest.raises(GraphError, match="number of legs must be >= 0"):
            build_poset(2, -1, locus)
    with pytest.raises(GraphError):
        build_poset(0, 1, "all")
    with pytest.raises(GraphError):
        build_poset(2, 0, "bogus")


@pytest.mark.parametrize("locus", [
    "three_ec", ("preg", None), ("preg", 3), ("3ec", None),
    "preg:+3", "preg: 3", "preg:3 ", "preg:03", "preg:\u0663", "preg:3_0",
    "preg:2", "preg:-1", "preg:0", "preg:",
])
def test_only_documented_locus_spellings(locus):
    # all | pure | 3ec | preg:P with P >= 3 spelled as str() writes it; no
    # alias and no pre-parsed tuple
    with pytest.raises(GraphError, match="unknown locus"):
        build_poset(3, 0, locus)


def test_poset_exports():
    po = build_poset(2, 0)
    d = poset_to_json_dict(po)
    assert len(d["strata"]) == 7
    dot = poset_to_dot(po)
    assert "rank=same" in dot
    assert dot.count("->") == len(po.covers)


def test_pure_dimension_violations_reported_empty():
    # (4, 0, "3ec") and (5, 0, "3ec"): every 3ec stratum lies below a 3ec
    # trivalent one there, as the lemma of `build_poset` proves
    for g, n, locus in [(2, 0, "all"), (3, 0, "3ec"), (2, 1, "all"),
                        (4, 0, "3ec"), (5, 0, "3ec")]:
        po = build_poset(g, n, locus)
        assert po.pure_dimension_violations() == []


def test_hand_built_poset_violations_and_components():
    """A stratum below no maximal one, and a codimension-one locus in two
    pieces: both are reported exactly, in index order, the components by
    the full-poset oracle."""
    from schottky_oracle import connected_through_codim_one as oracle

    graphs = [
        build_graph([(0, 0)], weights={0: 1}),               # 0: dim 1
        theta_graph(),                                       # 1: dim 3
        build_graph([], weights={0: 2}, isolated=[0]),       # 2: dim 0
        build_graph([(0, 1), (0, 1)], weights={0: 1, 1: 0}),  # 3: dim 2
        dumbbell_graph(),                                    # 4: dim 3
        build_graph([(0, 1)], weights={0: 1, 1: 1}),         # 5: dim 1
    ]
    strata = [Stratum(canonical_form(g)) for g in graphs]
    assert [s.dimension for s in strata] == [1, 3, 0, 2, 3, 1]
    po = StrataPoset(2, 0, "all", strata, {(1, 3), (3, 5), (0, 2)})
    assert po.maximal_strata() == [1, 4]
    assert po.pure_dimension_violations() == [0, 2]
    assert oracle(po) == (False, [[1, 3], [4]])


def test_connected_adjacency_edge_cases():
    assert is_connected_adjacency({})
    assert is_connected_adjacency({0: set()})
    assert is_connected_adjacency({0: {1}, 1: {0}})
    assert not is_connected_adjacency({0: set(), 1: set()})
    assert not is_connected_adjacency({0: {1}, 1: {0}, 2: set()})
