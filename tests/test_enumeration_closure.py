"""The closure enumerators against the matrix-enumeration oracle.

Class lists must agree key for key, in order; poset covers must equal the
edge-by-edge recomputation; move graphs must equal the pairwise
recomputation edge for edge; and a representative must not depend on how
its class was labeled when it was found.  The strata closure, which
contracts canonical keys, must equal the graph-level closure of
closure_oracle.py key for key and cover for cover; the strong-link move,
which splits merged rows of canonical keys, must reach the targets of the
graph-level move of closure_oracle.py from every class.
"""

import contextlib
import io
import random
import sys
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from tropilink import atlas, canonical, cli, graphs, moduli
from tropilink.atlas import (_classes, _closure, _seed, _strong_links,
                             enumerate_p_regular, enumerate_stable, move_graph,
                             regular_counts)
from tropilink.canonical import canonical_form, from_canonical_form
from tropilink.connectivity import edge_connectivity_capped
from tropilink.graphs import (Graph, WeightedGraph, build_graph, contract,
                              dumps_canonical, genus, to_json_dict)
from tropilink.moduli import build_poset

import closure_oracle
import enumeration_oracle as oracle
from conftest import random_connected_multigraph

MOVE_GRAPH_POINTS = [
    (3, 2, 0), (3, 3, 0), (3, 4, 0), (3, 5, 0), (4, 3, 0), (4, 4, 0),
    (5, 4, 0),
    (3, 1, 3), (3, 1, 4), (3, 2, 1), (3, 2, 2), (3, 3, 1), (3, 3, 2),
]


def keys(graphs):
    return [canonical_form(g) for g in graphs]


@lru_cache(maxsize=None)
def oracle_stable(g, n):
    return tuple(oracle.enumerate_stable(g, n))


@pytest.mark.parametrize("p, b, filt, legs", [
    (3, 2, "all", 0), (3, 3, "all", 0), (3, 4, "all", 0), (3, 4, "3ec", 0),
    (4, 2, "all", 0), (4, 3, "all", 0), (4, 4, "all", 0), (4, 5, "all", 0),
    (5, 4, "all", 0),
    (3, 0, "all", 3), (3, 0, "all", 4),
    (3, 1, "all", 1), (3, 1, "all", 2), (3, 2, "all", 1), (3, 2, "all", 2),
    (3, 3, "all", 1), (4, 2, "all", 2), (4, 2, "all", 4), (4, 3, "all", 2),
])
def test_p_regular_classes_match_oracle(p, b, filt, legs):
    got = enumerate_p_regular(p, b, filt, legs=legs)
    want = oracle.enumerate_p_regular(p, b, filt, legs=legs)
    assert want
    assert keys(got) == keys(want)


@pytest.mark.parametrize("g, n", [
    (0, 3), (0, 4), (0, 5), (1, 1), (1, 2), (1, 3), (2, 0), (2, 1), (2, 2),
    (3, 0), (3, 1),
])
def test_stable_strata_match_oracle(g, n):
    assert keys(enumerate_stable(g, n)) == keys(oracle_stable(g, n))


@pytest.mark.parametrize("g, n", [(3, 0), (2, 2), (3, 1)])
def test_closure_covers_match_recomputation(g, n):
    poset = build_poset(g, n)
    want = oracle_stable(g, n)
    assert [s.key for s in poset.strata] == keys(want)
    assert poset.covers == oracle.one_edge_covers(want)


@pytest.mark.parametrize("g, n", [(g, n) for g in range(6)
                                  for n in range(6 - g) if 2 * g - 2 + n > 0])
def test_key_closure_matches_graph_closure(g, n):
    """Keys and covers equal the graph-level closure's, strata come in key
    order, and the dimension and genus read off a key are those of the
    graph rebuilt from it."""
    want = closure_oracle.contraction_closure(_classes(3, g, "all", n)[0])
    keys = sorted(want)
    index = {k: i for i, k in enumerate(keys)}
    poset = build_poset(g, n)
    assert [s.key for s in poset.strata] == keys
    assert poset.covers == sorted((index[k], index[t])
                                  for k in keys for t in want[k])
    for s in poset.strata:
        wg = s.wgraph
        assert s.dimension == len(wg.graph.edges)
        assert s.genus == genus(wg) == g
        assert len(wg.graph.legs) == n


def _codim1_graph_builds(monkeypatch, locus):
    built = []

    def rebuild(key):
        built.append(key)
        return from_canonical_form(key)

    monkeypatch.setattr(moduli, "from_canonical_form", rebuild)
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["check-codim1", "--genus", "3", "--locus", locus])
    assert rc == 0
    return len(built)


@pytest.mark.parametrize("locus", ["all", "pure", "3ec"])
def test_check_codim1_builds_no_stratum_graph(monkeypatch, locus):
    # the 3ec strata are the closure of the 3ec trivalent classes, with no
    # filter to rebuild them for
    assert _codim1_graph_builds(monkeypatch, locus) == 0


STRONG_LINK_POINTS = [
    (3, 2, 0), (3, 3, 0), (3, 4, 0), (3, 5, 0),
    (4, 2, 0), (4, 3, 0), (4, 4, 0), (4, 5, 0),
    (3, 3, 1), (3, 2, 2), (3, 3, 2), (3, 4, 1), (3, 2, 3), (3, 1, 3),
    (3, 0, 4), (4, 3, 2), (5, 4, 0),
]


def _seed_key(p, b, legs):
    return canonical_form(_seed(p, regular_counts(p, b, legs)[0], legs))


@pytest.mark.parametrize("p, b, legs", STRONG_LINK_POINTS)
def test_key_strong_links_match_graph_move(p, b, legs):
    """Every class's targets, self-links included, equal the graph-level
    move's."""
    seed = _seed_key(p, b, legs)
    assert _closure([seed], _strong_links) == \
        _closure([seed], closure_oracle.strong_links)


def _random_regular(rng, p, nv, legs):
    """A random connected p-regular multigraph on nv vertices with legs
    1..legs: the p slots of every vertex shuffled, legs on the first ones,
    the rest paired in turn, drawn again until connected."""
    while True:
        slots = [v for v in range(nv) for _ in range(p)]
        rng.shuffle(slots)
        rest = slots[legs:]
        edges = list(zip(rest[::2], rest[1::2]))
        if len(set(graphs._component_roots(range(nv), edges).values())) == 1:
            return build_graph(edges, legs=zip(slots, range(1, legs + 1)),
                               isolated=range(nv))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.integers(0, 10**9), st.integers(3, 5), st.integers(1, 6),
       st.integers(0, 4))
def test_key_strong_links_match_graph_move_random(seed, p, nv, legs):
    legs = min(legs, p * nv)
    legs += (p * nv - legs) % 2
    key = canonical_form(_random_regular(random.Random(seed), p, nv, legs))
    assert set(_strong_links(key)) == set(closure_oracle.strong_links(key))


def _forbidden(*args, **kwargs):
    raise AssertionError("the key closure called a graph-level move")


def _closure_graph_builds(monkeypatch, argv):
    """Graphs constructed inside `atlas._classes` while the CLI runs."""
    inside, built = [False], []
    classes, init = atlas._classes, Graph.__init__

    def counted_classes(*args):
        inside[0] = True
        try:
            return classes(*args)
        finally:
            inside[0] = False

    def counted_init(self, *args, **kwargs):
        if inside[0]:
            built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(atlas, "_classes", counted_classes)
    monkeypatch.setattr(Graph, "__init__", counted_init)
    monkeypatch.setattr(graphs, "contract", _forbidden)
    # tropilink.hamiltonize is the function; the module is in sys.modules
    monkeypatch.setattr(sys.modules["tropilink.hamiltonize"], "vertex_splits",
                        _forbidden)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    return len(built)


@pytest.mark.parametrize("command", ["enumerate", "movegraph"])
def test_strong_link_closure_builds_only_the_seed_graph(monkeypatch, command):
    assert not hasattr(atlas, "contract")
    assert not hasattr(atlas, "vertex_splits")
    argv = [command, "--p", "3", "--genus", "4"]
    assert _closure_graph_builds(monkeypatch, argv) == 1


@pytest.mark.parametrize("b, filt, classes, budget", [
    (5, "all", 71, 520), (6, "3ec", 14, 128),
])
def test_key_strong_links_halve_the_canonical_searches(monkeypatch, b, filt,
                                                       classes, budget):
    """The class closure contracts one adjacent pair per automorphism
    orbit: at (3, 5) it takes 520 canonical searches, not the 814 of one
    pass per pair, and 128, not 379, for the 3ec classes of genus 6.  The
    key move needs less than half the searches of the graph-level move."""
    runs = []
    run = canonical._Canonizer.run

    def counted(self):
        runs.append(self)
        return run(self)

    monkeypatch.setattr(canonical._Canonizer, "run", counted)
    assert len(_classes(3, b, filt, 0)[0]) == classes
    assert len(runs) <= budget
    if filt == "3ec":
        return
    seed = _seed_key(3, b, 0)
    searches = []
    for move in (_strong_links, closure_oracle.strong_links):
        runs.clear()
        assert len(_closure([seed], move)) == classes
        searches.append(len(runs))
    assert searches[0] < searches[1] / 2


@pytest.mark.parametrize("legs, classes, searches", [(2, 10, 42), (3, 58, 377)])
def test_key_strong_links_skip_the_self_search_that_merges_nothing(
        monkeypatch, legs, classes, searches):
    """With labeled legs most classes have pairwise distinct vertex
    colours, which only the identity preserves, so their automorphism
    search is skipped: the closure of the genus-2 classes with 2 and 3 legs
    takes 42 and 377 canonical searches, not 45 and 389.  The targets are
    those of the graph-level move (`test_key_strong_links_match_graph_move`
    covers both points)."""
    runs = []
    run = canonical._Canonizer.run

    def counted(self):
        runs.append(self)
        return run(self)

    monkeypatch.setattr(canonical._Canonizer, "run", counted)
    assert len(_classes(3, 2, "all", legs)[0]) == classes
    assert len(runs) == searches


def _shuffled(obj, rng):
    """The same graph with its vertex and half-edge ids renamed at random."""
    wg = obj if isinstance(obj, WeightedGraph) else WeightedGraph(obj)
    g = wg.graph
    vs = rng.sample(range(100, 200), len(g.vertices))
    hs = rng.sample(range(1000, 2000), len(g.half_edges))
    rv = dict(zip(g.vertices, vs))
    rh = dict(zip(g.half_edges, hs))
    out = Graph(vs, {rh[h]: rh[k] for h, k in g.involution.items()},
                {rh[h]: rv[v] for h, v in g.endpoint.items()},
                {rh[h]: lab for h, lab in g.leg_labels.items()})
    return WeightedGraph(out, {rv[v]: w for v, w in wg.weight.items()})


def test_representatives_do_not_depend_on_labeling():
    rng = random.Random(6)
    classes = (enumerate_p_regular(3, 4) + enumerate_p_regular(3, 2, legs=2)
               + enumerate_stable(2, 1))
    for rep in classes:
        for _ in range(3):
            again = from_canonical_form(canonical_form(_shuffled(rep, rng)))
            assert dumps_canonical(to_json_dict(again)) == \
                dumps_canonical(to_json_dict(rep))


@pytest.mark.parametrize("filt", ["all", "3ec"])
@pytest.mark.parametrize("p, b, legs", MOVE_GRAPH_POINTS)
def test_move_graph_matches_pairwise_oracle(p, b, legs, filt):
    keys, adj = move_graph(p, b, filt, legs=legs)
    classes = [from_canonical_form(k).graph for k in keys]
    assert [to_json_dict(g) for g in classes] == \
        [to_json_dict(g) for g in enumerate_p_regular(p, b, filt, legs=legs)]
    assert adj == oracle.move_graph(classes, three_ec_middles=filt == "3ec")
    if filt == "3ec":
        # restricting the middles as well changes nothing (see below)
        assert adj == oracle.move_graph(classes)


def _assert_contraction_keeps_connectivity(g):
    lam = edge_connectivity_capped(g)
    for e in g.edges:
        if not g.is_loop(e):
            assert edge_connectivity_capped(contract(g, {e})) >= lam


@pytest.mark.parametrize("p, b, legs", MOVE_GRAPH_POINTS)
def test_contraction_never_lowers_edge_connectivity(p, b, legs):
    """lambda(G/e) >= lambda(G), capped at 3: every cut of G/e is a cut of
    G, so a 3-edge-connected class links only through 3-edge-connected
    middles."""
    for g in enumerate_p_regular(p, b, legs=legs):
        _assert_contraction_keeps_connectivity(g)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(0, 10**9), st.integers(1, 9), st.integers(0, 8),
       st.integers(0, 3))
def test_contraction_never_lowers_edge_connectivity_random(seed, nv, extra,
                                                           legs):
    rng = random.Random(seed)
    _assert_contraction_keeps_connectivity(random_connected_multigraph(
        rng, max_vertices=nv, max_extra=extra, legs=legs))
