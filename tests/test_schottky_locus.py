"""The 3ec locus from its top cells, against the filter path.

`atlas._classes(p, b, "3ec")` closes the 3ec classes from the p-polygon
under 3ec strong links, and `build_poset(g, 0, "3ec")` closes the strata
below the 3ec trivalent classes with no filter.  Both must equal the
filter path of schottky_oracle.py; and the lemma that makes the strata
closure complete is run step by step on every 3ec stratum up to genus 5
and on random 3ec weighted multigraphs.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from tropilink import atlas, moduli
from tropilink.atlas import _classes, move_graph
from tropilink.moduli import build_poset, check_schottky_codim1

import schottky_oracle as so
from schottky_oracle import oracle


@pytest.mark.parametrize("g", [2, 3, 4, 5])
def test_strata_closure_equals_filter(g):
    keys, covers = so.filtered_poset(g)
    po = build_poset(g, 0, "3ec")
    assert [s.key for s in po.strata] == keys
    assert po.covers == covers
    assert _classes(3, g, "3ec", 0)[0] == \
        [k for k in keys if sum(map(sum, k[1])) == 3 * g - 3]


@pytest.mark.parametrize("p, b", [
    (3, 2), (3, 3), (3, 4), (3, 5), (4, 3), (4, 4), (4, 5), (4, 6), (5, 4),
    (5, 7),
])
def test_class_closure_equals_filter(p, b):
    assert move_graph(p, b, "3ec") == so.filtered_move_graph(p, b)


def test_class_closure_starts_at_the_polygon(monkeypatch):
    seeds = []
    polygon = atlas.build_polygon

    def counted(p, nv):
        seeds.append((p, nv))
        return polygon(p, nv)

    monkeypatch.setattr(atlas, "build_polygon", counted)
    _classes(4, 5, "3ec", 0)
    _classes(4, 2, "3ec", 0)   # one vertex: the single class is the seed
    _classes(3, 2, "3ec", 2)   # legs: the filter path
    assert seeds == [(4, 4)]


def test_schottky_codim1_genus_6(monkeypatch):
    # the check reads the top two levels only; the whole locus is built
    # separately, and every stratum of it lies below a top cell
    def refused(*args):
        raise AssertionError("the codimension-one check built the poset")

    monkeypatch.setattr(moduli, "build_poset", refused)
    assert check_schottky_codim1(6)
    monkeypatch.undo()
    po = build_poset(6, 0, "3ec")
    assert (len(po.strata), len(po.covers)) == (1347, 8505)
    assert po.pure_dimension_violations() == []


def _assert_lifts(weights, edges):
    """Every step of the lemma keeps 3ec, the genus and stability, and
    contracting its new edge gives the graph before; the last graph is
    trivalent of weight 0, after one step per missing edge."""
    before = so.to_oracle(weights, edges)
    g, steps = before.genus(), 0
    for lifted, lifted_edges, e in so.lift(weights, edges):
        after = so.to_oracle(lifted, lifted_edges)
        assert oracle.edge_connectivity(after) >= 3
        assert after.genus() == g
        val = after.valency()
        assert all(2 * w + val[v] >= 3 for v, w in after.weight.items())
        assert oracle.isomorphic(after.contract(2 * e)[0], before)
        before, steps = after, steps + 1
    assert set(before.weight.values()) == {0}
    assert set(before.valency().values()) == {3}
    assert steps == 3 * g - 3 - len(edges)


@pytest.mark.parametrize("g", [2, 3, 4, 5])
def test_every_3ec_stratum_lifts_to_a_3ec_trivalent_graph(g):
    for key in so.filtered_poset(g)[0]:
        _assert_lifts(*so.from_key(key))


def _random_3ec(rng, nv, extra, loops, max_weight):
    """A random 3ec stable weighted multigraph with loops: a hamiltonian
    cycle, random edges and loops, and then random edges until it is 3ec
    (on one vertex, loops until its genus is 2)."""
    edges = [(v, (v + 1) % nv) for v in range(nv)] if nv > 1 else []
    edges += [tuple(rng.sample(range(nv), 2)) for _ in range(extra * (nv > 1))]
    edges += [(v, v) for v in (rng.randrange(nv) for _ in range(loops))]
    weights = [rng.randint(0, max_weight) for _ in range(nv)]
    while not so.is_3ec(weights, edges):
        edges.append(tuple(rng.sample(range(nv), 2)))
    while nv == 1 and len(edges) + weights[0] < 2:
        edges.append((0, 0))
    return weights, edges


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.integers(0, 10**9), st.integers(1, 7), st.integers(0, 6),
       st.integers(0, 3), st.integers(0, 2))
def test_random_3ec_graphs_lift(seed, nv, extra, loops, max_weight):
    _assert_lifts(*_random_3ec(random.Random(seed), nv, extra, loops,
                               max_weight))
