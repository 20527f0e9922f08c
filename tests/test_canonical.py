import random

import pytest
from hypothesis import given, settings, strategies as st

from tropilink.canonical import (are_isomorphic, canonical_form, form_hash,
                                 isomorphism_witness)
from tropilink.graphs import (Graph, WeightedGraph, build_graph, dumbbell_graph,
                              k4_graph, petersen_graph, theta_graph)
from tropilink.normal_form import build_polygon

from conftest import random_connected_multigraph


def relabel(g: Graph, vperm, hperm):
    inv = {hperm[h]: hperm[g.involution[h]] for h in g.half_edges}
    ep = {hperm[h]: vperm[g.endpoint[h]] for h in g.half_edges}
    labels = {hperm[h]: lab for h, lab in g.leg_labels.items()}
    return Graph([vperm[v] for v in g.vertices], inv, ep, labels)


def shuffled_copy(g: Graph, rng: random.Random) -> Graph:
    vs = list(g.vertices)
    hs = list(g.half_edges)
    vt, ht = vs[:], hs[:]
    rng.shuffle(vt)
    rng.shuffle(ht)
    return relabel(g, dict(zip(vs, vt)), dict(zip(hs, ht)))


def test_k4_relabeled_equal_encoding(rng):
    k = k4_graph()
    assert canonical_form(k) == canonical_form(shuffled_copy(k, rng))


def test_theta_vs_dumbbell_differ():
    assert canonical_form(theta_graph()) != canonical_form(dumbbell_graph())


def test_polygon34_is_k4():
    assert canonical_form(build_polygon(3, 4)) == canonical_form(k4_graph())


def test_relabeling_invariance_randomized(rng):
    for _ in range(150):
        g = random_connected_multigraph(rng, max_vertices=8, max_extra=6,
                                        legs=rng.randint(0, 2))
        assert canonical_form(g) == canonical_form(shuffled_copy(g, rng))


def test_weights_distinguish():
    a = build_graph([(0, 1), (0, 1), (0, 1)], weights={0: 1, 1: 0})
    b = build_graph([(0, 1), (0, 1), (0, 1)], weights={0: 0, 1: 1})
    c = build_graph([(0, 1), (0, 1), (0, 1)], weights={0: 0, 1: 0})
    assert canonical_form(a) == canonical_form(b)
    assert canonical_form(a) != canonical_form(c)


def test_leg_labels_respected():
    a = build_graph([(0, 1), (0, 1), (0, 1)], legs=[(0, 1), (1, 2)])
    b = build_graph([(0, 1), (0, 1), (0, 1)], legs=[(0, 2), (1, 1)])
    both = build_graph([(0, 1), (0, 1), (0, 1)], legs=[(0, 1), (0, 2)])
    # swapping which vertex carries which label is a symmetry of theta
    assert are_isomorphic(a, b)
    assert not are_isomorphic(a, both)
    c = build_graph([(0, 1), (0, 1), (0, 0), (1, 1)], legs=[(0, 1), (1, 2)])
    d = build_graph([(0, 1), (0, 1), (0, 0), (1, 1)], legs=[(0, 2), (1, 1)])
    assert are_isomorphic(c, d)  # again symmetric
    e = build_graph([(0, 1), (0, 1), (0, 0), (1, 1)], legs=[(0, 1), (0, 2)])
    f = build_graph([(0, 1), (0, 1), (0, 0), (1, 1)], legs=[(1, 1), (1, 2)])
    assert are_isomorphic(e, f)
    relabeled = build_graph([(0, 1), (0, 1), (0, 1)], legs=[(0, 1), (1, 3)])
    assert not are_isomorphic(a, relabeled)


def test_marked_is_keyword_only():
    with pytest.raises(TypeError):
        canonical_form(theta_graph(), "labeled")


def test_marked_vertices_break_symmetry():
    t = theta_graph()
    a = canonical_form(t, marked={0})
    b = canonical_form(t, marked={1})
    assert a == b  # theta swaps its vertices
    path = build_graph([(0, 1), (0, 1), (1, 2), (1, 2)])
    assert canonical_form(path, marked={0}) == canonical_form(path, marked={2})
    assert canonical_form(path, marked={0}) != canonical_form(path, marked={1})


def _check_witness(a, b, w):
    av, ae, al = w
    ga = a.graph if isinstance(a, WeightedGraph) else a
    gb = b.graph if isinstance(b, WeightedGraph) else b
    assert sorted(av) == list(ga.vertices)
    assert sorted(av.values()) == list(gb.vertices)
    for e in ga.edges:
        x, y = ga.edge_ends(e)
        tx, ty = av[x], av[y]
        assert gb.edge_ends(ae[e]) == ((tx, ty) if tx <= ty else (ty, tx))
    for h in ga.legs:
        assert gb.endpoint[al[h]] == av[ga.endpoint[h]]
        assert gb.leg_labels[al[h]] == ga.leg_labels[h]
    if isinstance(a, WeightedGraph):
        for v in ga.vertices:
            assert a.weight[v] == b.weight[av[v]]


def shuffled_weighted_copy(wg: WeightedGraph, rng: random.Random):
    g = wg.graph
    vs, hs = list(g.vertices), list(g.half_edges)
    vt, ht = vs[:], hs[:]
    rng.shuffle(vt)
    rng.shuffle(ht)
    vperm = dict(zip(vs, vt))
    out = relabel(g, vperm, dict(zip(hs, ht)))
    return WeightedGraph(out, {vperm[v]: w for v, w in wg.weight.items()})


def test_witness_is_valid_isomorphism(rng):
    for _ in range(60):
        g = random_connected_multigraph(rng, max_vertices=7, max_extra=5,
                                        legs=rng.randint(0, 2), max_weight=1)
        h = shuffled_weighted_copy(g, rng)
        w = isomorphism_witness(g, h)
        assert w is not None
        _check_witness(g, h, w)
        w2 = isomorphism_witness(g.graph, h.graph)
        assert w2 is not None
        _check_witness(g.graph, h.graph, w2)


def test_witness_maps_marks_onto_marks():
    path = build_graph([(0, 1), (0, 1), (1, 2), (1, 2)])
    w = isomorphism_witness(path, path, marked=({0}, {2}))
    assert w is not None and w[0][0] == 2
    _check_witness(path, path, w)
    assert isomorphism_witness(path, path, marked=({0}, {1})) is None
    assert isomorphism_witness(path, path, marked=({0}, ())) is None


def test_petersen_selfisomorphic_nontrivially(rng):
    p = petersen_graph()
    q = shuffled_copy(p, rng)
    w = isomorphism_witness(p, q)
    assert w is not None
    _check_witness(p, q, w)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 10**9), st.integers(2, 8), st.integers(0, 6))
def test_canonical_form_is_class_function(seed, nv, extra):
    rng = random.Random(seed)
    g = random_connected_multigraph(rng, max_vertices=nv, max_extra=extra)
    assert canonical_form(g) == canonical_form(shuffled_copy(g, rng))
    assert form_hash(canonical_form(g)) == \
        form_hash(canonical_form(shuffled_copy(g, rng)))
