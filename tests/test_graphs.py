import json

import pytest

from tropilink.connectivity import Cycle
from tropilink.graphs import (Graph, GraphError, WeightedGraph, build_graph,
                              contract, dumbbell_graph, dumps_canonical,
                              from_json_dict, genus, k4_graph, petersen_graph,
                              theta_graph, to_dot, to_json_dict,
                              underlying_graph)

from closure_oracle import weighted_contract
from conftest import (b1_of_edge_subset, contraction_roots, is_stable,
                      loops_at, random_connected_multigraph)


def test_genus_theta():
    assert genus(WeightedGraph(theta_graph())) == 2


def test_genus_single_weighted_vertex():
    wg = build_graph([], isolated=[0], weights={0: 2})
    assert genus(wg) == 2


def test_genus_k4():
    assert genus(WeightedGraph(k4_graph())) == 3


def test_graph_invariants_enforced():
    with pytest.raises(GraphError):
        Graph([0, 1], {}, {}, None)  # two vertices, nothing joining them
    with pytest.raises(GraphError):
        Graph([0], {0: 1, 1: 2, 2: 0}, {0: 0, 1: 0, 2: 0}, None)  # not involutive
    with pytest.raises(GraphError):
        # legs need distinct labels
        Graph([0], {0: 0, 1: 1}, {0: 0, 1: 0}, {0: 1, 1: 1})


def test_unknown_edge_key_is_a_graph_error():
    g = petersen_graph()
    leg = build_graph([(0, 0), (0, 1), (1, 1)], legs=[(0, 1)])
    for call in (lambda: g.edge_halves(999), lambda: g.edge_ends(999),
                 lambda: g.is_loop(999), lambda: g.other_end(999, 0),
                 lambda: Cycle(g, [0, 1], [999, 0])):
        with pytest.raises(GraphError, match="edge 999 does not exist"):
            call()
    with pytest.raises(GraphError, match="6 is a leg, not an edge"):
        leg.edge_ends(6)


@pytest.mark.parametrize("args", [
    ([(0.5, 1), (1, 0.5), (0.5, 1)], {}),
    ([(0, 1), (0, 1), (0, True)], {}),
    ([(0, 1), (0, 1), (0, "1")], {}),
    ([(0, 1), (0, 1), (0, 1)], {"isolated": [2.0]}),
    ([(0, 0), (0, 1)], {"legs": [(1.0, 1)]}),
    ([(0, 0), (0, 1)], {"legs": [(1, 1.0)]}),
    ([(0, 0), (0, 1)], {"legs": [(1, True)]}),
    ([(0, 1), (0, 1), (0, 1)], {"weights": {0: 1.5}}),
    ([(0, 1), (0, 1), (0, 1)], {"weights": {0: False}}),
    ([(0, 1), (0, 1), (0, 1)], {"weights": {0.0: 1}}),
], ids=["float-id", "bool-id", "str-id", "float-isolated", "float-leg-vertex",
        "float-label", "bool-label", "float-weight", "bool-weight",
        "float-weight-vertex"])
def test_build_graph_rejects_non_int_ids_labels_and_weights(args):
    edges, kwargs = args
    with pytest.raises(GraphError, match="must be ints"):
        build_graph(edges, **kwargs)


def test_valency_counts_loops_twice_and_legs_once():
    g = build_graph([(0, 0), (0, 1)], legs=[(1, 1)])
    assert g.valency(0) == 3
    assert g.valency(1) == 2
    assert loops_at(g, 0) == 1


def test_contract_theta_edge_gives_two_loops():
    t = theta_graph()
    g = contract(t, {0})
    assert len(g.vertices) == 1 and len(g.edges) == 2
    assert all(g.is_loop(e) for e in g.edges)
    assert t.edge_ends(0)[0] == g.vertices[0]
    assert set(g.edges) == set(t.edges) - {0}


def test_contract_empty_set_is_identity_correspondence():
    t = theta_graph()
    g = contract(t, set())
    assert g == t
    assert set(g.edges) == set(t.edges)
    assert contraction_roots(t, set()) == {v: v for v in t.vertices}


def test_contract_dumbbell_bridge():
    d = dumbbell_graph()
    bridge = next(e for e in d.edges if not d.is_loop(e))
    g = contract(d, {bridge})
    assert len(g.vertices) == 1
    assert sorted(g.is_loop(e) for e in g.edges) == [True, True]


def test_contract_rejects_legs():
    g = build_graph([(0, 1), (0, 1), (0, 1)], legs=[(0, 1)])
    leg = g.legs[0]
    with pytest.raises(GraphError):
        contract(g, {leg})


def test_weighted_contract_loop_gains_weight():
    wg = build_graph([(0, 0), (0, 1), (0, 1), (0, 1)], weights={0: 0, 1: 0})
    loop = next(e for e in wg.graph.edges if wg.graph.is_loop(e))
    out = weighted_contract(wg, {loop})
    assert out.weight[0] == 1


def test_weighted_contract_all_theta_edges():
    wg = WeightedGraph(theta_graph())
    out = weighted_contract(wg, set(wg.graph.edges))
    assert len(out.graph.vertices) == 1
    assert out.total_weight == 2
    assert genus(out) == 2


def test_component_roots_are_least_vertices(rng):
    from tropilink.graphs import _component_roots

    for _ in range(300):
        vertices = rng.sample(range(-20, 20), rng.randint(1, 12))
        pairs = [(rng.choice(vertices), rng.choice(vertices))
                 for _ in range(rng.randint(0, 14))]
        adj = {v: set() for v in vertices}
        for a, b in pairs:
            adj[a].add(b)
            adj[b].add(a)
        want = {}
        for v in sorted(vertices):  # the first vertex reached is the least
            if v not in want:
                stack = [v]
                while stack:
                    u = stack.pop()
                    if u not in want:
                        want[u] = v
                        stack.extend(adj[u])
        assert _component_roots(vertices, pairs) == want


def test_contraction_betti_decomposition_randomized(rng):
    # b1(G) = b1(G/S) + b1(G - T) and the per-vertex decomposition
    for _ in range(300):
        g = random_connected_multigraph(rng, max_vertices=9, max_extra=7)
        edges = list(g.edges)
        S = {e for e in edges if rng.random() < 0.4}
        target = contract(g, S)
        roots = contraction_roots(g, S)
        assert g.b1 == target.b1 + b1_of_edge_subset(g, S)
        comp_b1 = {}
        comp_sizes = {}
        for v in g.vertices:
            comp_sizes[roots[v]] = comp_sizes.get(roots[v], 0) + 1
        for e in S:
            vbar = roots[g.edge_ends(e)[0]]
            comp_b1[vbar] = comp_b1.get(vbar, 0) + 1
        per_vertex = sum(
            comp_b1.get(vbar, 0) - comp_sizes[vbar] + 1 for vbar in target.vertices
        )
        assert per_vertex == b1_of_edge_subset(g, S)


def test_weighted_contract_preserves_genus_and_legs_randomized(rng):
    for _ in range(200):
        wg = random_connected_multigraph(rng, max_vertices=8, max_extra=6,
                                         legs=rng.randint(0, 3), max_weight=2)
        S = {e for e in wg.graph.edges if rng.random() < 0.5}
        out = weighted_contract(wg, S)
        assert genus(out) == genus(wg)
        assert len(out.graph.legs) == len(wg.graph.legs)


def test_stability_predicate():
    wg = build_graph([(0, 1), (0, 1), (0, 1)], weights={0: 0, 1: 0})
    assert is_stable(wg)
    lollipop = build_graph([(0, 0), (0, 1)], weights={0: 0, 1: 1})
    assert is_stable(lollipop)
    bad = build_graph([(0, 1)], weights={0: 0, 1: 1})
    assert not is_stable(bad)


# -- serialization ------------------------------------------------------------


def test_json_round_trip_graph():
    g = petersen_graph()
    s = dumps_canonical(to_json_dict(g))
    again = from_json_dict(json.loads(s))
    assert again == g
    assert dumps_canonical(to_json_dict(again)) == s


def test_json_round_trip_weighted_legged():
    wg = build_graph([(0, 1), (0, 1), (0, 1)], legs=[(1, 1), (0, 2)],
                     weights={0: 1, 1: 0})
    s = dumps_canonical(to_json_dict(wg))
    again = from_json_dict(json.loads(s))
    assert isinstance(again, WeightedGraph)
    assert again == wg
    assert dumps_canonical(to_json_dict(again)) == s


def test_json_malformed_rejected():
    with pytest.raises(GraphError):
        from_json_dict({"vertices": "nope"})


def test_underlying_graph_rejects_vertex_weights():
    g = theta_graph()
    assert underlying_graph(g) is g
    assert underlying_graph(WeightedGraph(g)) is g
    with pytest.raises(GraphError, match="vertex weights"):
        underlying_graph(WeightedGraph(g, {0: 3}))
    with pytest.raises(GraphError):
        underlying_graph(to_json_dict(g))


def test_dot_export_mentions_weights_and_legs():
    wg = build_graph([(0, 0), (0, 1)], legs=[(1, 1)], weights={0: 2, 1: 0})
    dot = to_dot(wg)
    assert "w=2" in dot
    assert "leg 1" in dot
    assert dot.count("--") == 3  # loop, edge, leg stub
