"""edge_connectivity_capped (cycle-space labels) against the brute force it
replaced, exhaustively on small classes and by hypothesis beyond them."""

import random
from itertools import combinations

from hypothesis import given, settings, strategies as st

from tropilink.atlas import enumerate_p_regular
from tropilink.connectivity import edge_connectivity_capped
from tropilink.graphs import build_graph, contract

from conftest import random_connected_multigraph


def _connected_without(g, removed):
    parent = {v: v for v in g.vertices}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for e in g.edges:
        if e in removed:
            continue
        a, b = g.edge_ends(e)
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    root = find(g.vertices[0])
    return all(find(v) == root for v in g.vertices)


def brute_force_edge_connectivity(g, cap=3):
    """Largest k <= cap such that no removal of fewer than k edges
    disconnects g.  Exact by exhaustion; legs are never removed."""
    if len(g.vertices) == 1:
        return cap
    for size in range(1, cap):
        for F in combinations(g.edges, size):
            if not _connected_without(g, frozenset(F)):
                return size
    return cap


def _agree(g):
    want = brute_force_edge_connectivity(g)
    assert edge_connectivity_capped(g) == want, g
    return want


def test_oracle_small_cases():
    assert brute_force_edge_connectivity(build_graph([(0, 0), (0, 1), (1, 1)])) == 1
    assert brute_force_edge_connectivity(build_graph([(0, 1), (1, 2), (2, 0)])) == 2
    assert brute_force_edge_connectivity(build_graph([(0, 1)] * 3)) == 3


def test_labels_match_brute_force_on_every_small_class():
    seen = set()
    for p, b in ((3, 2), (3, 3), (3, 4), (4, 3), (4, 4)):
        for g in enumerate_p_regular(p, b):
            seen.add(_agree(g))
            for e in g.edges:
                if not g.is_loop(e):
                    seen.add(_agree(contract(g, {e})))
    assert seen == {1, 2, 3}


def test_labels_match_brute_force_on_seeded_multigraphs():
    rng = random.Random(3028)
    seen = set()
    for _ in range(400):
        g = random_connected_multigraph(rng, max_vertices=10, max_extra=14,
                                        legs=rng.randint(0, 3))
        seen.add(_agree(g))
    assert seen == {1, 2, 3}


@st.composite
def multigraphs(draw):
    """Connected multigraphs with loops, parallel edges and legs: a random
    spanning tree plus extra edges, under a random vertex relabeling."""
    nv = draw(st.integers(1, 7))
    name = draw(st.permutations(range(nv)))
    pairs = [(draw(st.integers(0, v - 1)), v) for v in range(1, nv)]
    vertex = st.integers(0, nv - 1)
    pairs += draw(st.lists(st.tuples(vertex, vertex), max_size=12))
    legs = draw(st.lists(vertex, max_size=3))
    return build_graph(
        [(name[a], name[b]) for a, b in pairs],
        legs=[(name[v], i + 1) for i, v in enumerate(legs)],
        isolated=range(nv),
    )


def test_labels_match_brute_force_by_hypothesis():
    seen = set()

    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(multigraphs())
    def check(g):
        seen.add(_agree(g))

    check()
    assert seen == {1, 2, 3}
