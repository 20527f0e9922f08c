import importlib
import os
import pathlib
import random
import sys

import pytest

import tropilink
from tropilink.connectivity import longest_cycle
from tropilink.graphs import _component_roots, build_graph


def cli_env():
    """Environment for a child `python -m tropilink.cli`.

    The child may run in another working directory, where a relative
    PYTHONPATH such as `src` no longer resolves.  Put the directory holding
    the imported package first, so the child runs the same tropilink as
    this process; existing PYTHONPATH entries follow."""
    env = dict(os.environ)
    root = os.path.dirname(os.path.dirname(os.path.abspath(tropilink.__file__)))
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = root + (os.pathsep + rest if rest else "")
    return env


PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def perfbench_module(name: str):
    """A module of the benchmark's perfbench/ directory.  Its input
    generators and its oracle import nothing of tropilink, so tests can use
    them as independent references."""
    if str(PERFBENCH) not in sys.path:
        sys.path.insert(0, str(PERFBENCH))
    return importlib.import_module(name)


def is_hamiltonian(g, budget=None) -> bool:
    """True iff |V| >= 2 and some cycle passes through every vertex."""
    if len(g.vertices) < 2:
        return False
    c = longest_cycle(g, budget)
    return c is not None and c.length == len(g.vertices)


def is_stable(wg) -> bool:
    """Every weight-0 vertex of the weighted graph has valency >= 3, and
    every weight-1 vertex valency >= 1."""
    g = wg.graph
    for v in g.vertices:
        if wg.weight[v] == 0 and g.valency(v) < 3:
            return False
        if wg.weight[v] == 1 and g.valency(v) < 1:
            return False
    return True


def loops_at(g, v) -> int:
    """Number of loops at vertex v of g."""
    return sum(1 for e in g.edges if g.edge_ends(e) == (v, v))


def contraction_roots(g, S) -> dict[int, int]:
    """Where `contract(g, S)` sends each vertex of g: the least vertex of
    its component in (V, S)."""
    return _component_roots(g.vertices, (g.edge_ends(key) for key in S))


def b1_of_edge_subset(g, S) -> int:
    """First Betti number of the subgraph (V(g), S), summed over components.

    Equals sum over target vertices of b1 of their preimage component when S
    is the contracted set.
    """
    S = list(S)
    roots = contraction_roots(g, S)
    return len(S) - len(g.vertices) + len(set(roots.values()))


def random_connected_multigraph(rng: random.Random, max_vertices=12,
                                max_extra=8, legs=0, max_weight=0):
    """Random spanning tree plus extra edges and loops; optional legs and
    weights.  Used as raw material for conservation-law tests."""
    nv = rng.randint(1, max_vertices)
    edges = []
    for v in range(1, nv):
        edges.append((rng.randrange(v), v))
    for _ in range(rng.randint(0, max_extra)):
        a = rng.randrange(nv)
        b = rng.randrange(nv)
        edges.append((a, b))
    leg_list = [(rng.randrange(nv), i + 1) for i in range(legs)]
    weights = None
    if max_weight:
        weights = {v: rng.randint(0, max_weight) for v in range(nv)}
    return build_graph(edges, legs=leg_list, weights=weights,
                       isolated=range(nv))


@pytest.fixture
def rng():
    return random.Random(20260810)
