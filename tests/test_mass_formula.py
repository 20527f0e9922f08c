"""Completeness of the class enumeration by a mass formula.

Weight each connected p-regular multigraph on n vertices by 1/|Aut G|,
where Aut G acts on half-edges: the vertex automorphisms that keep edge
multiplicities and loop counts, times m! for each set of m parallel edges,
times l!·2^l for the l loops at a vertex.  Pairing the half-edges of m
labeled p-valent vertices in all (pm-1)!! ways counts every p-regular
multigraph on m vertices, connected or not, m!·(p!)^m/|Aut G| times, so
the weighted sum over connected classes on n vertices is the coefficient
of x^n in log Σ_m (pm-1)!!/(m!·(p!)^m)·x^m (Bender and Canfield, 1978;
Bollobás, 1980).  A missing class lowers the sum, and a class listed twice
raises it.

The classes are `atlas._classes`' strong-link closure; |Aut G| comes from
networkx, so the sum checks the closure against no code of its own.  The
networkx 3-edge-connectivity filter of the checked cubic classes is then
an independent top-cell set for the 3ec locus.
"""

from fractions import Fraction
from math import factorial

import networkx as nx
import pytest
from networkx.algorithms.isomorphism import GraphMatcher

from tropilink.atlas import _classes, regular_counts

import schottky_oracle as so


def _double_factorial(k: int) -> int:
    out = 1
    while k > 1:
        out, k = out * k, k - 2
    return out


def connected_mass(p: int, n: int) -> Fraction:
    """[x^n] log Σ_m (pm-1)!!/(m!·(p!)^m)·x^m, the log taken by the
    recurrence n·a_n = Σ_k k·c_k·a_{n-k} for A = exp(C)."""
    a = [Fraction(_double_factorial(p * m - 1) * (p * m % 2 == 0),
                  factorial(m) * factorial(p) ** m) for m in range(n + 1)]
    c = [Fraction(0)] * (n + 1)
    for m in range(1, n + 1):
        c[m] = a[m] - sum((k * c[k] * a[m - k] for k in range(1, m)),
                          Fraction(0)) / m
    return c[n]


def half_edge_automorphisms(edges) -> int:
    """|Aut G| on half-edges for a multigraph given as a list of vertex
    pairs, loops included."""
    loops: dict[int, int] = {}
    mult: dict[tuple, int] = {}
    for a, b in edges:
        if a == b:
            loops[a] = loops.get(a, 0) + 1
        else:
            pair = (min(a, b), max(a, b))
            mult[pair] = mult.get(pair, 0) + 1
    h = nx.Graph()
    h.add_nodes_from({v for e in edges for v in e})
    nx.set_node_attributes(h, {v: loops.get(v, 0) for v in h}, "loops")
    h.add_edges_from((a, b, {"m": m}) for (a, b), m in mult.items())
    matcher = GraphMatcher(
        h, h, node_match=lambda x, y: x["loops"] == y["loops"],
        edge_match=lambda x, y: x["m"] == y["m"])
    count = sum(1 for _ in matcher.isomorphisms_iter())
    for m in mult.values():
        count *= factorial(m)
    for ll in loops.values():
        count *= factorial(ll) * 2 ** ll
    return count


def class_mass(keys) -> Fraction:
    return sum((Fraction(1, half_edge_automorphisms(so.from_key(k)[1]))
                for k in keys), Fraction(0))


def test_mass_of_small_cases_by_hand():
    # theta (|Aut| 2·3! = 12) and dumbbell (2·(1!·2)^2 = 8) at genus 2
    assert half_edge_automorphisms([(0, 1)] * 3) == 12
    assert half_edge_automorphisms([(0, 0), (0, 1), (1, 1)]) == 8
    assert connected_mass(3, 2) == Fraction(1, 12) + Fraction(1, 8)
    assert connected_mass(3, 1) == 0


@pytest.mark.parametrize("p, b", [(3, 2), (3, 3), (3, 4), (3, 5), (3, 6),
                                  (4, 2), (4, 3), (4, 4)])
def test_class_mass_equals_the_pairing_model(p, b):
    keys = _classes(p, b, "all", 0)[0]
    assert class_mass(keys) == connected_mass(p, regular_counts(p, b)[0])


@pytest.mark.parametrize("g", [2, 3, 4, 5, 6])
def test_3ec_classes_are_the_filter_of_the_mass_checked_ones(g):
    # the cubic classes of genus 2-6 are mass-checked above
    keys = _classes(3, g, "all", 0)[0]
    three_ec = [k for k in keys if so.is_3ec(*so.from_key(k))]
    assert _classes(3, g, "3ec", 0)[0] == three_ec
