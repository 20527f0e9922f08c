"""Acceptance suite: one test per criterion, printing a pass line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance here is exact.
"""

import itertools
import json
import random
import subprocess
import sys
from functools import lru_cache

import pytest

from tropilink.atlas import (enumerate_p_regular, is_connected_adjacency,
                             move_graph)
from tropilink.canonical import are_isomorphic, canonical_form
from tropilink.certificates import (LinkageCertificate, StrongLinkStep,
                                    verify_certificate)
from tropilink.connectivity import edge_connectivity_capped, longest_cycle
from tropilink.graphs import (build_graph, contract, dumps_canonical,
                              dumbbell_graph, genus, petersen_graph,
                              theta_graph, to_json_dict)
from tropilink.linkage import link, reduce_to_polygon
from tropilink.moduli import (build_poset, check_schottky_codim1,
                              connected_through_codim_one)
from tropilink.normal_form import build_polygon, epsilon, normalize

from closure_oracle import weighted_contract
from conftest import (b1_of_edge_subset, cli_env, contraction_roots,
                      is_hamiltonian, random_connected_multigraph)

PAIRS = [(3, 2), (3, 3), (3, 4), (4, 3)]


@lru_cache(maxsize=None)
def classes(p, b, filt="all"):
    return tuple(enumerate_p_regular(p, b, filt))


def ok(n, message):
    print(f"ACCEPTANCE {n}: PASS - {message}")


def test_criterion_1_linkage_exhaustive():
    total_pairs = 0
    for p, b in PAIRS:
        cl = classes(p, b)
        assert is_connected_adjacency(move_graph(p, b)[1])
        for a, c in itertools.combinations_with_replacement(cl, 2):
            cert = link(a, c)
            assert verify_certificate(cert, endpoints=(a, c)).valid
            total_pairs += 1
    ok(1, f"move graphs connected and {total_pairs} pairs certified "
          f"over (p,b) in {PAIRS}")


def test_criterion_2_three_linkage_exhaustive():
    total_pairs = 0
    for p, b in PAIRS:
        cl = classes(p, b, "3ec")
        assert is_connected_adjacency(move_graph(p, b, "3ec")[1])
        for a, c in itertools.combinations_with_replacement(cl, 2):
            cert = link(a, c, "3ec")
            rep = verify_certificate(cert, mode="3ec", endpoints=(a, c))
            assert rep.valid
            for g in cert.graphs:
                assert edge_connectivity_capped(g) == 3
            for s in cert.steps:
                mid = contract(s.left, {s.left_edge})
                assert edge_connectivity_capped(mid) == 3
            total_pairs += 1
    ok(2, f"3ec move graphs connected and {total_pairs} pairs 3-linked "
          f"with 3-edge-connected chains")


def test_criterion_3_petersen_end_to_end(tmp_path):
    pet = petersen_graph()
    poly = build_polygon(3, 10)
    (tmp_path / "petersen.json").write_text(dumps_canonical(to_json_dict(pet)))
    (tmp_path / "p10.json").write_text(dumps_canonical(to_json_dict(poly)))
    r = subprocess.run(
        [sys.executable, "-m", "tropilink.cli", "link", "petersen.json",
         "p10.json", "--mode", "3ec", "-o", "cert.json"],
        cwd=tmp_path, capture_output=True, text=True, env=cli_env(),
    )
    assert r.returncode == 0, r.stdout + r.stderr
    r2 = subprocess.run(
        [sys.executable, "-m", "tropilink.cli", "verify", "cert.json",
         "--p", "3", "--mode", "3ec"],
        cwd=tmp_path, capture_output=True, text=True, env=cli_env(),
    )
    assert r2.returncode == 0, r2.stdout + r2.stderr
    assert json.loads(r2.stdout)["valid"] is True

    cert = link(pet, poly, "3ec")
    first = cert.steps[0]
    assert first.left == pet
    assert is_hamiltonian(first.right)
    left_mid = contract(first.left, {first.left_edge})
    right_mid = contract(first.right, {first.right_edge})
    assert are_isomorphic(left_mid, right_mid)
    ok(3, "CLI link+verify on Petersen vs the 10-gon succeeds; first step "
          "contracts a Petersen edge against a hamiltonian graph")


def _no_short_chord_classes(p, gamma):
    """Exhaustive enumeration of p-regular chord placements on the
    gamma-cycle in which every chord has maximal amplitude."""
    half = gamma // 2
    graphs = {}

    def register(chords):
        edges = [(i, (i + 1) % gamma) for i in range(gamma)] + chords
        g = build_graph(edges)
        if g.is_regular() == p:
            graphs[canonical_form(g)] = g

    if gamma % 2 == 0:
        for mults in itertools.product(range(p - 1), repeat=half):
            degree = list(mults)  # chord ends at i and i+half both = mults[i]
            if all(d == p - 2 for d in degree):
                chords = []
                for i, m in enumerate(mults):
                    chords += [(i, i + half)] * m
                register(chords)
    else:
        step = (gamma - 1) // 2
        for fw in itertools.product(range(p - 1), repeat=gamma):
            if all(fw[i] + fw[(i - step) % gamma] == p - 2 for i in range(gamma)):
                chords = []
                for i, m in enumerate(fw):
                    chords += [(i, (i + step) % gamma)] * m
                register(chords)
    return list(graphs.values())


def test_criterion_4_polygon_suite():
    suite = [(3, 4), (3, 6), (3, 8), (3, 10), (4, 6), (4, 9), (6, 5)]
    for p, gamma in suite:
        g = build_polygon(p, gamma)
        assert g.is_regular() == p
        assert not any(g.is_loop(e) for e in g.edges)
        assert longest_cycle(g).length == gamma == len(g.vertices)
        assert edge_connectivity_capped(g) == 3
        assert epsilon(normalize(g)) == 0
        hits = _no_short_chord_classes(p, gamma)
        assert len(hits) == 1
        assert are_isomorphic(hits[0], g)
    # at fully enumerable sizes, uniqueness also holds across the atlas
    for p, b in [(3, 2), (3, 3), (3, 4), (4, 3)]:
        gamma = (2 * b - 2) // (p - 2)
        flat = [g for g in classes(p, b)
                if is_hamiltonian(g) and not any(g.is_loop(e) for e in g.edges)
                and epsilon(normalize(g)) == 0]
        assert len(flat) == 1
        assert are_isomorphic(flat[0], build_polygon(p, gamma))
    ok(4, f"polygons at {suite} are p-regular, loop-free, hamiltonian, "
          f"3-edge-connected, defect-free, and unique in their class")


def test_criterion_5_epsilon_descent():
    checked = 0
    for b in (2, 3, 4):
        for g in classes(3, b):
            if not is_hamiltonian(g) or any(g.is_loop(e) for e in g.edges):
                continue
            trace = []
            cert = reduce_to_polygon(g, epsilon_trace=trace)
            assert verify_certificate(cert).valid
            assert all(y < x for x, y in zip(trace, trace[1:]))
            assert trace[-1] == 0
            checked += 1
    ok(5, f"epsilon strictly decreases on every outer iteration across "
          f"{checked} 3-regular hamiltonian classes (b <= 4); the k-bound "
          f"and mid-chord assertions never fired")


def test_criterion_6_legged_linkage():
    total = 0
    for g, n in [(1, 2), (2, 1), (2, 2)]:
        cl = enumerate_p_regular(3, g, legs=n)
        for a, b in itertools.combinations_with_replacement(cl, 2):
            cert = link(a, b)
            assert verify_certificate(cert, endpoints=(a, b)).valid
            total += 1
    ok(6, f"{total} legged pairs linked with verified certificates at "
          f"(g,n) in [(1,2),(2,1),(2,2)]")


def test_criterion_7_moduli_posets():
    po = build_poset(2, 0)
    assert len(po.strata) == 7
    assert po.dimension_profile() == {3: 2, 2: 2, 1: 2, 0: 1}
    for g, n in [(1, 1), (1, 2), (2, 0), (2, 1), (3, 0)]:
        for locus in ("all", "pure"):
            conn, comps = connected_through_codim_one(g, n, locus)
            assert conn, (g, n, locus, comps)
    ok(7, "the (2,0) poset has 7 strata with profile {3:2,2:2,1:2,0:1}; "
          "all and pure loci are connected through codimension one up to "
          "(3,0)")


def test_criterion_8_schottky():
    for g in (2, 3, 4):
        assert check_schottky_codim1(g)
        po = build_poset(g, 0, "3ec")
        assert po.max_dimension == 3 * g - 3
        for i in po.maximal_strata():
            assert po.strata[i].dimension == 3 * g - 3
    ok(8, "3-edge-connected loci for g in {2,3,4} are connected through "
          "codimension one with maximal strata of dimension 3g-3")


def test_criterion_9_conservation_identities():
    rng = random.Random(90210)
    for _ in range(1000):
        wg = random_connected_multigraph(rng, max_vertices=12, max_extra=8,
                                         legs=rng.randint(0, 3), max_weight=2)
        g = wg.graph
        S = {e for e in g.edges if rng.random() < 0.4}
        target = contract(g, S)
        roots = contraction_roots(g, S)
        assert g.b1 == target.b1 + b1_of_edge_subset(g, S)
        per_vertex = {}
        sizes = {}
        for v in g.vertices:
            sizes[roots[v]] = sizes.get(roots[v], 0) + 1
        for e in S:
            vbar = roots[g.edge_ends(e)[0]]
            per_vertex[vbar] = per_vertex.get(vbar, 0) + 1
        decomposed = sum(per_vertex.get(v, 0) - sizes[v] + 1
                         for v in target.vertices)
        assert decomposed == b1_of_edge_subset(g, S)
        out = weighted_contract(wg, S)
        assert genus(out) == genus(wg)
        assert len(out.graph.legs) == len(g.legs)
    ok(9, "Betti decomposition and weighted genus conservation hold on "
          "1000 random graphs with up to 12 vertices")


def _clone_cert(cert):
    steps = [StrongLinkStep(s.left, s.left_edge, s.right, s.right_edge,
                            (dict(s.witness[0]), dict(s.witness[1]),
                             dict(s.witness[2])), s.cert_cycles)
             for s in cert.steps]
    return LinkageCertificate(list(cert.graphs), steps, cert.mode, cert.p)


def test_criterion_10_mutation_testing():
    certs = [
        link(theta_graph(), dumbbell_graph()),
        link(petersen_graph(), build_polygon(3, 10), "3ec"),
        link(*enumerate_p_regular(3, 1, legs=2)[:2]),
    ]
    mutations = 0
    for cert in certs:
        assert verify_certificate(cert).valid
        for i, step in enumerate(cert.steps):
            av, ae, _ = step.witness
            for k in av:
                for alt in set(av.values()) - {av[k]}:
                    mut = _clone_cert(cert)
                    mut.steps[i].witness[0][k] = alt
                    rep = verify_certificate(mut)
                    assert not rep.valid
                    assert rep.first_violation[0] == i
                    mutations += 1
            for k in ae:
                for alt in set(ae.values()) - {ae[k]}:
                    mut = _clone_cert(cert)
                    mut.steps[i].witness[1][k] = alt
                    assert not verify_certificate(mut).valid
                    mutations += 1
            for alt in set(step.left.edges) - {step.left_edge}:
                mut = _clone_cert(cert)
                mut.steps[i].left_edge = alt
                assert not verify_certificate(mut).valid
                mutations += 1
            for alt in set(step.right.edges) - {step.right_edge}:
                mut = _clone_cert(cert)
                mut.steps[i].right_edge = alt
                assert not verify_certificate(mut).valid
                mutations += 1
    ok(10, f"all {mutations} single-entry witness corruptions and edge-id "
           f"swaps are detected")
