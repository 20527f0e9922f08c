"""Byte-level regression of `link` on a fixed corpus.

Certificates are regression artifacts: for fixed inputs `link` must emit
the same bytes from one commit to the next.  Each group below hashes the
canonical JSON of every certificate it links; the pinned digests were
recorded before the hamiltonian frame was merged into NormalizedForm, so a
refactor of the descent or of hamiltonization that changes any chain,
witness or recorded cycle fails here.  An intended byte change must update
a digest and say so in CHANGES.md.

The class representatives come from the matrix-enumeration oracle, whose
labeled graphs are the inputs the digests were recorded on; the library's
own enumerator emits canonically relabeled representatives instead.

The legged group links every pair i <= j of 3-regular classes with labeled
legs at a few (genus, legs) points; its digest was recorded while legged
graphs still had a linker of their own, before `link` took them over.

The twist groups pin the descent's building blocks on their own:
`factor_twist` over every supported swap of every chord pair of the
hamiltonian (3,4) classes, walks in both directions included, and
`twist_3ec` over every case (a)/(b) configuration of the 3-edge-connected
(3,3) and (3,4) classes, read in each of the 2*gamma labelings of their
normalizing cycle.  Their digests were recorded while the plain and
3ec descents still walked their consecutive swaps separately.
"""

import hashlib
import itertools
import random

import pytest

from tropilink.certificates import LinkageCertificate
from tropilink.connectivity import edge_connectivity_capped
from tropilink.canonical import isomorphism_witness
from tropilink.graphs import (GraphError, build_graph, contract,
                              dumps_canonical, petersen_graph)
from tropilink.hamiltonize import hamiltonize
from tropilink.linkage import link, reduce_to_polygon
from tropilink.normal_form import NormalizedForm, build_polygon, normalize

from certificate_json_oracle import certificate_to_json_dict
from conftest import is_hamiltonian
from enumeration_oracle import enumerate_p_regular
from twist_oracle import factor_twist, twist_3ec

GOLDEN = {
    "pairs_3_3_plain": "cccb2a2ab6db365f51597e4f39e7ac3e80931ab6ab415dfc8e6673611ecb065e",
    "classes_3_4_plain": "4ada1800546970fd489c238c84c2fb914ee27271a2462071c6b1a7be5e257736",
    "classes_3_4_3ec": "aa54d3da5e04563da4788050a0301e2b497ce12ccdee0067274c8c2df1bd2c7e",
    "petersen_3ec": "e5ac3449dfb4224195143695a14d59faef7ea32ecafb82545f96b8be958d310d",
    "random_plain": "212b59eb0f32d1392c22c074bc5be97d36c0bb58dbb537afc2aab771f7b5f22d",
    "random_3ec": "0fac4c54943cce67488e97d14b9c948270013f269532d149e333427d997f2da5",
}

TWIST_GOLDEN = {
    "factor_twist_3_4": "d7242d69ea1d979d35c288c04b78116c39e8b1e48f8a8fdefc6bc4d040aa4258",
    "twist_3ec_3_3_and_3_4": "56a4d4b69fba6f1eae80a6aab0f64cc297f4630b681d1b082f5d6b6717959f1d",
}

LEGGED_GOLDEN = "f9ca11c8f0896e1b72f73d21e316565a322dbee6f38694c60f6b5b54d8228eba"
LEGGED_POINTS = ((1, 2), (1, 3), (2, 1), (2, 2), (3, 1))  # (genus, legs)

RANDOM_SEED = 7  # its pairs include plain factor walks of 5 consecutive swaps
RANDOM_SIZES = (12, 14, 16)


def _random_cubic(rng, n, three_ec):
    """Uniform pairing of 3n points, redrawn until connected (and simple and
    3-edge-connected when asked)."""
    while True:
        pts = [v for v in range(n) for _ in range(3)]
        rng.shuffle(pts)
        edges = [tuple(sorted(pts[i:i + 2])) for i in range(0, len(pts), 2)]
        if three_ec and (any(a == b for a, b in edges)
                         or len(set(edges)) != len(edges)):
            continue
        try:
            g = build_graph(edges)
        except GraphError:
            continue  # disconnected
        if three_ec and edge_connectivity_capped(g) != 3:
            continue
        return g


def _corpus():
    c33 = enumerate_p_regular(3, 3)
    c34 = enumerate_p_regular(3, 4)
    p6 = build_polygon(3, 6)
    rng = random.Random(RANDOM_SEED)
    plain = [(_random_cubic(rng, n, False), _random_cubic(rng, n, False))
             for n in RANDOM_SIZES]
    tec = [(_random_cubic(rng, n, True), _random_cubic(rng, n, True))
           for n in RANDOM_SIZES]
    return {
        "pairs_3_3_plain": ([(a, b) for i, a in enumerate(c33) for b in c33[i + 1:]],
                            "plain"),
        "classes_3_4_plain": ([(g, p6) for g in c34], "plain"),
        "classes_3_4_3ec": ([(g, p6) for g in c34
                             if edge_connectivity_capped(g) == 3], "3ec"),
        "petersen_3ec": ([(petersen_graph(), build_polygon(3, 10))], "3ec"),
        "random_plain": (plain, "plain"),
        "random_3ec": (tec, "3ec"),
    }


@pytest.fixture(scope="module")
def corpus():
    return _corpus()


def test_corpus_shape(corpus):
    sizes = {name: len(pairs) for name, (pairs, _) in corpus.items()}
    assert sizes == {"pairs_3_3_plain": 10, "classes_3_4_plain": 17,
                     "classes_3_4_3ec": 2, "petersen_3ec": 1,
                     "random_plain": 3, "random_3ec": 3}


def _digest(certs):
    """sha256 of the concatenated sha256 digests of the certificates' JSON."""
    digests = [hashlib.sha256(dumps_canonical(
        certificate_to_json_dict(c)).encode()).hexdigest() for c in certs]
    return hashlib.sha256("".join(digests).encode()).hexdigest()


@pytest.mark.parametrize("group", sorted(GOLDEN))
def test_link_certificates_match_golden_digest(corpus, group):
    pairs, mode = corpus[group]
    got = _digest(link(a, b, mode) for a, b in pairs)
    assert got == GOLDEN[group], f"{group}: certificate bytes changed"


def _identity_witness(step):
    """True when strong_link_check could skip the canonical search: both
    contractions and their contracted-vertex images are equal.  The step's
    witness must then be the one the search gives."""
    mid_l = contract(step.left, {step.left_edge})
    mid_r = contract(step.right, {step.right_edge})
    ml = step.left.edge_ends(step.left_edge)[0]
    mr = step.right.edge_ends(step.right_edge)[0]
    if mid_l != mid_r or ml != mr:
        return False
    assert step.witness == isomorphism_witness(mid_r, mid_l, marked=({mr}, {ml}))
    return True


def test_identity_witnesses_are_the_searched_ones(corpus):
    fired = total = swaps = swap_fired = 0
    for pairs, mode in corpus.values():
        for a, b in pairs:
            for step in link(a, b, mode).steps:
                total += 1
                fired += _identity_witness(step)
            h, _, cycle = hamiltonize(a, mode)
            for step in reduce_to_polygon(h, mode, cycle).steps:
                swaps += 1
                swap_fired += _identity_witness(step)
    assert 0 < fired < total
    assert swaps > 100 and swap_fired == swaps  # every consecutive swap


def _legged_pairs():
    pairs = []
    for b, n in LEGGED_POINTS:
        classes = enumerate_p_regular(3, b, legs=n)
        pairs += [(a, c) for i, a in enumerate(classes) for c in classes[i:]]
    return pairs


def test_legged_plain_certificates_match_golden_digest():
    pairs = _legged_pairs()
    assert len(pairs) == 170
    got = _digest(link(a, b) for a, b in pairs)
    assert got == LEGGED_GOLDEN, "legged_plain: certificate bytes changed"


def _hamiltonian_forms(b, three_ec=False):
    forms = []
    for g in enumerate_p_regular(3, b):
        if any(g.is_loop(e) for e in g.edges) or not is_hamiltonian(g):
            continue
        if three_ec and edge_connectivity_capped(g) != 3:
            continue
        forms.append(normalize(g))
    return forms


def _steps_cert(nf, steps, mode):
    return LinkageCertificate([nf.base] + [s.right for s in steps], steps,
                              mode, 3)


def _factor_twist_certs():
    """factor_twist on every swap it supports: both ends of both chords,
    no loop created, some walk direction free of the fixed ends."""
    certs, dirs = [], set()
    for nf in _hamiltonian_forms(4):
        for c1, c2 in itertools.combinations(nf.chords, 2):
            for pa, pb in itertools.product(c1[:2], c2[:2]):
                if pa == pb or c1[0] + c1[1] - pa == pb \
                        or c2[0] + c2[1] - pb == pa:
                    continue
                try:
                    steps = factor_twist(nf, c1, c2, swap=(pa, pb))
                except GraphError:
                    continue
                # the walk's first step contracts the cycle edge at pa
                dirs.add(nf.edge_between(pa, pa + 1) == steps[0].left_edge)
                certs.append(_steps_cert(nf, steps, "plain"))
    return certs, dirs


def _labelings(nf):
    """The frame of nf read from every start position in both directions,
    built by hand so the library's own rotation is not what is pinned."""
    gamma = nf.gamma
    for start in range(1, gamma + 1):
        for dirn in (1, -1):
            yield NormalizedForm(
                nf.base, [nf.vertex(start + dirn * t) for t in range(gamma)],
                [nf.cycle_edge(start + t if dirn == 1 else start - 1 - t)
                 for t in range(gamma)])


def _twist_3ec_certs():
    certs = []
    for nf0 in _hamiltonian_forms(3, three_ec=True) + \
            _hamiltonian_forms(4, three_ec=True):
        for nf in _labelings(nf0):
            for i, j, key in nf.chords:
                for c2 in nf.chords_at(j + 1):
                    if c2[2] == key:
                        continue
                    try:
                        _, step = twist_3ec(nf, (i, j, key), c2)
                    except GraphError:
                        continue
                    certs.append(_steps_cert(nf, [step], "3ec"))
    return certs


def test_factor_twist_steps_match_golden_digest():
    certs, dirs = _factor_twist_certs()
    assert len(certs) > 20 and dirs == {True, False}  # both walk directions
    assert _digest(certs) == TWIST_GOLDEN["factor_twist_3_4"], \
        "factor_twist: step bytes changed"


def test_twist_3ec_steps_match_golden_digest():
    certs = _twist_3ec_certs()
    assert len(certs) == 16 and all(c.steps[0].cert_cycles for c in certs)
    assert _digest(certs) == TWIST_GOLDEN["twist_3ec_3_3_and_3_4"], \
        "twist_3ec: step bytes changed"
