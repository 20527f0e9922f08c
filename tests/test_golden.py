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
"""

import hashlib
import random

import pytest

from tropilink.certificates import certificate_to_json_dict
from tropilink.connectivity import edge_connectivity_capped
from tropilink.graphs import (GraphError, build_graph, dumps_canonical,
                              petersen_graph)
from tropilink.linkage import link
from tropilink.normal_form import build_polygon

from enumeration_oracle import enumerate_p_regular

GOLDEN = {
    "pairs_3_3_plain": "cccb2a2ab6db365f51597e4f39e7ac3e80931ab6ab415dfc8e6673611ecb065e",
    "classes_3_4_plain": "4ada1800546970fd489c238c84c2fb914ee27271a2462071c6b1a7be5e257736",
    "classes_3_4_3ec": "aa54d3da5e04563da4788050a0301e2b497ce12ccdee0067274c8c2df1bd2c7e",
    "petersen_3ec": "e5ac3449dfb4224195143695a14d59faef7ea32ecafb82545f96b8be958d310d",
    "random_plain": "212b59eb0f32d1392c22c074bc5be97d36c0bb58dbb537afc2aab771f7b5f22d",
    "random_3ec": "0fac4c54943cce67488e97d14b9c948270013f269532d149e333427d997f2da5",
}

LEGGED_GOLDEN = "fe7ca6f46b5af4d904807dd6299ad0e1082d0a106cc9d7ff2db3984d28cdbd24"
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
