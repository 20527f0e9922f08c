"""The streamed certificate writer against the JSON document it replaces.

`certificates._certificate_json` renders a certificate's text from the
chain's graph slots and the steps' witness maps, one chunk per graph and
per step.  Its bytes must be `dumps_canonical(certificate_to_json_dict(c))`
of the oracle in tests/certificate_json_oracle.py, the writer the package
used before.  The corpus: every certificate the golden digests pin (plain,
3ec with recorded cycles, legged, and the twist steps), p = 4 pairs,
seeded random pairs with and without legs, witness ids of 10 and more (whose keys sort as strings,
"10" before "2"), a one-graph chain with no steps, and an empty one.
"""

import random

from tropilink.certificates import LinkageCertificate, _certificate_json
from tropilink.graphs import dumps_canonical, from_json_dict, petersen_graph
from tropilink.linkage import link

from certificate_json_oracle import certificate_to_json_dict
from conftest import perfbench_module
from enumeration_oracle import enumerate_p_regular
from test_golden import (_corpus, _factor_twist_certs, _legged_pairs,
                         _twist_3ec_certs)


def _assert_writes_the_oracle_bytes(cert):
    chunks = list(_certificate_json(cert))
    # a chunk per graph and per step, and two for the fields after them:
    # nothing is gathered into one string
    assert len(chunks) == len(cert.graphs) + len(cert.steps) + 2
    assert "".join(chunks) == dumps_canonical(certificate_to_json_dict(cert))


def test_writer_matches_the_oracle_on_the_golden_corpus():
    certs = [link(a, b, mode) for pairs, mode in _corpus().values()
             for a, b in pairs]
    certs += [link(a, b) for a, b in _legged_pairs()]
    certs += _factor_twist_certs()[0] + _twist_3ec_certs()
    assert any(s.cert_cycles for c in certs for s in c.steps)
    assert any(c.graphs[0].legs for c in certs)
    for cert in certs:
        _assert_writes_the_oracle_bytes(cert)


def _random_pair(rng, n, p, legs):
    inputs = perfbench_module("inputs")
    return [from_json_dict(inputs.to_json(inputs.random_regular(rng, n, p, legs)))
            for _ in range(2)]


def test_writer_matches_the_oracle_at_p4_and_on_large_ids():
    classes = enumerate_p_regular(4, 3)
    certs = [link(classes[0], c) for c in classes[1:]]
    rng = random.Random(4)
    certs += [link(*_random_pair(rng, n, p, legs))
              for n, p, legs in ((8, 4, 0), (9, 4, 0), (10, 3, 2), (16, 3, 0))]
    assert [c.p for c in certs[-4:]] == [4, 4, 3, 3]
    # some witness map has keys 2 and 10, which string order swaps
    assert any({2, 10} <= set(m) for c in certs for s in c.steps
               for m in s.witness)
    for cert in certs:
        _assert_writes_the_oracle_bytes(cert)


def test_writer_matches_the_oracle_on_chains_without_steps():
    legged = enumerate_p_regular(3, 2, legs=2)[0]
    for cert in (LinkageCertificate([petersen_graph()], [], "plain", 3),
                 LinkageCertificate([legged], [], "3ec", 3),
                 LinkageCertificate([], [], "plain", 5)):
        _assert_writes_the_oracle_bytes(cert)
