"""Link two 3-regular graphs of the same genus by certified contractions.

A strong link between two graphs is a pair of non-loop edges, one on each
side, whose contractions produce the same graph (with the contracted edges
landing on the same vertex).  This script links the theta graph to the
dumbbell, then the Petersen graph to the 10-gon polygon, and verifies the
resulting certificates independently of the code that produced them.
"""

from tropilink import (build_polygon, dumbbell_graph, link, petersen_graph,
                       theta_graph, verify_certificate)
from tropilink.certificates import _certificate_json


def describe(cert, a_name, b_name):
    print(f"{a_name} -> {b_name}: {len(cert.steps)} strong links, "
          f"mode={cert.mode}")
    for i, s in enumerate(cert.steps):
        print(f"  step {i}: contract edge {s.left_edge} on the left, "
              f"edge {s.right_edge} on the right")
    report = verify_certificate(cert)
    print(f"  verifier: {'VALID' if report.valid else report.first_violation}")
    print()


def main():
    theta, dumbbell = theta_graph(), dumbbell_graph()
    print("theta:", theta, " dumbbell:", dumbbell)
    cert = link(theta, dumbbell)
    describe(cert, "theta", "dumbbell")

    petersen = petersen_graph()
    decagon = build_polygon(3, 10)
    print("petersen:", petersen, " 10-gon:", decagon)
    cert2 = link(petersen, decagon, mode="3ec")
    describe(cert2, "petersen", "10-gon")
    print("every graph in the 3ec chain stays 3-edge-connected;")
    print("the first step contracts one Petersen edge against a hamiltonian graph.")

    # the text `tropilink link` writes, streamed one graph or step at a time
    blob = "".join(_certificate_json(cert2))
    print(f"certificate JSON: {len(blob)} bytes, reproducible byte-for-byte")


if __name__ == "__main__":
    main()
