"""Normal forms, chord defect, and the descent to the p-polygon.

A p-hamiltonian graph is a loop-free p-regular graph with a hamiltonian
cycle; fixing the cycle turns the remaining b-1 edges into chords.  The
defect epsilon sums, over chords, how far each amplitude falls short of the
maximum.  Twisting a well-chosen pair of short chords strictly decreases the
defect, and the graph with defect zero is unique: the p-polygon.
"""

from tropilink import (build_polygon, epsilon, hamiltonize, normalize,
                       petersen_graph, reduce_to_polygon, verify_certificate)


def main():
    for p, gamma in [(3, 4), (3, 6), (4, 6), (6, 5)]:
        poly = build_polygon(p, gamma)
        nf = normalize(poly)
        print(f"polygon p={p}, gamma={gamma}: chords {nf.chord_positions()}, "
              f"epsilon={epsilon(nf)}")
    print()

    # hamiltonization ends on a hamiltonian cycle: the frame of the descent
    ham, steps, cycle = hamiltonize(petersen_graph())
    print(f"Petersen hamiltonized in {len(steps)} lengthening step(s)")
    nf = normalize(ham, cycle)
    print(f"normal form: gamma={nf.gamma}, chords={nf.chord_positions()}, "
          f"epsilon={epsilon(nf)}")

    trace = []
    cert = reduce_to_polygon(ham, cycle=cycle, epsilon_trace=trace)
    print(f"descent: epsilon trace {trace} over {len(cert.steps)} strong links")
    print("verify:", verify_certificate(cert).valid)


if __name__ == "__main__":
    main()
