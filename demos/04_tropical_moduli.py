"""Stratification posets of tropical moduli loci, through codimension one.

The moduli space of genus-g tropical curves with n marked points decomposes
into cells indexed by stable weighted graphs; a cell's dimension is its edge
count and its boundary cells are one-edge weighted contractions.  A locus is
connected through codimension one when the cells of the top two dimensions
hang together.  The 3-edge-connected locus is the combinatorial stand-in for
the Schottky image.  Every 3-edge-connected stratum lies below a
3-edge-connected trivalent one, so that locus is built from its top cells
alone, which reaches genus 6 in about a second.
"""

from tropilink import build_poset, connected_through_codim_one


def main():
    for g, n in [(1, 1), (2, 0), (2, 1), (3, 0)]:
        po = build_poset(g, n)
        conn, comps = connected_through_codim_one(po)
        print(f"M({g},{n}): {len(po.strata)} strata, top dimension "
              f"{po.max_dimension} = 3g-3+n, profile {po.dimension_profile()}")
        print(f"         connected through codim 1: {conn} "
              f"({len(comps)} component(s))")

    print()
    for g in (2, 3, 4, 5, 6):
        po = build_poset(g, 0, "3ec")
        tops = po.maximal_strata()
        print(f"Schottky stand-in at g={g}: {len(po.strata)} strata, "
              f"{len(tops)} maximal of dimension {po.max_dimension} = 3g-3, "
              f"codim-1 connected: {connected_through_codim_one(po)[0]}")

    print()
    po = build_poset(4, 0, "preg:4")
    conn, _ = connected_through_codim_one(po)
    print(f"closure of the 4-regular locus at g=4: {len(po.strata)} strata, "
          f"pure dimension {po.max_dimension} = p(g-1)/(p-2), "
          f"codim-1 connected: {conn}")


if __name__ == "__main__":
    main()
