"""Stratification posets of tropical moduli loci, through codimension one.

The moduli space of genus-g tropical curves with n marked points decomposes
into cells indexed by stable weighted graphs; a cell's dimension is its edge
count and its boundary cells are one-edge weighted contractions.  A locus is
connected through codimension one when the cells of the top two dimensions
hang together.  The 3-edge-connected locus is the combinatorial stand-in for
the Schottky image.  Every 3-edge-connected stratum lies below a
3-edge-connected trivalent one, so that locus is built from its top cells
alone.  The check itself builds only the top two levels: the top cells
and their one-edge contractions, with the covers between them.
"""

from tropilink import Stratum, build_poset, connected_through_codim_one


def main():
    for g, n in [(1, 1), (2, 0), (2, 1), (3, 0)]:
        po = build_poset(g, n)
        conn, comps = connected_through_codim_one(g, n)
        print(f"M({g},{n}): {len(po.strata)} strata, top dimension "
              f"{po.max_dimension} = 3g-3+n, profile {po.dimension_profile()}")
        print(f"         connected through codim 1: {conn} "
              f"({len(comps)} component(s))")

    print()
    for g in (2, 3, 4, 5, 6):
        conn, comps = connected_through_codim_one(g, 0, "3ec")
        dims = [Stratum(key).dimension for comp in comps for key in comp]
        top = max(dims)
        print(f"Schottky stand-in at g={g}: {dims.count(top)} maximal of "
              f"dimension {top} = 3g-3, {dims.count(top - 1)} of "
              f"codimension one, codim-1 connected: {conn}")

    print()
    po = build_poset(4, 0, "preg:4")
    conn, _ = connected_through_codim_one(4, 0, "preg:4")
    print(f"closure of the 4-regular locus at g=4: {len(po.strata)} strata, "
          f"pure dimension {po.max_dimension} = p(g-1)/(p-2), "
          f"codim-1 connected: {conn}")


if __name__ == "__main__":
    main()
