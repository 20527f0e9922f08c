"""Enumerate p-regular classes and draw their strong-link move graph.

The atlas generates every connected p-regular multigraph of a given genus,
one representative per isomorphism class.  Two classes are adjacent in the
move graph when some one-edge contraction of one matches a contraction of
the other.  The classes are found as the strong-link closure of one seed
graph, so on all classes the move graph is connected by construction: the
evidence for linkage there is that the closure finds every class, which the
tests check against an independent matrix enumeration.  Restricted to the
3-edge-connected classes, connectivity is a real check of 3-linkage.
"""

from tropilink.atlas import is_connected_adjacency, move_graph
from tropilink.canonical import form_hash, from_canonical_form


def main():
    for p, b in [(3, 2), (3, 3), (3, 4), (4, 3)]:
        classes, adj = move_graph(p, b)
        tag = "connected" if is_connected_adjacency(adj) else "DISCONNECTED"
        print(f"p={p}, b={b}: {len(classes)} classes, move graph {tag}")
        three_ec, adj3 = move_graph(p, b, "3ec")
        tag3 = "connected" if is_connected_adjacency(adj3) else "DISCONNECTED"
        print(f"          {len(three_ec)} 3-edge-connected classes, "
              f"restricted move graph {tag3}")

    keys, adj = move_graph(3, 2)
    print("\nDOT for the (3,2) move graph:")
    ids = [form_hash(k) for k in keys]
    print("graph moves {")
    for i, k in enumerate(keys):
        g = from_canonical_form(k).graph
        loops = sum(1 for e in g.edges if g.is_loop(e))
        name = "dumbbell" if loops else "theta"
        print(f'  n{ids[i]} [label="{name}"];')
    for i in sorted(adj):
        for j in sorted(adj[i]):
            if i < j:
                print(f"  n{ids[i]} -- n{ids[j]};")
    print("}")


if __name__ == "__main__":
    main()
