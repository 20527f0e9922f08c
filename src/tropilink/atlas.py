"""Enumeration of graph classes and moduli strata by closure under a move.

One engine serves both: a worklist over canonical keys that expands every
key once with a move function and records the keys of the move's targets.
A key is `(colors, rows)`: vertex colours (weight, valency, loop count,
leg labels, mark) and the upper-triangular multiplicity matrix with loop
counts on the diagonal.

- **p-regular classes.**  The move is the strong link, on the key
  itself: merge the rows of the ends of a non-loop edge, one per nonzero
  off-diagonal entry, then split the merged row into two p-valent ones in
  every way, by how many of its loops, edges to each neighbour and which
  legs go to each side.  Only one pair of ends per orbit of the class's
  automorphisms, which one canonical search of its key finds, is
  contracted: pairs in one orbit give the same targets.  The linkage
  theorem says the strong-link move graph on p-regular classes of fixed
  first Betti number is connected, so the closure of a single seed graph
  reaches every class.  It also says that 3-edge-connected classes link
  through 3-edge-connected ones, so the unlegged 3ec classes are the
  closure of the p-polygon under the links whose targets are 3ec.  The
  recorded targets are that move graph; the graph-level move, which splits
  over half-edge subsets, is their oracle in the tests.
- **Moduli strata.**  The move is a one-edge weighted contraction, on the
  key itself, one per nonzero matrix entry.  A loop at i raises i's weight
  by one and lowers its loop count by one and its valency by two.  An i-j
  edge merges j into i: weights and legs add, the valency is the sum less
  two, and the other i-j edges become loops.  The tropical moduli space is
  pure-dimensional, so every stable graph is a weighted contraction of a
  trivalent weight-zero one, and the downward closure of the 3-regular
  classes with n legs is every stratum (of the 3ec ones, every 3ec
  stratum; `moduli.build_poset` proves it).  The recorded targets are the
  one-edge covers; the graph-level closure is their oracle in the tests.

Class lists are sorted by canonical key, and each representative is
rebuilt from its key (`canonical.from_canonical_form`), so output does not
depend on the order of generation.  The matrix enumeration that preceded
this engine is kept in the tests as its independent oracle.
"""

from __future__ import annotations

from itertools import combinations, product

from .canonical import _Canonizer, canonical_form, from_canonical_form
from .connectivity import edge_connectivity_capped
from .graphs import (Graph, GraphError, InternalConsistencyError,
                     WeightedGraph, _component_roots, build_graph)
from .normal_form import build_polygon


def regular_counts(p: int, b: int, legs: int = 0) -> tuple[int, int]:
    """(number of vertices, number of edges) forced on a p-regular graph of
    first Betti number b with the given number of legs."""
    if p < 3:
        raise GraphError("p must be >= 3")
    if legs < 0:
        raise GraphError("the number of legs must be >= 0")
    if b < 2 and legs == 0:
        raise GraphError("enumeration needs b >= 2 when there are no legs")
    num = 2 * b - 2 + legs
    if num <= 0 or num % (p - 2):
        raise GraphError(
            f"no {p}-regular graphs with b1={b} and {legs} legs: "
            f"2b-2+n = {num} is not a positive multiple of p-2"
        )
    nv = num // (p - 2)
    ne = b - 1 + nv
    return nv, ne


def _seed(p: int, nv: int, legs: int) -> Graph:
    """One connected p-regular graph on nv vertices with legs 1..legs: a
    path, the legs on the first free slots, the other slots paired in turn."""
    slots = [v for v in range(nv) for _ in range(p - (v > 0) - (v < nv - 1))]
    rest = slots[legs:]
    edges = [(v, v + 1) for v in range(nv - 1)] + list(zip(rest[::2], rest[1::2]))
    return build_graph(edges, legs=zip(slots, range(1, legs + 1)),
                       isolated=range(nv))


def _closure(seeds, move) -> dict[tuple, set[tuple]]:
    """Every canonical key reachable from the seed keys, mapped to the keys
    of its move targets.  Each key is kept as one object, however many
    targets name it."""
    interned = {key: key for key in seeds}
    targets: dict[tuple, set[tuple]] = {}
    todo = list(interned)
    while todo:
        key = todo.pop()
        out = targets[key] = set()
        for t in move(key):
            same = interned.get(t)
            if same is None:
                interned[t] = same = t
                todo.append(t)
            out.add(same)
    return targets


def _adjacency(rows) -> list[dict[int, int]]:
    """A key's neighbour multiplicities, as the canonizer takes them:
    adj[x][y] = number of x-y edges, x != y, zero entries left out."""
    adj: list[dict[int, int]] = [{} for _ in rows]
    for i, row in enumerate(rows):
        for j, m in enumerate(row[1:], i + 1):
            if m:
                adj[i][j] = adj[j][i] = m
    return adj


def _strong_links(key: tuple):
    """The key of every class one strong link away from the p-regular class
    with this key: contract a non-loop edge, one per pair of end vertices,
    then split the merged vertex into two p-valent ones in every way.

    A split sends ll of the merged vertex's loops left and rr right, makes
    lr of them edges between the two sides, and sends a set of its legs
    and k[y] of its m[y] edges to each neighbour y left.  Parallel edges,
    the two halves of a loop and distinct loops are interchangeable, so
    these counts reach the classes that half-edge subsets reach.  The two
    sides are alike (weight 0, valency p, unmarked), so a split and its
    mirror give one class and only the lesser is searched.  The split that
    puts the contracted edge's ends back rebuilds the source class, whose
    key is known without a search.

    Only one pair per orbit of the source's automorphisms is contracted
    (McKay, "Isomorph-free exhaustive generation", J. Algorithms 26, 1998).
    An automorphism s maps the splits at (i, j) one-to-one onto the splits
    at (s(i), s(j)), each onto one with the same target key.  One canonical
    search of the key's own tables stores automorphisms that generate a
    subgroup, so the orbits merged under them are at most as coarse as the
    true ones.  The pair contracted is the orbit's least, which comes first
    in the lexicographic order of pairs, so every target of a skipped pair
    has been yielded before it: the target sets and the order in which
    targets first appear are those of the move on every pair.  The search
    is skipped with fewer than two pairs or pairwise distinct colours,
    which only the identity preserves."""
    colors, rows = key
    adj = _adjacency(rows)
    pairs = [(i, j) for i, nbrs in enumerate(adj) for j in nbrs if j > i]
    search = _Canonizer(colors, adj)
    if len(pairs) > 1 and len(set(colors)) < len(colors):
        search.run()
    orbit = _component_roots(pairs, (((i, j), tuple(sorted((s[i], s[j]))))
                                     for s in search.autos for i, j in pairs))
    for i, j in pairs:
        if orbit[i, j] != (i, j):
            continue
        c, a = _merge(colors, adj, i, j)
        _, val, nl, legs, _ = c[i]
        half = val // 2  # p - 1 half-edges go to each side
        ys = sorted(a[i])
        ms = [a[i][y] for y in ys]

        def mirror(ll, left, k, lr):
            return (nl - ll - lr, tuple(x for x in legs if x not in left),
                    tuple(m - x for m, x in zip(ms, k)))

        undo = (colors[i][2], colors[i][3],
                tuple(adj[i].get(y + (y >= j), 0) for y in ys))
        source = min(undo, mirror(*undo, adj[i][j] - 1))
        for k in product(*(range(m + 1) for m in ms)):
            free = half - sum(k)
            for ll in range(nl + 1):
                for size in range(len(legs) + 1):
                    lr = free - 2 * ll - size
                    if not 0 <= lr <= nl - ll:
                        continue
                    for left in combinations(legs, size):
                        split = (ll, left, k)
                        if split == source:
                            yield key
                            continue
                        other = mirror(ll, left, k, lr)
                        if split <= other:
                            yield _split(c, a, i, ys, split, other, lr)


def _split(colors, adj, i, ys, left, right, lr):
    """Canonical key after splitting vertex i of the tables into i and a
    new last vertex, joined by 1 + lr edges; each side is (loops, legs,
    edge count per neighbour in ys)."""
    n, p = len(colors), colors[i][1] // 2 + 1
    c = list(colors)
    c[i] = (0, p, left[0], left[1], False)
    c.append((0, p, right[0], right[1], False))
    a = list(adj)
    a[i] = {n: 1 + lr}
    a.append({i: 1 + lr})
    for y, kl, kr in zip(ys, left[2], right[2]):
        a[y] = row = dict(adj[y])
        del row[i]
        if kl:
            a[i][y] = row[i] = kl
        if kr:
            a[n][y] = row[n] = kr
    return _Canonizer(c, a).run()[0]


def _contractions(key: tuple):
    """The key of every one-edge weighted contraction of the stratum with
    this key, one per nonzero matrix entry: loops, then other edges."""
    colors, rows = key
    adj = _adjacency(rows)
    for i, (w, val, nl, legs, _) in enumerate(colors):
        if nl:
            c = list(colors)
            c[i] = (w + 1, val - 2, nl - 1, legs, False)
            yield _Canonizer(c, adj).run()[0]
    yield from _edge_contractions(key)


def _edge_contractions(key: tuple):
    """The key of every contraction of one non-loop edge of the stratum
    with this key, one per nonzero off-diagonal entry."""
    colors, rows = key
    adj = _adjacency(rows)
    for i, nbrs in enumerate(adj):
        for j in nbrs:
            if j > i:
                yield _Canonizer(*_merge(colors, adj, i, j)).run()[0]


def _merge(colors, adj, i, j):
    """Canonizer tables after contracting one i-j edge, i < j; the vertices
    after j move down by one."""
    f = [x - (x > j) for x in range(len(colors))]
    f[j] = i
    (wi, vi, li, gi, _), (wj, vj, lj, gj, _) = colors[i], colors[j]
    c = list(colors)
    del c[j]
    c[i] = (wi + wj, vi + vj - 2, li + lj + adj[i][j] - 1,
            tuple(sorted(gi + gj)), False)
    a: list[dict[int, int]] = [{} for _ in c]
    for x, nbrs in enumerate(adj):
        for y, m in nbrs.items():
            if f[x] != f[y]:
                a[f[x]][f[y]] = a[f[x]].get(f[y], 0) + m
    return c, a


def _classes(p: int, b: int, filter: str,
             legs: int) -> tuple[list[tuple], dict[tuple, set[tuple]]]:
    """Sorted canonical keys of the p-regular classes that pass the filter,
    and the keys of the strong-link targets of every class walked.

    Unlegged 3ec classes are the closure of the p-polygon (at one vertex,
    the single class) under the strong links whose targets are
    3-edge-connected; the linkage theorem links any two 3-edge-connected
    classes through such steps, as `link --mode 3ec` does.  Legged 3ec
    classes keep the filter over all classes: `link` refuses 3ec mode with
    legs, so the code holds no constructive witness of the theorem there.
    """
    if filter not in ("all", "3ec"):
        raise GraphError(f"unknown filter {filter!r}")
    nv, _ = regular_counts(p, b, legs)
    if b < 0:
        return [], {}
    if filter == "3ec" and not legs:
        seed = build_polygon(p, nv) if nv > 1 else _seed(p, nv, 0)
        if edge_connectivity_capped(seed) < 3:
            raise InternalConsistencyError("the 3ec seed is not 3ec")
        is_3ec: dict[tuple, bool] = {}

        def links(key):
            for t in _strong_links(key):
                if t not in is_3ec:
                    is_3ec[t] = _is_3ec(t)
                if is_3ec[t]:
                    yield t

        targets = _closure([canonical_form(seed)], links)
        return sorted(targets), targets
    targets = _closure([canonical_form(_seed(p, nv, legs))], _strong_links)
    keys = sorted(targets)
    if filter == "3ec":
        keys = [k for k in keys if _is_3ec(k)]
    return keys, targets


def _is_3ec(key: tuple) -> bool:
    return edge_connectivity_capped(from_canonical_form(key).graph) == 3


def enumerate_p_regular(p: int, b: int, filter: str = "all",
                        legs: int = 0) -> list[Graph]:
    """All connected p-regular multigraphs of first Betti number b, one per
    isomorphism class (leg labels respected when legs > 0).

    filter="3ec" keeps the 3-edge-connected classes only.
    """
    return [from_canonical_form(k).graph
            for k in _classes(p, b, filter, legs)[0]]


def move_graph(p: int, b: int, filter: str = "all",
               legs: int = 0) -> tuple[list[tuple], dict[int, set[int]]]:
    """The canonical keys of the classes of `enumerate_p_regular`, in its
    order, and their strong-link adjacency by index (self-links ignored);
    `canonical.from_canonical_form(key).graph` is a class's representative.

    Two classes are adjacent iff a non-loop contraction of one matches one
    of the other, contracted-vertex images included.  With filter="3ec" the
    graph is restricted to the 3-edge-connected classes; a contraction of a
    3-edge-connected graph is 3-edge-connected, so every link between them
    passes through a 3-edge-connected middle.
    """
    keys, targets = _classes(p, b, filter, legs)
    index = {k: i for i, k in enumerate(keys)}
    adj = {i: {index[t] for t in targets[k] if t in index and t != k}
           for i, k in enumerate(keys)}
    return keys, adj


def contraction_closure(keys) -> dict[tuple, set[tuple]]:
    """Every stratum below the ones with the given canonical keys, by key,
    mapped to the keys of its one-edge weighted contractions."""
    return _closure(keys, _contractions)


def enumerate_stable(g: int, n: int) -> list[WeightedGraph]:
    """All stable weighted graphs of genus g with n labeled legs, one per
    isomorphism class, each of dimension |E|."""
    if n < 0:
        raise GraphError("the number of legs must be >= 0")
    if 2 * g - 2 + n <= 0:
        raise GraphError("stable graphs need 2g-2+n > 0")
    below = contraction_closure(_classes(3, g, "all", n)[0])
    return [from_canonical_form(k) for k in sorted(below)]


def components(vertices, pairs) -> list[list[int]]:
    """Connected components of the graph on `vertices` with an edge for
    each pair, each sorted, ordered by their least vertex."""
    comps: dict[int, list[int]] = {}
    for v, root in _component_roots(vertices, pairs).items():
        comps.setdefault(root, []).append(v)
    return list(comps.values())


def is_connected_adjacency(adj: dict[int, set[int]]) -> bool:
    return len(components(adj, ((i, j) for i in adj for j in adj[i]))) <= 1
