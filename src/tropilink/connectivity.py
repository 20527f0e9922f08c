"""Valency and connectivity predicates, and exhaustive cycle search.

Edge connectivity is computed exactly, capped at 3, from cycle-space labels
in O(V + E) big-int operations; a brute force over removal sets in the tests
is its oracle.  Cycle search is a DFS enumeration with canonical-start
pruning, meant for desk-scale graphs (tens of edges), where exactness beats
asymptotics.

Cycles are 2-regular subgraphs, so in a multigraph a single loop is a valid
cycle of length 1 and a pair of parallel edges a valid cycle of length 2.
"""

from __future__ import annotations

from .graphs import Graph, GraphError


class CycleSearchBudgetExceeded(RuntimeError):
    """The cycle DFS hit its node budget; results would be incomplete."""


CYCLE_SEARCH_BUDGET = 2_000_000  # DFS steps a cycle search may take by default


class Cycle:
    """A cycle as an ordered vertex list with the edges joining them."""

    __slots__ = ("vertices", "edge_keys")

    def __init__(self, g: Graph, vertices, edge_keys):
        vertices = tuple(vertices)
        edge_keys = tuple(edge_keys)
        if len(vertices) != len(edge_keys) or not vertices:
            raise GraphError("cycle needs as many edges as vertices")
        if len(set(vertices)) != len(vertices):
            raise GraphError("cycle vertices must be distinct")
        if len(set(edge_keys)) != len(edge_keys):
            raise GraphError("cycle edges must be distinct")
        k = len(vertices)
        for i in range(k):
            a, b = vertices[i], vertices[(i + 1) % k]
            ends = g.edge_ends(edge_keys[i])
            if ends != ((a, b) if a <= b else (b, a)):
                raise GraphError(f"edge {edge_keys[i]} does not join {a},{b}")
        self.vertices = vertices
        self.edge_keys = edge_keys

    @property
    def length(self) -> int:
        return len(self.vertices)

    @property
    def edge_set(self) -> frozenset:
        return frozenset(self.edge_keys)

    def canonical_vertices(self) -> tuple[int, ...]:
        """Least vertex tuple over all rotations and the two directions."""
        best = None
        vs = self.vertices
        k = len(vs)
        for seq in (vs, vs[::-1]):
            for r in range(k):
                cand = seq[r:] + seq[:r]
                if best is None or cand < best:
                    best = cand
        return best

    def __repr__(self):
        return f"Cycle(len={self.length}, vertices={self.vertices})"


def is_p_regular(g: Graph, p: int) -> bool:
    """Every vertex has valency p; legs count once, loops twice."""
    if p < 1:
        raise GraphError("p must be >= 1")
    return all(g.valency(v) == p for v in g.vertices)


def edge_connectivity_capped(g: Graph) -> int:
    """min(lambda, 3) for the edge connectivity lambda of g: 1 if g has a
    bridge, 2 if some two edges disconnect it, 3 otherwise (a one-vertex
    graph included).  Legs and loops never lie in a cut.

    Exact cycle-space labels (Pritchard & Thurimella, "Fast computation of
    small cuts via cycle space sampling", ACM TALG 7(4), 2011) with one bit
    per non-tree edge: a tree edge is labelled by the non-tree edges whose
    fundamental cycle covers it.  A label 0 is a bridge; two equal labels
    (a non-tree edge's label is its own bit) are a 2-edge cut.
    """
    adj: dict[int, list[tuple[int, int]]] = {v: [] for v in g.vertices}
    for e in g.edges:
        a, b = g.edge_ends(e)
        if a != b:
            adj[a].append((e, b))
            adj[b].append((e, a))

    # BFS spanning tree; `order` grows while it is scanned
    root = g.vertices[0]
    parent = {root: None}
    in_tree = set()
    order = [root]
    for v in order:
        for e, u in adj[v]:
            if u not in parent:
                parent[u] = v
                in_tree.add(e)
                order.append(u)

    # potential of a vertex: XOR of the bits of its incident non-tree edges
    potential = dict.fromkeys(g.vertices, 0)
    bit = 1
    for v in g.vertices:
        for e, u in adj[v]:
            if u > v and e not in in_tree:
                potential[v] ^= bit
                potential[u] ^= bit
                bit <<= 1

    # a tree edge's label is the XOR of the potentials below it
    labels = []
    for v in reversed(order[1:]):
        label = potential[v]
        if not label:
            return 1
        labels.append(label)
        potential[parent[v]] ^= label
    # two equal tree labels, or a tree label that is one non-tree edge's bit
    if len(set(labels)) < len(labels) or any(x & (x - 1) == 0 for x in labels):
        return 2
    return 3


def all_cycles(g: Graph, budget: int | None = None) -> list[Cycle]:
    """Every cycle of g, each exactly once.

    Raises CycleSearchBudgetExceeded instead of silently truncating; the
    budget defaults to CYCLE_SEARCH_BUDGET.
    """
    if budget is None:
        budget = CYCLE_SEARCH_BUDGET
    cycles: list[Cycle] = []
    steps = 0

    for e in g.edges:
        if g.is_loop(e):
            cycles.append(Cycle(g, (g.edge_ends(e)[0],), (e,)))

    nonloop_at: dict[int, list[tuple[int, int]]] = {v: [] for v in g.vertices}
    for e in sorted(g.edges):
        if not g.is_loop(e):
            a, b = g.edge_ends(e)
            nonloop_at[a].append((e, b))
            nonloop_at[b].append((e, a))

    def extend(start, v, path_v, path_e, on_path):
        nonlocal steps
        for e, u in nonloop_at[v]:
            steps += 1
            if steps > budget:
                raise CycleSearchBudgetExceeded(f"budget {budget} exhausted")
            if e in path_e:
                continue
            if u == start:
                if len(path_e) >= 1 and path_e[0] < e:
                    cycles.append(Cycle(g, tuple(path_v), tuple(path_e) + (e,)))
                continue
            if u < start or u in on_path:
                continue
            path_v.append(u)
            path_e.append(e)
            on_path.add(u)
            extend(start, u, path_v, path_e, on_path)
            path_v.pop()
            path_e.pop()
            on_path.remove(u)

    for s in g.vertices:
        extend(s, s, [s], [], {s})
    return cycles


def longest_cycle(g: Graph, budget: int | None = None) -> Cycle | None:
    """A maximum-length cycle, or None if g has none.

    Ties are broken by the lexicographically least canonical vertex
    sequence, so the result is deterministic.
    """
    best = None
    best_key = None
    for c in all_cycles(g, budget):
        key = (-c.length, c.canonical_vertices(), c.edge_keys)
        if best_key is None or key < best_key:
            best, best_key = c, key
    return best
