"""Valency and connectivity predicates, and the longest-cycle search.

Edge connectivity is computed exactly, capped at 3, from cycle-space labels
in O(V + E) big-int operations; a brute force over removal sets in the tests
is its oracle.  The longest cycle is found by an iterative lex-first DFS
whose first hit is the answer, so no cycle is enumerated; on a hamiltonian
graph one pass from the least vertex decides.  The exhaustive enumeration
it replaces is its oracle in the tests.

Cycles are 2-regular subgraphs, so in a multigraph a single loop is a valid
cycle of length 1 and a pair of parallel edges a valid cycle of length 2.
"""

from __future__ import annotations

from .graphs import Graph, GraphError


class CycleSearchBudgetExceeded(RuntimeError):
    """The cycle DFS hit its node budget before it could decide."""


CYCLE_SEARCH_BUDGET = 2_000_000  # DFS nodes a cycle search may visit by default


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

    def __repr__(self):
        return f"Cycle(len={self.length}, vertices={self.vertices})"


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


def _blocks(adj: dict[int, list[int]]) -> list[set[int]]:
    """Vertex sets of the biconnected blocks of a connected simple graph
    (Hopcroft-Tarjan lowpoints, iterative; bridges are two-vertex blocks)."""
    root = next(iter(adj))
    depth, low = {root: 0}, {root: 0}
    visited, blocks = [root], []
    stack = [(root, None, iter(adj[root]))]
    while stack:
        v, parent, rest = stack[-1]
        for u in rest:
            if u not in depth:
                depth[u] = low[u] = depth[v] + 1
                visited.append(u)
                stack.append((u, v, iter(adj[u])))
                break
            if u != parent:
                low[v] = min(low[v], depth[u])
        else:
            stack.pop()
            if parent is not None:
                low[parent] = min(low[parent], low[v])
                if low[v] >= depth[parent]:
                    i = visited.index(v)
                    blocks.append({parent, *visited[i:]})
                    del visited[i:]
    return blocks


def longest_cycle(g: Graph, budget: int | None = None) -> Cycle | None:
    """A maximum-length cycle, or None if g has none.

    Ties go to the least (-length, canonical vertex sequence, edge keys); a
    cycle is read from its least vertex, in the direction whose first edge
    key is below its closing key, with the least key of each parallel group.
    For L = n, n-1, ..., 3 and s ascending, a DFS over the vertices above s
    in s's blocks of size >= L tries neighbours in ascending order and
    closes only when the second vertex is below the last, so its first hit
    is the lex-least canonical sequence.  A vertex with fewer than two free
    neighbours left is never used; no other subtree is cut.  Raises
    CycleSearchBudgetExceeded after `budget` DFS nodes (CYCLE_SEARCH_BUDGET,
    read at call time, when None).
    """
    if budget is None:
        budget = CYCLE_SEARCH_BUDGET
    keys: dict[tuple[int, int], list[int]] = {}
    for e in g.edges:
        keys.setdefault(g.edge_ends(e), []).append(e)
    adj: dict[int, list[int]] = {v: [] for v in g.vertices}
    for a, b in sorted(keys):
        if a != b:
            adj[a].append(b)
            adj[b].append(a)
    nodes = 0

    def search(s: int, length: int, allowed: set[int]):
        """Lex-least (s, c_1, ..., c_{length-1}) over `allowed`, or None."""
        nonlocal nodes
        # free[w]: neighbours of w that are s, the path's end or unvisited;
        # usable: unvisited vertices with two free neighbours
        free = {w: sum(u in allowed or u == s for u in adj[w]) for w in allowed}
        usable = sum(f >= 2 for f in free.values())
        path, on_path, stack = [s], {s}, [iter(adj[s])]

        def move(u: int, d: int):
            """Append u to the path (d = -1) or take it off (d = 1); the
            end before u is interior while u is on, so not free."""
            nonlocal usable
            if d < 0:
                path.append(u)
                on_path.add(u)
            for w in adj[path[-2]] if path[-2] != s else ():
                if w in free:
                    free[w] += d
                    if w not in on_path and free[w] == (1 if d < 0 else 2):
                        usable += d
            if d > 0:
                on_path.remove(path.pop())
            usable += d

        while stack:
            for u in stack[-1]:
                if u not in allowed or u in on_path:
                    continue
                nodes += 1
                if nodes > budget:
                    raise CycleSearchBudgetExceeded(f"budget {budget} exhausted")
                if len(path) == length - 1:
                    if u > path[1] and s in adj[u]:
                        return path + [u]
                elif free[u] >= 2:
                    move(u, -1)
                    if usable >= length - len(path):
                        stack.append(iter(adj[u]))
                        break
                    move(u, 1)
            else:
                stack.pop()
                if len(path) > 1:
                    move(path[-1], 1)
        return None

    blocks = _blocks(adj)
    for length in range(max(map(len, blocks), default=0), 2, -1):
        for s in g.vertices:
            allowed = {w for blk in blocks if len(blk) >= length and s in blk
                       for w in blk if w > s}
            if len(allowed) < length - 1:
                continue
            found = search(s, length, allowed)
            if found:
                ring = [keys[(a, b) if a < b else (b, a)][0]
                        for a, b in zip(found, found[1:] + found[:1])]
                if ring[0] > ring[-1]:
                    found, ring = found[:1] + found[:0:-1], ring[::-1]
                return Cycle(g, found, ring)
    pairs = [pair for pair, ks in keys.items() if pair[0] != pair[1] and len(ks) > 1]
    loops = [pair for pair in keys if pair[0] == pair[1]]
    if pairs:
        return Cycle(g, min(pairs), keys[min(pairs)][:2])
    return Cycle(g, min(loops)[:1], keys[min(loops)][:1]) if loops else None
