"""Transform a p-regular graph into a strongly-linked p-hamiltonian one.

Two moves, both certified by a strong-link step: a cycle-lengthening move
(contract an edge leaving a maximum cycle, then split the merged vertex so
the cycle grows) and a loop-removal move (turn a loop at a cycle vertex into
a chord by trading a half-edge with the next vertex).  In 3ec mode each move
is chosen so the result stays 3-edge-connected, re-verified per step.
"""

from __future__ import annotations

from itertools import combinations

from .certificates import strong_link_check
from .connectivity import Cycle, edge_connectivity_capped, longest_cycle
from .graphs import Graph, GraphError, InternalConsistencyError, contract


def vertex_splits(gprime: Graph, w: int, left_required, right_required):
    """Every split of a (2p-2)-valent vertex into two p-valent ones joined
    by a new edge, with the required half-edges on the prescribed sides.

    Yields (graph, key of the new edge); w keeps the left side, the right
    side goes to a new vertex, and contracting the new edge restores gprime
    exactly.  The free half-edges join the left side in the order of
    `combinations`.
    """
    halves = gprime.half_edges_at(w)
    val = len(halves)
    if val < 4 or val % 2:
        raise GraphError(f"vertex {w} has valency {val}, expected 2p-2 >= 4")
    p = (val + 2) // 2
    left_required = sorted(left_required)
    right_required = sorted(right_required)
    taken = set(left_required) | set(right_required)
    if len(taken) != len(left_required) + len(right_required):
        raise GraphError("required half-edge sets overlap")
    if not taken <= set(halves):
        raise GraphError("required half-edges must be incident to the split vertex")
    if len(left_required) > p - 1 or len(right_required) > p - 1:
        raise GraphError("too many required half-edges for one side")

    rest = [h for h in halves if h not in taken]
    need_left = (p - 1) - len(left_required)
    u2 = max(gprime.vertices) + 1
    ha = max(gprime.half_edges) + 1
    hb = ha + 1

    for extra in combinations(rest, need_left):
        left = set(left_required) | set(extra)
        inv = dict(gprime.involution)
        inv[ha], inv[hb] = hb, ha
        ep = dict(gprime.endpoint)
        for h in halves:
            ep[h] = w if h in left else u2
        ep[ha], ep[hb] = w, u2
        yield Graph(list(gprime.vertices) + [u2], inv, ep, gprime.leg_labels), ha


def valency_reducing_extension(
    gprime: Graph,
    w: int,
    left_required,
    right_required,
    mode: str = "plain",
) -> tuple[Graph, int]:
    """Split a (2p-2)-valent vertex into two p-valent ones joined by a new
    edge, with the required half-edges landing on the prescribed sides.

    Contracting the new edge restores gprime exactly.  Returns the new graph
    and the key of the new edge.  In 3ec mode the half-edge distribution is
    searched in canonical order until the result is 3-edge-connected.
    """
    for cand, key in vertex_splits(gprime, w, left_required, right_required):
        if mode == "plain" or edge_connectivity_capped(cand) == 3:
            return cand, key
    raise InternalConsistencyError(
        "no half-edge distribution preserves 3-edge-connectivity"
    )


def lengthen_cycle_step(g: Graph, delta: Cycle, mode: str = "plain"):
    """One strong-link move producing a p-regular graph with a longer cycle."""
    Cycle(g, delta.vertices, delta.edge_keys)  # validate against g
    if delta.length >= len(g.vertices):
        raise GraphError("cycle is already hamiltonian; nothing to lengthen")

    on = set(delta.vertices)
    candidates = [
        e for e in g.edges
        if len(set(g.edge_ends(e)) & on) == 1 and not g.is_loop(e)
    ]
    if not candidates:
        raise InternalConsistencyError("no edge leaves the cycle in a connected graph")
    e = min(candidates)
    w, b = g.edge_ends(e)  # contract merges e into its lesser end, w
    v1 = w if w in on else b

    idx = delta.vertices.index(v1)
    e_first, e_last = delta.edge_keys[idx], delta.edge_keys[idx - 1]  # leave, enter v1
    gp = contract(g, {e})

    if e_first == e_last:
        # the cycle is a single loop at v1; its two halves are the anchors
        h1, h2 = gp.edge_halves(e_first)
        left_req, right_req = [h1], [h2]
    else:
        left_req = [h for h in gp.edge_halves(e_first) if gp.endpoint[h] == w]
        right_req = [h for h in gp.edge_halves(e_last) if gp.endpoint[h] == w]
        if len(left_req) != 1 or len(right_req) != 1:
            raise InternalConsistencyError("cycle edges do not anchor the split")

    g2, new_edge = valency_reducing_extension(gp, w, left_req, right_req, mode)
    return g2, strong_link_check(g, e, g2, new_edge)


def remove_loop_step(g: Graph, delta: Cycle, loop: int, mode: str = "plain"):
    """One strong-link move removing a loop from a hamiltonian graph."""
    Cycle(g, delta.vertices, delta.edge_keys)
    if delta.length != len(g.vertices):
        raise GraphError("loop removal needs a hamiltonian cycle")
    if loop not in g.edges or not g.is_loop(loop):
        raise GraphError(f"edge {loop} is not a loop")
    v1 = g.edge_ends(loop)[0]
    l1, l2 = g.edge_halves(loop)
    delta_edges = set(delta.edge_keys)

    idx = delta.vertices.index(v1)
    k = delta.length
    orientations = [
        (delta.vertices[(idx + 1) % k], delta.edge_keys[idx]),
        (delta.vertices[(idx - 1) % k], delta.edge_keys[(idx - 1) % k]),
    ]
    for v2, e1 in orientations:
        for h in g.half_edges_at(v2):
            if g.involution[h] == h:
                continue  # legs stay where they are
            key = min(h, g.involution[h])
            if key in delta_edges or v1 in g.edge_ends(key):
                continue
            g2 = g.with_endpoints({l2: v2, h: v1})
            if mode == "3ec" and edge_connectivity_capped(g2) != 3:
                continue
            return g2, strong_link_check(g, e1, g2, e1)
    raise InternalConsistencyError("no half-edge admits the loop-removal move")


def hamiltonize(g: Graph, mode: str = "plain"):
    """Chain of strong links from g to a p-hamiltonian graph.

    Returns (final graph, steps, hamiltonian cycle of the final graph), the
    cycle being the frame `reduce_to_polygon` descends on.  Already
    p-hamiltonian inputs give an empty step list.  In 3ec mode the input
    must be 3-edge-connected and every graph along the way stays so.

    Each graph of the chain is searched for a longest cycle once; that cycle
    tells whether the graph is hamiltonian, drives the next move and checks
    that the previous lengthening move lengthened.
    """
    if mode not in ("plain", "3ec"):
        raise GraphError(f"unknown mode {mode!r}")
    p = g.is_regular()
    if p is None:
        raise GraphError("graph is not p-regular")
    if len(g.vertices) < 2:
        raise GraphError("hamiltonization needs at least two vertices")
    if mode == "3ec" and edge_connectivity_capped(g) != 3:
        raise GraphError("3ec mode needs a 3-edge-connected input")

    steps = []
    cur = g
    delta = longest_cycle(cur)
    if delta is None:
        raise GraphError("graph has no cycle; cannot hamiltonize")
    while delta.length < len(cur.vertices):
        length_before = delta.length
        cur, step = lengthen_cycle_step(cur, delta, mode)
        steps.append(step)
        delta = longest_cycle(cur)
        if delta.length <= length_before:
            raise InternalConsistencyError("lengthening move did not lengthen")

    while True:
        loops = sorted(e for e in cur.edges if cur.is_loop(e))
        if not loops:
            break
        cur, step = remove_loop_step(cur, delta, loops[0], mode)
        steps.append(step)
        delta = longest_cycle(cur)
    return cur, steps, delta
