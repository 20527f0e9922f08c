"""Consecutive-swap walks, the epsilon-descent to the p-polygon, linkage.

The descent works on one hamiltonian frame, a NormalizedForm: a twist swaps
one endpoint pair between two chords and keeps the hamiltonian cycle, so the
same vertex order and cycle edges normalize every graph along the way.  A
claim step picks a short chord and a partner with disjoint shorter sides
minimizing the gap between them, and twisting them strictly decreases
epsilon.  Each claim twist is one walk of consecutive-vertex swaps, each a
strong link contracting the cycle edge between the swapped vertices: the
first chord's end walks up to the partner's past one mid chord per interior
position, then the partner's end walks back (schedules I and II).  Both
modes take the same walk; in 3ec mode every swap also keeps the graph
3-edge-connected, certified by a recorded pair of cycles meeting only in the
contracted edge.

Linking two arbitrary p-regular graphs of equal genus: hamiltonize both,
descend both to the p-polygon, and splice the second chain reversed.  The
hamiltonian cycle that ends hamiltonization is the frame of the descent, so
no graph of the chain is searched for cycles twice.  Legged graphs are
linked one leg at a time: the chain without the leg is lifted across, and
where a base step would contract the edge the leg sits on, and at the end,
the leg slides along a shortest path of insertion positions, one strong
link per vertex it crosses.
"""

from __future__ import annotations

from .canonical import are_isomorphic, isomorphism_witness
from .certificates import LinkageCertificate, StrongLinkStep, strong_link_check
from .connectivity import Cycle, edge_connectivity_capped
from .graphs import Graph, GraphError, InternalConsistencyError
from .hamiltonize import hamiltonize
from .normal_form import NormalizedForm, build_polygon, epsilon, normalize


# -- twisting at the half-edge level -----------------------------------------


def _half_at(g: Graph, key: int, v: int) -> int:
    """The half-edge of `key` attached at v (smaller id if both are)."""
    hs = [h for h in g.edge_halves(key) if g.endpoint[h] == v]
    if not hs:
        raise GraphError(f"edge {key} has no end at vertex {v}")
    return min(hs)


def _swap_halves(g: Graph, key_a: int, va: int, key_b: int, vb: int) -> Graph:
    ha = _half_at(g, key_a, va)
    hb = _half_at(g, key_b, vb)
    return g.with_endpoints({ha: g.endpoint[hb], hb: g.endpoint[ha]})


def _swap_step(nf: NormalizedForm, g: Graph, key_a, ta, key_b, tb,
               cycles=None) -> StrongLinkStep:
    """Twist of g, a graph on nf's hamiltonian cycle, swapping the chord ends
    at consecutive positions ta, tb; the strong link contracts the cycle
    edge between them.  A swap closing a chord into a loop is rejected.
    With a certifying cycle pair, the twisted graph must stay
    3-edge-connected and the pair is recorded on the step."""
    e = nf.edge_between(ta, tb)
    g2 = _swap_halves(g, key_a, nf.vertex(ta), key_b, nf.vertex(tb))
    if g2.is_loop(key_a) or g2.is_loop(key_b):
        raise GraphError("a consecutive swap would close a chord into a loop")
    if cycles is not None and edge_connectivity_capped(g2) != 3:
        raise InternalConsistencyError(
            "a scheduled twist lost 3-edge-connectivity"
        )
    step = strong_link_check(g, e, g2, e)
    if cycles is not None:
        step.cert_cycles = tuple(tuple(c) for c in cycles)
    return step


def _mid_chord(nf: NormalizedForm, t: int, avoid) -> int:
    """The least chord key at position t other than those in `avoid`."""
    keys = [key for _, _, key in nf.chords_at(t) if key not in avoid]
    if not keys:
        raise InternalConsistencyError(f"no chord available at position {t}")
    return min(keys)


# -- the consecutive-swap walk -------------------------------------------------


def _arc_keys(nf: NormalizedForm, a: int, b: int) -> list[int]:
    """Cycle edge keys e_a..e_b (wrapping allowed, empty if b < a)."""
    if b < a:
        return []
    return [nf.cycle_edge(t) for t in range(a, b + 1)]


def _walk(nf: NormalizedForm, c1: int, j: int, c2: int, k: int,
          mode: str = "plain") -> list[StrongLinkStep]:
    """Swap chord c1's end at j with chord c2's end at k, 1 <= j < k, by
    consecutive swaps on nf's frame.

    Schedule I walks c1's end up to k past the least mid chord at each
    interior position; schedule II walks c2's end back down to j past the
    same mid chords.  Each interior position must avoid the fixed ends of
    c1 and c2.  In 3ec mode the frame reads c1's shorter side as 1..j and
    c2's as k..l, with every mid chord reaching k or beyond, and each swap
    records its certifying cycle pair.  Returns the steps; the last one's
    right graph is the twist.
    """
    mids = {h: _mid_chord(nf, h, (c1, c2)) for h in range(j + 1, k)}

    def arc(a, b):
        return _arc_keys(nf, a, b)

    def far_end(g, key, end):
        """Position of key's end other than the one at `end`, in g."""
        a, b = (nf.pos[v] for v in g.edge_ends(key))
        return b if a == end else a

    g, l = nf.base, far_end(nf.base, c2, k)
    steps = []
    for h in range(j, k):                       # schedule I
        partner = c2 if h == k - 1 else mids[h + 1]
        cycles = None
        if mode == "3ec":
            m = far_end(g, partner, h + 1)
            e_h = nf.cycle_edge(h)
            cycles = ([e_h, c1] + arc(1, h - 1),
                      [e_h] + arc(h + 1, m - 1) + [partner])
        steps.append(_swap_step(nf, g, c1, h, partner, h + 1, cycles))
        g = steps[-1].right
    for h in range(k - 1, j, -1):               # schedule II
        mid = mids[h]
        cycles = None
        if mode == "3ec":
            m = far_end(g, mid, h - 1)
            e_prev = nf.cycle_edge(h - 1)
            if m == k:
                cycles = ([e_prev, mid, c1] + arc(1, h - 2),
                          [e_prev] + arc(h, l - 1) + [c2])
            elif m < l:
                cycles = ([e_prev, mid] + arc(m, l - 1) + [c2],
                          [e_prev] + arc(h, k - 1) + [c1] + arc(1, h - 2))
            else:
                cycles = ([e_prev, mid] + arc(m, nf.gamma) + arc(1, h - 2),
                          [e_prev] + arc(h, l - 1) + [c2])
        steps.append(_swap_step(nf, g, c2, h, mid, h - 1, cycles))
        g = steps[-1].right
    return steps


# -- claim pair selection ------------------------------------------------------


def _select_claim_pair(nf: NormalizedForm):
    """Deterministic minimal-gap claim pair, oriented so both the shift and
    amplitude conditions hold.

    The first chord is short; the second only needs its near side strictly
    shorter than half the cycle (for odd gamma that admits amplitude
    floor(gamma/2), which is what the partner-existence argument actually
    provides; the defect still drops by at least 1 in that case).  Returns
    (frame, j, k, key1, key2): nf rebased so the first chord's near side is
    1..j and the second's starts at k, or None when no pair exists.

    A near side is the cyclic interval of n positions from s, ends
    included: short when n <= gamma//2, ending at (s+n-2) % gamma + 1, and
    disjoint from (s2, n2) when neither start lies in the other interval.
    """
    gamma = nf.gamma
    near = {}
    for i, j, key in nf.chords:
        if 2 * (j - i) < gamma:
            near[key] = (i, j - i + 1)
        elif 2 * (j - i) > gamma:
            near[key] = (j, gamma - j + i + 1)
    best = None
    for k1, (fs, n1) in near.items():
        if n1 > gamma // 2:
            continue
        fe = (fs + n1 - 2) % gamma + 1
        for k2, (ss, n2) in near.items():
            if k2 == k1 or n1 > n2:
                continue
            if (ss - fs) % gamma < n1 or (fs - ss) % gamma < n2:
                continue
            se = (ss + n2 - 2) % gamma + 1
            for dirn in (1, -1):
                if dirn == 1:
                    gap = (ss - fe) % gamma
                    other = (fs - se) % gamma
                    start = fs
                else:
                    gap = (fs - se) % gamma
                    other = (ss - fe) % gamma
                    start = fe
                if gap > other:
                    continue
                j = n1
                k = j + gap
                l = k + n2 - 1
                cand = (gap, j, k, l, -dirn, start, k1, k2)
                if best is None or cand < best:
                    best = cand
    if best is None:
        return None
    _, j, k, _, minus_dirn, start, k1, k2 = best
    return nf.rebased(start, -minus_dirn), j, k, k1, k2


def _check_selection(frame: NormalizedForm, j: int, k: int, key1: int,
                     key2: int):
    """Assert the k-bound and the mid-chord condition the walk relies on."""
    if k > frame.gamma // 2 + 1:
        raise InternalConsistencyError(
            f"selected pair violates the k bound: k={k}, gamma={frame.gamma}"
        )
    for a, b, key in frame.chords:
        if key in (key1, key2):
            continue
        for at, other in ((a, b), (b, a)):
            if j + 1 <= at <= k - 1 and other < k:
                raise InternalConsistencyError(
                    f"mid-chord condition fails: chord at {at} "
                    f"reaches {other} < k={k}"
                )


# -- the descent ---------------------------------------------------------------


def reduce_to_polygon(g: Graph, mode: str = "plain", cycle: Cycle | None = None,
                      epsilon_trace: list | None = None) -> LinkageCertificate:
    """Certificate from a p-hamiltonian graph to the p-polygon.

    The descent works on the frame of `cycle`, a hamiltonian cycle of g
    (searched for when None).  Each outer iteration twists a minimal claim
    pair, strictly decreasing epsilon, by one walk of consecutive swaps.
    Both modes take the same walk; 3ec mode also keeps every graph
    3-edge-connected and records each swap's certifying cycle pair.  When a
    list is passed as epsilon_trace, the epsilon value before each iteration
    and after the last one is appended to it.
    """
    if mode not in ("plain", "3ec"):
        raise GraphError(f"unknown mode {mode!r}")
    p = g.is_regular()
    if p is None:
        raise GraphError("graph is not regular")
    if mode == "3ec" and edge_connectivity_capped(g) != 3:
        raise GraphError("3ec mode needs a 3-edge-connected input")
    nf = normalize(g, cycle)

    steps: list[StrongLinkStep] = []
    eps = epsilon(nf)
    if epsilon_trace is not None:
        epsilon_trace.append(eps)
    while eps > 0:
        sel = _select_claim_pair(nf)
        if sel is None:
            raise InternalConsistencyError("positive epsilon but no claim pair")
        frame, j, k, key1, key2 = sel
        _check_selection(frame, j, k, key1, key2)
        more = _walk(frame, key1, j, key2, k, mode)
        nf = nf.with_base(more[-1].right)
        steps.extend(more)
        new_eps = epsilon(nf)
        if new_eps >= eps:
            raise InternalConsistencyError("claim twist did not decrease epsilon")
        eps = new_eps
        if epsilon_trace is not None:
            epsilon_trace.append(eps)

    # the frame maps v_t to vertex t - 1 of the polygon
    polygon = build_polygon(p, nf.gamma)
    ends = sorted(tuple(sorted(nf.pos[v] - 1 for v in nf.base.edge_ends(e)))
                  for e in nf.base.edges)
    if nf.base.legs or ends != sorted(map(polygon.edge_ends, polygon.edges)):
        raise InternalConsistencyError("descent ended away from the p-polygon")
    return _assemble(g, steps, mode, p)


# -- full linkage --------------------------------------------------------------


def _bridge(a: Graph, b: Graph) -> list[StrongLinkStep]:
    """Strong link between isomorphic graphs, as a list of at most one
    step (none when a is b already)."""
    if a == b:
        return []
    w = isomorphism_witness(a, b)
    if w is None:
        raise GraphError("graphs are not isomorphic")
    nonloop = [e for e in a.edges if not a.is_loop(e)]
    if not nonloop:
        return []  # single-vertex all-loop graphs: nothing to contract
    e = min(nonloop)
    return [strong_link_check(a, e, b, w[1][e])]


def _assemble(first: Graph, steps, mode: str, p: int) -> LinkageCertificate:
    graphs = [first]
    for s in steps:
        if s.left is not graphs[-1] and s.left != graphs[-1]:
            raise InternalConsistencyError("certificate chain is not contiguous")
        graphs.append(s.right)
    return LinkageCertificate(graphs, steps, mode, p)


def link(g1: Graph, g2: Graph, mode: str = "plain") -> LinkageCertificate:
    """Certificate linking two p-regular graphs of equal genus.

    In 3ec mode both inputs must be 3-edge-connected and every chain graph
    (middles included) stays 3-edge-connected.  Graphs with legs must be
    3-regular counting legs and carry the same leg labels; they are linked
    in plain mode, and every witness respects the labels.
    """
    if mode not in ("plain", "3ec"):
        raise GraphError(f"unknown mode {mode!r}")
    p1, p2 = g1.is_regular(), g2.is_regular()
    if p1 is None or p2 is None or p1 != p2:
        raise GraphError("both graphs must be p-regular for the same p")
    if p1 < 3:
        raise GraphError("linkage needs p >= 3")
    if g1.b1 != g2.b1:
        raise GraphError("graphs must have the same first Betti number")
    labels = sorted(g1.leg_labels.values())
    if labels != sorted(g2.leg_labels.values()):
        raise GraphError("graphs must carry the same leg labels")
    if labels and (p1, mode) != (3, "plain"):
        raise GraphError("graphs with legs are linked 3-regular, in plain mode")
    if mode == "3ec":
        for g, name in ((g1, "first"), (g2, "second")):
            if edge_connectivity_capped(g) != 3:
                raise GraphError(f"{name} graph is not 3-edge-connected")

    if are_isomorphic(g1, g2):
        return _assemble(g1, _bridge(g1, g2), mode, p1)
    if labels:
        return _link_legs(g1, g2, labels[-1])

    h1, s1, cycle1 = hamiltonize(g1, mode)
    h2, s2, cycle2 = hamiltonize(g2, mode)
    r1 = reduce_to_polygon(h1, mode, cycle1)
    r2 = reduce_to_polygon(h2, mode, cycle2)

    steps = list(s1) + list(r1.steps)
    p1_end, p2_end = r1.graphs[-1], r2.graphs[-1]
    steps += _bridge(p1_end, p2_end)
    steps.extend(s.reversed() for s in reversed(r2.steps))
    steps.extend(s.reversed() for s in reversed(s2))
    return _assemble(g1, steps, mode, p1)


# -- legged linkage ------------------------------------------------------------


def _add_leg(base: Graph, pos, label: int):
    """Insert a new 3-valent vertex in the interior of an edge or leg and
    hang a labeled leg on it.  Returns (graph, new_vertex)."""
    kind, key = pos
    v_new = max(base.vertices) + 1
    nxt = max(base.half_edges) + 1
    inv = dict(base.involution)
    ep = dict(base.endpoint)
    labels = dict(base.leg_labels)
    if kind == "edge":
        ha, hb = base.edge_halves(key)
        n1, n2, n3 = nxt, nxt + 1, nxt + 2
        inv[ha], inv[n1] = n1, ha
        inv[hb], inv[n2] = n2, hb
        ep[n1] = ep[n2] = v_new
        inv[n3] = n3
        ep[n3] = v_new
        labels[n3] = label
    elif kind == "leg":
        n1, n2, n3 = nxt, nxt + 1, nxt + 2
        inv[n1], inv[n2] = n2, n1
        ep[n1] = base.endpoint[key]
        ep[n2] = v_new
        ep[key] = v_new  # the old leg rides along to the new vertex
        inv[n3] = n3
        ep[n3] = v_new
        labels[n3] = label
    else:
        raise GraphError(f"unknown position kind {kind!r}")
    return Graph(list(base.vertices) + [v_new], inv, ep, labels), v_new


def _remove_leg(g: Graph, label: int):
    """Remove the labeled leg and its 3-valent vertex, splicing the two
    remaining half-edges.  Returns (base graph, position)."""
    legs = [h for h, lab in g.leg_labels.items() if lab == label]
    if not legs:
        raise GraphError(f"no leg labeled {label}")
    h_leg = legs[0]
    v = g.endpoint[h_leg]
    if g.valency(v) != 3:
        raise GraphError("leg vertex is not 3-valent")
    rest = [h for h in g.half_edges_at(v) if h != h_leg]
    inv = dict(g.involution)
    ep = dict(g.endpoint)
    labels = dict(g.leg_labels)
    del inv[h_leg], ep[h_leg], labels[h_leg]

    other_legs = [h for h in rest if g.involution[h] == h]
    if len(other_legs) == 1:
        l2 = other_legs[0]
        hx = next(h for h in rest if h != l2)
        px = g.involution[hx]
        u = g.endpoint[px]
        del inv[hx], ep[hx], inv[px], ep[px]
        ep[l2] = u
        pos = ("leg", l2)
    elif not other_legs:
        hx, hy = rest
        px, py = g.involution[hx], g.involution[hy]
        if px == hy:
            raise GraphError("removing a loop vertex would disconnect the graph")
        del inv[hx], ep[hx], inv[hy], ep[hy]
        inv[px], inv[py] = py, px
        pos = ("edge", min(px, py))
    else:
        raise GraphError("leg vertex carries too many legs")
    vs = [x for x in g.vertices if x != v]
    return Graph(vs, inv, ep, labels), pos


def _slides(g: Graph, pos):
    """(u, q) for each position q sharing a vertex u with pos, in a fixed
    order: u ascending, then edges by key (a loop once), then legs by id."""
    kind, key = pos
    ends = (g.endpoint[key],) if kind == "leg" else sorted(set(g.edge_ends(key)))
    for u in ends:
        yield from ((u, ("edge", e)) for e in sorted(g.edges_at(u)))
        yield from ((u, ("leg", h)) for h in g.legs_at(u))


def _slide_edge(g: Graph, v: int, u: int) -> int:
    """The least-key edge joining the leg vertex v to u."""
    return min(e for e in g.edges_at(v) if g.other_end(e, v) == u)


def _claim_move(base: Graph, pos_from, pos_to, label: int):
    """Chain of steps carrying the leg labeled `label` from one insertion
    position of base to another, one slide per vertex it crosses.

    Slide lemma: insert the leg at a position at vertex u, on a new vertex
    v, and contract v's least-key edge to u.  Whatever the position, this
    gives base with the leg hung at u: an edge (x, u) is restored; for a
    loop at u, the other new edge becomes the loop; a leg at u returns to
    u.  So the insertions at two positions sharing a vertex u are one
    strong link, each side contracting into u.  The chain has one such
    step per hop of a shortest path between the positions, found by a BFS
    in `_slides` order.
    """
    prev = {pos_from: None}
    frontier = [pos_from]
    while pos_to not in prev:
        if not frontier:
            raise InternalConsistencyError("the leg has no path between positions")
        nxt = []
        for p in frontier:
            for u, q in _slides(base, p):
                if q not in prev:
                    prev[q] = (p, u)
                    nxt.append(q)
        frontier = nxt
    steps, q = [], pos_to
    right, v_right = _add_leg(base, q, label)
    while prev[q] is not None:
        q, u = prev[q]
        left, v_left = _add_leg(base, q, label)
        steps.append(strong_link_check(left, _slide_edge(left, v_left, u),
                                       right, _slide_edge(right, v_right, u)))
        right, v_right = left, v_left
    return steps[::-1]


def _transport_position(step: StrongLinkStep, pos):
    """Carry an insertion position of step.left over to step.right."""
    kind, key = pos
    to_left = step.witness[1 if kind == "edge" else 2]
    return kind, next(k for k, x in to_left.items() if x == key)


def _fresh_position(g: Graph, avoid_edge: int):
    """The first position sharing a vertex with avoid_edge, in `_slides`
    order, so the leg steps off that edge in one slide."""
    return next(q for _, q in _slides(g, ("edge", avoid_edge))
                if q != ("edge", avoid_edge))


def _link_legs(g1: Graph, g2: Graph, label: int) -> LinkageCertificate:
    """`link` for non-isomorphic legged graphs: link the graphs without the
    leg labeled `label`, then lift that chain.  Where a base step would
    contract the edge the leg sits on, the leg first slides to the next
    position at an end of that edge; after the last step it slides to its
    place in g2."""
    base1, q1 = _remove_leg(g1, label)
    base2, q2 = _remove_leg(g2, label)
    sub = link(base1, base2)

    steps: list[StrongLinkStep] = []
    cur_graph = g1
    cur_pos = q1

    def push(new_steps):
        nonlocal cur_graph
        for s in new_steps:
            steps.extend(_bridge(cur_graph, s.left))
            steps.append(s)
            cur_graph = s.right

    for i, sub_step in enumerate(sub.steps):
        D = sub.graphs[i]
        if cur_pos == ("edge", sub_step.left_edge):
            q_safe = _fresh_position(D, sub_step.left_edge)
            push(_claim_move(D, cur_pos, q_safe, label))
            cur_pos = q_safe
        A, _ = _add_leg(D, cur_pos, label)
        q_next = _transport_position(sub_step, cur_pos)
        B, _ = _add_leg(sub.graphs[i + 1], q_next, label)
        push([strong_link_check(A, sub_step.left_edge, B, sub_step.right_edge)])
        cur_pos = q_next

    D_last = sub.graphs[-1]
    if D_last != base2:
        w = isomorphism_witness(base2, D_last)
        if w is None:
            raise InternalConsistencyError("base chain misses its endpoint")
        q2 = (q2[0], w[1 if q2[0] == "edge" else 2][q2[1]])
    push(_claim_move(D_last, cur_pos, q2, label))

    steps += _bridge(cur_graph, g2)
    return _assemble(g1, steps, "plain", 3)
