"""The paper's twist lemmas, as test oracles of the consecutive-swap walk.

A twist swaps one endpoint pair between two chords of a hamiltonian frame
and keeps the hamiltonian cycle.  The descent never twists a chord pair on
its own: it realizes every claim twist as one walk of consecutive swaps,
`linkage._walk`, and a certificate records only that walk.  So the lemmas
live here, where tests/test_linkage.py and tests/test_golden.py check them
against the walk:

- `twist` swaps the ends directly;
- `factor_twist` factors a twist into consecutive swaps (the walk, read on
  the frame rotated so that no fixed chord end lies between the swapped
  ones);
- `twist_3ec` is the single 3-edge-connectivity preserving twist of the
  3ec descent, with its certifying cycle pair derived from the paper's
  cases (a) and (b).
"""

from __future__ import annotations

from tropilink.connectivity import edge_connectivity_capped
from tropilink.graphs import Graph, GraphError
from tropilink.linkage import _arc_keys, _swap_halves, _swap_step, _walk
from tropilink.normal_form import NormalizedForm


def _resolve_chord(nf: NormalizedForm, chord) -> tuple[int, int, int]:
    """Accept (i, j) or (i, j, key); return (i, j, key)."""
    if len(chord) == 3:
        if tuple(chord) not in nf.chords:
            raise GraphError(f"no chord {chord}")
        return tuple(chord)
    hits = [c for c in nf.chords if (c[0], c[1]) == tuple(chord)]
    if not hits:
        raise GraphError(f"no chord at positions {chord}")
    return hits[0]


def _twist_args(nf: NormalizedForm, chord_a, chord_b, swap):
    """Check the arguments of a twist; return (key_a, key_b, pa, pb, keep_a,
    keep_b), where keep_x is the position of chord x's end that stays."""
    ia, ja, ka = _resolve_chord(nf, chord_a)
    ib, jb, kb = _resolve_chord(nf, chord_b)
    if ka == kb:
        raise GraphError("cannot twist a chord with itself")
    pa, pb = swap
    if pa not in (ia, ja) or pb not in (ib, jb):
        raise GraphError(f"swap {swap} does not name ends of the two chords")
    keep_a = ia + ja - pa
    keep_b = ib + jb - pb
    if keep_a == pb or keep_b == pa:
        raise GraphError("twist would create a loop")
    return ka, kb, pa, pb, keep_a, keep_b


def twist(nf: NormalizedForm, chord_a, chord_b, swap) -> Graph:
    """Swap one endpoint pair between two chords.

    swap = (position from chord_a, position from chord_b).  The result keeps
    the hamiltonian cycle, so the same frame normalizes it; a swap that
    would close a chord into a loop is rejected.
    """
    ka, kb, pa, pb, _, _ = _twist_args(nf, chord_a, chord_b, swap)
    return _swap_halves(nf.base, ka, nf.vertex(pa), kb, nf.vertex(pb))


def factor_twist(nf: NormalizedForm, chord_a, chord_b, swap):
    """Certificate fragment realizing twist(nf, chord_a, chord_b, swap).

    The walk direction is chosen so no fixed chord end lies strictly between
    the swapped ends; a configuration blocked in both directions is not
    factored here (the descent never produces one).  Arguments `twist`
    rejects are rejected alike.
    """
    ka, kb, pa, pb, keep_a, keep_b = _twist_args(nf, chord_a, chord_b, swap)
    if pa == pb:
        raise GraphError("endpoints to swap sit at the same position")
    gamma = nf.gamma

    options = []
    for dirn in (1, -1):
        dist = (dirn * (pb - pa)) % gamma
        interior = {(pa - 1 + dirn * t) % gamma + 1 for t in range(1, dist)}
        if keep_a in interior or keep_b in interior:
            continue
        options.append((dist, -dirn, dirn))
    if not options:
        raise GraphError("no walk direction avoids the fixed chord ends")
    dist, _, dirn = min(options)
    return _walk(nf.rebased(pa, dirn), ka, 1, kb, dist + 1)


def twist_3ec(nf: NormalizedForm, chord_a, chord_b):
    """Twist (d_ij, d_(j+1)*) into (d_i(j+1), d_j*) preserving
    3-edge-connectivity, with the certifying cycle pair recorded.

    chord_b must have an end at position j+1; either it does not cross
    chord_a, or a third chord witnesses case (b).  Rejected otherwise.
    Returns (twisted graph, step).
    """
    ia, ja, ka = _resolve_chord(nf, chord_a)
    ib, jb, kb = _resolve_chord(nf, chord_b)
    if edge_connectivity_capped(nf.base) != 3:
        raise GraphError("twist_3ec needs a 3-edge-connected base")
    i, j = ia, ja
    if ib != j + 1 and jb != j + 1:
        raise GraphError("second chord must start at position j+1")

    e_j = nf.cycle_edge(j)
    if ib == j + 1:                      # case (a): d_(j+1)h with h > j+1
        h = jb
        cyc1 = [e_j, ka] + _arc_keys(nf, i, j - 1)
        cyc2 = [e_j] + _arc_keys(nf, j + 1, h - 1) + [kb]
    else:                                # case (b): d_h(j+1) with i < h < j
        h = ib
        if not i < h < j:
            raise GraphError("crossing chord must start strictly between i and j")
        witness = [
            (x, y, key) for x, y, key in nf.chords
            if h < x < j and y > j + 1 and key not in (ka, kb)
        ]
        if not witness:
            raise GraphError("no third chord witnesses case (b)")
        x, y, kw = min(witness)
        cyc1 = [e_j, ka] + _arc_keys(nf, i, h - 1) + [kb]
        cyc2 = [e_j] + _arc_keys(nf, j + 1, y - 1) + [kw] + \
            _arc_keys(nf, x, j - 1)

    step = _swap_step(nf, nf.base, ka, j, kb, j + 1, (cyc1, cyc2))
    return step.right, step
