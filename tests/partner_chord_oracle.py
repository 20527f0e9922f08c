"""The partner-chord lemma of the defect descent and the claim selection by
materialized arcs, as test oracles.

Every short chord of a normalized p-hamiltonian graph has a partner: a
chord that does not cross it and whose near side is disjoint from its own.
The descent never asks for one chord's partner (its claim selection scans
all pairs at once), so the lemma lives here, where tests/test_normal_form.py
checks it exhaustively at desk scale.

`linkage._select_claim_pair` reads each near side as a cyclic interval,
two integers, and tests disjointness by modular arithmetic.
`select_claim_pair` below is the selection it replaced: every near side a
tuple of positions, every overlap a set intersection.
tests/test_linkage.py checks that both choose the same pair.
"""

from __future__ import annotations

from tropilink.graphs import GraphError, InternalConsistencyError
from tropilink.normal_form import NormalizedForm, amplitude


def is_short(nf: NormalizedForm, chord: tuple[int, int]) -> bool:
    return amplitude(nf, chord) <= nf.gamma // 2 - 1


def short_arc(nf: NormalizedForm, chord: tuple[int, int]) -> tuple[int, ...]:
    """Positions on the strictly shorter side of a chord, endpoints included.

    Defined whenever the two sides have different lengths (always, except
    for maximal-amplitude chords on an even cycle).
    """
    i, j = chord[0], chord[1]
    if 2 * amplitude(nf, chord) == nf.gamma:
        raise GraphError(f"chord {chord} has two sides of equal length")
    if j - i < nf.gamma - j + i:
        return tuple(range(i, j + 1))
    return tuple(range(j, nf.gamma + 1)) + tuple(range(1, i + 1))


def select_claim_pair(nf: NormalizedForm):
    """`linkage._select_claim_pair` on materialized arcs: the same
    (frame, j, k, key1, key2), or None."""
    gamma = nf.gamma
    near = {c[2]: short_arc(nf, c) for c in nf.chords
            if 2 * amplitude(nf, c) < gamma}
    best = None
    for c in nf.chords:
        if not is_short(nf, c):
            continue
        k1, arc1 = c[2], near[c[2]]
        for k2, arc2 in near.items():
            if k2 == k1 or len(arc1) > len(arc2):
                continue
            if not set(arc1).isdisjoint(arc2):
                continue
            fs, fe, ss, se = arc1[0], arc1[-1], arc2[0], arc2[-1]
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
                j = len(arc1)
                k = j + gap
                l = k + len(arc2) - 1
                cand = (gap, j, k, l, -dirn, start, k1, k2)
                if best is None or cand < best:
                    best = cand
    if best is None:
        return None
    _, j, k, _, minus_dirn, start, k1, k2 = best
    return nf.rebased(start, -minus_dirn), j, k, k1, k2


def find_partner_short_chord(nf: NormalizedForm, chord) -> tuple[int, int, int]:
    """A partner chord not crossing the given short one, with disjoint
    shorter sides.  Deterministic: smallest (k, l, key) among the partners.

    A short partner always exists when the cycle length is even.  When it is
    odd, the guaranteed partner may instead have maximal amplitude
    floor(gamma/2) (its near side still strictly the shorter one); short
    partners are preferred when present.
    """
    i, j = chord[0], chord[1]
    if not is_short(nf, (i, j)):
        raise GraphError(f"chord {chord} is not short")
    mine = [c for c in nf.chords if (c[0], c[1]) == (i, j)]
    if not mine:
        raise GraphError(f"no chord at {chord}")
    key = chord[2] if len(chord) > 2 else mine[0][2]
    arc = set(short_arc(nf, (i, j)))
    fallback = None
    for k, l, ckey in nf.chords:
        if ckey == key or 2 * amplitude(nf, (k, l)) >= nf.gamma:
            continue
        if arc & set(short_arc(nf, (k, l))):
            continue
        if is_short(nf, (k, l)):
            return (k, l, ckey)
        if fallback is None:
            fallback = (k, l, ckey)
    if fallback is not None:
        return fallback
    raise InternalConsistencyError(
        f"no partner chord for {chord} in {nf!r}"
    )
