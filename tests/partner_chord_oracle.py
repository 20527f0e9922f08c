"""The partner-chord lemma of the defect descent, as a test oracle.

Every short chord of a normalized p-hamiltonian graph has a partner: a
chord that does not cross it and whose near side is disjoint from its own.
The descent never asks for one chord's partner (its claim selection scans
all pairs at once), so the lemma lives here, where tests/test_normal_form.py
checks it exhaustively at desk scale.
"""

from __future__ import annotations

from tropilink.graphs import GraphError, InternalConsistencyError
from tropilink.normal_form import NormalizedForm, amplitude, is_short, short_arc


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
