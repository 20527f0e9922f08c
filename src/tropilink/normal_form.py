"""Normalized forms of p-hamiltonian graphs and the p-polygon family.

A p-hamiltonian graph (p-regular, loop-free, hamiltonian) is normalized by
fixing a hamiltonian cycle, labeling the vertices v_1..v_gamma along it, and
listing the remaining b-1 edges as chords (i, j) with i < j.  The amplitude
of a chord is its shorter distance along the cycle; chords of amplitude at
most gamma/2 - 1 are short.  The defect epsilon sums floor(gamma/2) minus
amplitude over all chords and vanishes exactly on the p-polygon, the unique
p-hamiltonian graph without short chords.
"""

from __future__ import annotations

from .connectivity import Cycle, longest_cycle
from .graphs import Graph, GraphError, InternalConsistencyError, build_graph


class NormalizedForm:
    """Hamiltonian ordering of a p-hamiltonian graph with its chord list.

    Positions are 1-based: order[i-1] is v_i, cycle_edges[i-1] is the cycle
    edge e_i joining v_i and v_{i+1} (cyclically).  Chords are (i, j, key)
    with i < j.
    """

    __slots__ = ("base", "order", "cycle_edges", "chords", "pos")

    def __init__(self, base: Graph, order, cycle_edges):
        cycle = Cycle(base, order, cycle_edges)
        if cycle.length != len(base.vertices):
            raise GraphError("a hamiltonian cycle must cover every vertex")
        self.base = base
        self.order, self.cycle_edges = cycle.vertices, cycle.edge_keys
        self.pos = {v: i + 1 for i, v in enumerate(self.order)}
        chords = []
        cyc = set(self.cycle_edges)
        for e in base.edges:
            if e in cyc:
                continue
            a, b = base.edge_ends(e)
            i, j = sorted((self.pos[a], self.pos[b]))
            if i == j:
                raise GraphError("loops have no normalized form")
            chords.append((i, j, e))
        self.chords = tuple(sorted(chords))

    @property
    def gamma(self) -> int:
        return len(self.order)

    def vertex(self, i: int) -> int:
        return self.order[(i - 1) % self.gamma]

    def cycle_edge(self, i: int) -> int:
        """Key of e_i, the cycle edge joining v_i and v_{i+1}."""
        return self.cycle_edges[(i - 1) % self.gamma]

    def edge_between(self, a: int, b: int) -> int:
        """Key of the cycle edge joining the consecutive positions a and b."""
        a = (a - 1) % self.gamma + 1
        b = (b - 1) % self.gamma + 1
        if b == a % self.gamma + 1:
            return self.cycle_edge(a)
        if a == b % self.gamma + 1:
            return self.cycle_edge(b)
        raise GraphError(f"positions {a},{b} are not consecutive")

    def with_base(self, graph: Graph) -> "NormalizedForm":
        """The same frame on another graph that keeps this hamiltonian cycle,
        such as a twist of this one."""
        return NormalizedForm(graph, self.order, self.cycle_edges)

    def rebased(self, start: int, dirn: int) -> "NormalizedForm":
        """The same cycle read from position `start` in direction dirn (+1
        or -1): position t of the result is position start + dirn*(t-1)
        here, and its e_1 is the cycle edge leaving start that way.  So its
        e_t joins its v_t and v_{t+1} as this frame's edges do, and it is
        built unchecked: its chords are this frame's, each end q moved to
        dirn*(q - start) % gamma + 1."""
        gamma, nf = self.gamma, object.__new__(NormalizedForm)
        to = [0] + [dirn * (q - start) % gamma + 1 for q in range(1, gamma + 1)]
        o, c = self.order, self.cycle_edges
        k, m = (start - 1) % gamma, (start - 2) % gamma
        nf.base = self.base
        nf.order = o[k:] + o[:k] if dirn == 1 else o[k::-1] + o[:k:-1]
        nf.cycle_edges = c[k:] + c[:k] if dirn == 1 else c[m::-1] + c[:m:-1]
        nf.pos = dict(zip(nf.order, range(1, gamma + 1)))
        nf.chords = tuple(sorted((min(to[i], to[j]), max(to[i], to[j]), e)
                                 for i, j, e in self.chords))
        return nf

    def chord_positions(self) -> list[tuple[int, int]]:
        return [(i, j) for i, j, _ in self.chords]

    def chords_at(self, i: int) -> list[tuple[int, int, int]]:
        return [c for c in self.chords if i in (c[0], c[1])]

    def __repr__(self):
        return f"NormalizedForm(gamma={self.gamma}, chords={self.chord_positions()})"


def _check_p_hamiltonian(g: Graph, delta: Cycle):
    p = g.is_regular()
    if p is None:
        raise GraphError("graph is not regular")
    if any(g.is_loop(e) for e in g.edges):
        raise GraphError("graph has loops; not p-hamiltonian")
    if delta.length != len(g.vertices):
        raise GraphError("the given cycle is not hamiltonian")
    return p


def normalize(g: Graph, delta: Cycle | None = None) -> NormalizedForm:
    """Normalized form with a deterministic compatible labeling.

    Among the 2*gamma compatible labelings of the chosen hamiltonian cycle,
    the one minimizing the sorted chord position list (then the vertex id
    sequence) is used, so equal inputs yield identical forms.
    """
    if delta is None:
        delta = longest_cycle(g)
        if delta is None or delta.length != len(g.vertices):
            raise GraphError("graph is not hamiltonian")
    _check_p_hamiltonian(g, delta)

    frame = NormalizedForm(g, delta.vertices, delta.edge_keys)
    return min((frame.rebased(start, dirn) for dirn in (1, -1)
                for start in range(1, delta.length + 1)),
               key=lambda nf: (nf.chord_positions(), nf.order))


def amplitude(nf: NormalizedForm, chord: tuple[int, int]) -> int:
    """Shorter cycle-distance between the chord endpoints."""
    i, j = chord[0], chord[1]
    if not 1 <= i < j <= nf.gamma:
        raise GraphError(f"bad chord positions {chord}")
    return min(j - i, nf.gamma - j + i)


def epsilon(nf: NormalizedForm) -> int:
    """Sum over chords of floor(gamma/2) minus amplitude; zero iff no short
    chord, iff the graph is the p-polygon."""
    half = nf.gamma // 2
    return sum(half - amplitude(nf, (i, j)) for i, j, _ in nf.chords)


def build_polygon(p: int, gamma: int) -> Graph:
    """The p-polygon: gamma-cycle whose chords all have maximal amplitude.

    gamma even: p-2 parallel chords on each antipodal vertex pair.
    gamma odd (needs p even): (p-2)/2 chords from each vertex to each of the
    two almost-antipodal vertices.
    """
    if p < 3:
        raise GraphError("p must be >= 3")
    if gamma < 2:
        raise GraphError("gamma must be >= 2")
    if gamma % 2 == 1 and p % 2 == 1:
        raise GraphError("an odd cycle length requires even p")

    edges = [(i, (i + 1) % gamma) for i in range(gamma)]
    if gamma % 2 == 0:
        half = gamma // 2
        for i in range(half):
            edges.extend([(i, i + half)] * (p - 2))
    else:
        step = (gamma - 1) // 2
        r = (p - 2) // 2
        for i in range(gamma):
            edges.extend([(i, (i + step) % gamma)] * r)
    g = build_graph(edges)
    if g.is_regular() != p:
        raise InternalConsistencyError("polygon construction is not p-regular")
    return g
