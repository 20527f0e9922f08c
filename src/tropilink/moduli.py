"""Stratification posets of tropical moduli loci and the codimension-one
connectivity check.

A stratum is an isomorphism class of stable weighted graphs with labeled
legs; its dimension is the edge count.  Covers are one-edge weighted
contractions.  A locus restricts the strata: all of them, the pure ones
(weight zero everywhere), those with 3-edge-connected underlying graph
(the combinatorial stand-in for the Schottky image), or the downward
closure of the p-regular pure classes.  Strata and covers both come from
one contraction closure of the 3-regular classes, for `3ec` the
3-edge-connected ones and for `preg:P` the P-regular ones, which contracts
canonical keys and builds no graph; the pure locus contracts non-loop
edges only.  A stratum reads its dimension and genus off its key.

Connectivity through codimension one reads the top two levels only: the
top classes, one round of the move out of them, and the covers that round
records.  No stratum of lower dimension is built.
"""

from __future__ import annotations

from .atlas import (_classes, _closure, _contractions, _edge_contractions,
                    components)
from .canonical import form_hash, from_canonical_form
from .graphs import GraphError, WeightedGraph


class Stratum:
    """A stratum by its labeled canonical key.  Dimension (the sum of the
    multiplicity matrix) and genus are read off the key; the representative
    graph is rebuilt from the key on first use."""

    __slots__ = ("key", "dimension", "_wgraph")

    def __init__(self, key: tuple):
        self.key = key
        self.dimension = sum(map(sum, key[1]))
        self._wgraph: WeightedGraph | None = None

    @property
    def wgraph(self) -> WeightedGraph:
        if self._wgraph is None:
            self._wgraph = from_canonical_form(self.key)
        return self._wgraph

    @property
    def genus(self) -> int:
        colors, rows = self.key
        return self.dimension - len(rows) + 1 + sum(c[0] for c in colors)

    def __repr__(self):
        return f"Stratum(dim={self.dimension}, genus={self.genus})"


class StrataPoset:
    """Strata plus the one-edge-contraction cover relation."""

    __slots__ = ("g", "n", "locus", "strata", "covers")

    def __init__(self, g, n, locus, strata, covers):
        self.g = g
        self.n = n
        self.locus = locus
        self.strata = strata
        self.covers = sorted(covers)

    @property
    def max_dimension(self) -> int:
        return max(s.dimension for s in self.strata)

    def dimension_profile(self) -> dict[int, int]:
        prof: dict[int, int] = {}
        for s in self.strata:
            prof[s.dimension] = prof.get(s.dimension, 0) + 1
        return prof

    def maximal_strata(self) -> list[int]:
        top = self.max_dimension
        return [i for i, s in enumerate(self.strata) if s.dimension == top]

    def pure_dimension_violations(self) -> list[int]:
        """Strata not below any maximal stratum (empty on a pure-dimensional
        locus; reported, never assumed)."""
        down: dict[int, list[int]] = {}
        for a, b in self.covers:
            down.setdefault(a, []).append(b)
        todo = self.maximal_strata()
        seen = set(todo)
        while todo:
            for b in down.get(todo.pop(), ()):
                if b not in seen:
                    seen.add(b)
                    todo.append(b)
        return [i for i in range(len(self.strata)) if i not in seen]

    def __repr__(self):
        return (f"StrataPoset(g={self.g}, n={self.n}, locus={self.locus}, "
                f"strata={len(self.strata)}, covers={len(self.covers)})")


def _parse_locus(locus) -> tuple[str, int | None]:
    """all | pure | 3ec | preg:P, as (kind, P).  P is an integer >= 3
    spelled as `str` writes it, so one locus has one spelling."""
    if locus in ("all", "pure", "3ec"):
        return locus, None
    if isinstance(locus, str) and locus.startswith("preg:"):
        try:
            p = int(locus[len("preg:"):])
        except ValueError:
            p = 0
        if p >= 3 and locus == f"preg:{p}":
            return "preg", p
    raise GraphError(f"unknown locus {locus!r}: all, pure, 3ec or preg:P "
                     "with P >= 3 written in plain decimal")


def _top_cells(g: int, n: int, locus):
    """The canonical keys of the locus's top cells inside M_{g,n}, and the
    move whose closure from them is the locus: one-edge weighted
    contractions, or non-loop ones for pure.  Every top cell has the same
    edge count, so every move lowers the dimension by one."""
    if n < 0:
        raise GraphError("the number of legs must be >= 0")
    if g < 0:
        raise GraphError("the genus must be >= 0")
    if 2 * g - 2 + n <= 0:
        raise GraphError("moduli need 2g-2+n > 0")
    kind, p = _parse_locus(locus)
    if kind in ("3ec", "preg") and n != 0:
        raise GraphError(f"locus {kind} is defined for n = 0 only")

    if kind == "preg":
        try:
            tops = _classes(p, g, "all", 0)[0]
        except GraphError:
            raise GraphError(f"no {p}-regular pure classes at genus {g}") \
                from None
    else:
        tops = _classes(3, g, "3ec" if kind == "3ec" else "all", n)[0]
    return tops, _edge_contractions if kind == "pure" else _contractions


def build_poset(g: int, n: int, locus="all") -> StrataPoset:
    """Stratification poset of the chosen locus inside M_{g,n}.

    The 3ec and p-regular loci are defined for unpointed curves only.  A
    locus is the contraction closure of its top classes: the trivalent
    ones, the P-regular ones, or the 3-edge-connected trivalent ones.
    Contraction never lowers edge connectivity, so the last closure holds
    3ec strata only, and by the lemma below it holds all of them.

    Pure closes the trivalent classes under non-loop contractions, which
    keep weight 0 (a loop contraction adds weight).  It is complete: a
    weight-0 vertex of valency >= 4 splits into two weight-0 vertices of
    valency >= 3 joined by a new non-loop edge.

    Lemma: every 3ec stable weighted graph G of genus g is a contraction
    of a 3ec trivalent weight-0 one.  By induction on 3g-3-|E|: the first
    step below that applies gives G' with a new edge e, G'/e = G, the
    same genus, stable and 3ec (loops lie in no cut).  If none applies, G
    has no weight and no loop, so stability makes it trivalent.
    1. w(v) > 0: lower w(v) by 1, add a loop at v.
    2. v has a loop and a non-loop edge a: split v into v1, with half the
       loop, a and e, and v2, with the rest; the loop joins v1 to v2.
       Being 3ec, v has three non-loop edges, so v2 has valency >= 4; a
       cut {v1} + T crosses both v1-v2 edges and a or an edge of T's cut.
    3. One vertex with g >= 2 loops: v1 takes half of two loops and e.
    4. v has no loop and valency d >= 4: move two of its edges onto a
       new vertex v1 joined to v by e.  A cut falls below 3 only if both
       far ends lie in one tight set T of V-v (d(T) = 3).  By
       submodularity tight sets that meet have a tight union, so the
       maximal ones are disjoint; each takes at most 3 of the d edges, so
       some pair has ends in no common one.
    """
    below = _closure(*_top_cells(g, n, locus))
    strata = list(map(Stratum, sorted(below)))
    index = {s.key: i for i, s in enumerate(strata)}
    covers = {(i, index[t]) for i, s in enumerate(strata)
              for t in below[s.key]}
    return StrataPoset(g, n, locus, strata, covers)


def connected_through_codim_one(g: int, n: int = 0, locus="all"):
    """Is the locus inside M_{g,n} connected through codimension one?
    Returns (connected?, components): each component is the sorted list of
    the canonical keys of its strata of dimension d and d-1 (d the top
    dimension), and components are ordered by their least key.

    Only the two top levels are built.  All top cells of a locus have one
    edge count d, and the locus is the closure of its top cells under a
    move that removes one edge (`build_poset`).  So every stratum of
    dimension d-1 is one move away from a top cell, and the covers between
    the two levels are exactly the moves out of the top cells: one round
    of the move, with no closure, gives both."""
    tops, move = _top_cells(g, n, locus)
    if not tops:
        raise GraphError("empty poset")
    below = {key: set(move(key)) for key in tops}
    keys = sorted(set(tops).union(*below.values()))
    index = {key: i for i, key in enumerate(keys)}
    comps = components(range(len(keys)), ((index[key], index[t])
                                          for key in tops for t in below[key]))
    return len(comps) == 1, [[keys[i] for i in comp] for comp in comps]


def check_schottky_codim1(g: int) -> bool:
    """Codimension-one connectivity of the 3-edge-connected locus, the
    combinatorial stand-in for the genus-g Schottky image."""
    if g < 2:
        raise GraphError("the Schottky check needs g >= 2")
    return connected_through_codim_one(g, 0, "3ec")[0]


def poset_to_json_dict(poset: StrataPoset) -> dict:
    """The poset as a JSON value for `graphs.dumps_canonical`, each stratum's
    graph a WeightedGraph."""
    return {
        "genus": poset.g,
        "legs": poset.n,
        "locus": poset.locus,
        "strata": [
            {
                "index": i,
                "dimension": s.dimension,
                "id": form_hash(s.key),
                "graph": s.wgraph,
            }
            for i, s in enumerate(poset.strata)
        ],
        "covers": [list(c) for c in poset.covers],
    }


def poset_to_dot(poset: StrataPoset) -> str:
    """DOT rendering ranked by dimension, nodes named by canonical hash."""
    lines = ["digraph strata {", "  rankdir=BT;"]
    by_dim: dict[int, list[int]] = {}
    ids = [form_hash(s.key) for s in poset.strata]
    for i, s in enumerate(poset.strata):
        by_dim.setdefault(s.dimension, []).append(i)
        lines.append(f'  n{ids[i]} [label="dim {s.dimension}\\n{ids[i]}"];')
    for dim, nodes in sorted(by_dim.items()):
        row = "; ".join(f"n{ids[i]}" for i in nodes)
        lines.append(f"  {{ rank=same; {row}; }}")
    for a, b in poset.covers:
        lines.append(f"  n{ids[b]} -> n{ids[a]};")
    lines.append("}")
    return "\n".join(lines) + "\n"
