"""The 3ec and pure loci by filtering, and the lemma that lets the library
skip the 3ec filter.

- **Filter.**  `filtered_move_graph` and `filtered_poset` close all
  classes or all strata and keep the ones `edge_connectivity_capped` calls
  3-edge-connected.  This is how the library found the unlegged 3ec
  classes and strata before it closed them from a 3ec seed and from the
  3ec trivalent classes.  `filtered_pure_poset` keeps the weight-zero
  strata, as the library did before it closed the trivalent classes under
  non-loop contractions.
- **Codimension one.**  `connected_through_codim_one` reads the strata of
  dimension d and d-1 off a whole poset and joins them along its covers,
  as the library did before it built only those two levels.
- **Lemma.**  `lift` follows the proof in `moduli.build_poset`'s
  docstring: it undoes one contraction at a time until a 3ec stable
  weighted graph is trivalent of weight 0.  Graphs are (weights, edges)
  on vertices 0..n-1; `to_oracle` turns them into `perfbench/oracle.py`
  graphs, whose edge connectivity and isomorphism come from networkx.
"""

from functools import lru_cache
from itertools import combinations

from tropilink.atlas import _classes, components, contraction_closure
from tropilink.canonical import from_canonical_form
from tropilink.connectivity import edge_connectivity_capped
from tropilink.graphs import GraphError

from conftest import perfbench_module

oracle = perfbench_module("oracle")


def _is_3ec(key) -> bool:
    return edge_connectivity_capped(from_canonical_form(key).graph) == 3


def _restrict(keys, targets):
    """Keys sorted, and the target pairs between them by index."""
    keys = sorted(keys)
    index = {k: i for i, k in enumerate(keys)}
    return keys, {(index[k], index[t]) for k in keys for t in targets[k]
                  if t in index}


def filtered_move_graph(p: int, b: int):
    """The unlegged 3ec classes and their strong links, self-links left
    out, as `move_graph(p, b, "3ec")` returns them."""
    _, targets = _classes(p, b, "all", 0)
    keys, pairs = _restrict(filter(_is_3ec, targets), targets)
    adj = {i: set() for i in range(len(keys))}
    for i, j in pairs:
        if i != j:
            adj[i].add(j)
    return keys, adj


@lru_cache(maxsize=None)
def filtered_poset(g: int):
    """The 3ec strata of genus g by key, and their covers by index."""
    below = contraction_closure(_classes(3, g, "all", 0)[0])
    keys, covers = _restrict(filter(_is_3ec, below), below)
    return keys, sorted(covers)


@lru_cache(maxsize=None)
def filtered_pure_poset(g: int, n: int):
    """The pure strata of M_{g,n} by key, and their covers by index."""
    below = contraction_closure(_classes(3, g, "all", n)[0])
    pure = (k for k in below if not any(c[0] for c in k[0]))
    keys, covers = _restrict(pure, below)
    return keys, sorted(covers)


def connected_through_codim_one(poset):
    """Restrict a `StrataPoset` to strata of dimension >= d-1 (d the top
    dimension), join them along covers, and report (connected?,
    components), each component a sorted list of stratum indices."""
    if not poset.strata:
        raise GraphError("empty poset")
    d = poset.max_dimension
    keep = [i for i, s in enumerate(poset.strata) if s.dimension >= d - 1]
    keepset = set(keep)
    comps = components(keep, ((a, b) for a, b in poset.covers
                              if a in keepset and b in keepset))
    return len(comps) == 1, comps


def from_key(key):
    """(weights, edges) of the stratum with this canonical key."""
    wg = from_canonical_form(key)
    g = wg.graph
    return ([wg.weight[v] for v in g.vertices],
            [g.edge_ends(e) for e in g.edges])


def to_oracle(weights, edges):
    """The oracle's graph; edge k has half-edges 2k and 2k + 1."""
    end, partner = {}, {}
    for k, (a, b) in enumerate(edges):
        end[2 * k], end[2 * k + 1] = a, b
        partner[2 * k], partner[2 * k + 1] = 2 * k + 1, 2 * k
    return oracle.G(dict(enumerate(weights)), end, partner, {})


def is_3ec(weights, edges) -> bool:
    return oracle.edge_connectivity(to_oracle(weights, edges)) >= 3


def lift(weights, edges):
    """Yield (weights, edges, e) after each step of the lemma, e the index
    of the new edge, until the graph is trivalent of weight 0."""
    while True:
        step = _step(list(weights), list(edges))
        if step is None:
            return
        weights, edges, e = step
        yield weights, edges, e


def _step(weights, edges):
    """The first step of the lemma that applies, or None."""
    n, e = len(weights), len(edges)
    loops = [[] for _ in range(n)]
    other = [[] for _ in range(n)]
    for k, (a, b) in enumerate(edges):
        if a == b:
            loops[a].append(k)
        else:
            other[a].append(k)
            other[b].append(k)
    for v in range(n):  # 1. a weight becomes a loop
        if weights[v]:
            weights[v] -= 1
            return weights, edges + [(v, v)], e
    for v in range(n):  # 2. v1 takes half a loop, a non-loop edge and e
        if loops[v] and other[v]:
            a = other[v][0]
            edges[loops[v][0]] = (v, n)
            edges[a] = tuple(n if x == v else x for x in edges[a])
            return weights + [0], edges + [(v, n)], e
    if n == 1:  # 3. v1 takes half of two loops and e
        for k in loops[0][:2]:
            edges[k] = (0, 1)
        return weights + [0], edges + [(0, 1)], e
    for v in range(n):  # 4. detach two edges onto v1, keeping 3ec
        if len(other[v]) >= 4:
            for pair in combinations(other[v], 2):
                out = list(edges)
                for k in pair:
                    a, b = out[k]
                    out[k] = (n, b) if a == v else (a, n)
                out.append((v, n))
                if is_3ec(weights + [0], out):
                    return weights + [0], out, e
            raise AssertionError(f"no pair of edges at {v} detaches keeping "
                                 "3-edge-connectivity")
    return None
