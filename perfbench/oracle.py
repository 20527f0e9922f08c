"""Independent checks of tropilink's outputs.

Nothing here imports tropilink.  Graphs are read straight from the JSON the
program wrote; contraction, regularity, genus and stability are recomputed
here; isomorphism and edge connectivity come from networkx (a dependency of
the benchmark only, never of the package).

Every check returns a list of problem strings; an empty list means the
output passed.
"""

from __future__ import annotations

import json
from itertools import combinations

import networkx as nx

from inputs import to_json


class G:
    """A graph read from tropilink's graph JSON (weights and legs kept)."""

    __slots__ = ("weight", "end", "partner", "labels")

    def __init__(self, weight, end, partner, labels):
        self.weight = weight    # vertex -> weight
        self.end = end          # half-edge -> vertex
        self.partner = partner  # half-edge -> half-edge (itself for a leg)
        self.labels = labels    # leg half-edge -> label

    @classmethod
    def from_json(cls, d):
        return cls({v["id"]: v.get("weight", 0) for v in d["vertices"]},
                   {h["id"]: h["vertex"] for h in d["half_edges"]},
                   {h["id"]: h["partner"] for h in d["half_edges"]},
                   {leg["half_edge"]: leg["label"] for leg in d.get("legs", [])})

    def edges(self) -> dict:
        """Edge key (smaller half-edge id) -> sorted endpoint pair."""
        out = {}
        for h, h2 in self.partner.items():
            if h2 > h:
                a, b = self.end[h], self.end[h2]
                out[h] = (a, b) if a <= b else (b, a)
        return out

    def legs(self) -> dict:
        """Leg half-edge -> vertex."""
        return {h: self.end[h] for h, h2 in self.partner.items() if h == h2}

    def valency(self) -> dict:
        val = {v: 0 for v in self.weight}
        for v in self.end.values():
            val[v] += 1
        return val

    def b1(self) -> int:
        return len(self.edges()) - len(self.weight) + 1

    def genus(self) -> int:
        return self.b1() + sum(self.weight.values())

    def contract(self, key):
        """Contract one edge the way tropilink names things: the merged
        vertex keeps the smaller id, every other id is kept, and the weight
        grows by one when the edge is a loop.  Returns (graph, image vertex)."""
        h2 = self.partner[key]
        a, b = sorted((self.end[key], self.end[h2]))
        weight = {v: w for v, w in self.weight.items() if v != b}
        weight[a] = self.weight[a] + (self.weight[b] if a != b else 1)
        end = {h: (a if v == b else v) for h, v in self.end.items() if h not in (key, h2)}
        partner = {h: p for h, p in self.partner.items() if h not in (key, h2)}
        return G(weight, end, partner, dict(self.labels)), a

    def nx(self, marked=None) -> nx.MultiGraph:
        m = nx.MultiGraph()
        legs_at = {v: [] for v in self.weight}
        for h, v in self.legs().items():
            legs_at[v].append(self.labels[h])
        for v, w in self.weight.items():
            m.add_node(v, c=(w, tuple(sorted(legs_at[v])), v == marked))
        m.add_edges_from(self.edges().values())
        return m

    def invariant(self, marked=None):
        """Cheap isomorphism invariant, used to bucket before calling networkx."""
        val = self.valency()
        legs_at = {v: [] for v in self.weight}
        for h, v in self.legs().items():
            legs_at[v].append(self.labels[h])
        loops = {v: 0 for v in self.weight}
        nbrs = {v: [] for v in self.weight}
        for a, b in self.edges().values():
            if a == b:
                loops[a] += 1
            else:
                nbrs[a].append(b)
                nbrs[b].append(a)
        own = {v: (self.weight[v], val[v], loops[v], tuple(sorted(legs_at[v])), v == marked)
               for v in self.weight}
        return tuple(sorted((own[v], tuple(sorted(own[u] for u in nbrs[v])))
                            for v in self.weight))


def _same_colour(a, b):
    return a["c"] == b["c"]


def isomorphic(a: G, b: G, marked_a=None, marked_b=None) -> bool:
    """Isomorphism respecting weights, leg labels and one marked vertex."""
    if a.invariant(marked_a) != b.invariant(marked_b):
        return False
    return nx.is_isomorphic(a.nx(marked_a), b.nx(marked_b), node_match=_same_colour)


def edge_connectivity(g: G) -> float:
    """networkx (Stoer-Wagner) edge connectivity; legs ignored, loops never cut."""
    if len(g.weight) == 1:
        return float("inf")
    simple = nx.Graph()
    simple.add_nodes_from(g.weight)
    for a, b in g.edges().values():
        if a != b:
            w = simple.get_edge_data(a, b, {"weight": 0})["weight"]
            simple.add_edge(a, b, weight=w + 1)
    if not nx.is_connected(simple):
        return 0
    return nx.stoer_wagner(simple)[0]


def connected(g: G) -> bool:
    return nx.is_connected(g.nx())


class Classes:
    """Isomorphism classes, bucketed by invariant; networkx settles ties."""

    def __init__(self):
        self.buckets: dict = {}
        self.items: list = []

    def find(self, g: G, marked=None):
        for j in self.buckets.get(g.invariant(marked), ()):
            h, hm = self.items[j]
            if isomorphic(g, h, marked, hm):
                return j
        return None

    def add(self, g: G, marked=None):
        """Index of g's class, adding a new class when none matches."""
        j = self.find(g, marked)
        if j is None:
            j = len(self.items)
            self.items.append((g, marked))
            self.buckets.setdefault(g.invariant(marked), []).append(j)
        return j


# -- certificates --------------------------------------------------------------


def _bijection(mapping: dict, domain, codomain) -> bool:
    return (set(mapping) == set(domain) and len(set(mapping.values())) == len(mapping)
            and set(mapping.values()) == set(codomain))


def check_witness(left: G, le, right: G, re, witness) -> list:
    """The witness maps right/re onto left/le, contracted vertices matched."""
    mid_l, ml = left.contract(le)
    mid_r, mr = right.contract(re)
    av = {int(k): v for k, v in witness["vertices"].items()}
    ae = {int(k): v for k, v in witness["edges"].items()}
    al = {int(k): v for k, v in witness.get("legs", {}).items()}
    el, er = mid_l.edges(), mid_r.edges()
    ll, lr = mid_l.legs(), mid_r.legs()
    if not _bijection(av, mid_r.weight, mid_l.weight):
        return ["vertex map is not a bijection"]
    if not _bijection(ae, er, el):
        return ["edge map is not a bijection"]
    if not _bijection(al, lr, ll):
        return ["leg map is not a bijection"]
    for e, (a, b) in er.items():
        if el[ae[e]] != tuple(sorted((av[a], av[b]))):
            return [f"edge {e} lands on an edge with other endpoints"]
    for h, v in lr.items():
        if ll[al[h]] != av[v] or mid_l.labels[al[h]] != mid_r.labels[h]:
            return [f"leg {h} lands on another vertex or label"]
    if any(mid_l.weight[av[v]] != w for v, w in mid_r.weight.items()):
        return ["vertex map changes a weight"]
    if av[mr] != ml:
        return ["contracted vertices are not matched"]
    return []


def check_certificate(cert: dict, first: G, last: G, mode: str, p: int) -> list:
    """Chain from `first` to `last` of p-regular graphs of one genus, every
    step witnessed, and in 3ec mode every chain and middle graph 3-edge-connected."""
    problems = []
    header = (cert.get("mode"), cert.get("p"), cert.get("leg_mode"))
    if header != (mode, p, "labeled"):
        problems.append(f"header says (mode, p, leg_mode) = {header}")
    graphs = [G.from_json(d) for d in cert["graphs"]]
    if not graphs:
        return problems + ["no graphs"]
    if not isomorphic(graphs[0], first):
        problems.append("chain does not start at the first input")
    if not isomorphic(graphs[-1], last):
        problems.append("chain does not end at the second input")
    b1 = first.b1()
    for i, g in enumerate(graphs):
        if set(g.valency().values()) != {p}:
            problems.append(f"graph {i} is not {p}-regular")
        if g.b1() != b1 or not connected(g):
            problems.append(f"graph {i} is disconnected or has another Betti number")
        if mode == "3ec" and edge_connectivity(g) < 3:
            problems.append(f"graph {i} is not 3-edge-connected")
    steps = cert["steps"]
    if len(steps) != len(graphs) - 1:
        problems.append("a chain of n graphs needs n-1 steps")
    for i, s in enumerate(steps):
        if s["left_index"] != i:
            problems.append(f"step {i} has left_index {s['left_index']}")
            continue
        left, right = graphs[i], graphs[i + 1]
        le, re = s["left_edge"], s["right_edge"]
        el, er = left.edges(), right.edges()
        if le not in el or re not in er or el[le][0] == el[le][1] or er[re][0] == er[re][1]:
            problems.append(f"step {i} contracts a loop or a missing edge")
            continue
        problems += [f"step {i}: {msg}" for msg in check_witness(left, le, right, re, s["witness"])]
        if mode == "3ec" and edge_connectivity(left.contract(le)[0]) < 3:
            problems.append(f"middle graph of step {i} is not 3-edge-connected")
    return problems


def check_verify_output(rc, out: str, want_valid: bool, steps=None) -> list:
    """Exit code and JSON report of `tropilink verify` agree with each other
    and with the expected verdict."""
    try:
        report = json.loads(out)
    except ValueError:
        return [f"verify printed no JSON (exit {rc})"]
    if want_valid:
        if rc != 0 or report.get("valid") is not True:
            return [f"verify rejected a valid certificate (exit {rc})"]
        if steps is not None and report.get("checked_steps") != steps:
            return ["verify checked another number of steps"]
        return []
    if rc == 1 and report.get("valid") is False and report.get("problems"):
        return []
    if rc == 2 and "error" in report:
        return []
    return [f"mutation not rejected consistently (exit {rc}, report {out[:80]!r})"]


# -- classes and strata --------------------------------------------------------


def distinct(graphs) -> bool:
    classes = Classes()
    for g in graphs:
        if classes.find(g) is not None:
            return False
        classes.add(g)
    return True


def check_regular_classes(graphs, p: int, b: int, count) -> list:
    problems = []
    if len(graphs) != count:
        problems.append(f"{len(graphs)} classes at (p, b) = ({p}, {b}), expected {count}")
    for i, g in enumerate(graphs):
        if set(g.valency().values()) != {p} or g.b1() != b or not connected(g):
            problems.append(f"class {i} is not a connected {p}-regular graph of b1 {b}")
    if not distinct(graphs):
        problems.append("two classes are isomorphic")
    return problems


def same_classes(xs, ys) -> bool:
    """Both lists hold the same isomorphism classes, each once."""
    classes = Classes()
    for g in xs:
        classes.add(g)
    found = {classes.find(g) for g in ys}
    return len(xs) == len(ys) == len(classes.items) == len(found) and None not in found


def regular_multigraphs(degrees, legs=()) -> list:
    """Brute force: every connected multigraph (loops and parallel edges
    allowed) with the given vertex degrees and legs, one per isomorphism
    class.  A degree counts edge ends only (a loop twice); legs come on top."""
    n = len(degrees)
    pairs = [(u, v) for u in range(n) for v in range(u, n)]
    out, classes = [], Classes()
    deg = [0] * n

    def fill(i, edges):
        if i == len(pairs):
            if deg == list(degrees):
                g = G.from_json(to_json((n, edges, legs)))
                if connected(g) and classes.find(g) is None:
                    classes.add(g)
                    out.append(g)
            return
        u, v = pairs[i]
        m = 0
        while True:
            du = deg[u] + (2 * m if u == v else m)
            dv = du if u == v else deg[v] + m
            if du > degrees[u] or dv > degrees[v]:
                break
            # (u, n-1) is u's last pair: its degree must be full after it
            if v < n - 1 or du == degrees[u]:
                old = deg[u], deg[v]
                deg[u], deg[v] = du, dv
                fill(i + 1, edges + [(u, v)] * m)
                deg[v], deg[u] = old[1], old[0]
            m += 1

    fill(0, [])
    return out


def stable_graphs(g: int, n: int) -> list:
    """Every stable graph of genus g with legs 1..n, one per class: the
    trivalent weight-0 graphs, closed downward under one-edge contraction
    (every stratum of the pure-dimensional moduli space lies in the closure
    of a top-dimensional one)."""
    nv = 2 * g - 2 + n
    classes = Classes()
    frontier = []
    for spots in _leg_spots(n, nv):
        degrees = [3] * nv
        for v in spots:
            degrees[v] -= 1
        if min(degrees) < 0:
            continue
        legs = [(v, label + 1) for label, v in enumerate(spots)]
        for top in regular_multigraphs(degrees, legs):
            if classes.find(top) is None:
                classes.add(top)
                frontier.append(top)
    while frontier:
        nxt = []
        for s in frontier:
            for key in s.edges():
                smaller = s.contract(key)[0]
                if classes.find(smaller) is None:
                    classes.add(smaller)
                    nxt.append(smaller)
        frontier = nxt
    return [item[0] for item in classes.items]


def _leg_spots(n, nv):
    if n == 0:
        yield ()
        return
    for rest in _leg_spots(n - 1, nv):
        for v in range(nv):
            yield rest + (v,)


def marked_contractions(g: G):
    for key, (a, b) in g.edges().items():
        if a != b:
            yield g.contract(key)


def move_graph_edges(graphs) -> set:
    """Strong-link adjacency recomputed from scratch: two classes are joined
    when one-edge contractions of each agree with the merged vertex marked."""
    classes = Classes()
    owners: dict[int, set] = {}
    for i, g in enumerate(graphs):
        for mid, mark in marked_contractions(g):
            owners.setdefault(classes.add(mid, mark), set()).add(i)
    edges = set()
    for who in owners.values():
        edges.update(combinations(sorted(who), 2))
    return edges


def check_move_graph(mg: dict, classes_from_enumerate) -> list:
    """`movegraph --format json`: the classes are enumerate's, the edges are
    exactly the recomputed strong links, and the graph is connected, as the
    paper proves."""
    problems = []
    classes = [G.from_json(c["graph"]) for c in mg["classes"]]
    if classes_from_enumerate is not None and not same_classes(classes_from_enumerate, classes):
        problems.append("movegraph classes differ from enumerate's")
    own = move_graph_edges(classes)
    if own != {tuple(e) for e in mg["edges"]}:
        problems.append("movegraph edges differ from recomputed strong links")
    reach, todo = {0}, [0]
    while todo:
        i = todo.pop()
        for a, b in own:
            for x, y in ((a, b), (b, a)):
                if x == i and y not in reach:
                    reach.add(y)
                    todo.append(y)
    if mg.get("connected") is not True or len(reach) != len(classes):
        problems.append("the move graph is not connected")
    return problems


def is_stable(g: G) -> bool:
    val = g.valency()
    return all(val[v] >= 3 or (w >= 1 and val[v] >= 1) or w >= 2
               for v, w in g.weight.items())


def check_poset(doc: dict, g: int, n: int, count) -> tuple[list, list]:
    """Strata of a stratification poset: stable, genus g, n legs labeled
    1..n, top dimension 3g-3+n, pairwise distinct, with exactly the
    one-edge contraction covers.  Every locus checked here is closed under
    contraction (contracting an edge never lowers edge connectivity).
    Returns the problems and the parsed strata."""
    problems = []
    strata = [G.from_json(s["graph"]) for s in doc["strata"]]
    if count is not None and len(strata) != count:
        problems.append(f"{len(strata)} strata at (g, n) = ({g}, {n}), expected {count}")
    for i, (s, entry) in enumerate(zip(strata, doc["strata"])):
        if not is_stable(s) or s.genus() != g or not connected(s):
            problems.append(f"stratum {i} is not a stable graph of genus {g}")
        if sorted(s.labels.values()) != list(range(1, n + 1)):
            problems.append(f"stratum {i} does not carry legs 1..{n}")
        if entry["dimension"] != len(s.edges()):
            problems.append(f"stratum {i} has the wrong dimension")
    if strata and max(len(s.edges()) for s in strata) != 3 * g - 3 + n:
        problems.append(f"top dimension is not 3g-3+n = {3 * g - 3 + n}")
    classes = Classes()
    for i, s in enumerate(strata):
        if classes.add(s) != i:
            problems.append(f"stratum {i} repeats an earlier one")
            return problems, strata
    covers = set()
    for i, s in enumerate(strata):
        for key in s.edges():
            j = classes.find(s.contract(key)[0])
            if j is None:
                problems.append(f"a contraction of stratum {i} is missing")
            else:
                covers.add((i, j))
    if covers != {tuple(c) for c in doc["covers"]}:
        problems.append("covers are not exactly the one-edge contractions")
    return problems, strata


def check_codim1(rc, out: str, g: int, strata_in_locus) -> list:
    """`check-codim1` answers connected, as the paper proves, over exactly
    the strata of dimension >= top-1 of the locus."""
    doc = json.loads(out)
    top = max(len(s.edges()) for s in strata_in_locus)
    near_top = sum(1 for s in strata_in_locus if len(s.edges()) >= top - 1)
    problems = []
    if rc != 0 or doc.get("connected") is not True or len(doc["components"]) != 1:
        problems.append(f"genus {g} {doc.get('locus')}: not connected through codimension one")
    if doc.get("top_dimension") != top:
        problems.append(f"genus {g} {doc.get('locus')}: top dimension {doc.get('top_dimension')}")
    if sum(len(c) for c in doc["components"]) != near_top:
        problems.append(f"genus {g} {doc.get('locus')}: components miss strata")
    return problems
