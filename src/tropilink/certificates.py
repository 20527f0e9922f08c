"""Strong-link steps, linkage certificates, and their verifier.

Two graphs are strongly linked when each has a non-loop edge whose
contraction yields the same graph, with the two contracted edges landing on
the same vertex.  A certificate is an alternating chain of such steps; the
verifier re-derives every contraction and re-checks every witness, so a
certificate can be audited without trusting the code that produced it.

Contraction keeps the ids of everything it does not consume and merges an
edge into its lesser end (see graphs), so a witness is a plain triple of id
maps from the right contraction to the left one; corrupting any entry breaks
bijectivity or endpoint compatibility and is caught by the verifier.
`strong_link_check` returns a step or raises StrongLinkFailure.
"""

from __future__ import annotations

from functools import cache

from .canonical import are_isomorphic, isomorphism_witness
from .connectivity import Cycle, edge_connectivity_capped
from .graphs import (Graph, GraphError, _block, _graph_json, _json_fields,
                     _json_int, contract, dumps_canonical, from_json_dict,
                     underlying_graph)


class StrongLinkStep:
    """One strong link: left/left_edge and right/right_edge contract to the
    same graph, witnessed by an isomorphism onto the left contraction."""

    __slots__ = ("left", "left_edge", "right", "right_edge", "witness", "cert_cycles")

    def __init__(self, left, left_edge, right, right_edge, witness, cert_cycles=None):
        self.left = left
        self.left_edge = left_edge
        self.right = right
        self.right_edge = right_edge
        self.witness = witness  # (alpha_V, alpha_E, alpha_L): right/re -> left/le
        self.cert_cycles = cert_cycles  # optional pair of edge-key tuples in `right`

    def reversed(self) -> "StrongLinkStep":
        av, ae, al = self.witness
        inv = (
            {v: k for k, v in av.items()},
            {v: k for k, v in ae.items()},
            {v: k for k, v in al.items()},
        )
        return StrongLinkStep(self.right, self.right_edge, self.left,
                              self.left_edge, inv)

    def __repr__(self):
        return (f"StrongLinkStep(e_left={self.left_edge}, "
                f"e_right={self.right_edge})")


class StrongLinkFailure(RuntimeError):
    """No strong link: the two contractions are not isomorphic, or no
    isomorphism matches the contracted-vertex images."""

    def __init__(self, kind: str, message: str):
        super().__init__(f"{kind}: {message}")
        self.kind = kind  # "not_isomorphic" | "no_marked_witness"


def strong_link_check(left: Graph, left_edge: int, right: Graph,
                      right_edge: int) -> StrongLinkStep:
    """Check a strong link and produce a witnessed step, else raise
    StrongLinkFailure.  An edge that is missing or a loop is a GraphError.

    Contractions equal as labeled graphs, with equal contracted-vertex
    images, get the identity witness without a canonical search."""
    for g, e, side in ((left, left_edge, "left"), (right, right_edge, "right")):
        if e not in g.edges:
            raise GraphError(f"{side} edge {e} does not exist")
        if g.is_loop(e):
            raise GraphError(f"{side} edge {e} is a loop; not contractible here")

    mid_l = contract(left, {left_edge})
    mid_r = contract(right, {right_edge})
    ml = left.edge_ends(left_edge)[0]
    mr = right.edge_ends(right_edge)[0]

    if mid_l == mid_r and ml == mr:
        # canonical labeling is deterministic, so this is the search's answer
        witness = ({v: v for v in mid_l.vertices}, {e: e for e in mid_l.edges},
                   {h: h for h in mid_l.legs})
    else:
        witness = isomorphism_witness(mid_r, mid_l, marked=({mr}, {ml}))
    if witness is None:
        if are_isomorphic(mid_l, mid_r):
            raise StrongLinkFailure(
                "no_marked_witness",
                "contractions isomorphic but never matching the contracted vertices",
            )
        raise StrongLinkFailure("not_isomorphic", "contractions are not isomorphic")
    return StrongLinkStep(left, left_edge, right, right_edge, witness)


class LinkageCertificate:
    """Chain of p-regular graphs with a strong-link step between neighbours.

    Legs are labeled: every witness preserves leg labels."""

    __slots__ = ("graphs", "steps", "mode", "p")

    def __init__(self, graphs, steps, mode: str, p: int):
        if mode not in ("plain", "3ec"):
            raise GraphError(f"unknown certificate mode {mode!r}")
        if len(steps) != max(len(graphs) - 1, 0):
            raise GraphError("a chain of n graphs needs n-1 steps")
        self.graphs = list(graphs)
        self.steps = list(steps)
        self.mode = mode
        self.p = p

    def __repr__(self):
        return (f"LinkageCertificate(mode={self.mode}, p={self.p}, "
                f"graphs={len(self.graphs)}, steps={len(self.steps)})")


class VerificationReport:
    """Outcome of verify_certificate: valid flag plus located violations."""

    __slots__ = ("valid", "problems", "checked_steps")

    def __init__(self, problems, checked_steps):
        self.problems = list(problems)
        self.checked_steps = checked_steps
        self.valid = not self.problems

    @property
    def first_violation(self):
        return self.problems[0] if self.problems else None

    def to_json_dict(self) -> dict:
        return {
            "valid": self.valid,
            "checked_steps": self.checked_steps,
            "problems": [
                {"step": step, "code": code, "message": msg}
                for step, code, msg in self.problems
            ],
        }

    def __repr__(self):
        if self.valid:
            return f"VerificationReport(valid, {self.checked_steps} steps)"
        return f"VerificationReport(invalid: {self.first_violation})"


def _check_witness(problems, idx, left, left_edge, right, right_edge,
                   witness):
    """Append the first fault of the witness of step idx to problems, if
    any."""
    mid_l = contract(left, {left_edge})
    mid_r = contract(right, {right_edge})
    alpha_v, alpha_e, alpha_l = witness

    for code, noun, alpha, domain, codomain in (
            ("witness_vertices", "vertex", alpha_v, mid_r.vertices, mid_l.vertices),
            ("witness_edges", "edge", alpha_e, mid_r.edges, mid_l.edges),
            ("witness_legs", "leg", alpha_l, mid_r.legs, mid_l.legs)):
        if set(alpha) != set(domain) or sorted(alpha.values()) != list(codomain):
            problems.append((idx, code, f"{noun} map is not a bijection onto "
                                        "the left contraction"))
            return

    for e in mid_r.edges:
        a, b = mid_r.edge_ends(e)
        ta, tb = alpha_v[a], alpha_v[b]
        want = (ta, tb) if ta <= tb else (tb, ta)
        if mid_l.edge_ends(alpha_e[e]) != want:
            problems.append((idx, "witness_endpoints",
                             f"edge {e} maps to {alpha_e[e]} with wrong endpoints"))
            return
    for h in mid_r.legs:
        if mid_l.endpoint[alpha_l[h]] != alpha_v[mid_r.endpoint[h]]:
            problems.append((idx, "witness_leg_endpoints",
                             f"leg {h} maps to a leg at the wrong vertex"))
            return
        if mid_l.leg_labels[alpha_l[h]] != mid_r.leg_labels[h]:
            problems.append((idx, "witness_leg_labels",
                             f"leg {h} maps to a differently labeled leg"))
            return

    if alpha_v[right.edge_ends(right_edge)[0]] != left.edge_ends(left_edge)[0]:
        problems.append((idx, "marked_vertex",
                         "witness does not match the contracted-vertex images"))


def _check_cert_cycles(problems, idx, graph, edge, cycles):
    sets = []
    for which, keys in zip(("first", "second"), cycles):
        try:
            for e in keys:
                if e not in graph.edges:
                    raise GraphError(f"edge {e} does not exist")
            verts = []
            k = len(keys)
            if k == 0:
                raise GraphError("a cycle needs at least one edge")
            if k == 1:
                a, b = graph.edge_ends(keys[0])
                if a != b:
                    raise GraphError("one-edge cycle must be a loop")
                verts = [a]
            else:
                a0, b0 = graph.edge_ends(keys[0])
                a1, b1 = graph.edge_ends(keys[1])
                first = a0 if a0 in (a1, b1) else b0
                prev = b0 if first == a0 else a0
                verts = [prev]
                cur = first
                for e in keys[1:]:
                    verts.append(cur)
                    cur = graph.other_end(e, cur)
                if cur != prev:
                    raise GraphError("edge sequence does not close up")
            Cycle(graph, verts, keys)
            sets.append(frozenset(keys))
        except GraphError as exc:
            problems.append((idx, "cert_cycles",
                             f"{which} recorded cycle invalid: {exc}"))
            return
    if sets[0] & sets[1] != {edge}:
        problems.append((idx, "cert_cycles",
                         "recorded cycles do not meet exactly in the step edge"))


def verify_certificate(cert: LinkageCertificate, p: int | None = None,
                       mode: str | None = None,
                       endpoints=None) -> VerificationReport:
    """Re-derive every contraction and recheck every witness in cert.

    When endpoints=(a, b) is given, also checks that the chain starts and
    ends at graphs isomorphic to a and b.
    """
    p = cert.p if p is None else p
    mode = cert.mode if mode is None else mode
    problems: list[tuple[int | None, str, str]] = []

    if not cert.graphs:
        problems.append((None, "empty", "certificate contains no graphs"))
        return VerificationReport(problems, 0)

    g0 = cert.graphs[0]
    shape = (len(g0.vertices), len(g0.edges), len(g0.legs))
    for i, g in enumerate(cert.graphs):
        for v in g.vertices:
            if g.valency(v) != p:
                problems.append((i, "regularity",
                                 f"graph {i} is not {p}-regular at vertex {v}"))
                break
        if (len(g.vertices), len(g.edges), len(g.legs)) != shape:
            problems.append((i, "shape",
                             "vertex/edge/leg counts change along the chain"))
        if mode == "3ec" and edge_connectivity_capped(g) != 3:
            problems.append((i, "three_ec", f"graph {i} is not 3-edge-connected"))

    for i, step in enumerate(cert.steps):
        left, right = cert.graphs[i], cert.graphs[i + 1]
        if step.left is not left and step.left != left:
            problems.append((i, "chain", "step left graph is not chain graph i"))
            continue
        if step.right is not right and step.right != right:
            problems.append((i, "chain", "step right graph is not chain graph i+1"))
            continue
        ok = True
        for g, e, side in ((left, step.left_edge, "left"),
                           (right, step.right_edge, "right")):
            if e not in g.edges:
                problems.append((i, "edge", f"{side} edge {e} does not exist"))
                ok = False
            elif g.is_loop(e):
                problems.append((i, "edge", f"{side} edge {e} is a loop"))
                ok = False
        if not ok:
            continue
        # every edge cut of a contraction is one of the graph, so the 3ec
        # check of chain graph i covers the middle graph of step i
        _check_witness(problems, i, left, step.left_edge, right,
                       step.right_edge, step.witness)
        if step.cert_cycles is not None:
            _check_cert_cycles(problems, i, right, step.right_edge,
                               step.cert_cycles)

    if endpoints is not None:
        a, b = endpoints
        if not are_isomorphic(cert.graphs[0], a):
            problems.append((None, "endpoint", "chain does not start at the first endpoint"))
        if not are_isomorphic(cert.graphs[-1], b):
            problems.append((None, "endpoint", "chain does not end at the second endpoint"))

    return VerificationReport(problems, len(cert.steps))


# -- JSON ---------------------------------------------------------------------


def _certificate_json(cert: LinkageCertificate):
    """The bytes `graphs.dumps_canonical` writes for the certificate's JSON
    document, from the graphs' slots and the witness maps, in chunks of one
    graph or step.  Witness keys are decimal strings in string order."""
    i6, i8 = " " * 6, " " * 8
    # one memo for the chain: its graphs share most rows, each formatted once
    entry, memo = cache('"%d": %d'.__mod__), {}
    sep = '{\n  "graphs": [\n    '
    for g in cert.graphs:
        yield sep + _graph_json(g, "    ", memo)
        sep = ",\n    "
    yield (('{\n  "graphs": []' if sep[0] == "{" else "\n  ]") + f',\n  "leg_mode": '
           f'"labeled",\n  "mode": "{cert.mode}",\n  "p": {cert.p},\n  "steps": ')
    sep = "[\n    "
    for i, s in enumerate(cert.steps):
        cycles = "" if s.cert_cycles is None else f'\n{i6}"cycles": ' + \
            dumps_canonical(s.cert_cycles)[:-1].replace("\n", "\n" + i6) + ","
        av, ae, al = (_block(entry, ((k, m[k]) for k in sorted(m, key=str)),
                             i8, "{}") for m in s.witness)
        yield (f'{sep}{{{cycles}\n{i6}"left_edge": {s.left_edge},'
               f'\n{i6}"left_index": {i},\n{i6}"right_edge": {s.right_edge},'
               f'\n{i6}"witness": {{\n{i8}"edges": {ae},\n{i8}"legs": {al},'
               f'\n{i8}"vertices": {av}\n{i6}}}\n    }}')
        sep = ",\n    "
    yield ("[]" if sep[0] == "[" else "\n  ]") + "\n}\n"


def _int(x, what: str) -> int:
    """x itself when it is an int (bools excluded), else GraphError."""
    return _json_int(x, what, "certificate")


def _decimal(k) -> bool:
    """Whether k is a string that str() writes for an integer."""
    try:
        return str(int(k)) == k
    except (TypeError, ValueError):
        return False


def _id_map(m: dict, what: str) -> dict[int, int]:
    """A witness map: keys are the decimal strings that str() writes for
    integers (so " 9", "09", "+9" and "1_0" are malformed), values ints.
    Keys and values are checked list by list."""
    keys, values = list(m), list(m.values())
    if set(map(type, values)) - {int}:
        for v in values:
            _int(v, f"{what} value")
    try:
        ids = list(map(int, keys))
    except (TypeError, ValueError):
        ids = []
    if list(map(str, ids)) != keys:
        bad = next(k for k in keys if not _decimal(k))
        raise GraphError(f"malformed certificate JSON: {what} key {bad!r} "
                         f"is not a decimal integer")
    return dict(zip(ids, values))


_CERT_FIELDS = frozenset(("mode", "p", "leg_mode", "graphs", "steps"))
_STEP_FIELDS = frozenset(("left_index", "left_edge", "right_edge", "witness",
                          "cycles"))
_WITNESS_FIELDS = frozenset(("vertices", "edges", "legs"))


def certificate_from_json_dict(d: dict) -> LinkageCertificate:
    """Inverse of _certificate_json.  The certificate, each step and
    each witness carry no fields beyond the ones that function writes (a
    step's `cycles`, a witness's `legs` and the certificate's `leg_mode` may
    be absent); graphs follow graphs.from_json_dict.  Anything else raises
    GraphError."""
    try:
        _json_fields([d], _CERT_FIELDS, "the certificate", "certificate")
        graphs = []
        for gd in d["graphs"]:
            graphs.append(underlying_graph(from_json_dict(gd)))
        steps = []
        for i, s in enumerate(d["steps"]):
            _json_fields([s], _STEP_FIELDS, f"step {i}", "certificate")
            if _int(s["left_index"], "left_index") != i:
                raise GraphError(f"malformed certificate JSON: step {i} has "
                                 f"left_index {s['left_index']}")
            w = s["witness"]
            _json_fields([w], _WITNESS_FIELDS, f"the witness of step {i}",
                         "certificate")
            witness = (
                _id_map(w["vertices"], "witness vertex"),
                _id_map(w["edges"], "witness edge"),
                _id_map(w.get("legs", {}), "witness leg"),
            )
            cycles = None
            if "cycles" in s:
                if len(s["cycles"]) != 2:
                    raise GraphError("malformed certificate JSON: a step "
                                     "records exactly two cycles")
                cycles = tuple(tuple(_int(e, "cycle edge") for e in c)
                               for c in s["cycles"])
            steps.append(StrongLinkStep(graphs[i], _int(s["left_edge"], "left_edge"),
                                        graphs[i + 1],
                                        _int(s["right_edge"], "right_edge"),
                                        witness, cycles))
        leg_mode = d.get("leg_mode", "labeled")
        if leg_mode != "labeled":
            raise GraphError(f"unknown leg mode {leg_mode!r}")
        p = _int(d["p"], "p")
        if p < 3:
            raise GraphError(f"malformed certificate JSON: p must be >= 3, "
                             f"not {p}")
        return LinkageCertificate(graphs, steps, d["mode"], p)
    except (KeyError, TypeError, IndexError, AttributeError) as exc:
        raise GraphError(f"malformed certificate JSON: {exc}") from exc
