"""The two workloads: what one round runs and what the oracle checks.

A round runs every command of its workload once, each after the previous
one returns (a closed loop, one thread).  ``make_inputs`` writes a round's
input files; ``run_round`` issues the commands through a runner and returns
records for the oracle, which runs after the timed phase.
"""

from __future__ import annotations

import hashlib
import json
import os

import inputs
import mutations


class CertifyPlain:
    """`link` then `verify`, plain mode, on three kinds of seeded pairs."""

    mode = "plain"
    cubic_sizes = (12, 14, 16, 18, 18, 20, 20, 22, 22)  # random cubic multigraphs
    quartic_sizes = (9, 10, 11, 12)                     # random simple 4-regular graphs
    legged = ((5, 2), (6, 2), (7, 2))                   # (genus, legs), legged cubic

    def pairs(self, rng):
        out = []
        for n in self.cubic_sizes:
            out.append(("cubic", 3, inputs.random_regular(rng, n, 3),
                        inputs.random_regular(rng, n, 3)))
        for n in self.quartic_sizes:
            out.append(("quartic", 4, inputs.random_regular(rng, n, 4, simple=True),
                        inputs.random_regular(rng, n, 4, simple=True)))
        for genus, legs in self.legged:
            n = 2 * genus - 2 + legs
            out.append(("legged", 3, inputs.random_regular(rng, n, 3, legs=legs),
                        inputs.random_regular(rng, n, 3, legs=legs)))
        return out

    def make_inputs(self, rng, workdir):
        made = []
        for i, (kind, p, a, b) in enumerate(self.pairs(rng)):
            # file names carry the mode: both parts share the round directory
            pa = os.path.join(workdir, f"{self.mode}_pair{i}_a.json")
            pb = os.path.join(workdir, f"{self.mode}_pair{i}_b.json")
            inputs.write_graph(pa, a)
            inputs.write_graph(pb, b)
            made.append({"kind": kind, "p": p, "a": a, "b": b, "a_path": pa,
                         "b_path": pb, "cert": os.path.join(workdir, f"{self.mode}_cert{i}.json")})
        return made

    def link_and_verify(self, run, pairs):
        records = []
        for pair in pairs:
            argv = ["link", pair["a_path"], pair["b_path"], "-o", pair["cert"]]
            if self.mode != "plain":
                argv += ["--mode", self.mode]
            linked = run.call("produce", argv)
            verified = run.call("check", ["verify", pair["cert"]])
            if linked and verified:
                records.append({"what": "cert", "mode": self.mode, **pair,
                                "verify": verified})
        return records

    def run_round(self, run, pairs, workdir):
        return self.link_and_verify(run, pairs)

    def check(self, records):
        import oracle
        problems = []
        for r in records:
            if r["what"] == "cert":
                with open(r["cert"]) as fh:
                    cert = json.load(fh)
                first, last = (oracle.G.from_json(inputs.to_json(r[k])) for k in "ab")
                found = oracle.check_certificate(cert, first, last, r["mode"], r["p"])
                found += oracle.check_verify_output(*r["verify"], True, len(cert["steps"]))
                label = f"{r['kind']} pair {os.path.basename(r['cert'])}"
            else:
                found = oracle.check_verify_output(*r["verify"], False)
                label = f"mutation {r['name']}"
            problems += [f"{label}: {msg}" for msg in found]
        return problems


class Certify3ec(CertifyPlain):
    """`link --mode 3ec` and `verify` on Petersen -> P10 and on seeded simple
    3-edge-connected cubic pairs, then `verify` on mutated certificates."""

    mode = "3ec"
    sizes = (12, 14, 16, 18)

    def pairs(self, rng):
        out = [("petersen", 3, inputs.petersen(), inputs.polygon10())]
        for n in self.sizes:
            out.append(("cubic-3ec", 3,
                        inputs.random_regular(rng, n, 3, simple=True, three_ec=True),
                        inputs.random_regular(rng, n, 3, simple=True, three_ec=True)))
        return out

    def run_round(self, run, pairs, workdir):
        records = self.link_and_verify(run, pairs)
        # the Petersen certificate is fixed, so its mutations never depend on
        # --seed; the smallest seeded one gets the mutations that need no steps
        plans = [(pairs[0]["cert"], True), (pairs[1]["cert"], False)]
        for cert_path, with_steps in plans:
            if not os.path.exists(cert_path):
                continue  # its `link` failed and was counted
            with open(cert_path) as fh:
                cert = json.load(fh)
            muts = mutations.header_mutations(cert)
            if with_steps:
                muts += mutations.step_mutations(cert)
            for name, text in muts:
                path = os.path.join(workdir, f"mut_{name}.json")
                with open(path, "w") as fh:
                    fh.write(text)
                got = run.call("check", ["verify", path], ok=(1, 2))
                if got:
                    records.append({"what": "mutation", "name": name, "verify": got})
        return records


class Certify:
    """Both modes in one round: the plain pairs, then the 3ec pairs and the
    mutated certificates.  One workload rather than two, so that a run can
    be long enough to average out the drift of the machine's speed."""

    name = "certify"
    parts = (CertifyPlain(), Certify3ec())

    def make_inputs(self, rng, workdir):
        return [part.make_inputs(rng, workdir) for part in self.parts]

    def run_round(self, run, made, workdir):
        return [record for part, pairs in zip(self.parts, made)
                for record in part.run_round(run, pairs, workdir)]

    def check(self, records):
        return self.parts[0].check(records)  # records carry their mode


def _strata_commands():
    produce = [
        ("enumerate-3-2", ["enumerate", "--p", "3", "--genus", "2"]),
        ("enumerate-3-3", ["enumerate", "--p", "3", "--genus", "3"]),
        ("enumerate-3-4", ["enumerate", "--p", "3", "--genus", "4"]),
        ("enumerate-3-4-3ec", ["enumerate", "--p", "3", "--genus", "4", "--3ec"]),
        ("enumerate-4-4", ["enumerate", "--p", "4", "--genus", "4"]),
        ("movegraph-3-4", ["movegraph", "--p", "3", "--genus", "4", "--format", "json"]),
        ("poset-2-0", ["poset", "--genus", "2", "--legs", "0"]),
        ("poset-3-0", ["poset", "--genus", "3", "--legs", "0"]),
        ("poset-3-0-3ec", ["poset", "--genus", "3", "--legs", "0", "--locus", "3ec"]),
        ("poset-3-0-preg3", ["poset", "--genus", "3", "--legs", "0", "--locus", "preg:3"]),
        ("poset-3-1", ["poset", "--genus", "3", "--legs", "1"]),
        ("poset-2-2", ["poset", "--genus", "2", "--legs", "2"]),
        ("poset-4-0", ["poset", "--genus", "4", "--legs", "0"]),
    ]
    check = [(f"codim1-{g}-{locus}", ["check-codim1", "--genus", str(g), "--locus", locus])
             for g in (2, 3, 4) for locus in ("all", "3ec")]
    return produce, check


class Strata:
    """Enumeration, move graph and posets (producing), then the
    codimension-one checks (checking).  The commands take no input files,
    so the seed changes nothing here."""

    name = "strata"

    def __init__(self):
        self.texts = {}  # output digest -> output text, each kept once

    def make_inputs(self, rng, workdir):
        return None

    def run_round(self, run, _inputs, workdir):
        produce, check = _strata_commands()
        records = []
        for key, argv in produce:
            path = os.path.join(workdir, f"{key}.json")
            if run.call("produce", argv + ["-o", path]):
                with open(path) as fh:
                    text = fh.read()
                records.append(self._record(key, 0, text))
        for key, argv in check:
            got = run.call("check", argv)
            if got:
                records.append(self._record(key, *got))
        return records

    def _record(self, key, rc, text):
        sha = hashlib.sha256(text.encode()).hexdigest()
        self.texts.setdefault(sha, text)
        return {"what": "strata", "key": key, "rc": rc, "sha": sha}

    def check(self, records):
        import oracle
        problems = []
        outputs: dict[str, set] = {}
        for r in records:
            outputs.setdefault(r["key"], set()).add((r["rc"], r["sha"]))
        doc, rcs = {}, {}
        for key, seen in outputs.items():
            if len(seen) > 1:
                problems.append(f"{key}: output differs between rounds")
            rcs[key], sha = min(seen)
            doc[key] = json.loads(self.texts[sha])

        def graphs(key):
            return [oracle.G.from_json(d) for d in doc[key]]

        for b, count in ((2, 2), (3, 5), (4, 17)):  # OEIS A005967
            if f"enumerate-3-{b}" in doc:
                problems += oracle.check_regular_classes(graphs(f"enumerate-3-{b}"), 3, b, count)
        if "enumerate-3-4" in doc and "enumerate-3-4-3ec" in doc:
            want = [g for g in graphs("enumerate-3-4") if oracle.edge_connectivity(g) >= 3]
            if not oracle.same_classes(want, graphs("enumerate-3-4-3ec")):
                problems.append("enumerate --3ec disagrees with networkx edge connectivity")
        if "enumerate-4-4" in doc:
            own = oracle.regular_multigraphs([4, 4, 4])
            got = graphs("enumerate-4-4")
            problems += oracle.check_regular_classes(got, 4, 4, len(own))
            if not oracle.same_classes(own, got):
                problems.append("enumerate --p 4 --genus 4 misses or repeats a class")
        if "movegraph-3-4" in doc:
            problems += oracle.check_move_graph(
                doc["movegraph-3-4"], graphs("enumerate-3-4") if "enumerate-3-4" in doc else None)

        published = {(2, 0): 7, (3, 0): 42, (4, 0): 379}  # Maggiolo-Pagani
        everything = {}
        for g, n in ((2, 0), (3, 0), (4, 0), (3, 1), (2, 2)):
            key = f"poset-{g}-{n}"
            if key not in doc:
                continue
            own = None if (g, n) in published else oracle.stable_graphs(g, n)
            count = published.get((g, n)) or len(own)
            found, strata = oracle.check_poset(doc[key], g, n, count)
            problems += [f"{key}: {m}" for m in found]
            if own is not None and not oracle.same_classes(own, strata):
                problems.append(f"{key}: strata differ from an independent enumeration")
            if n == 0:
                everything[g] = strata
        three_ec = {g: [s for s in strata if oracle.edge_connectivity(s) >= 3]
                    for g, strata in everything.items()}
        for key, want in (("poset-3-0-3ec", three_ec.get(3)), ("poset-3-0-preg3", everything.get(3))):
            if key in doc and want:
                found, strata = oracle.check_poset(doc[key], 3, 0, len(want))
                problems += [f"{key}: {m}" for m in found]
                if not oracle.same_classes(want, strata):
                    problems.append(f"{key}: strata differ from the expected locus")
        for g in (2, 3, 4):
            for locus, strata in (("all", everything.get(g)), ("3ec", three_ec.get(g))):
                key = f"codim1-{g}-{locus}"
                if key in doc and strata:
                    problems += oracle.check_codim1(rcs[key], self.texts[min(outputs[key])[1]],
                                                    g, strata)
        return problems


WORKLOADS = {w.name: w for w in (Certify(), Strata())}
