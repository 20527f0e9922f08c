#!/usr/bin/env python3
"""Self-test of the benchmark's oracle: its checks must bite.

Run from the repository root:

    python3 perfbench/selftest.py

Each case takes a genuine output of the tropilink CLI, shows that the oracle
accepts it, then corrupts it and shows that the oracle reports it: a
corrupted witness, a dropped class, a dropped stratum, a non-3-edge-connected
middle graph and an accepted mutation.  Exits 0 when every corruption is
caught.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import shutil
import sys

import run  # puts this directory and the checkout's src/ on sys.path

import inputs
import oracle


def cli(pkg, *argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = pkg.cli.main(list(argv))
    if rc != 0:
        raise SystemExit(f"tropilink {' '.join(argv)} exited {rc}")
    return buf.getvalue()


def main():
    pkg = run.import_package()
    work = run.OUT / f"selftest-{os.getpid()}"
    work.mkdir(parents=True)
    results = []

    def case(name, genuine, corrupted):
        ok = not genuine and bool(corrupted)
        results.append(ok)
        print(f"{'ok  ' if ok else 'FAIL'} {name}: genuine {genuine or 'accepted'}; "
              f"corrupted {corrupted[:1] or 'ACCEPTED'}")

    try:
        # certificates: Petersen -> P10 in 3ec mode, and a plain chain
        pet, p10 = (oracle.G.from_json(inputs.to_json(g))
                    for g in (inputs.petersen(), inputs.polygon10()))
        inputs.write_graph(work / "pet.json", inputs.petersen())
        inputs.write_graph(work / "p10.json", inputs.polygon10())
        cli(pkg, "link", str(work / "pet.json"), str(work / "p10.json"), "--mode", "3ec",
            "-o", str(work / "cert.json"))
        cert = json.loads((work / "cert.json").read_text())
        bad = copy.deepcopy(cert)
        w = bad["steps"][0]["witness"]["vertices"]
        a, b = sorted(w, key=int)[:2]
        w[a], w[b] = w[b], w[a]
        case("witness with two vertex images swapped",
             oracle.check_certificate(cert, pet, p10, "3ec", 3),
             oracle.check_certificate(bad, pet, p10, "3ec", 3))

        # a chain between two cubic graphs with bridges: valid in plain mode,
        # and claimed as 3ec its middle graphs fail 3-edge-connectivity
        dumbbells = [(4, [(0, 0), (0, 1), (1, 2), (1, 3), (2, 3), (2, 3)], []),
                     (4, [(0, 0), (0, 1), (1, 2), (1, 2), (2, 3), (3, 3)], [])]
        for i, g in enumerate(dumbbells):
            inputs.write_graph(work / f"d{i}.json", g)
        cli(pkg, "link", str(work / "d0.json"), str(work / "d1.json"),
            "-o", str(work / "plain.json"))
        plain = json.loads((work / "plain.json").read_text())
        d0, d1 = (oracle.G.from_json(inputs.to_json(g)) for g in dumbbells)
        claimed = dict(plain, mode="3ec")
        middles = [m for m in oracle.check_certificate(claimed, d0, d1, "3ec", 3)
                   if m.startswith("middle graph")]
        case("plain chain passed off as 3ec (middle graphs)",
             oracle.check_certificate(plain, d0, d1, "plain", 3), middles)

        # classes: enumerate (3, 4) with one class dropped
        classes = [oracle.G.from_json(d) for d in
                   json.loads(cli(pkg, "enumerate", "--p", "3", "--genus", "4"))]
        case("enumerate (3, 4) with a class dropped",
             oracle.check_regular_classes(classes, 3, 4, 17),
             oracle.check_regular_classes(classes[1:], 3, 4, 17))

        # strata: poset (2, 2) with one stratum dropped, against the
        # independent enumeration
        doc = json.loads(cli(pkg, "poset", "--genus", "2", "--legs", "2"))
        own = oracle.stable_graphs(2, 2)
        genuine, _ = oracle.check_poset(doc, 2, 2, len(own))
        dropped = copy.deepcopy(doc)
        dropped["strata"] = dropped["strata"][:-1]
        dropped["covers"] = [c for c in dropped["covers"] if len(doc["strata"]) - 1 not in c]
        corrupted, strata = oracle.check_poset(dropped, 2, 2, len(own))
        if not oracle.same_classes(own, strata):
            corrupted.append("strata differ from the independent enumeration")
        case("poset (2, 2) with a stratum dropped", genuine, corrupted)

        # a mutation the verifier accepted
        case("accepted mutation",
             oracle.check_verify_output(1, '{"valid": false, "problems": [{"code": "x"}]}', False),
             oracle.check_verify_output(0, '{"valid": true, "problems": []}', False))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
