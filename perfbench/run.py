#!/usr/bin/env python3
"""Benchmark of the tropilink command line, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 45 --trace 0

Workloads: certify, strata (see perfbench/README.md).
The package is imported from ./src of the checkout the script sits in, and
``tropilink.cli.main(argv)`` is called in-process on JSON files written
during set-up.  The run repeats whole rounds of its workload until
--seconds have passed, then checks every output with the independent
oracle (perfbench/oracle.py, networkx).  The last line of stdout is one
JSON object: correct, attempted, failed and metrics; the end-to-end times
are per round, the timed phase's totals divided by its rounds.  With
--trace 1 the public functions of every tropilink module are wrapped and
the metrics are per-layer figures per round instead of the end-to-end ones.

Result and trace files go to ./.perfbench/.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUPS = 15  # set-ups timed per run, one per round's inputs; setup_s is their median

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402  (benchmark modules live beside this file)
from tracer import LAYERS, Tracer  # noqa: E402


def import_package():
    """Import tropilink afresh from this checkout's src/ and return it."""
    for name in [n for n in sys.modules if n == "tropilink" or n.startswith("tropilink.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("tropilink")
    importlib.import_module("tropilink.cli")
    if Path(pkg.__file__).resolve().parent != SRC / "tropilink":
        raise ImportError(f"tropilink came from {pkg.__file__}, not from {SRC}")
    return pkg


class Runner:
    """Calls the CLI in-process and keeps time and failure counts per kind
    of command ("produce" or "check")."""

    def __init__(self, cli):
        self.cli = cli
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.times = {"produce": 0.0, "check": 0.0}

    def call(self, kind, argv, ok=(0,)):
        """Run one command; (exit code, stdout) when its exit code is in
        `ok`, otherwise None and the operation counts as failed."""
        buf = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                rc = self.cli.main(argv)
            what = f"exit {rc}"
        except (Exception, SystemExit) as exc:  # a traceback is a failed operation
            rc, what = None, f"raised {type(exc).__name__}: {exc}"
        self.times[kind] += time.perf_counter() - start
        self.attempted += 1
        if rc not in ok:
            self.failed += 1
            self.failures.append(f"{' '.join(os.path.basename(a) for a in argv)}: {what}")
            return None
        return rc, buf.getvalue()


def make_round(args, workload, workdir, r):
    """Write round r's inputs, drawn from (workload, seed, r), into their own
    directory; returns what run_round takes."""
    round_dir = workdir / f"r{r}"
    round_dir.mkdir(parents=True)
    rng = random.Random(f"{args.workload}:{args.seed}:{r}")
    return workload.make_inputs(rng, str(round_dir)), str(round_dir)


def run(args):
    workload = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        return measure(args, workload, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workload, workdir):
    # set-up k imports the package afresh and writes round k's inputs
    setups, made = [], []
    for k in range(SETUPS):
        start = time.perf_counter()
        pkg = import_package()
        made.append(make_round(args, workload, workdir, k))
        setups.append(time.perf_counter() - start)

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install({layer: sys.modules[f"tropilink.{layer}"] for layer in LAYERS})
    runner = Runner(pkg.cli)

    rounds, records = [], []
    began = time.perf_counter()
    r = 0
    while True:
        round_inputs = made[r] if r < len(made) else make_round(args, workload, workdir, r)
        if tracer:
            tracer.keep_spans = r == 0
        runner.times = {"produce": 0.0, "check": 0.0}
        start = time.perf_counter()
        records += workload.run_round(runner, *round_inputs)
        wall = time.perf_counter() - start
        rounds.append({"wall": wall, **runner.times})
        r += 1
        if time.perf_counter() - began >= args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    problems = workload.check(records)  # the oracle: after timing, in no metric
    for msg in runner.failures:
        print(f"failed: {msg}", file=sys.stderr)
    for msg in problems:
        print(f"wrong: {msg}", file=sys.stderr)

    median, mean = statistics.median, statistics.fmean
    if tracer:
        metrics = {}
        for name, (value, unit) in tracer.layer_metrics().items():
            metrics[name] = {"value": value if unit == "ratio" else value / len(rounds),
                             "unit": unit}
        metrics["trace.wall_s"] = {"value": mean(x["wall"] for x in rounds), "unit": "s"}
        tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}.json",
                    {"workload": args.workload, "seed": args.seed, "rounds": len(rounds)})
    else:
        metrics = {
            "setup_s": {"value": median(setups), "unit": "s"},
            # means, not medians, over rounds: the machine's speed swings by
            # up to a half within seconds, and the median of five or six
            # rounds jumps between its fast and slow spells where the mean
            # averages them
            "wall_s": {"value": mean(x["wall"] for x in rounds), "unit": "s"},
            "produce_s": {"value": mean(x["produce"] for x in rounds), "unit": "s"},
            "check_s": {"value": mean(x["check"] for x in rounds), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    result = {"correct": not problems, "attempted": runner.attempted,
              "failed": runner.failed, "metrics": metrics}
    detail = dict(result, workload=args.workload, seed=args.seed, rounds=rounds,
                  setups=setups, failures=runner.failures, problems=problems)
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(detail, fh, indent=1)
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "tropilink").is_dir():
        print(f"no tropilink package under {SRC}", file=sys.stderr)
        return 2
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
