"""Command-line front end.

Subcommands: link, verify, enumerate, movegraph, polygon, poset,
check-codim1.  All output is deterministic for fixed inputs; graphs and
certificates use the JSON schemas of graphs.py and certificates.py.
Errors surface as a JSON object on stdout and a nonzero exit status: 2 for
malformed input, an unreadable input file or an unwritable output file, 3
when a resource limit (the cycle-search budget) is hit, 4 for an internal
error (a failed consistency check or any other exception), whose traceback
goes to stderr.  When stdout itself cannot be written, the JSON error goes
to stderr and the status is 2.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
import traceback

from . import atlas, moduli
from .canonical import form_hash, from_canonical_form
from .certificates import (_certificate_json, certificate_from_json_dict,
                           verify_certificate)
from .connectivity import CycleSearchBudgetExceeded
from .graphs import (GraphError, InternalConsistencyError, dumps_canonical,
                     from_json_dict, to_dot, underlying_graph)
from .linkage import link
from .normal_form import build_polygon


def _read_json(path: str, what: str):
    """The JSON document in a UTF-8 file (RFC 8259).  A file that cannot be
    opened, decoded or parsed (nesting too deep, an integer past the
    interpreter's digit limit) is malformed input."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise GraphError(f"cannot read {what} {path}: {exc}") from exc


def _load_graph(path: str):
    return underlying_graph(from_json_dict(_read_json(path, "graph file")))


def _emit(chunks, out: str | None = None):
    """Write an iterable of texts to the file out, else to stdout, flushed.
    An unwritable stdout exits 2 with the JSON error on stderr, as argparse
    exits on a bad command line; stdout then points at the null device, so
    the interpreter's flush at exit cannot fail again."""
    if out:
        try:
            with open(out, "w") as fh:
                fh.writelines(chunks)
        except OSError as exc:
            raise GraphError(f"cannot write output file {out}: {exc}") from exc
        return
    try:
        sys.stdout.writelines(chunks)
        sys.stdout.flush()
    except OSError as exc:
        with contextlib.suppress(OSError):
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.stderr.write(dumps_canonical(
            {"error": f"cannot write to stdout: {exc}"}))
        raise SystemExit(2) from None


def _cmd_link(args) -> int:
    g1 = _load_graph(args.g1)
    g2 = _load_graph(args.g2)
    cert = link(g1, g2, args.mode)
    report = verify_certificate(cert, endpoints=(g1, g2))
    if not report.valid:
        raise InternalConsistencyError(
            f"produced certificate fails to verify: {report}")
    _emit(_certificate_json(cert), args.output)
    return 0


def _cmd_verify(args) -> int:
    if args.p is not None and args.p < 3:
        raise GraphError(f"--p must be >= 3, got {args.p}")
    cert = certificate_from_json_dict(_read_json(args.cert, "certificate"))
    report = verify_certificate(cert, p=args.p, mode=args.mode)
    _emit([dumps_canonical(report.to_json_dict())])
    return 0 if report.valid else 1


def _cmd_enumerate(args) -> int:
    classes = atlas.enumerate_p_regular(
        args.p, args.genus, "3ec" if args.three_ec else "all", legs=args.legs
    )
    _emit([dumps_canonical(classes)], args.output)
    return 0


def _cmd_movegraph(args) -> int:
    keys, adj = atlas.move_graph(
        args.p, args.genus, "3ec" if args.three_ec else "all", legs=args.legs
    )
    classes = [from_canonical_form(k).graph for k in keys]
    ids = [form_hash(k) for k in keys]
    if args.format == "json":
        payload = {
            "classes": [
                {"index": i, "id": ids[i], "graph": g}
                for i, g in enumerate(classes)
            ],
            "edges": sorted([i, j] for i in adj for j in adj[i] if i < j),
            "connected": atlas.is_connected_adjacency(adj),
        }
        _emit([dumps_canonical(payload)], args.output)
    else:
        lines = ["graph moves {"]
        for i in range(len(classes)):
            lines.append(f'  n{ids[i]} [label="{ids[i]}"];')
        for i in sorted(adj):
            for j in sorted(adj[i]):
                if i < j:
                    lines.append(f"  n{ids[i]} -- n{ids[j]};")
        lines.append("}")
        _emit(["\n".join(lines) + "\n"], args.output)
    return 0


def _cmd_polygon(args) -> int:
    g = build_polygon(args.p, args.gamma)
    if args.format == "dot":
        _emit([to_dot(g)], args.output)
    else:
        _emit([dumps_canonical(g)], args.output)
    return 0


def _cmd_poset(args) -> int:
    poset = moduli.build_poset(args.genus, args.legs, args.locus)
    if args.format == "dot":
        _emit([moduli.poset_to_dot(poset)], args.output)
    else:
        _emit([dumps_canonical(moduli.poset_to_json_dict(poset))], args.output)
    return 0


def _cmd_check_codim1(args) -> int:
    connected, components = moduli.connected_through_codim_one(
        args.genus, args.legs, args.locus)
    payload = {
        "genus": args.genus,
        "legs": args.legs,
        "locus": args.locus,
        "connected": connected,
        "top_dimension": max(moduli.Stratum(key).dimension
                             for comp in components for key in comp),
        "components": [[form_hash(key) for key in comp]
                       for comp in components],
    }
    _emit([dumps_canonical(payload)])
    return 0 if connected else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged, so in-process callers of `main` share it."""
    ap = argparse.ArgumentParser(
        prog="tropilink",
        description="certified linkage of regular multigraphs and "
                    "tropical moduli stratifications",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("link", help="link two p-regular graphs by a certificate")
    p.add_argument("g1")
    p.add_argument("g2")
    p.add_argument("--mode", choices=["plain", "3ec"], default="plain")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_link)

    p = sub.add_parser("verify", help="verify a linkage certificate")
    p.add_argument("cert")
    p.add_argument("--p", type=int, default=None)
    p.add_argument("--mode", choices=["plain", "3ec"], default=None)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("enumerate", help="enumerate p-regular classes")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--3ec", dest="three_ec", action="store_true")
    p.add_argument("--legs", type=int, default=0)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("movegraph", help="strong-link move graph over classes")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--legs", type=int, default=0)
    p.add_argument("--3ec", dest="three_ec", action="store_true")
    p.add_argument("--format", choices=["dot", "json"], default="dot")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_movegraph)

    p = sub.add_parser("polygon", help="build the p-polygon on gamma vertices")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--gamma", type=int, required=True)
    p.add_argument("--format", choices=["json", "dot"], default="json")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_polygon)

    p = sub.add_parser("poset", help="stratification poset of a moduli locus")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--legs", type=int, default=0)
    p.add_argument("--locus", default="all",
                   help="all | pure | 3ec | preg:P")
    p.add_argument("--format", choices=["json", "dot"], default="json")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_poset)

    p = sub.add_parser("check-codim1",
                       help="is the locus connected through codimension one?")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--legs", type=int, default=0)
    p.add_argument("--locus", default="all")
    p.set_defaults(func=_cmd_check_codim1)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except GraphError as exc:
        error, status = str(exc), 2
    except CycleSearchBudgetExceeded as exc:
        error, status = f"cycle search {exc}", 3
    except Exception as exc:
        traceback.print_exc()
        error, status = f"internal error: {type(exc).__name__}: {exc}", 4
    _emit([dumps_canonical({"error": error})])
    return status


if __name__ == "__main__":
    sys.exit(main())
