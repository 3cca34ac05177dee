"""Command line front end: build, compute, verify, export, check theorems.

Exit codes form a stable contract: 0 success, 1 a theorem row failed, 2 usage
error or malformed input, 3 axiom violation, 4 budget exhausted, 5 certificate
rejected.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import serialize
from .constructions import (enumerate_geometries, linear_geometry,
                            random_geometry)
from .dimensions import analyze
from .errors import (AxiomViolation, BudgetExceeded, MalformedCertificate,
                     OrdimError, ParamRange)
from .geometry import validate_convex_geometry
from .suite import (ALL_CHECKS, NAMED_FAMILIES, named_instance, parse_ints,
                    parse_population, rows_to_json, rows_to_table, run_suite)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_AXIOM = 3
EXIT_BUDGET = 4
EXIT_REJECT = 5


def _write_out(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_gen(args) -> int:
    kind, meta = args.kind, None
    if kind == "enumerate":
        fams = [g.family for g in enumerate_geometries(args.n)]
        doc = serialize.families_to_json(args.n, fams)
    else:
        if kind == "random":
            G = random_geometry(args.n, args.t, args.seed)
            meta = {"seed": args.seed, "t": args.t}
        elif kind == "linear" and args.perm:
            G = linear_geometry(parse_ints(args.perm, f"--perm {args.perm}"))
        else:
            vals = [getattr(args, p) for p in NAMED_FAMILIES[kind].params]
            if None in vals:    # --n is required, so this is --k
                raise ParamRange(f"{kind} needs --k")
            G = named_instance(kind, vals).geometry
        doc = serialize.family_to_json(G.family, meta=meta)
    _write_out(serialize.dumps(doc), args.out)
    return EXIT_OK


def _cmd_compute(args) -> int:
    fam, poset = serialize.load_document(args.input)
    meta = {"input": os.path.basename(args.input)}
    if args.budget is not None:
        meta["budget"] = args.budget
    subject = validate_convex_geometry(fam) if fam is not None else poset
    report = analyze(subject, params=args.only.split(",") if args.only else None,
                     budget=args.budget)
    doc = serialize.report_to_json(report, meta=meta)
    _write_out(serialize.dumps(doc), args.out)
    # analyze warns only when a solver ran out of budget
    return EXIT_BUDGET if report.warnings else EXIT_OK


def _cmd_verify(args) -> int:
    fam, poset = serialize.load_document(args.input)
    cert = serialize.certificate_from_json(serialize.read_json(args.certificate))
    kind = serialize.CERTIFICATE_KINDS[args.kind]
    G = validate_convex_geometry(fam) if fam is not None else None
    if not isinstance(cert, kind.cls):
        raise MalformedCertificate(f"certificate is not a {args.kind} certificate")
    if G is None and kind.needs_family:
        raise MalformedCertificate(f"{args.kind} certificates need a set family input")
    ok, detail = kind.check(G, G.poset if G is not None else poset, cert)
    if ok is None:
        print(f"reject: {detail}")
    else:
        print(f"{'accept' if ok else 'reject'} {args.kind} certificate"
              + (f" ({detail})" if detail else ""))
    return EXIT_OK if ok else EXIT_REJECT


def _cmd_theorems(args) -> int:
    checks = args.checks.split(",") if args.checks else list(ALL_CHECKS)
    rows = run_suite(parse_population(args.population), checks,
                     budget=args.budget)
    # machine-readable JSON goes to --out, the aligned table to stdout
    if args.out or args.format == "json":
        _write_out(serialize.dumps(rows_to_json(rows)), args.out)
    if args.format == "table":
        sys.stdout.write(rows_to_table(rows))
    failures = sum(1 for r in rows if r.passed is False)
    print(f"{len(rows)} rows, {failures} failures", file=sys.stderr)
    return EXIT_OK if failures == 0 else 1


def _cmd_export(args) -> int:
    fam, poset = serialize.load_document(args.input)
    if fam is None:
        raise MalformedCertificate("export needs a set family input")
    G = validate_convex_geometry(fam)
    if args.format == "dot":
        _write_out(serialize.hasse_dot(G), args.out)
    else:
        _write_out(serialize.dumps(serialize.family_to_json(G.family)), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ordim",
        description="exact dimension computations for convex geometries")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a built-in family")
    g.add_argument("kind", choices=["linear", "boolean", "pkn", "pn",
                                    "random", "enumerate"])
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--k", type=int)
    g.add_argument("--t", type=int, default=3, help="random: number of joined orders")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--perm", help="linear: comma separated permutation")
    g.add_argument("--out")
    g.set_defaults(func=_cmd_gen)

    c = sub.add_parser("compute", help="compute dimension parameters")
    c.add_argument("input")
    c.add_argument("--only", help="comma separated parameter list")
    c.add_argument("--budget", type=int)
    c.add_argument("--out")
    c.set_defaults(func=_cmd_compute)

    v = sub.add_parser("verify", help="verify a certificate file")
    v.add_argument("input")
    v.add_argument("certificate")
    v.add_argument("--kind", required=True,
                   choices=list(serialize.CERTIFICATE_KINDS))
    v.set_defaults(func=_cmd_verify)

    t = sub.add_parser("theorems", help="run the theorem suite")
    t.add_argument("--population", required=True,
                   help="enumerate:N | random:n,t,count,seed | named:pkn=1,5;pn=3")
    t.add_argument("--checks", help=f"subset of {','.join(ALL_CHECKS)}")
    t.add_argument("--budget", type=int)
    t.add_argument("--format", choices=["table", "json"], default="table")
    t.add_argument("--out")
    t.set_defaults(func=_cmd_theorems)

    e = sub.add_parser("export", help="export a geometry")
    e.add_argument("input")
    e.add_argument("--format", choices=["dot", "json"], default="dot")
    e.add_argument("--out")
    e.set_defaults(func=_cmd_export)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if (getattr(args, "budget", None) or 0) < 0:
        ap.error(f"argument --budget: must be an integer >= 0, got {args.budget}")
    try:
        return args.func(args)
    except AxiomViolation as exc:
        print(f"axiom violation: {exc}", file=sys.stderr)
        return EXIT_AXIOM
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (OrdimError, OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
