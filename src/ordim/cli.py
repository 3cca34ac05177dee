"""Command line front end: build, compute, verify, export, check theorems.

Exit codes form a stable contract: 0 success, 2 usage error or malformed
input, 3 axiom violation, 4 budget exhausted, 5 certificate rejected. The
environment variable ORDIM_BUDGET overrides the default node budget.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import serialize
from .certificates import (BooleanRealizer, FractionalRealizer, LocalRealizer,
                           Realizer, verify_boolean_realizer,
                           verify_fractional_realizer, verify_local_realizer,
                           verify_realizer)
from .constructions import (boolean_algebra, enumerate_geometries,
                            linear_geometry, pkn, qn_pn, random_geometry)
from .dimensions import DistinguishingSequence, analyze, verify_distinguishing
from .errors import (AxiomViolation, BudgetExceeded, MalformedCertificate,
                     OrdimError, ParamRange)
from .geometry import (ConvexRealizer, validate_convex_geometry,
                       verify_convex_realizer)
from .suite import (ALL_CHECKS, parse_ints, parse_named, population_enumerate,
                    population_random, rows_to_json, rows_to_table, run_suite)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_AXIOM = 3
EXIT_BUDGET = 4
EXIT_REJECT = 5


def _default_budget(args) -> int | None:
    if args.budget is not None:
        return args.budget
    env = os.environ.get("ORDIM_BUDGET")
    return int(env) if env else None


def _write_out(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_gen(args) -> int:
    kind = args.kind
    meta = {}
    if kind == "linear":
        perm = (parse_ints(args.perm, f"--perm {args.perm}") if args.perm
                else list(range(1, args.n + 1)))
        fam = linear_geometry(perm).family
    elif kind == "boolean":
        fam = boolean_algebra(args.n).family
    elif kind == "pkn":
        if args.k is None:
            raise ParamRange("pkn needs --k")
        fam = pkn(args.k, args.n).family
    elif kind == "pn":
        fam = qn_pn(args.n)[1].family
    elif kind == "random":
        seed = args.seed if args.seed is not None else 0
        fam = random_geometry(args.n, args.t, seed).family
        meta = {"seed": seed, "t": args.t}
    elif kind == "enumerate":
        fams = [g.family for g in enumerate_geometries(args.n, args.allow_ground_5)]
        doc = serialize.families_to_json(args.n, fams)
        _write_out(serialize.dumps(doc), args.out)
        return EXIT_OK
    else:
        raise ParamRange(f"unknown generator {kind!r}")
    doc = serialize.family_to_json(fam, meta=meta or None)
    _write_out(serialize.dumps(doc), args.out)
    return EXIT_OK


def _cmd_compute(args) -> int:
    fam, poset = serialize.load_document(args.input)
    budget = _default_budget(args)
    meta = {"input": os.path.basename(args.input)}
    if budget is not None:
        meta["budget"] = budget
    subject = validate_convex_geometry(fam) if fam is not None else poset
    report = analyze(subject, params=args.only.split(",") if args.only else None,
                     budget=budget)
    doc = serialize.report_to_json(report, meta=meta)
    _write_out(serialize.dumps(doc), args.out)
    if any("out of budget" in w for w in report.warnings):
        return EXIT_BUDGET
    return EXIT_OK


def _cmd_verify(args) -> int:
    fam, poset = serialize.load_document(args.input)
    with open(args.certificate, "r", encoding="utf-8") as fh:
        cert = serialize.certificate_from_json(json.load(fh))
    kind = args.kind
    G = validate_convex_geometry(fam) if fam is not None else None
    P = G.poset if G is not None else poset

    if kind == "realizer":
        if not isinstance(cert, Realizer):
            raise MalformedCertificate("certificate is not a realizer")
        ok, detail = verify_realizer(P, cert), ""
    elif kind == "convex":
        if G is None:
            raise MalformedCertificate("convex certificates need a set family input")
        if not isinstance(cert, ConvexRealizer):
            raise MalformedCertificate("certificate is not a convex realizer")
        ok, detail = verify_convex_realizer(G, cert.perms), ""
    elif kind == "local":
        if not isinstance(cert, LocalRealizer):
            raise MalformedCertificate("certificate is not a local realizer")
        ok, mult = verify_local_realizer(P, cert)
        detail = f"max multiplicity {mult}"
    elif kind == "boolean":
        if not isinstance(cert, BooleanRealizer):
            raise MalformedCertificate("certificate is not a Boolean realizer")
        ok, detail = verify_boolean_realizer(P, cert), ""
    elif kind == "fractional":
        if not isinstance(cert, FractionalRealizer):
            raise MalformedCertificate("certificate is not a fractional realizer")
        ok, total = verify_fractional_realizer(P, cert)
        detail = f"total weight {total}"
    elif kind == "distinguishing":
        if not isinstance(cert, DistinguishingSequence):
            raise MalformedCertificate("certificate is not a distinguishing sequence")
        if G is None or G.masks != pkn(cert.k, cert.n).masks:
            print(f"reject: input family is not pkn({cert.k},{cert.n})")
            return EXIT_REJECT
        ok, witness = verify_distinguishing(cert.k, cert.n, cert)
        detail = "" if ok else f"fails on member {witness}"
    else:
        raise ParamRange(f"unknown certificate kind {kind!r}")

    if ok:
        print(f"accept {kind} certificate" + (f" ({detail})" if detail else ""))
        return EXIT_OK
    print(f"reject {kind} certificate" + (f" ({detail})" if detail else ""))
    return EXIT_REJECT


def _cmd_theorems(args) -> int:
    spec = args.population
    kind, _, rest = spec.partition(":")
    if kind == "enumerate":
        (max_n,) = parse_ints(rest, spec, 1)
        instances = population_enumerate(max_n)
    elif kind == "random":
        n, t, count, seed = parse_ints(rest, spec, 4)
        instances = population_random(n, t, count, seed)
    elif kind == "named":
        instances = parse_named(rest)
    else:
        raise ParamRange(f"unknown population {kind!r}")
    checks = args.checks.split(",") if args.checks else list(ALL_CHECKS)
    rows = run_suite(instances, checks, budget=_default_budget(args),
                     jobs=args.jobs)
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
    g.add_argument("--seed", type=int)
    g.add_argument("--perm", help="linear: comma separated permutation")
    g.add_argument("--allow-ground-5", action="store_true")
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
                   choices=["realizer", "convex", "boolean", "local",
                            "fractional", "distinguishing"])
    v.set_defaults(func=_cmd_verify)

    t = sub.add_parser("theorems", help="run the theorem suite")
    t.add_argument("--population", required=True,
                   help="enumerate:N | random:n,t,count,seed | named:pkn=1,5;pn=3")
    t.add_argument("--checks", help=f"subset of {','.join(ALL_CHECKS)}")
    t.add_argument("--budget", type=int)
    t.add_argument("--jobs", type=int, default=1)
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
    try:
        return args.func(args)
    except AxiomViolation as exc:
        print(f"axiom violation: {exc}", file=sys.stderr)
        return EXIT_AXIOM
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (MalformedCertificate, ParamRange, FileNotFoundError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OrdimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
