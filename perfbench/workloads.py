"""The benchmark's workloads: seeded passes of operations and the timed op.

One op is one user request, run in-process in the order the CLI runs it:
family JSON text -> ``serialize.family_from_json`` ->
``geometry.validate_convex_geometry`` -> ``dimensions.analyze`` (or
``suite.run_instance``) -> ``serialize.report_to_json`` + ``dumps``, then every
certificate is reloaded from that JSON and checked by its independent
verifier. An op returns its JSON output, or raises ``OpFailed`` when a value
or a certificate is wrong. All ordim calls go through module attributes so
that the tracer's rebinding sees them.

A workload turns a seed into a list of passes; a pass is a list of ``Op``.
Why each workload exists, and which end-to-end metric each layer should
move on it, is written down in README.md next to this file.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from typing import Callable

from ordim import certificates, dimensions, geometry, serialize, suite

import inputs


class OpFailed(Exception):
    """An op returned a wrong value or a certificate its verifier rejects."""


@dataclass(frozen=True)
class Op:
    id: str
    fn: Callable
    arg: tuple

    def __call__(self) -> str:
        return self.fn(*self.arg)


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise OpFailed(what)


def _load(text: str):
    family = serialize.family_from_json(json.loads(text))
    return geometry.validate_convex_geometry(family)


def _compute(text: str, name: str, params: list, want: dict) -> str:
    """``ordim compute --only <params>`` plus certificate reload and check."""
    G = _load(text)
    report = dimensions.analyze(G, params=params)
    out = serialize.dumps(serialize.report_to_json(report, meta={"input": name}))
    doc = json.loads(out)
    values, certs = doc["params"], doc["certificates"]
    _expect(not doc["warnings"], f"warnings {doc['warnings']}")
    for key, value in want.items():
        _expect(values.get(key) == value, f"{key}={values.get(key)}, want {value}")
    if "dim" in params:
        R = serialize.certificate_from_json(certs["realizer"])
        _expect(len(R.extensions) == values["dim"], "realizer size != dim")
        _expect(certificates.verify_realizer(G.poset, R), "realizer rejected")
    if "cdim" in params:
        C = serialize.certificate_from_json(certs["convex"])
        _expect(len(C.perms) == values["cdim"], "convex realizer size != cdim")
        _expect(geometry.verify_convex_realizer(G, C.perms), "convex realizer rejected")
    if "fdim" in params:
        F = serialize.certificate_from_json(certs["fractional"])
        ok, total = certificates.verify_fractional_realizer(G.poset, F)
        _expect(ok, "fractional realizer rejected")
        _expect(total == Fraction(values["fdim"]), f"weight {total} != fdim")
    return out


def _theorems(text: str, name: str) -> str:
    """``ordim theorems`` on one instance, all checks; no row may fail."""
    G = _load(text)
    rows = suite.run_instance(suite.Instance(name, G, "generic"), suite.ALL_CHECKS)
    doc = suite.rows_to_json(rows)
    out = serialize.dumps(doc)
    bad = [f"{r['check']}: {r['detail']}" for r in doc["rows"] if r["verdict"] == "fail"]
    _expect(not bad and doc["failures"] == 0, f"failed rows {bad}")
    return out


def _build(text: str, k: int, n: int, seed: int) -> str:
    """Acceptance-criterion-9 path: randomized distinguishing sequence ->
    realizer -> JSON round trip -> independent verification."""
    G = _load(text)
    seq, _tries = dimensions.randomized_distinguishing(k, n, seed)
    R = dimensions.distinguishing_to_realizer(k, n, seq, G=G)
    out = serialize.dumps(serialize.certificate_to_json(R))
    back = serialize.certificate_from_json(json.loads(out))
    _expect(len(back.extensions) == seq.t, f"{len(back.extensions)} extensions, t={seq.t}")
    _expect(certificates.verify_realizer(G.poset, back), "realizer rejected")
    return out


def _relabelled(name: str, ground: int, masks: list, rng: random.Random):
    perm = list(range(ground))
    rng.shuffle(perm)
    text = inputs.family_text(ground, inputs.relabel(masks, perm))
    return f"{name}~{''.join(format(p, 'x') for p in perm)}", text


# ---------------------------------------------------------------------------
# suite: many small random geometries through the whole theorem suite.
# Op cost grows steeply with the member count and has a long tail, so every
# pass takes the same number of geometries of each member count; the seed
# picks which geometries.

SUITE_SIZES = range(20, 29)
SUITE_PER_SIZE = 12


def suite_passes(seed: int, count: int) -> list:
    rng = random.Random(seed)
    need = count * SUITE_PER_SIZE
    buckets = {m: [] for m in SUITE_SIZES}
    while any(len(b) < need for b in buckets.values()):
        masks = inputs.random_join_masks(6, 3, rng)
        b = buckets.get(len(masks))
        if b is not None and len(b) < need:
            b.append(masks)
    passes = []
    for p in range(count):
        ops = []
        for m in SUITE_SIZES:
            for masks in buckets[m][p * SUITE_PER_SIZE:(p + 1) * SUITE_PER_SIZE]:
                name = f"join6x3#{seed}.{p}.{len(ops)}"
                ops.append(Op(f"suite:{name}:m{m}", _theorems,
                              (inputs.family_text(6, masks), name)))
        rng.shuffle(ops)
        passes.append(ops)
    return passes


# ---------------------------------------------------------------------------
# lp: fdim alone, where the exact simplex dominates. The round count of
# column generation moves 2..15 with the labelling, so a sample of
# relabellings spreads too much from seed to seed; each pass therefore runs
# the whole relabelling orbit of pkn(1,5) (60 distinct families) in a seeded
# order, plus pkn(1,6) once.

LP_WANT = {5: "5/2", 6: "8/3"}


def lp_passes(seed: int, count: int) -> list:
    rng = random.Random(seed)
    base = inputs.pkn_masks(1, 5)
    orbit = {}
    for perm in permutations(range(5)):
        masks = inputs.relabel(base, list(perm))
        orbit.setdefault(tuple(sorted(masks)), perm)
    templates = [Op(f"lp:pkn(1,5)~{''.join(map(str, perm))}", _compute,
                    (inputs.family_text(5, list(masks)), "pkn(1,5)", ["fdim"],
                     {"fdim": LP_WANT[5]}))
                 for masks, perm in orbit.items()]
    templates.append(Op("lp:pkn(1,6)", _compute,
                        (inputs.family_text(6, inputs.pkn_masks(1, 6)), "pkn(1,6)",
                         ["fdim"], {"fdim": LP_WANT[6]})))
    passes = []
    for _ in range(count):
        ops = list(templates)
        rng.shuffle(ops)
        passes.append(ops)
    return passes


# ---------------------------------------------------------------------------
# search: dim, cdim, maxdd and se with no LP; the order-dimension search
# dominates. Known values: dim(pkn(1,n)) = 1 + floor(lg n),
# cdim(pkn(k,n)) = C(n-1,k), se(pkn(k,n)) = k+1, dim(pn(n)) = 3 and
# cdim(pn(n)) = n+1. (cdim on large pkn(2,n) hits a RecursionError; that is
# a correctness defect, and no family here reaches that size.)

# family -> relabellings per pass. The counts put op_p50_ms inside the broad
# pkn(2,7) / pkn(1,9) band and op_p90_ms inside pkn(1,10), away from the gaps
# between the families' cost levels. pkn(1,11) is left out: over random
# relabellings its search takes 0.08 s at the median but 2.4 s at the 99th
# percentile, which no run length here averages out.
SEARCH_FAMILIES = {
    ("pkn", 1, 8): 6, ("pkn", 1, 9): 8, ("pkn", 1, 10): 12,
    ("pkn", 2, 6): 4, ("pkn", 2, 7): 8, ("pkn", 3, 6): 4, ("pkn", 3, 7): 4,
    ("pn", 4): 4, ("pn", 5): 4, ("pn", 6): 4,
}
SEARCH_PARAMS = ["dim", "cdim", "maxdd", "se"]


def _search_family(spec: tuple):
    if spec[0] == "pkn":
        _, k, n = spec
        want = {"cdim": math.comb(n - 1, k), "se": k + 1}
        if k == 1:
            want["dim"] = 1 + int(math.floor(math.log2(n)))
        return f"pkn({k},{n})", n, inputs.pkn_masks(k, n), want
    n = spec[1]
    return f"pn({n})", 2 + 2 * n, inputs.pn_masks(n), {"dim": 3, "cdim": n + 1}


def search_passes(seed: int, count: int) -> list:
    rng = random.Random(seed)
    families = [(_search_family(spec), copies) for spec, copies in SEARCH_FAMILIES.items()]
    passes = []
    for _ in range(count):
        ops = []
        for (name, ground, masks, want), copies in families:
            for _ in range(copies):
                label, text = _relabelled(name, ground, masks, rng)
                ops.append(Op(f"search:{label}", _compute,
                              (text, name, SEARCH_PARAMS, want)))
        rng.shuffle(ops)
        passes.append(ops)
    return passes


# ---------------------------------------------------------------------------
# builder: large families (numpy validation path above 128 members), large
# certificates, no search and no LP. pkn keeps its own labelling here, since
# distinguishing sequences are defined on it; the seed picks each op's
# distinguishing-sequence seed.

BUILDER_FAMILIES = [(1, n) for n in range(12, 33)] + [(2, n) for n in (10, 11, 12)]


def builder_passes(seed: int, count: int) -> list:
    rng = random.Random(seed)
    texts = {(k, n): inputs.family_text(n, inputs.pkn_masks(k, n))
             for k, n in BUILDER_FAMILIES}
    passes = []
    for _ in range(count):
        ops = []
        for k, n in BUILDER_FAMILIES:
            dseed = rng.randrange(1 << 31)
            ops.append(Op(f"builder:pkn({k},{n})@{dseed}", _build,
                          (texts[(k, n)], k, n, dseed)))
        rng.shuffle(ops)
        passes.append(ops)
    return passes


WORKLOADS = {
    "suite": suite_passes,
    "lp": lp_passes,
    "search": search_passes,
    "builder": builder_passes,
}
