"""Machine checks of the structural theorems over instance populations.

Each check is a named predicate on one geometry (or on one named family
member). The runner builds the requested population, evaluates every
applicable check, and reports one row per (instance, check). Asymptotic
statements have no finite check and are reported as skipped rows with a
substituted bound check where one exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence

from .constructions import (_check_enumerable, _check_random,
                            boolean_algebra, enumerate_geometries, jkn,
                            linear_geometry, pkn, pkn_member, qn_pn,
                            random_geometry)
from .dimensions import DimensionReport, analyze
from .errors import ParamRange
from .geometry import (ConvexGeometry, check_boolean_property,
                       vc_dimension_shattering)

UNIVERSAL_CHECKS = ("Thm3.1", "Thm3.4", "Obs3.3", "T1.2", "T1.3", "T1.4", "Prop3.8")
FAMILY_CHECKS = ("T1.1", "T1.5", "Prop8.x")
ALL_CHECKS = UNIVERSAL_CHECKS + FAMILY_CHECKS


@dataclass(slots=True)
class CheckRow:
    instance: str
    check: str
    passed: Optional[bool]     # None = not applicable / skipped
    detail: str


@dataclass
class Instance:
    name: str
    geometry: ConvexGeometry
    kind: str                  # 'generic', 'pkn', 'pn'
    params: tuple = ()


# Each row builder reports its rows through add(check, passed, detail).

def _universal_rows(add, inst: Instance, rep: DimensionReport, vc: int,
                    checks) -> None:
    if "Thm3.1" in checks:
        ok, witness = check_boolean_property(inst.geometry.poset)
        add("Thm3.1", ok, "all intervals Boolean" if ok
            else f"interval below member {witness} not Boolean")
    if "Thm3.4" in checks:
        add("Thm3.4", vc == rep.maxdd, f"vcdim={vc} maxdd={rep.maxdd}")
    if "Obs3.3" in checks:
        ok = rep.se >= rep.maxdd or (rep.maxdd == 2 and rep.se == 1)
        add("Obs3.3", ok, f"se={rep.se} maxdd={rep.maxdd}")
    if "T1.2" in checks:
        if rep.dim is None:
            add("T1.2", None, "dim not computed")
        elif rep.dim <= 2:
            add("T1.2", rep.cdim == rep.dim, f"dim={rep.dim} cdim={rep.cdim}")
        else:
            add("T1.2", True, f"dim={rep.dim} > 2, vacuous")
    if "T1.3" in checks:
        ok = vc == rep.se or (vc == 2 and rep.se == 1)
        add("T1.3", ok, f"vcdim={vc} se={rep.se}")
    if "T1.4" in checks:
        if rep.se == 1:
            add("T1.4", rep.cdim <= 2, f"se=1 cdim={rep.cdim}")
        else:
            add("T1.4", True, f"se={rep.se} > 1, vacuous")
    if "Prop3.8" in checks:
        parts = [f"cdim={rep.cdim} dim={rep.dim} maxdd={rep.maxdd} se={rep.se}"]
        ok = True
        if rep.dim is not None:
            ok = rep.cdim >= rep.dim >= max(rep.maxdd, rep.se)
            if rep.fdim is not None:
                ok = ok and rep.fdim <= rep.dim
                parts.append(f"fdim={rep.fdim}")
        else:
            ok = None
            parts.append("dim not computed")
        add("Prop3.8", ok, " ".join(parts))


def _pkn_rows(add, inst: Instance, rep: DimensionReport, vc: int,
              checks) -> None:
    k, n = inst.params
    G = inst.geometry
    if "Prop8.x" in checks:
        mi_masks = tuple(G.masks[i] for i in G.meet_irr)
        j_masks = jkn(k, n).masks
        add("Prop8.x:jkn", j_masks == mi_masks,
            f"|J|={len(j_masks)} |meet-irr|={len(mi_masks)}")
        if k + 1 <= n - 2:
            add("Prop8.x:monotone", all(pkn_member(m, k + 1) for m in G.masks),
                f"members of ({k},{n}) inside ({k + 1},{n})")
        add("Prop8.x:dd", all(dd == min(m.bit_count(), k + 1)
                              for m, dd in zip(G.masks, G.poset.cover_indeg)),
            "down degrees match min(|A|, k+1) profile")
    if "T1.5" in checks:
        add("T1.5:1", vc == rep.se == k + 1, f"vcdim={vc} se={rep.se} k+1={k + 1}")
        if rep.fdim is not None:
            add("T1.5:2", rep.fdim < 2 ** (k + 1), f"fdim={rep.fdim} < {2 ** (k + 1)}")
        else:
            add("T1.5:2", None, "fdim skipped")
        add("T1.5:3", None, "bdim unbounded: asymptotic, no finite check")
        add("T1.5:4", None, "ldim unbounded: asymptotic, no finite check")
        if k == 1:
            want = 1 + int(math.floor(math.log2(n)))
            if rep.dim is None:
                add("T1.5:5a", None, "dim not computed")
            else:
                add("T1.5:5a", rep.dim == want, f"dim={rep.dim} formula={want}")
        if rep.dim is not None:
            bound = (k + 1) * 2 ** (k + 2) * math.log(n)
            add("T1.5:5b", rep.dim <= bound, f"dim={rep.dim} <= {bound:.1f}")
        add("T1.5:6", rep.cdim == math.comb(n - 1, k),
            f"cdim={rep.cdim} C(n-1,k)={math.comb(n - 1, k)}")


def _pn_rows(add, inst: Instance, rep: DimensionReport, checks) -> None:
    (n,) = inst.params
    if "T1.1" in checks:
        if rep.dim is None:
            add("T1.1", None, "dim not computed")
        else:
            add("T1.1", rep.dim == 3 and rep.cdim == n + 1,
                f"dim={rep.dim} (want 3) cdim={rep.cdim} (want {n + 1})")


def run_instance(inst: Instance, checks: Sequence[str],
                 budget: Optional[int] = None) -> List[CheckRow]:
    params = ["dim", "cdim", "maxdd", "se"]
    if "Prop3.8" in checks or "T1.5" in checks:
        params.append("fdim")
    rep = analyze(inst.geometry, params=params, budget=budget)
    vc = vc_dimension_shattering(inst.geometry.family)
    rows: List[CheckRow] = []

    def add(check, passed, detail):
        rows.append(CheckRow(inst.name, check, passed, detail))

    _universal_rows(add, inst, rep, vc, checks)
    if inst.kind == "pkn":
        _pkn_rows(add, inst, rep, vc, checks)
    if inst.kind == "pn":
        _pn_rows(add, inst, rep, checks)
    return rows


# ---------------------------------------------------------------------------
# populations

@dataclass(frozen=True)
class NamedFamily:
    params: tuple              # parameter names, in spec order
    build: Callable[..., ConvexGeometry]
    kind: str                  # the Instance kind


NAMED_FAMILIES = {
    "pkn": NamedFamily(("k", "n"), pkn, "pkn"),
    "pn": NamedFamily(("n",), lambda n: qn_pn(n)[1], "pn"),
    "boolean": NamedFamily(("n",), boolean_algebra, "generic"),
    "linear": NamedFamily(("n",), lambda n: linear_geometry(range(1, n + 1)),
                          "generic"),
}


def named_instance(name: str, vals: Sequence[int]) -> Instance:
    fam = NAMED_FAMILIES[name]
    return Instance(f"{name}({','.join(map(str, vals))})", fam.build(*vals),
                    fam.kind, tuple(vals))


def parse_ints(text: str, spec: str, count: Optional[int] = None) -> List[int]:
    """Comma separated integers, exactly `count` of them when given.

    Raises ParamRange naming the whole spec when the text does not parse.
    """
    try:
        vals = [int(v) for v in text.split(",")] if text else []
    except ValueError:
        vals = None
    if vals is None or (count is not None and len(vals) != count):
        want = "comma separated integers"
        if count:
            want = "an integer" if count == 1 else f"{count} {want}"
        raise ParamRange(f"bad spec {spec!r}: expected {want}")
    return vals


def parse_named(spec: str) -> List[Instance]:
    """Parse 'pkn=1,5;pn=3;boolean=3;linear=4' into instances, built in
    spec order, so the first bad part is the one refused."""
    out = []
    for part in spec.split(";"):
        part = part.strip()
        if not part:
            continue
        name, _, args = part.partition("=")
        if name not in NAMED_FAMILIES:
            raise ParamRange(f"unknown named instance {name!r}")
        vals = parse_ints(args, part, len(NAMED_FAMILIES[name].params))
        out.append(named_instance(name, vals))
    return out


def parse_population(spec: str) -> Iterable[Instance]:
    """Parse 'enumerate:N', 'random:n,t,count,seed' or 'named:...'.

    Every number is checked here; enumerated and random geometries are
    then built one at a time as the result is iterated, so each can be
    dropped once its rows are built.
    """
    kind, _, rest = spec.partition(":")
    if kind == "enumerate":
        (max_n,) = parse_ints(rest, spec, 1)
        _check_enumerable(max_n)
        return (Instance(f"enum{n}#{i}", g, "generic")
                for n in range(1, max_n + 1)
                for i, g in enumerate(enumerate_geometries(n)))
    if kind == "random":
        n, t, count, seed = parse_ints(rest, spec, 4)
        _check_random(n, t)
        return (Instance(f"random{n}x{t}#s{seed + i}",
                         random_geometry(n, t, seed + i), "generic")
                for i in range(count))
    if kind == "named":
        return parse_named(rest)
    raise ParamRange(f"unknown population {kind!r}")


def run_suite(instances: Iterable[Instance], checks: Sequence[str],
              budget: Optional[int] = None) -> List[CheckRow]:
    for c in checks:
        if c not in ALL_CHECKS:
            raise ParamRange(f"unknown check {c!r}")
    return [row for inst in instances for row in run_instance(inst, checks, budget)]


def rows_to_table(rows: Sequence[CheckRow]) -> str:
    widths = [max((len(r.instance) for r in rows), default=8),
              max((len(r.check) for r in rows), default=6)]
    lines = [f"{'instance':<{widths[0]}}  {'check':<{widths[1]}}  verdict  detail"]
    for r in rows:
        verdict = "pass" if r.passed else ("FAIL" if r.passed is False else "skip")
        lines.append(f"{r.instance:<{widths[0]}}  {r.check:<{widths[1]}}  "
                     f"{verdict:<7}  {r.detail}")
    return "\n".join(lines) + "\n"


def rows_to_json(rows: Sequence[CheckRow]) -> dict:
    return {
        "schema": "ordim/theorems/1",
        "rows": [{"instance": r.instance, "check": r.check,
                  "verdict": ("pass" if r.passed else
                              "fail" if r.passed is False else "skip"),
                  "detail": r.detail} for r in rows],
        "failures": sum(1 for r in rows if r.passed is False),
    }
