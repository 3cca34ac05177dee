"""ordim benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; ordim is imported from ``src/``.
Set-up imports ordim and makes the seeded inputs (``workloads.py``). The
run then executes passes of ops, one after another in this one process,
until ``--seconds`` have gone and at least 100 ops ran.

With ``--trace 0`` the last line of stdout is a JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced run, in which every pass runs once untraced and once traced so that
the tracing overhead is measured too. Lines before it give the same numbers
for people, the sample counts and the id of every failed op.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
TRACE_DIR = BENCH_DIR / "traces"

PREPARED_PASSES = 16    # passes of distinct inputs made in set-up; reused in turn
MIN_OPS = 100           # so that at least 10 latency samples lie above the p90
SETUP_PROBES = 5        # fresh processes timed through set-up; setup_s is their median
PROBE_TIMEOUT_S = 120

PROBE = ("import os, sys; sys.path.insert(0, sys.argv[1]); import run; "
         "run.setup(sys.argv[2], int(sys.argv[3])); os._exit(0)")


def setup(workload: str, seed: int) -> list:
    """Import ordim from the checkout and make the seeded passes.

    There is no warm-up op: ordim has no caches that live across ops, and
    one op chosen by the seed would make setup_s depend on the seed."""
    if not (SRC / "ordim" / "__init__.py").is_file():
        raise SystemExit(f"error: no ordim sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import workloads
    return workloads.WORKLOADS[workload](seed, PREPARED_PASSES)


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from the start of a fresh interpreter to the end of set-up."""
    cmd = [sys.executable, "-c", PROBE, str(BENCH_DIR), workload, str(seed)]
    start = time.perf_counter()
    subprocess.run(cmd, check=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def run_op(op):
    """Run one op; returns (seconds, answer digest or None, error or None)."""
    start = time.perf_counter()
    try:
        out = op()
    except Exception as exc:    # a failed op is counted, never dropped
        return time.perf_counter() - start, None, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    return elapsed, hashlib.blake2b(out.encode(), digest_size=8).hexdigest(), None


class Tally:
    """Latencies, per-pass times and failures of the passes run so far."""

    def __init__(self):
        self.latencies = []
        self.pass_times = []
        self.failed = []        # (op id, error)

    def run_pass(self, ops, tracer=None) -> list:
        total = 0.0
        digests = []
        for op in ops:
            if tracer is not None:
                tracer.op = op.id
            elapsed, digest, error = run_op(op)
            self.latencies.append(elapsed)
            total += elapsed
            digests.append(digest)
            if error is not None:
                self.failed.append((op.id, error))
        self.pass_times.append(total)
        return digests


def measure(passes, seconds: float):
    tally = Tally()
    start = time.perf_counter()
    p = 0
    while p == 0 or len(tally.latencies) < MIN_OPS or time.perf_counter() - start < seconds:
        tally.run_pass(passes[p % len(passes)])
        p += 1
    return tally


def measure_traced(passes, seconds: float, tracer):
    """Each pass runs untraced, then traced; answers must agree."""
    plain, traced = Tally(), Tally()
    first_counts = None
    start = time.perf_counter()
    p = 0
    while p == 0 or len(traced.latencies) < MIN_OPS or time.perf_counter() - start < seconds:
        ops = passes[p % len(passes)]
        want = plain.run_pass(ops)
        tracer.install()
        try:
            got = traced.run_pass(ops, tracer)
        finally:
            tracer.uninstall()
        for op, a, b in zip(ops, want, got):
            if a != b and a is not None and b is not None:
                traced.failed.append((op.id, "tracing changed the answer"))
        if first_counts is None:
            first_counts = dict(tracer.counts)
        p += 1
    return plain, traced, first_counts


def end_to_end(tally, setup_times) -> dict:
    attempted = len(tally.latencies)
    return {
        "wall_s": (statistics.median(tally.pass_times), "s"),
        "op_p50_ms": (statistics.median(tally.latencies) * 1000.0, "ms"),
        "op_p90_ms": (statistics.quantiles(tally.latencies, n=10)[8] * 1000.0, "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "success_ratio": ((attempted - len(tally.failed)) / attempted, "ratio"),
    }


def per_layer(plain, traced, counts, tracer) -> dict:
    traced_total = sum(traced.pass_times)
    out = {}
    for name, unit in tracing.metric_names():
        if name.endswith(".self_share"):
            value = tracer.self_s[name[:-len(".self_share")]] / traced_total
        elif name in tracing.RATIOS:
            num, den = tracing.RATIOS[name]
            value = counts.get(num, 0) / counts[den] if counts.get(den) else 0.0
        else:
            value = counts.get(name, 0)
        out[name] = (value, unit)
    traced_wall = statistics.median(traced.pass_times)
    out["trace.wall_s"] = (traced_wall, "s")
    out["trace.overhead_s"] = (traced_wall - statistics.median(plain.pass_times), "s")
    out["trace.coverage"] = (sum(tracer.self_s.values()) / traced_total, "ratio")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="ordim benchmark")
    ap.add_argument("--workload", required=True, choices=["suite", "lp", "search", "builder"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    passes = setup(args.workload, args.seed)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")

    if args.trace:
        tracer = tracing.Tracer()
        plain, tally, counts = measure_traced(passes, args.seconds, tracer)
        metrics = per_layer(plain, tally, counts, tracer)
        failed = plain.failed + tally.failed
        attempted = len(plain.latencies) + len(tally.latencies)
        TRACE_DIR.mkdir(exist_ok=True)
        spans_path = TRACE_DIR / f"{args.workload}-seed{args.seed}.jsonl"
        tracer.write_spans(spans_path)
        print(f"{len(tally.pass_times)} traced passes; {len(tracer.spans)} spans "
              f"written to {spans_path.relative_to(ROOT)}")
        print("counters and calls are those of pass 0; self shares are over all traced passes")
    else:
        setup_times = [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
        print(f"setup_s samples: {', '.join(f'{t:.4f}' for t in setup_times)}")
        tally = measure(passes, args.seconds)
        metrics = end_to_end(tally, setup_times)
        failed = tally.failed
        attempted = len(tally.latencies)
        above = sum(1 for v in tally.latencies if v * 1000.0 > metrics["op_p90_ms"][0])
        print(f"{len(tally.pass_times)} passes, {attempted} op latency samples "
              f"({above} above op_p90_ms); wall_s is the median pass time")

    for name, (value, unit) in metrics.items():
        print(f"{name:<56} {value:>14.6g} {unit}")
    print(f"fail_ratio {len(failed)}/{attempted} = {len(failed) / attempted:g}")
    for op_id, error in failed:
        print(f"FAILED {op_id}: {error[:300]}")
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
