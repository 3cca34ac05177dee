"""Tests of the benchmark itself: python -m pytest perfbench -q

Two small runs with the same seed give identical counters and answers, and
tracing changes no answer.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SMALL = 3   # ops per small run


def small_run(name, seed, traced):
    ops = workloads.WORKLOADS[name](seed, 1)[0][:SMALL]
    tally = run.Tally()
    if not traced:
        return tally, tally.run_pass(ops), None
    tracer = tracing.Tracer()
    tracer.install()
    try:
        answers = tally.run_pass(ops, tracer)
    finally:
        tracer.uninstall()
    return tally, answers, tracer


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_counters_and_answers(name):
    plain, answers, _ = small_run(name, 5, traced=False)
    first, answers1, tracer1 = small_run(name, 5, traced=True)
    second, answers2, tracer2 = small_run(name, 5, traced=True)
    assert not plain.failed and not first.failed and not second.failed
    assert None not in answers
    assert answers == answers1 == answers2
    assert tracer1.counts and dict(tracer1.counts) == dict(tracer2.counts)
    assert len(plain.latencies) == SMALL


def test_seed_changes_inputs():
    ids = {seed: [op.id for op in workloads.search_passes(seed, 1)[0]] for seed in (1, 2)}
    assert ids[1] != ids[2]
    assert [op.id for op in workloads.search_passes(1, 1)[0]] == ids[1]


def test_per_layer_metrics_match_benchmark_json():
    plain, _, _ = small_run("builder", 3, traced=False)
    traced, _, tracer = small_run("builder", 3, traced=True)
    metrics = run.per_layer(plain, traced, dict(tracer.counts), tracer)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(metrics)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (_, unit) in metrics.items()}
    assert metrics["trace.coverage"][0] > 0.8


def test_unpatched_after_uninstall():
    import ordim
    original = ordim.dimensions.fractional_dimension
    tracer = tracing.Tracer()
    tracer.install()
    assert ordim.dimensions.fractional_dimension is not original
    tracer.uninstall()
    assert ordim.dimensions.fractional_dimension is original
    assert ordim.fractional_dimension is original


def test_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__", "traces"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, f"{BENCH.name}/run.py", "--workload", "suite",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
