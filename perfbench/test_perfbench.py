"""Tests of the benchmark itself: the span arithmetic, and a smoke run of
every workload at toy size that must report every metric BENCHMARK.json
names, with its unit."""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run as bench  # noqa: E402
from spans import Span, Tracer, self_times  # noqa: E402
from workloads import WORKLOADS, RegretWorkload  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TRAIN_ONLY = ("model.", "training.", "metrics.", "data.", "optimizers.step_embedding",
              "optimizers.step_dense", "optimizers.rows", ".embedding")


def toy(workload):
    if isinstance(workload, RegretWorkload):
        return replace(workload, horizon=256, reference=None)
    return replace(workload, vocab_per_field=30, num_samples=3000, epochs=1,
                   reference=None, auc_floor=0.5)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span("root", 0.0, 10.0, None),
        Span("a", 1.0, 4.0, 0),
        Span("a.child", 2.0, 3.0, 1),
        Span("b", 5.0, 9.0, 0),
        Span("b.child1", 5.0, 7.0, 3),
        Span("b.child2", 6.0, 9.5, 3),  # overlaps child1, runs past its parent
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 0.0, 2.0, 3.5])


def test_batch_ids_are_shared_below_the_root_and_absent_elsewhere():
    tracer = Tracer()
    inner = tracer.wrap("prox", lambda: None)
    opener = tracer.wrap("forward", lambda: None, "open")
    joiner = tracer.wrap("step", inner, "join")
    unbatched = tracer.wrap("evaluate", opener)

    def loop():
        for _ in range(2):
            opener()
            joiner()
        unbatched()

    tracer.call("root", loop)
    got = [(s.name, s.batch) for s in tracer.spans]
    assert got == [("root", None), ("forward", 1), ("step", 1), ("prox", 1),
                   ("forward", 2), ("step", 2), ("prox", 2),
                   ("evaluate", None), ("forward", None)]
    assert all(s.end >= s.start for s in tracer.spans)


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
def test_toy_run_reports_every_metric_with_its_unit(name, trace):
    result = bench.measure(toy(WORKLOADS[name]), seed=0, seconds=0.0, trace=trace,
                           setup_runs=1)
    kind = "per_layer" if trace else "end_to_end"
    assert result["correct"], result["problems"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    metrics = result["metrics"]
    assert {m["name"]: m["unit"] for m in SPEC[kind]} == {
        k: v["unit"] for k, v in metrics.items()}
    assert all(math.isfinite(v["value"]) for v in metrics.values())
    regret = isinstance(WORKLOADS[name], RegretWorkload)
    for metric, entry in metrics.items():
        applies = (not any(p in metric for p in TRAIN_ONLY) if regret
                   else not metric.startswith("regret."))
        if applies and metric != "trace.overhead_share":
            assert entry["value"] > 0, metric
    if trace:
        shares = sum(v["value"] for k, v in metrics.items() if k.endswith(".busy_share"))
        assert shares == pytest.approx(1.0)


def test_without_sources_the_benchmark_fails_and_prints_no_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for source in (ROOT / "perfbench").glob("*.py"):
        shutil.copy(source, tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "regret-quadratic-2e14",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
