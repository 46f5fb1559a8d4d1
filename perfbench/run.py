"""groupopt benchmark: times the public API on one workload and checks its outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a checkout; groupopt is imported from its src/.
--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of
a traced run (see perfbench/README.md). Throughput is reported per
reference-second, the host speed that hostspeed.py measures during the run. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}. The run also
writes its result, with the environment, under perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
from spans import Tracer, write_jsonl
from workloads import WORKLOADS, direct

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

# The matmuls are tiny, so BLAS threads only add noise; pinned before numpy loads.
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_RUNS = 5          # set-ups per run: this process plus fresh interpreters
MIN_REPS = 3            # untraced repetitions, whatever --seconds says
MIN_TRACED_REPS = 2
MAX_TRACED_REPS = 4     # spans are kept in memory: ~50k per regret repetition
CHILD_TIMEOUT_S = 170


def timed_setup(workload, seed: int, call=direct):
    """Inputs and the seconds from before `import groupopt` until they exist."""
    start = time.perf_counter()
    inputs = workload.setup(seed, call)
    return inputs, time.perf_counter() - start


def setup_in_fresh_interpreter(name: str, seed: int) -> float:
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def _timed_run(workload, inputs, call=direct):
    gc.collect()
    start = time.perf_counter()
    result = workload.run(inputs, call)
    return result, time.perf_counter() - start


def _traced_run(workload, inputs, digest: str):
    """One traced repetition: its time, its spans, and the checks it failed."""
    import layers

    tracer = Tracer()
    before = layers.snapshot()
    with layers.instrumented(tracer):
        result, elapsed = _timed_run(workload, inputs, tracer.call)
    layers.resolve_counts(tracer.spans)
    problems = []
    if workload.outputs(result)[1] != digest:
        problems.append("traced run differs from the untraced run")
    if any(now is not then for now, then in zip(layers.snapshot(), before)):
        problems.append("traced attributes were not restored")
    return elapsed, tracer.spans, problems


def measure(workload, seed: int, seconds: float, trace: bool,
            setup_runs: int = SETUP_RUNS) -> dict:
    """Set up, repeat the workload for `seconds`, check every output.

    Untraced: end-to-end metrics. Traced: untraced and traced repetitions
    alternate; the traced ones give the per-layer metrics, must reproduce the
    untraced outputs bit for bit, and must leave every attribute restored.
    """
    setup_tracer = Tracer()
    inputs, first_setup = timed_setup(workload, seed, setup_tracer.call if trace else direct)
    setups = [first_setup] + [setup_in_fresh_interpreter(workload.name, seed)
                              for _ in range(0 if trace else setup_runs - 1)]

    checks: list[list[str]] = []  # the problems of each attempted repetition
    outputs = digest = None
    untraced, traced, traced_spans = [], [], []
    host = hostspeed.HostSpeed()
    deadline = time.perf_counter() + seconds
    while True:
        started = time.perf_counter()
        if not trace:
            host.sample(hostspeed.SHARE * (untraced[-1] if untraced else 0.0))
        result, elapsed = _timed_run(workload, inputs)
        untraced.append(elapsed)
        rep_outputs, rep_digest = workload.outputs(result)
        if digest is None:
            outputs, digest = rep_outputs, rep_digest
        checks.append(workload.check(rep_outputs, seed))
        if rep_digest != digest:
            checks[-1].append("repeated run gave different parameters")
        if trace:
            elapsed, spans, problems = _traced_run(workload, inputs, digest)
            traced.append(elapsed)
            traced_spans.append(spans)
            checks.append(problems)
        now = time.perf_counter()
        enough = len(traced) >= MIN_TRACED_REPS if trace else len(untraced) >= MIN_REPS
        if enough and now + (now - started) > deadline or len(traced) == MAX_TRACED_REPS:
            break

    if trace:
        import layers

        generate = [s.duration for s in setup_tracer.spans if s.name == "data.generate"]
        overhead = statistics.median(traced) / statistics.median(untraced) - 1.0
        metrics = layers.layer_metrics(traced_spans, float(sum(generate)), overhead)
        units = _units("per_layer")
    else:
        samples_per_s = statistics.median(workload.work(inputs) / t for t in untraced)
        metrics = {
            "samples_per_ref_s": samples_per_s * host.ref_s(),
            "samples_per_s": samples_per_s,
            "ref_s": host.ref_s(),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = _units("end_to_end")
    problems = [problem for rep in checks for problem in rep]
    return {
        "correct": not problems,
        "attempted": len(checks),
        "failed": sum(bool(rep) for rep in checks),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        "host": {name: metrics[name] for name in ("samples_per_s", "ref_s") if name in metrics},
        "outputs": outputs,
        "problems": problems,
        "rep_seconds": {"untraced": untraced, "traced": traced, "setup": setups},
        "spans": traced_spans[-1] if traced_spans else [],
    }


def _units(kind: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 only prints its config
        blas = None
    try:
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        lines = git.stdout.split()
        sha = lines[1] if git.returncode == 0 and Path(lines[0]).resolve() == ROOT else None
    except (OSError, subprocess.TimeoutExpired):
        sha = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "blas_thread_vars": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "git_sha": sha,
        "seed": seed,
    }


def report(name: str, args, result: dict) -> None:
    """Human-readable lines, then the result file under perfbench/out/."""
    workload = WORKLOADS[name]
    env = environment(args.seed)
    print(f"workload {name} seed {args.seed} trace {args.trace} seconds {args.seconds}")
    print("env " + json.dumps(env))
    print("outputs " + json.dumps(result["outputs"]))
    for metric, entry in result["metrics"].items():
        alias = f"  ({workload.throughput_name})" if metric == "samples_per_ref_s" else ""
        print(f"metric {metric} {entry['value']:.6g} {entry['unit']}{alias}")
    for figure, value in result["host"].items():
        print(f"host {figure} {value:.6g}")
    print(f"failed_share {result['failed']}/{result['attempted']} "
          f"= {result['failed'] / result['attempted']:g}")
    for problem in result["problems"]:
        print(f"FAILED {problem}")
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{name}-seed{args.seed}-trace{args.trace}"
    record = {k: v for k, v in result.items() if k != "spans"}
    stem.with_suffix(".json").write_text(json.dumps({"env": env, **record}, indent=1) + "\n")
    if result["spans"]:
        write_jsonl(result["spans"], stem.with_suffix(".spans.jsonl"))


def run_all(args) -> int:
    """Every workload, each in a fresh interpreter like a single-workload run."""
    summary = {}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S + 10 * args.seconds)
        if done.returncode != 0:
            print(done.stdout + done.stderr, file=sys.stderr)
            return done.returncode
        print(done.stdout.rstrip().rsplit("\n", 1)[0])
        summary[name] = json.loads(done.stdout.strip().splitlines()[-1])
    print(json.dumps(summary))
    return 0 if all(r["correct"] for r in summary.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "groupopt" / "__init__.py").is_file():
        print(f"perfbench: no groupopt sources under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    workload = WORKLOADS[args.workload]
    if args.setup_only:
        print(json.dumps({"setup_s": timed_setup(workload, args.seed)[1]}))
        return 0
    result = measure(workload, args.seed, args.seconds, bool(args.trace))
    report(args.workload, args, result)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
