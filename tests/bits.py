"""Same-bits check: one sha256 line per run of the public API.

    python tests/bits.py > bits.txt

Run it at two commits and `diff` the outputs: a change that keeps the
arithmetic prints the same lines. The runs are

* the benchmark's workload digests (perfbench/workloads.py) on seeds 0 and 7;
* train_model for every optimizer name under both apply_to settings, at a
  table of one STEP_ROWS chunk and at a chunked one;
* sweep, and prune_baseline (wall_ms aside), for adagrad, adam and ftrl;
* run_regret for every schedule, lambda1 0 and 0.05, step decay none and
  sqrt_t, on a stochastic and an alternating quadratic stream;
* the prox self-test's closed-form and oracle solutions, 1,000 cases of
  each variant.

A digest covers every number a run returns, trained parameters included,
except wall-clock times. Not collected by pytest (no test_ prefix); it takes
under a minute.
"""

import hashlib
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from groupopt import (EMBEDDING, ExperimentConfig, ModelConfig, OnlineProblem,  # noqa: E402
                      RegConfig, SynthSpec, generate, prox_oracle, prox_solve,
                      prune_baseline, random_problem, run_regret, sweep, train_model)
from groupopt.blocks import make_rng  # noqa: E402
from groupopt.optimizers import OPTIMIZER_NAMES, SCHEDULE_KINDS, name_reg  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

REG = RegConfig(lambda1=1e-3, lambda21=0.05, lambda2=1e-5, variant="exact")


def emit(name: str, *parts) -> None:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part.tobytes() if isinstance(part, np.ndarray) else repr(part).encode())
    print(name, digest.hexdigest(), flush=True)


def without_wall(row: dict) -> list:
    return sorted((k, v) for k, v in row.items() if k != "wall_ms")


def report_parts(report) -> list:
    return [*(without_wall(row) for row in report.epochs), without_wall(report.final),
            *(report.blocks[k].values for k in sorted(report.blocks))]


def config(name: str, vocab_per_field: int, apply_to=None) -> ExperimentConfig:
    spec = SynthSpec(num_fields=4, vocab_per_field=vocab_per_field, informative_fraction=0.1,
                     num_samples=3000, skew=1.3, seed=3)
    return ExperimentConfig(
        model=ModelConfig(num_features=spec.vocab, embed_dim=4, num_fields=4,
                          hidden_dims=(8, 4)),
        data=spec, optimizer=name, lr=0.05,
        reg=name_reg(name, replace(REG, apply_to=apply_to)),
        epochs=2, batch_size=32, seed=1)


def workloads() -> None:
    for workload in WORKLOADS.values():
        for seed in (0, 7):
            inputs = workload.setup(seed)
            _, digest = workload.outputs(workload.run(inputs))
            emit(f"workload {workload.name} seed={seed}", digest)


def training() -> None:
    # 200 and 300 ids per field: 800 rows, one chunk, and 1,200 rows, two
    for vocab_per_field in (200, 300):
        for name in OPTIMIZER_NAMES:
            for apply_to in (None, frozenset({EMBEDDING})):
                cfg = config(name, vocab_per_field, apply_to)
                emit(f"train {name} rows={4 * vocab_per_field} "
                     f"apply_to={sorted(apply_to or [])}", *report_parts(train_model(cfg)))
    for name, grid in (("group-adagrad", (0.01, 0.1)), ("group-adam", (0.01, 0.1)),
                       ("ftrl", (0.0,))):
        emit(f"sweep {name}", *(p for r in sweep(config(name, 200), grid)
                                for p in report_parts(r)))
    for name in ("adagrad", "adam", "ftrl"):
        cfg = config(name, 200)
        doc = prune_baseline(cfg, target_keep=40, dataset=generate(cfg.data))
        emit(f"prune_baseline {name}", without_wall(doc["base"]), doc["target_keep"],
             *(without_wall(row) for row in doc["fractions"]), without_wall(doc["best"]))


def regret() -> None:
    for mode in ("stochastic", "alternating"):
        problem = OnlineProblem(kind="quadratic", dim=8, horizon=1024, seed=2, mode=mode)
        for kind in SCHEDULE_KINDS:
            for lambda1 in (0.0, 0.05):
                for decay in ("none", "sqrt_t"):
                    run = run_regret(problem, kind=kind, lr=0.5, reg=RegConfig(lambda1=lambda1),
                                     step_decay=decay)
                    emit(f"regret {mode} {kind} lambda1={lambda1} decay={decay}",
                         run.xs, run.ms, run.regrets, sorted(run.to_dict().items()))


def prox_selftest(cases: int = 1000) -> None:
    for variant in ("practical", "exact"):
        rng = make_rng(0)
        parts = []
        for _ in range(cases):
            problem = random_problem(rng, variant=variant)
            oracle = prox_oracle(problem)
            parts += [prox_solve(problem), oracle.x_star, oracle.certified]
        emit(f"prox-selftest {variant} cases={cases}", *parts)


if __name__ == "__main__":
    workloads()
    training()
    regret()
    prox_selftest()
