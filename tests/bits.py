"""Same-bits check: one sha256 line per run of the public API.

    python tests/bits.py > bits.txt

Run it at two commits and `diff` the outputs: a change that keeps the
arithmetic prints the same lines. The runs are

* the benchmark's workload digests (perfbench/workloads.py) on seeds 0 and 7;
* train_model for every optimizer name under both apply_to settings, at a
  table of one STEP_ROWS chunk and at a chunked one;
* sweep, and prune_baseline (wall_ms aside), for adagrad, adam and ftrl,
  and prune_baseline for adagrad by target_sparsity;
* the optimizer state (z, the moments, prev_scaled_root, t and prev_lr) and
  the values after four GroupOptimizer.step calls, for every optimizer
  name, on a grouped table of one STEP_ROWS chunk and of three, with the
  table-shaped gradient and with rows, and on an ungrouped block;
* run_regret for every schedule, lambda1 0 and 0.05, step decay none and
  sqrt_t, on a stochastic and an alternating quadratic stream;
* the prox self-test's closed-form and oracle solutions, 1,000 cases of
  each variant;
* cli.main, in a new temporary directory per run: train (to stdout, and
  with --output-dir and --save-checkpoint), sweep, prune-baseline by
  --target-keep and --target-sparsity, prox-selftest --cases 200 of each
  variant, regret --horizon 256 with and without --output-dir, every exit-2
  and exit-3 invocation of tests/test_cli.py (among them a model whose
  hidden_dims is one number, 8, and an output_dir of 5, true or a list,
  which used to train and then escape main), repeats for sweep and
  prune-baseline, config sections that are no object, both pruning targets
  at once, an empty grid, libsvm files missing or under a model that
  leaves num_features out, and presets for train, sweep and prune-baseline,
  alone, under flags and over a reg that is no object. A CLI digest
  covers the exit code (or the exception that escaped main), stdout, stderr
  and every file the run leaves.

A digest covers every number a run returns, trained parameters included,
except wall-clock times (wall_ms). Not collected by pytest (no test_
prefix); it takes under a minute.
"""

import contextlib
import csv
import hashlib
import io
import json
import os
import re
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from groupopt import (EMBEDDING, ExperimentConfig, ModelConfig, OnlineProblem,  # noqa: E402
                      RegConfig, SynthSpec, generate, prox_oracle, prox_solve,
                      prune_baseline, random_problem, run_regret, sweep, train_model)
from groupopt import cli as groupopt_cli, optimizers  # noqa: E402
from groupopt.blocks import ParamBlock, make_rng  # noqa: E402
from groupopt.optimizers import (OPTIMIZER_NAMES, SCHEDULE_KINDS, STEP_ROWS,  # noqa: E402
                                 make_optimizer, name_reg)
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
    cfg = config("adagrad", 200)
    doc = prune_baseline(cfg, dataset=generate(cfg.data), target_sparsity=0.1)
    emit("prune_baseline adagrad target_sparsity=0.1", without_wall(doc["base"]),
         doc["target_keep"], *(without_wall(row) for row in doc["fractions"]),
         without_wall(doc["best"]))


def state_parts(optimizer, block: ParamBlock) -> list:
    state = optimizer.states[block.name]
    return [*(part for item in sorted(state.arrays.items()) for part in item),
            state.t, state.prev_lr, block.values]


def optimizer_states(steps: int = 4) -> None:
    # 300 groups of 4 are one chunk, 2,560 three; rows: about a tenth of them
    for name in OPTIMIZER_NAMES:
        for num_groups in (300, 5 * STEP_ROWS // 2):
            for with_rows in (False, True):
                rng = make_rng(5)
                block = ParamBlock("e", rng.normal(scale=0.05, size=4 * num_groups), 4)
                optimizer = make_optimizer(name, 0.05, name_reg(name, REG))
                for _ in range(steps):
                    if with_rows:
                        rows = np.flatnonzero(rng.random(num_groups) < 0.1)
                        optimizer.step(block, rng.normal(scale=0.05, size=4 * rows.size), rows)
                    else:
                        optimizer.step(block, rng.normal(scale=0.05, size=block.values.size))
                emit(f"state {name} groups={num_groups} with_rows={with_rows}",
                     *state_parts(optimizer, block))
        rng = make_rng(6)
        block = ParamBlock("d", rng.normal(scale=0.05, size=37))
        optimizer = make_optimizer(name, 0.05, name_reg(name, REG))
        for _ in range(steps):
            optimizer.step(block, rng.normal(scale=0.05, size=block.values.size))
        emit(f"state {name} ungrouped size=37", *state_parts(optimizer, block))


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


# the test config of tests/test_cli.py, and its model for a libsvm file
TINY = {
    "data": {"num_fields": 3, "vocab_per_field": 20, "num_samples": 300, "seed": 1},
    "model": {"embed_dim": 4, "hidden_dims": [8]},
    "epochs": 1,
    "batch_size": 32,
}
TINY_MODEL = {"num_features": 60, "num_fields": 3, "embed_dim": 4, "hidden_dims": [8]}
NAN, INF = float("nan"), float("inf")


def without_wall_ms(name: str, text: str) -> str:
    """text with every wall_ms value, in JSON or in a CSV column, masked."""
    if not name.endswith(".csv"):
        return re.sub(r'("wall_ms": )[^,\n}]+', r"\1null", text)
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or "wall_ms" not in rows[0]:
        return text
    col = rows[0].index("wall_ms")
    for row in rows[1:]:
        row[col] = "masked"
    out = io.StringIO()
    csv.writer(out).writerows(rows)
    return out.getvalue()


def run_cli(argv: list, config: dict | None = None, libsvm: str | None = None) -> None:
    """Emit one digest of cli.main(argv) run in a new temporary directory
    holding c.json (config) and d.libsvm (libsvm), where given."""
    name = " ".join(["cli", *argv, *([json.dumps(config)] if config is not None else []),
                     *([repr(libsvm)] if libsvm is not None else [])])
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            if config is not None:
                Path("c.json").write_text(json.dumps(config))
            if libsvm is not None:
                Path("d.libsvm").write_text(libsvm)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    outcome = groupopt_cli.main(argv)
                except Exception as exc:  # an exception that escapes main is an outcome too
                    outcome = f"{type(exc).__name__}: {exc}"
            files = [(str(path), without_wall_ms(path.name, path.read_bytes().decode()))
                     for path in sorted(Path(".").rglob("*")) if path.is_file()]
        finally:
            os.chdir(cwd)
    emit(name, outcome, without_wall_ms("stdout", out.getvalue()), err.getvalue(), files)


def tiny(**extra) -> dict:
    return {**TINY, **extra}


def cli() -> None:
    train = ["train", "--config", "c.json"]
    # the commands' outputs
    run_cli([*train, "--optimizer", "group-adagrad", "--lr", "1e-2", "--output-dir", "out",
             "--save-checkpoint"], tiny())
    run_cli([*train, "--optimizer", "group-adam", "--lr", "1e-2", "--lambda21", "1e-3",
             "--output-dir", "out"], tiny())
    run_cli([*train, "--optimizer", "adagrad", "--lr", "1e-2", "--repeats", "2",
             "--output-dir", "out"], tiny())
    run_cli([*train, "--optimizer", "adagrad", "--lr", "1e-2"], tiny(epsilon=0.0))
    run_cli([*train, "--optimizer", "sgd", "--lr", "1e-2"], tiny())
    run_cli(["sweep", "--config", "c.json", "--optimizer", "group-adam", "--lr", "1e-2",
             "--grid", "0,2.5e-2", "--output-dir", "out"], tiny())
    for target in (["--target-keep", "5"], ["--target-sparsity", "0.1"]):
        run_cli(["prune-baseline", "--config", "c.json", "--optimizer", "adagrad", "--lr",
                 "1e-2", *target, "--output-dir", "out"], tiny())
    for variant in ("exact", "practical"):
        run_cli(["prox-selftest", "--cases", "200", "--variant", variant])
    run_cli(["regret", "--horizon", "256", "--optimizer", "adagrad", "--output-dir", "out"])
    run_cli(["regret", "--horizon", "256"])

    # exit 2: the invocations of tests/test_cli.py
    run_cli(["train", "--optimizer", "adamw"])
    run_cli(["train", "--config", "/nonexistent/c.json"])
    run_cli(train, {"modle": {}})
    run_cli(train, {"data": {"vocab": 5}})
    run_cli(["train", "--preset", "nope"])
    run_cli(train, tiny(reg={"lambda21": 0.1, "apply_to": "embedding"}))
    for block in ("embeddings", "dense1_w"):
        run_cli(train, tiny(reg={"lambda21": 0.5, "apply_to": [block]}))
    libsvm_train = [*train, "--data", "d.libsvm"]
    for body in ("2 0:1 20:1 40:1\n", "1 oops\n", "1 -3:1\n", "1 0:0.5 20:1 40:1\n",
                 "1 0:1 20:1 40:1\n0 0:1\n", "",
                 # one class in the train split, then in the test split
                 *("".join(f"{label} {i % 20}:1 {20 + i}:1 40:1\n"
                           for i, label in enumerate(labels))
                   for labels in ("1" * 20, "01" * 9 + "11")),
                 # id 60 is past the 60-row table
                 "".join(f"{i % 2} {i % 20}:1 {20 + i}:1 {40 if i < 19 else 60}:1\n"
                         for i in range(20))):
        run_cli(libsvm_train, tiny(model=TINY_MODEL), body)
    run_cli(train, tiny(data={**TINY["data"], "num_samples": 10}))
    for flags in (["--optimizer", "adam", "--lambda1", "0.1", "--lambda21", "0.5"],
                  ["--optimizer", "ftrl", "--lambda1", "0.1", "--lambda2", "1e-5"]):
        run_cli([*train, *flags], tiny())
    for extra in (
            {"lr": NAN}, {"reg": {"lambda1": NAN}}, {"reg": {"lambda21": NAN}},
            {"reg": {"lambda2": NAN}}, {"epsilon": NAN, "optimizer": "group-adagrad"},
            {"lr": INF}, {"epsilon": INF, "optimizer": "group-adagrad"},
            {"batch_size": 32.5}, {"epochs": 1.5}, {"epochs": True}, {"repeats": 2.5},
            {"seed": 1.5}, {"model": {"embed_dim": 4.0, "hidden_dims": [8]}},
            {"model": {"embed_dim": 4, "hidden_dims": [8.5]}},
            {"model": {"embed_dim": 4, "hidden_dims": 8}},
            {"model": {**TINY_MODEL, "num_features": 60.0}},
            {"model": {**TINY_MODEL, "num_fields": True}},
            {"data": {**TINY["data"], "num_samples": 300.5}},
            {"beta1": 1.5}, {"beta1": "0.9"}, {"gamma": None}, {"beta2": True},
            {"epsilon": INF}, {"lr": "0.1"}, {"lr": True}, {"reg": {"lambda1": "0.1"}},
            {"reg": {"lambda21": True}}, {"reg": {"lambda2": None}},
            {"reg": {"lambda1": INF}}, {"reg": {"lambda21": INF}}, {"reg": {"lambda2": INF}},
            {"data": {**TINY["data"], "informative_fraction": "0.1"}},
            {"data": {**TINY["data"], "noise": True}}, {"data": {**TINY["data"], "skew": [1.0]}},
            {"seed": -1}, {"data": {**TINY["data"], "seed": -1}},
            {"model": {**TINY["model"], "seed": 1}},
            {"output_dir": 5}, {"output_dir": True}, {"output_dir": ["out"]}):
        run_cli(train, tiny(**extra))
    run_cli([*train, "--save-checkpoint"], tiny())
    run_cli(["sweep", "--config", "c.json", "--optimizer", "adam", "--grid", "0,2.5e-2"],
            tiny())
    run_cli(["sweep", "--config", "c.json", "--grid", "abc"], tiny())
    for flags in ([], ["--target-keep", "-1"], ["--target-sparsity", "1.5"],
                  ["--target-sparsity", "-0.5"], ["--target-keep", "5", "--target-sparsity", "2"]):
        run_cli(["prune-baseline", "--config", "c.json", *flags], tiny())
    for flags in (["--cases", "0"], ["--cases", "-5"], ["--seed", "-1"]):
        run_cli(["prox-selftest", *flags])
    regret = ["regret", "--horizon", "64"]
    for flags in (["--seed", "-1"], ["--optimizer", "rmsprop"], ["--optimizer", "ftrl"],
                  ["--optimizer", "adam", "--lambda1", "0.1"], ["--lr", "nan"],
                  ["--lambda21", "nan"], ["--lr", "inf"],
                  *(["--optimizer", "group-adagrad", flag, "inf"]
                    for flag in ("--lambda1", "--lambda21", "--lambda2"))):
        run_cli([*regret, *flags])

    # exit 3: a zero curvature diagonal under live dual mass
    real = optimizers.group_shrink
    optimizers.group_shrink = lambda s, cum_diag, *args: real(s, np.zeros_like(cum_diag), *args)
    try:
        run_cli([*train, "--optimizer", "group-adagrad", "--lambda2", "0"], tiny())
    finally:
        optimizers.group_shrink = real

    # repeats a sweep or a pruning baseline never runs, and sections that are
    # no object
    run_cli(["sweep", "--config", "c.json", "--grid", "0,0.01", "--repeats", "3"], tiny())
    run_cli(["prune-baseline", "--config", "c.json", "--optimizer", "adagrad",
             "--target-keep", "5", "--repeats", "3"], tiny())
    for extra in ({"reg": 5}, {"reg": [1]}, {"reg": "x"}, {"model": 5}, {"model": [1, 2]}):
        run_cli(train, tiny(**extra))
    run_cli([*train, "--lambda1", "0.1"], tiny(reg=5))
    run_cli(train, {"data": 5})

    # both pruning targets, a NaN one, an empty grid, a missing libsvm file,
    # and a libsvm file under a model that leaves num_features out
    for flags in (["--target-keep", "5", "--target-sparsity", "0.5"],
                  ["--target-sparsity", "nan"]):
        run_cli(["prune-baseline", "--config", "c.json", "--optimizer", "adagrad", *flags],
                tiny())
    run_cli(["sweep", "--config", "c.json", "--grid", ","], tiny())
    run_cli([*train, "--data", "nosuch.libsvm"], tiny(model=TINY_MODEL))
    run_cli(libsvm_train, tiny(), "1 0:1 20:1 40:1\n0 1:1 21:1 41:1\n")

    # presets over a config whose reg they merge into, under flags, and over
    # a reg that is no object
    preset_config = tiny(reg={"variant": "exact", "apply_to": ["embedding"]})
    for flags in (["--preset", "group-adagrad-mlp"],
                  ["--preset", "group-adam-dcn", "--lr", "0.01", "--lambda21", "0.002"],
                  ["--preset", "adam-mlp", "--lambda1", "0.1"]):
        run_cli([*train, *flags], preset_config)
    run_cli(["sweep", "--config", "c.json", "--preset", "group-adagrad-dcn", "--grid", "0,0.01"],
            preset_config)
    run_cli(["prune-baseline", "--config", "c.json", "--preset", "adagrad-mlp",
             "--target-keep", "5"], preset_config)
    run_cli([*train, "--preset", "group-adam-mlp"], tiny(reg=5))


if __name__ == "__main__":
    workloads()
    training()
    optimizer_states()
    regret()
    prox_selftest()
    cli()
