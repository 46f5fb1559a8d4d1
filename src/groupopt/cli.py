"""Command-line front end.

Subcommands: train, sweep, prune-baseline, prox-selftest, regret. Every
command is deterministic given (config, seed). Reports are JSON; per-epoch
metrics and regret curves are CSV. Exit codes: 0 success, 2 config error,
3 numeric failure, 4 self-test failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from .blocks import make_rng
from .data import SynthSpec
from .model import EMBEDDING, ModelConfig, save_checkpoint
from .optimizers import (GROUP_NAMES, SCHEDULE_KINDS, PoisonedStateError, RegConfig,
                         check_name_reg)
from .prox import VARIANTS, NonpositiveDiagonalError, prox_oracle, prox_solve, random_problem
from .regret import (MODES, PROBLEM_KINDS, STEP_DECAYS, OnlineProblem, measure_bound_constants,
                     run_regret)
from .training import (
    ConfigError,
    ExperimentConfig,
    config_from_dict,
    config_section,
    load_dataset,
    prune_baseline,
    run_repeated,
    sweep,
    train_model,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_SELFTEST = 4

DEFAULT_LAMBDA2 = 1e-5

# Hyperparameters the paper reports for its MLP, OPNN and DCN models (the
# suffix); a preset sets only the optimizer, lr and penalties, and every run
# trains the config's own embedding+MLP.
PRESETS = {
    "adam-mlp": {"optimizer": "adam", "lr": 1e-4},
    "adam-opnn": {"optimizer": "adam", "lr": 1e-4},
    "adam-dcn": {"optimizer": "adam", "lr": 1e-3},
    "adagrad-mlp": {"optimizer": "adagrad", "lr": 1e-2},
    "adagrad-opnn": {"optimizer": "adagrad", "lr": 1e-2},
    "adagrad-dcn": {"optimizer": "adagrad", "lr": 1e-2},
    "group-adam-mlp": {"optimizer": "group-adam", "lr": 1e-4,
                       "reg": {"lambda1": 5e-3, "lambda21": 1e-2, "lambda2": 1e-5}},
    "group-adam-opnn": {"optimizer": "group-adam", "lr": 1e-4,
                        "reg": {"lambda1": 8e-5, "lambda21": 1e-5, "lambda2": 1e-5}},
    "group-adam-dcn": {"optimizer": "group-adam", "lr": 1e-3,
                       "reg": {"lambda1": 4e-4, "lambda21": 5e-4, "lambda2": 1e-5}},
    "group-adagrad-mlp": {"optimizer": "group-adagrad", "lr": 1e-2,
                          "reg": {"lambda1": 0.0, "lambda21": 1e-2, "lambda2": 1e-5}},
    "group-adagrad-opnn": {"optimizer": "group-adagrad", "lr": 1e-2,
                           "reg": {"lambda1": 8e-5, "lambda21": 8e-5, "lambda2": 1e-5}},
    "group-adagrad-dcn": {"optimizer": "group-adagrad", "lr": 1e-2,
                          "reg": {"lambda1": 0.0, "lambda21": 4e-3, "lambda2": 1e-5}},
}

# Sweep grids for the two gating-norm variants.
GRIDS = {
    "l21-grid-practical": [0.0, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3,
                           5e-3, 7.5e-3, 1e-2, 2.5e-2],
    "l21-grid-exact": [0.0, 0.05, 0.075, 0.1, 0.125, 0.15,
                       0.175, 0.2, 0.225, 0.25],
}

METRIC_COLUMNS = ("epoch", "logloss", "auc", "sparsity", "nonzero_groups", "wall_ms")


def _load_config_doc(args) -> dict:
    doc = {}
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.exists():
            raise ConfigError(f"config: file not found: {path}")
        try:
            doc = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config: invalid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError("config: top-level document must be an object")
    return doc


def _apply_preset(doc: dict, name: str | None) -> dict:
    if name is None:
        return doc
    if name not in PRESETS:
        known = ", ".join(sorted(PRESETS))
        raise ConfigError(f"preset: unknown name {name!r} (known: {known})")
    preset = PRESETS[name]
    for key, value in preset.items():
        if key == "reg":
            doc.setdefault("reg", {}).update(value)
        else:
            doc[key] = value
    return doc


def _apply_flags(doc: dict, args) -> dict:
    direct = ("optimizer", "lr", "epochs", "batch_size", "seed", "repeats", "data",
              "output_dir")
    for key in direct:
        value = getattr(args, key, None)
        if value is not None:
            doc[key] = value
    for key in ("lambda1", "lambda21", "lambda2", "variant"):
        value = getattr(args, key, None)
        if value is not None:
            doc.setdefault("reg", {})[key] = value
    return doc


def _fill_defaults(doc: dict, default_lambda2: bool) -> dict:
    """Desk-scale defaults: synthetic data and a model sized to its vocab."""
    doc.setdefault("data", {})
    if isinstance(doc["data"], dict):
        spec = config_section(SynthSpec, doc["data"], "data")
        doc.setdefault("model", {})
        doc["model"].setdefault("num_features", spec.vocab)
        doc["model"].setdefault("num_fields", spec.num_fields)
    elif "model" not in doc:
        raise ConfigError("model: required when data is a file path")
    default_optimizer = ExperimentConfig.__dataclass_fields__["optimizer"].default
    if default_lambda2 and doc.get("optimizer", default_optimizer) in GROUP_NAMES:
        doc.setdefault("reg", {}).setdefault("lambda2", DEFAULT_LAMBDA2)
    return doc


def build_config(args, default_lambda2: bool = True) -> ExperimentConfig:
    doc = _load_config_doc(args)
    doc = _apply_preset(doc, getattr(args, "preset", None))
    doc = _apply_flags(doc, args)
    doc = _fill_defaults(doc, default_lambda2)
    return config_from_dict(doc)


def _write_artifacts(output_dir, payload: dict, json_name: str,
                     csv_name: str | None = None, columns=(), rows=()) -> Path | None:
    """Print the JSON payload, or write it and an optional CSV into output_dir.

    Returns the directory written to, or None when the payload was printed.
    """
    text = json.dumps(payload, indent=2)
    if output_dir is None:
        print(text)
        return None
    outdir = Path(output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / json_name).write_text(text + "\n")
    if csv_name is not None:
        with (outdir / csv_name).open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(columns)
            writer.writerows(rows)
    return outdir


def cmd_train(args) -> int:
    config = build_config(args)
    if args.save_checkpoint and config.output_dir is None:
        raise ConfigError("save-checkpoint: needs --output-dir or output_dir in the config")
    reports, summary = run_repeated(config)
    payload = {
        "schema_version": reports[0].schema_version,
        "config": config.to_dict(),
        "runs": [r.to_dict() for r in reports],
        "summary": summary,
    }
    rows = ([row[c] for c in METRIC_COLUMNS] for r in reports for row in r.epochs)
    outdir = _write_artifacts(config.output_dir, payload, "report.json",
                              "metrics.csv", METRIC_COLUMNS, rows)
    if args.save_checkpoint:
        save_checkpoint(outdir / "checkpoint.json", config.model, reports[0].blocks)
    final = reports[0].final
    print(f"train: auc={final['auc']:.4f} logloss={final['logloss']:.4f} "
          f"sparsity={final['sparsity']:.4f}", file=sys.stderr)
    return EXIT_OK


def _parse_grid(text: str) -> list[float]:
    if text in GRIDS:
        return GRIDS[text]
    try:
        values = [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"grid: {exc}") from exc
    if not values:
        raise ConfigError("grid: must be nonempty")
    return values


def cmd_sweep(args) -> int:
    config = build_config(args, default_lambda2=False)
    grid = _parse_grid(args.grid)
    reports = sweep(config, grid)
    table = [{"lambda21": lam21, **report.final} for lam21, report in zip(grid, reports)]
    payload = {
        "schema_version": reports[0].schema_version,
        "config": config.to_dict(),
        "grid": grid,
        "points": table,
    }
    columns = ("lambda21", "logloss", "auc", "sparsity", "nonzero_groups")
    _write_artifacts(config.output_dir, payload, "sweep.json", "sweep.csv", columns,
                     ([row[c] for c in columns] for row in table))
    return EXIT_OK


def cmd_prune_baseline(args) -> int:
    config = build_config(args)
    if args.target_keep is None and args.target_sparsity is None:
        raise ConfigError("target: pass --target-keep or --target-sparsity")
    if args.target_keep is not None and args.target_keep < 0:
        raise ConfigError(f"target: --target-keep must be >= 0, got {args.target_keep}")
    if args.target_sparsity is not None and not 0.0 <= args.target_sparsity <= 1.0:
        raise ConfigError("target: --target-sparsity must be in [0, 1], "
                          f"got {args.target_sparsity}")
    dataset = load_dataset(config)
    base = train_model(config, dataset=dataset)
    if args.target_keep is not None:
        keep = args.target_keep
    else:
        keep = round(args.target_sparsity * len(base.features_seen))
    report = prune_baseline(config, keep, dataset=dataset, base_report=base)
    _write_artifacts(config.output_dir, report, "prune_baseline.json")
    best = report["best"]
    print(f"prune-baseline: keep={keep} best auc={best['auc']:.4f} "
          f"at finetune_fraction={best['finetune_fraction']}", file=sys.stderr)
    return EXIT_OK


def cmd_prox_selftest(args) -> int:
    # zero cases would certify nothing and still pass
    if args.cases < 1:
        raise ConfigError(f"cases: --cases must be >= 1, got {args.cases}")
    if args.seed < 0:
        raise ConfigError(f"seed: --seed must be >= 0, got {args.seed}")
    rng = make_rng(args.seed)
    agree = 0
    uncertified = 0
    failures = []
    for i in range(args.cases):
        problem = random_problem(rng, variant=args.variant)
        closed = prox_solve(problem)
        oracle = prox_oracle(problem)
        if not oracle.certified:
            uncertified += 1
            continue
        err = float(np.max(np.abs(closed - oracle.x_star)))
        if err <= 1e-6:
            agree += 1
        else:
            failures.append((i, err))
    certified = args.cases - uncertified
    print(f"{agree}/{certified} certified-agree "
          f"({uncertified} uncertified of {args.cases})")
    for index, err in failures[:10]:
        print(f"  case {index}: max abs deviation {err:.3e}", file=sys.stderr)
    return EXIT_OK if not failures else EXIT_SELFTEST


def cmd_regret(args) -> int:
    problem = OnlineProblem(kind=args.kind, dim=args.dim, horizon=args.horizon,
                            seed=args.seed, mode=args.mode)
    reg = RegConfig(lambda1=args.lambda1, lambda21=args.lambda21,
                    lambda2=args.lambda2)
    try:
        check_name_reg(args.optimizer, reg)
    except ValueError as exc:
        raise ConfigError(f"reg: {exc}") from None
    run = run_regret(problem, kind=args.optimizer.removeprefix("group-"), lr=args.lr,
                     reg=reg, step_decay=args.step_decay)
    constants = measure_bound_constants(run)
    payload = {**run.to_dict(), "bound": constants}
    _write_artifacts(args.output_dir, payload, "regret.json", "regret.csv",
                     ("t", "regret"), run.rows())
    print(f"regret: slope={run.slope:.3f} R_T={run.regret_final:.3f} "
          f"condition_met={constants['condition_met']}", file=sys.stderr)
    return EXIT_OK


def _add_common_training_flags(sub):
    sub.add_argument("--config", help="JSON experiment config file")
    sub.add_argument("--preset", help=f"named preset ({', '.join(sorted(PRESETS))})")
    sub.add_argument("--optimizer")
    sub.add_argument("--lr", type=float)
    sub.add_argument("--lambda1", type=float)
    sub.add_argument("--lambda21", type=float)
    sub.add_argument("--lambda2", type=float)
    sub.add_argument("--variant", choices=VARIANTS)
    sub.add_argument("--epochs", type=int)
    sub.add_argument("--batch-size", dest="batch_size", type=int)
    sub.add_argument("--seed", type=int)
    sub.add_argument("--repeats", type=int)
    sub.add_argument("--data", help="libsvm file path (overrides synthetic data)")
    sub.add_argument("--output-dir", dest="output_dir")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="groupopt",
        description="Adaptive optimizers with sparse-group-lasso regularization")
    commands = parser.add_subparsers(dest="command", required=True)

    train = commands.add_parser("train", help="train one model and report metrics")
    _add_common_training_flags(train)
    train.add_argument("--save-checkpoint", action="store_true")
    train.set_defaults(func=cmd_train)

    sweep_cmd = commands.add_parser("sweep", help="one run per lambda21 grid value")
    _add_common_training_flags(sweep_cmd)
    sweep_cmd.add_argument("--grid", required=True,
                           help="named grid or comma-separated values")
    sweep_cmd.set_defaults(func=cmd_sweep)

    prune = commands.add_parser("prune-baseline",
                                help="magnitude-pruning baseline over fine-tune fractions")
    _add_common_training_flags(prune)
    prune.add_argument("--target-keep", dest="target_keep", type=int)
    prune.add_argument("--target-sparsity", dest="target_sparsity", type=float)
    prune.set_defaults(func=cmd_prune_baseline)

    selftest = commands.add_parser("prox-selftest",
                                   help="closed form vs certified oracle on random problems")
    selftest.add_argument("--cases", type=int, default=1000)
    selftest.add_argument("--seed", type=int, default=0)
    selftest.add_argument("--variant", choices=VARIANTS, default="exact")
    selftest.set_defaults(func=cmd_prox_selftest)

    regret_cmd = commands.add_parser("regret", help="online regret measurement")
    regret_cmd.add_argument("--kind", choices=PROBLEM_KINDS, default="quadratic")
    regret_cmd.add_argument("--mode", choices=MODES, default="stochastic")
    regret_cmd.add_argument("--optimizer", choices=SCHEDULE_KINDS + GROUP_NAMES,
                            default="adagrad")
    regret_cmd.add_argument("--lr", type=float, default=0.5)
    regret_cmd.add_argument("--step-decay", dest="step_decay", choices=STEP_DECAYS,
                            default="none")
    regret_cmd.add_argument("--dim", type=int, default=8)
    regret_cmd.add_argument("--horizon", type=int, default=1 << 17)
    regret_cmd.add_argument("--seed", type=int, default=0)
    regret_cmd.add_argument("--lambda1", type=float, default=0.0)
    regret_cmd.add_argument("--lambda21", type=float, default=0.0)
    regret_cmd.add_argument("--lambda2", type=float, default=0.0)
    regret_cmd.add_argument("--output-dir", dest="output_dir")
    regret_cmd.set_defaults(func=cmd_regret)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse has printed the usage error (2) or help (0)
        return exc.code
    try:
        return args.func(args)
    # NonpositiveDiagonalError is a ValueError: this clause must come first
    except (PoisonedStateError, NonpositiveDiagonalError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, OSError) as exc:  # ConfigError too
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
