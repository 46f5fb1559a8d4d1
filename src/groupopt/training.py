"""Experiment harness: configuration, the training loop, sweeps, and the
magnitude-pruning baseline (prune_baseline: prune, fine-tune on the tail of
the train split, prune again, at each fine-tune fraction).

Reports are dict-convertible dataclasses, or plain dicts for the baseline;
the CLI serializes them to JSON and CSV, and tests consume them directly.
Everything is deterministic given (config, seed): data, initialization,
and batch order all come from pinned generators.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, asdict, replace

import numpy as np

from .blocks import is_integer, make_rng, require_integers, require_reals
from .data import Dataset, SynthSpec, generate, load_libsvm
from .metrics import auc, nonzero_groups, sparsity
from .model import (DENSE, EMBEDDING, ModelConfig, backward, check_ids, forward,
                    init_params, logits, logloss)
from .optimizers import (OPTIMIZER_NAMES, MomentSchedule, RegConfig, check_name_reg,
                         make_optimizer, name_reg)
from .pruning import magnitude_prune

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """Invalid experiment configuration; message includes the field path."""


@dataclass
class ExperimentConfig:
    model: ModelConfig
    data: SynthSpec | str
    optimizer: str = "group-adam"
    lr: float = 1e-2
    beta1: float = 0.9
    beta2: float = 0.999
    gamma: float = 0.9
    epsilon: float = 1e-8
    reg: RegConfig = field(default_factory=lambda: RegConfig(apply_to=frozenset({EMBEDDING})))
    epochs: int = 1
    batch_size: int = 64
    seed: int = 0
    output_dir: str | None = None
    repeats: int = 1

    def __post_init__(self):
        require_integers(self, ("epochs", "batch_size", "repeats", "seed"), ConfigError)
        require_reals(self, ("lr",), ConfigError)
        if self.seed < 0:
            raise ConfigError(f"seed: must be >= 0, got {self.seed}")
        if self.optimizer not in OPTIMIZER_NAMES:
            raise ConfigError(f"optimizer: unknown name {self.optimizer!r}")
        try:
            check_name_reg(self.optimizer, self.reg)
        except ValueError as exc:
            raise ConfigError(f"reg: {exc}") from None
        # a name that is no block of the model would silently penalize nothing
        unknown = sorted(self.reg.apply_to - {EMBEDDING, DENSE}) if self.reg.apply_to else []
        if unknown:
            raise ConfigError(f"reg: apply_to: no block named {', '.join(map(repr, unknown))}; "
                              f"the model's blocks are {EMBEDDING!r} and {DENSE!r}")
        try:  # each field by name, before any data are read
            MomentSchedule(**self.schedule_args())
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if self.optimizer == "ftrl":
            # the config reports what runs: l1 on every block, at epsilon 0
            self.reg = name_reg("ftrl", self.reg)
            self.epsilon = 0.0
        if not 0 < self.lr < np.inf:  # NaN fails too
            raise ConfigError(f"lr: must be > 0 and finite, got {self.lr}")
        if self.epochs < 1 or self.batch_size < 1 or self.repeats < 1:
            raise ConfigError("epochs, batch_size, repeats: must be >= 1")

    def schedule_args(self) -> dict:
        return {"beta1": self.beta1, "beta2": self.beta2,
                "gamma": self.gamma, "epsilon": self.epsilon}

    def to_dict(self) -> dict:
        d = asdict(self)
        d["reg"]["apply_to"] = sorted(self.reg.apply_to) if self.reg.apply_to is not None else None
        d["data"] = self.data if isinstance(self.data, str) else asdict(self.data)
        return d


def config_section(cls, sub: dict, path: str):
    """cls(**sub) for the section of a JSON document at path; an unknown
    field or an invalid value is a ConfigError that names the path."""
    allowed = set(cls.__dataclass_fields__)
    for key in sub:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}: unknown field")
    try:
        return cls(**sub)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def config_from_dict(doc: dict) -> ExperimentConfig:
    """Build a config from a JSON document, rejecting unknown fields."""
    doc = dict(doc)
    known = set(ExperimentConfig.__dataclass_fields__)
    for key in doc:
        if key not in known:
            raise ConfigError(f"{key}: unknown field")
    if "model" not in doc:
        raise ConfigError("model: required")
    model = config_section(ModelConfig, dict(doc.pop("model")), "model")
    data = doc.pop("data", None)
    if data is None:
        raise ConfigError("data: required")
    if isinstance(data, dict):
        data = config_section(SynthSpec, dict(data), "data")
    elif not isinstance(data, str):
        raise ConfigError("data: must be a spec object or a file path")
    reg_doc = dict(doc.pop("reg", {}))
    reg_doc.setdefault("apply_to", frozenset({EMBEDDING}))
    reg = config_section(RegConfig, reg_doc, "reg")
    try:
        return ExperimentConfig(model=model, data=data, reg=reg, **doc)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def load_dataset(config: ExperimentConfig) -> Dataset:
    if isinstance(config.data, SynthSpec):
        dataset = generate(config.data)
    else:
        ids, labels = load_libsvm(config.data)
        if ids.shape[1] != config.model.num_fields:
            raise ConfigError(
                f"data: file has {ids.shape[1]} fields, model expects {config.model.num_fields}")
        top = int(ids.max())
        if top >= config.model.num_features:
            raise ConfigError(f"data: feature id {top} is out of range for "
                              f"model.num_features {config.model.num_features}")
        n_train = int(0.9 * len(labels))
        dataset = Dataset(ids[:n_train], labels[:n_train], ids[n_train:], labels[n_train:],
                          support=frozenset())
    # AUC, the headline metric, is undefined on a split with one class
    total = dataset.num_train + dataset.test_labels.size
    for split, part in (("train", dataset.train_labels), ("test", dataset.test_labels)):
        if np.unique(part).size < 2:
            raise ConfigError(f"data: the {split} split ({part.size} of {total} "
                              f"samples) holds fewer than two label classes")
    return dataset


@dataclass
class RunReport:
    config: dict
    epochs: list
    final: dict
    schema_version: int = SCHEMA_VERSION
    # in-memory artifacts, not serialized
    blocks: dict | None = field(default=None, repr=False, compare=False)
    features_seen: np.ndarray | None = field(default=None, repr=False, compare=False)

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "config": self.config,
            "epochs": self.epochs,
            "final": self.final,
        }


def evaluate(blocks: dict, dataset: Dataset, model_config: ModelConfig,
             features_seen: np.ndarray) -> dict:
    """Test-split metrics; the split is scored model.EVAL_ROWS rows at a
    time, so no forward pass holds the whole split's activations."""
    scores = logits(blocks, dataset.test_ids, model_config)
    return {
        "logloss": logloss(scores, dataset.test_labels),
        "auc": auc(dataset.test_labels, scores),
        "sparsity": sparsity(blocks[EMBEDDING], features_seen),
        "nonzero_groups": nonzero_groups(blocks[EMBEDDING]),
    }


def _train_epoch(blocks, optimizer, ids, labels, config, rng) -> None:
    """One shuffled pass over (ids, labels); trains blocks in place."""
    order = rng.permutation(len(labels))
    for lo in range(0, len(labels), config.batch_size):
        batch = order[lo:lo + config.batch_size]
        cache = forward(blocks, ids[batch], config.model)
        grads = backward(cache, labels[batch], blocks)
        # the embedding gradient is row-compact: the rows the batch read
        optimizer.step(blocks[EMBEDDING], grads[EMBEDDING], rows=cache.rows)
        optimizer.step(blocks[DENSE], grads[DENSE])


def _features_seen(ids: np.ndarray, model: ModelConfig) -> np.ndarray:
    """np.unique(ids), from a boolean mark over the table's rows instead of
    a sort; an id out of range raises forward's ValueError."""
    if ids.size:
        check_ids(ids, model)
    seen = np.zeros(model.num_features, dtype=bool)
    seen[ids] = True
    return np.flatnonzero(seen)


def train_model(config: ExperimentConfig, dataset: Dataset | None = None,
                seed_offset: int = 0) -> RunReport:
    """One full training run; returns the report with blocks attached."""
    if dataset is None:
        dataset = load_dataset(config)
    run_seed = config.seed + seed_offset
    blocks = init_params(config.model, run_seed)
    optimizer = make_optimizer(config.optimizer, config.lr, config.reg,
                               config.schedule_args())
    features_seen = _features_seen(dataset.train_ids, config.model)
    rng = make_rng(run_seed + 1)
    rows = []
    for epoch in range(config.epochs):
        start = time.perf_counter()
        _train_epoch(blocks, optimizer, dataset.train_ids, dataset.train_labels, config, rng)
        wall_ms = 1000.0 * (time.perf_counter() - start)
        rows.append({"epoch": epoch + 1,
                     **evaluate(blocks, dataset, config.model, features_seen),
                     "wall_ms": wall_ms})
    report = RunReport(config=config.to_dict(), epochs=rows, final=dict(rows[-1]),
                       blocks=blocks, features_seen=features_seen)
    report.final.pop("epoch", None)
    report.final["seed"] = run_seed
    return report


def run_repeated(config: ExperimentConfig) -> tuple[list[RunReport], dict]:
    """config.repeats runs (seed, seed+1, ...) on one loaded dataset plus
    mean/std summary."""
    dataset = load_dataset(config)
    reports = [train_model(config, dataset=dataset, seed_offset=i)
               for i in range(config.repeats)]
    keys = ("logloss", "auc", "sparsity", "nonzero_groups")
    summary = {}
    for key in keys:
        vals = np.array([r.final[key] for r in reports], dtype=np.float64)
        summary[key] = {"mean": float(vals.mean()),
                        "std": float(vals.std(ddof=1)) if len(vals) > 1 else 0.0}
    return reports, summary


def sweep(config: ExperimentConfig, lambda21_grid) -> list[RunReport]:
    """One run per grid value at fixed seed; reg otherwise unchanged."""
    if len(lambda21_grid) == 0:
        raise ConfigError("lambda21 grid: must be nonempty")
    # every point's config is checked before the first run
    points = [replace(config, reg=replace(config.reg, lambda21=float(lam21)))
              for lam21 in lambda21_grid]
    dataset = load_dataset(config)
    return [train_model(point, dataset=dataset) for point in points]


def prune_baseline(config: ExperimentConfig, target_keep: int,
                   fractions=(0.0, 0.1, 0.2, 0.3),
                   dataset: Dataset | None = None,
                   base_report: RunReport | None = None) -> dict:
    """The magnitude-pruning baseline (Zhu & Gupta, 2017): train a vanilla
    model; then, at each fine-tune fraction, prune its embedding to the
    target_keep largest-norm rows, train one epoch on the chronologically
    last fraction of the train samples, prune again, and evaluate. Returns a
    report dict with the per-fraction table and the row of best test AUC."""
    # checked first, so that a bad target or fraction fails before any training
    fractions = tuple(fractions)
    if not fractions:
        raise ValueError("fractions: at least one fine-tune fraction is needed")
    if not is_integer(target_keep):
        raise ValueError(f"target_keep: must be an integer, got {target_keep!r}")
    if target_keep < 0:
        raise ValueError("target_keep must be >= 0")
    if not all(0.0 <= fraction <= 1.0 for fraction in fractions):
        raise ValueError("finetune_fraction must be in [0, 1]")
    if dataset is None:
        dataset = load_dataset(config)
    if base_report is None:
        base_report = train_model(config, dataset=dataset)
    n = dataset.num_train
    table = []
    for fraction in fractions:
        blocks = {EMBEDDING: magnitude_prune(base_report.blocks[EMBEDDING], target_keep),
                  DENSE: base_report.blocks[DENSE].copy()}
        lo = n - int(fraction * n)
        if lo < n:
            optimizer = make_optimizer(config.optimizer, config.lr, config.reg,
                                       config.schedule_args())
            _train_epoch(blocks, optimizer, dataset.train_ids[lo:], dataset.train_labels[lo:],
                         config, make_rng(config.seed + 7919))
            blocks[EMBEDDING] = magnitude_prune(blocks[EMBEDDING], target_keep)
        table.append({"finetune_fraction": fraction,
                      **evaluate(blocks, dataset, config.model, base_report.features_seen)})
    return {
        "schema_version": SCHEMA_VERSION,
        "config": config.to_dict(),
        "target_keep": int(target_keep),
        "base": dict(base_report.final),
        "fractions": table,
        # max keeps the first of equal AUCs
        "best": dict(max(table, key=lambda row: row["auc"])),
    }
