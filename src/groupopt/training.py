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
from dataclasses import MISSING, dataclass, field, asdict, replace

import numpy as np

from .blocks import (COUNT, FRACTION, LR, OBJECT, PENALTY, SEED, ConfigError, Domain,
                     check_fields, make_rng, optional, sequence)
from .data import Dataset, SynthSpec, chronological_split, generate, load_libsvm
from .metrics import auc, nonzero_groups, sparsity
from .model import (DENSE, EMBEDDING, ModelConfig, backward, check_ids, forward,
                    init_params, logits, logloss)
from .optimizers import (OPTIMIZER_NAME, SCHEDULE_FIELDS, RegConfig, check_name_reg,
                         make_optimizer, name_reg)
from .pruning import KEEP, magnitude_prune

SCHEMA_VERSION = 1

CONFIG_FIELDS = {"model": Domain("a ModelConfig", lambda v: isinstance(v, ModelConfig)),
                 "data": Domain("a SynthSpec or a file path string",
                                lambda v: isinstance(v, (SynthSpec, str))),
                 "optimizer": OPTIMIZER_NAME, "lr": LR, **SCHEDULE_FIELDS,
                 "reg": Domain("a RegConfig", lambda v: isinstance(v, RegConfig)),
                 "epochs": COUNT, "batch_size": COUNT, "seed": SEED,
                 "output_dir": optional(Domain("a string", lambda v: isinstance(v, str))),
                 "repeats": COUNT}
# a document's data: a SynthSpec's fields, or a libsvm file's path
DATA = Domain("a spec object or a file path", lambda v: isinstance(v, (dict, str)))
# sweep's lambda21 values, checked in turn: a nonempty sequence, then one of
# penalties, so that an empty grid is refused as empty
GRID = sequence(nonempty=True)
GRID_VALUES = sequence(PENALTY)
# prune_baseline's arguments, checked before any training
PRUNE_ARGS = {"target_keep": optional(KEEP), "target_sparsity": optional(FRACTION),
              "fractions": sequence(FRACTION, nonempty=True)}


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
        # each field by name, before any data are read
        check_fields(CONFIG_FIELDS, vars(self), ConfigError)
        check_name_reg(self.optimizer, self.reg)
        # a name that is no block of the model would silently penalize nothing
        unknown = sorted(self.reg.apply_to - {EMBEDDING, DENSE}) if self.reg.apply_to else []
        if unknown:
            raise ConfigError(f"reg: apply_to: no block named {', '.join(map(repr, unknown))}; "
                              f"the model's blocks are {EMBEDDING!r} and {DENSE!r}")
        if self.optimizer == "ftrl":
            # the config reports what runs: l1 on every block, at epsilon 0
            self.reg = name_reg("ftrl", self.reg)
            self.epsilon = 0.0

    def schedule_args(self) -> dict:
        return {name: getattr(self, name) for name in SCHEDULE_FIELDS}

    def to_dict(self) -> dict:
        d = asdict(self)
        d["reg"]["apply_to"] = sorted(self.reg.apply_to) if self.reg.apply_to is not None else None
        d["data"] = self.data if isinstance(self.data, str) else asdict(self.data)
        return d


def config_section(cls, sub: dict, path: str):
    """cls(**sub) for the section of a JSON document at path; a section that
    is not an object, an unknown or missing field or an invalid value is a
    ConfigError that names the path."""
    OBJECT.check(path, sub, ConfigError)
    fields = cls.__dataclass_fields__
    for key in sub:
        if key not in fields:
            raise ConfigError(f"{path}.{key}: unknown field")
    for key, declared in fields.items():
        if key not in sub and declared.default is MISSING and declared.default_factory is MISSING:
            raise ConfigError(f"{path}.{key}: required")
    try:
        return cls(**sub)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def config_from_dict(doc: dict) -> ExperimentConfig:
    """Build a config from a JSON document, rejecting unknown fields.

    data defaults to {}, SynthSpec's defaults; with synthetic data, the
    model's num_features and num_fields default to the spec's vocab and
    num_fields. A libsvm file path sizes nothing: it needs a model that
    gives num_features.
    """
    doc = dict(doc)
    known = set(ExperimentConfig.__dataclass_fields__)
    for key in doc:
        if key not in known:
            raise ConfigError(f"{key}: unknown field")
    data = doc.pop("data", {})
    DATA.check("data", data, ConfigError)
    if isinstance(data, str) and "model" not in doc:
        raise ConfigError("model: required when data is a file path")
    model = doc.pop("model", {})
    if isinstance(data, dict):
        data = config_section(SynthSpec, data, "data")
        if isinstance(model, dict):
            model = {"num_features": data.vocab, "num_fields": data.num_fields, **model}
    model = config_section(ModelConfig, model, "model")
    reg_doc = doc.pop("reg", {})
    if isinstance(reg_doc, dict):
        reg_doc = {"apply_to": frozenset({EMBEDDING}), **reg_doc}
    reg = config_section(RegConfig, reg_doc, "reg")
    return ExperimentConfig(model=model, data=data, reg=reg, **doc)


def load_dataset(config: ExperimentConfig) -> Dataset:
    if isinstance(config.data, SynthSpec):
        dataset = generate(config.data)
    else:
        try:
            ids, labels = load_libsvm(config.data)
        except (OSError, ValueError) as exc:  # an OSError's str names the file again
            reason = getattr(exc, "strerror", None) or exc
            raise ConfigError(f"data: {config.data}: {reason}") from exc
        if ids.shape[1] != config.model.num_fields:
            raise ConfigError(
                f"data: file has {ids.shape[1]} fields, model expects {config.model.num_fields}")
        top = int(ids.max())
        if top >= config.model.num_features:
            raise ConfigError(f"data: feature id {top} is out of range for "
                              f"model.num_features {config.model.num_features}")
        dataset = chronological_split(ids, labels)
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


def require_one_run(config: ExperimentConfig, what: str) -> None:
    """sweep and prune_baseline train each point once, at config.seed; a
    config asking for repeats would report runs that never happen."""
    Domain(f"1, as {what} trains each point once",
           lambda n: n == 1).check("repeats", config.repeats, ConfigError)


def sweep(config: ExperimentConfig, lambda21_grid) -> list[RunReport]:
    """One run per grid value at fixed seed; reg otherwise unchanged."""
    require_one_run(config, "sweep")
    for domain in (GRID, GRID_VALUES):
        domain.check("lambda21 grid", lambda21_grid, ConfigError)
    # every point's config is checked before the first run
    points = [replace(config, reg=replace(config.reg, lambda21=float(lam21)))
              for lam21 in lambda21_grid]
    dataset = load_dataset(config)
    return [train_model(point, dataset=dataset) for point in points]


def prune_baseline(config: ExperimentConfig, target_keep: int | None = None,
                   fractions=(0.0, 0.1, 0.2, 0.3),
                   dataset: Dataset | None = None,
                   target_sparsity: float | None = None) -> dict:
    """The magnitude-pruning baseline (Zhu & Gupta, 2017): train a vanilla
    model; then, at each fine-tune fraction, prune its embedding to the
    target_keep largest-norm rows, train one epoch on the chronologically
    last fraction of the train samples, prune again, and evaluate. Returns a
    report dict with the per-fraction table and the row of best test AUC.

    Give target_keep, or target_sparsity in [0, 1], which keeps
    round(target_sparsity * k) rows of the k ids the train split holds.
    """
    # checked first, so that a bad target or fraction fails before any training
    if (target_keep is None) == (target_sparsity is None):
        raise ConfigError("target: give one of target_keep and target_sparsity, got "
                          + ("neither" if target_keep is None else "both"))
    fractions = tuple(fractions)
    check_fields(PRUNE_ARGS, {"target_keep": target_keep, "target_sparsity": target_sparsity,
                              "fractions": fractions}, ConfigError)
    require_one_run(config, "prune_baseline")
    if dataset is None:
        dataset = load_dataset(config)
    base_report = train_model(config, dataset=dataset)
    if target_keep is None:
        target_keep = round(target_sparsity * len(base_report.features_seen))
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
