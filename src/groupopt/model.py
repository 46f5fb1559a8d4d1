"""Desk-scale CTR model: embedding lookup, ReLU MLP, sigmoid output.

One sample is a list of feature ids, one per field; each id selects an
embedding row, rows are concatenated and fed through fully connected ReLU
layers to a single logit. Forward and backward are hand-written numpy; the
embedding table is the only grouped block (one group per feature row) and is
the target of the sparse-group penalties during training. A batch reads few
of the table's rows, so backward returns the embedding gradient
row-compact: the gradients of the batch's rows only, never a table-shaped
array.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict
from functools import cached_property

import numpy as np

from .blocks import ParamBlock, make_rng

EMBEDDING = "embedding"


@dataclass
class ModelConfig:
    num_features: int
    embed_dim: int = 16
    num_fields: int = 10
    hidden_dims: tuple = (64, 32)
    seed: int = 0

    def __post_init__(self):
        self.hidden_dims = tuple(int(h) for h in self.hidden_dims)
        if self.num_features <= 0 or self.embed_dim <= 0 or self.num_fields <= 0:
            raise ValueError("num_features, embed_dim, num_fields must be positive")
        if any(h <= 0 for h in self.hidden_dims):
            raise ValueError("hidden dims must be positive")


def _layer_dims(config: ModelConfig) -> list[tuple[int, int]]:
    dims = [config.num_fields * config.embed_dim, *config.hidden_dims, 1]
    return list(zip(dims[:-1], dims[1:]))


def init_params(config: ModelConfig) -> dict[str, ParamBlock]:
    """Embeddings uniform in (-0.01, 0.01); dense layers Kaiming; zero biases."""
    rng = make_rng(config.seed)
    blocks: dict[str, ParamBlock] = {}
    emb = rng.uniform(-0.01, 0.01, config.num_features * config.embed_dim)
    blocks[EMBEDDING] = ParamBlock(EMBEDDING, emb, group_size=config.embed_dim)
    for i, (fan_in, fan_out) in enumerate(_layer_dims(config)):
        w = rng.normal(0.0, np.sqrt(2.0 / fan_in), fan_in * fan_out)
        blocks[f"dense{i}_w"] = ParamBlock(f"dense{i}_w", w)
        blocks[f"dense{i}_b"] = ParamBlock(f"dense{i}_b", np.zeros(fan_out))
    return blocks


def sigmoid(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def logloss(logits: np.ndarray, labels: np.ndarray) -> float:
    """Mean logistic loss, computed stably from logits."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    return float(np.mean(np.logaddexp(0.0, logits) - labels * logits))


@dataclass
class ForwardCache:
    ids: np.ndarray
    layer_inputs: list
    pre_activations: list
    logits: np.ndarray
    config: ModelConfig

    @cached_property
    def _unique_ids(self) -> tuple[np.ndarray, np.ndarray]:
        """(rows, inverse): the sorted unique ids of the batch, and for each
        entry of ids.ravel() its index in rows. np.unique with
        return_inverse, without its overhead: one sort and a neighbour mask.
        Computed on first use, so forward and evaluation do not pay for it."""
        flat = self.ids.ravel()
        order = flat.argsort()
        ordered = flat[order]
        first = np.empty(flat.size, dtype=bool)
        first[0] = True
        np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
        # the row index of each sorted id: the number of firsts before it
        run = first.astype(np.intp)
        run[0] = 0
        np.cumsum(run, out=run)
        inverse = np.empty(flat.size, dtype=np.intp)
        inverse[order] = run
        return ordered[first], inverse

    @property
    def rows(self) -> np.ndarray:
        """The embedding rows the batch read, sorted, each once: the groups
        whose gradients backward returns."""
        return self._unique_ids[0]


def forward(blocks: dict, ids: np.ndarray, config: ModelConfig) -> ForwardCache:
    """Batch forward pass. ids has shape (batch, num_fields)."""
    ids = np.asarray(ids)
    if ids.ndim == 1:
        ids = ids[None, :]
    if ids.shape[1] != config.num_fields:
        raise ValueError(f"expected {config.num_fields} fields, got {ids.shape[1]}")
    if ids.min() < 0 or ids.max() >= config.num_features:
        raise ValueError("feature id out of range")
    table = blocks[EMBEDDING].values.reshape(config.num_features, config.embed_dim)
    h = table[ids].reshape(ids.shape[0], -1)

    layer_inputs = []
    pre_activations = []
    dims = _layer_dims(config)
    last = len(dims) - 1
    for i, (fan_in, fan_out) in enumerate(dims):
        w = blocks[f"dense{i}_w"].values.reshape(fan_in, fan_out)
        b = blocks[f"dense{i}_b"].values
        layer_inputs.append(h)
        pre = h @ w + b
        pre_activations.append(pre)
        h = pre if i == last else np.maximum(pre, 0.0)
    logits = h[:, 0]
    return ForwardCache(ids, layer_inputs, pre_activations, logits, config)


def backward(cache: ForwardCache, labels: np.ndarray, blocks: dict) -> dict[str, np.ndarray]:
    """Exact gradients of the mean logistic loss for every block.

    The embedding gradient is row-compact: the flat k x embed_dim gradients
    of the k rows in cache.rows, in that order; every other row's gradient
    is zero. block.scatter_rows(grad, cache.rows) gives the table-shaped
    form. Each row sums its fields' gradients in batch order from 0.0, as
    np.add.at into the table would, so the scattered form has its bits.
    """
    labels = np.asarray(labels, dtype=np.float64)
    batch = cache.logits.size
    if labels.size != batch:
        raise ValueError("labels do not match cached batch")
    config = cache.config
    grads: dict[str, np.ndarray] = {}

    delta = ((sigmoid(cache.logits) - labels) / batch)[:, None]
    dims = _layer_dims(config)
    for i in range(len(dims) - 1, -1, -1):
        fan_in, fan_out = dims[i]
        if i != len(dims) - 1:
            delta = delta * (cache.pre_activations[i] > 0.0)
        h = cache.layer_inputs[i]
        grads[f"dense{i}_w"] = (h.T @ delta).ravel()
        grads[f"dense{i}_b"] = delta.sum(axis=0)
        w = blocks[f"dense{i}_w"].values.reshape(fan_in, fan_out)
        delta = delta @ w.T

    # delta now holds d(loss)/d(concatenated embeddings); coordinate j of
    # the field slice with id inverse[i] goes to bin inverse[i]*d + j.
    # bincount adds its weights in input order (np.add.reduceat does not)
    rows, inverse = cache._unique_ids
    d = config.embed_dim
    bins = (inverse * d)[:, None] + np.arange(d)
    grads[EMBEDDING] = np.bincount(bins.ravel(), weights=delta.ravel(),
                                   minlength=rows.size * d)
    return grads


def predict_proba(blocks: dict, ids: np.ndarray, config: ModelConfig) -> np.ndarray:
    return sigmoid(forward(blocks, ids, config).logits)


def save_checkpoint(path, config: ModelConfig, blocks: dict) -> None:
    doc = {
        "config": asdict(config),
        "blocks": {
            name: {"group_size": b.group_size, "values": b.values.tolist()}
            for name, b in blocks.items()
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def load_checkpoint(path) -> tuple[ModelConfig, dict]:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    cfg = doc["config"]
    cfg["hidden_dims"] = tuple(cfg["hidden_dims"])
    config = ModelConfig(**cfg)
    blocks = {
        name: ParamBlock(name, np.array(spec["values"]), spec["group_size"])
        for name, spec in doc["blocks"].items()
    }
    return config, blocks
