"""Desk-scale CTR model: embedding lookup, ReLU MLP, sigmoid output.

One sample is a list of feature ids, one per field; each id selects an
embedding row, rows are concatenated and fed through fully connected ReLU
layers to a single logit. Forward and backward are hand-written numpy; the
embedding table is the only grouped block (one group per feature row) and is
the target of the sparse-group penalties during training. A batch reads few
of the table's rows, so backward returns the embedding gradient
row-compact: the gradients of the batch's rows only, never a table-shaped
array. The MLP is one ungrouped block, dense: every layer's weights and
then its biases, flat, layer after layer (w0, b0, w1, b1, ...). Forward's
cache keeps the layer views it read, and backward writes each layer's
gradient through views of one new flat vector in that layout.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict
from functools import cached_property

import numpy as np

from .blocks import COUNT, Domain, ParamBlock, check_fields, make_rng, sequence

EMBEDDING = "embedding"
DENSE = "dense"

# Rows per forward call when logits() scores a split (its last call takes up
# to EVAL_ROWS // 8 - 1 more): evaluation keeps one chunk's activations,
# never the split's.
EVAL_ROWS = 1024


MODEL_FIELDS = {"num_features": COUNT, "embed_dim": COUNT, "num_fields": COUNT,
                "hidden_dims": sequence(COUNT)}

# take would read bool ids as rows 0 and 1, and fail on floats
ID_DTYPE = Domain("an integer dtype", lambda dtype: dtype.kind in "iu")


@dataclass
class ModelConfig:
    num_features: int
    embed_dim: int = 16
    num_fields: int = 10
    hidden_dims: tuple = (64, 32)

    def __post_init__(self):
        check_fields(MODEL_FIELDS, vars(self))
        self.hidden_dims = tuple(int(h) for h in self.hidden_dims)


def _layer_dims(config: ModelConfig) -> list[tuple[int, int]]:
    dims = [config.num_fields * config.embed_dim, *config.hidden_dims, 1]
    return list(zip(dims[:-1], dims[1:]))


def _layers(dense: np.ndarray, config: ModelConfig) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each layer's (weights, biases) as views of the flat dense vector:
    weights (fan_in, fan_out), biases (fan_out,)."""
    layers = []
    lo = 0
    for fan_in, fan_out in _layer_dims(config):
        mid = lo + fan_in * fan_out
        layers.append((dense[lo:mid].reshape(fan_in, fan_out), dense[mid:mid + fan_out]))
        lo = mid + fan_out
    return layers


def init_params(config: ModelConfig, seed: int = 0) -> dict[str, ParamBlock]:
    """Embeddings uniform in (-0.01, 0.01); dense layers Kaiming; zero biases;
    drawn from make_rng(seed)."""
    rng = make_rng(seed)
    emb = rng.uniform(-0.01, 0.01, config.num_features * config.embed_dim)
    parts = []
    for fan_in, fan_out in _layer_dims(config):
        parts.append(rng.normal(0.0, np.sqrt(2.0 / fan_in), fan_in * fan_out))
        parts.append(np.zeros(fan_out))
    return {EMBEDDING: ParamBlock(EMBEDDING, emb, group_size=config.embed_dim),
            DENSE: ParamBlock(DENSE, np.concatenate(parts))}


def sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) for x >= 0 and exp(x) / (1 + exp(x)) elsewhere,
    so that no exp overflows: e = exp(-|x|) is each branch's exponential,
    taken as min(x, -x), which unlike -abs(x) keeps the sign of a NaN. Both
    branches divide by the one 1 + e; the numerator is 1 where x >= 0."""
    x = np.asarray(x, dtype=np.float64)
    e = np.negative(x)
    np.minimum(x, e, out=e)
    np.exp(e, out=e)
    denom = e + 1.0
    np.copyto(e, 1.0, where=x >= 0)
    e /= denom
    return e


def logloss(logits: np.ndarray, labels: np.ndarray) -> float:
    """Mean logistic loss, computed stably from logits."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    return float(np.mean(np.logaddexp(0.0, logits) - labels * logits))


@dataclass
class ForwardCache:
    """What backward needs of a forward pass: the ids, each layer's
    (weights, biases) views of the dense block as forward read them, each
    layer's input and pre-activation, and the logits."""

    ids: np.ndarray
    layers: list
    layer_inputs: list
    pre_activations: list
    logits: np.ndarray
    config: ModelConfig

    @cached_property
    def _unique_ids(self) -> tuple[np.ndarray, np.ndarray]:
        """(rows, inverse): the sorted unique ids of the batch, and for each
        entry of ids.ravel() its index in rows. np.unique with
        return_inverse, without its overhead: one sort, a neighbour mask and
        two scatters, none of them table-sized (a binary search of each id
        among the rows mispredicts its branches on every fresh batch).
        Computed on first use, so forward and evaluation do not pay for it."""
        flat = self.ids.ravel()
        order = flat.argsort()
        ordered = flat[order]
        # new[i]: ordered[i] starts a run of equal ids; the number of run
        # starts up to i, the first not counted, is its row index
        new = np.empty(flat.size, dtype=bool)
        new[0] = False
        np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
        run = np.add.accumulate(new, dtype=np.intp)
        inverse = np.empty(flat.size, dtype=np.intp)
        inverse[order] = run
        # each id lands on its row, as ordered[run starts] would select it
        rows = np.empty(run[-1] + 1, dtype=flat.dtype)
        rows[run] = ordered
        return rows, inverse

    @property
    def rows(self) -> np.ndarray:
        """The embedding rows the batch read, sorted, each once: the groups
        whose gradients backward returns."""
        return self._unique_ids[0]


def check_ids(ids: np.ndarray, config: ModelConfig) -> None:
    """Raise ValueError unless ids are of an integer dtype and every id (of
    a nonempty array) names a row of the embedding table."""
    ID_DTYPE.check("ids", ids.dtype)
    # the ufuncs' reductions, without ndarray.min's Python wrapper
    if (np.minimum.reduce(ids, axis=None) < 0
            or np.maximum.reduce(ids, axis=None) >= config.num_features):
        raise ValueError("feature id out of range")


def forward(blocks: dict, ids: np.ndarray, config: ModelConfig) -> ForwardCache:
    """Batch forward pass. ids has shape (batch, num_fields)."""
    ids = np.asarray(ids)
    if ids.ndim == 1:
        ids = ids[None, :]
    if ids.shape[1] != config.num_fields:
        raise ValueError(f"expected {config.num_fields} fields, got {ids.shape[1]}")
    check_ids(ids, config)
    table = blocks[EMBEDDING].values.reshape(config.num_features, config.embed_dim)
    # take copies rows as table[ids] would, at a third of its cost
    h = table.take(ids, axis=0).reshape(ids.shape[0], -1)

    layer_inputs = []
    pre_activations = []
    layers = _layers(blocks[DENSE].values, config)
    last = len(layers) - 1
    for i, (w, b) in enumerate(layers):
        layer_inputs.append(h)
        pre = h @ w  # then + b in place: the bits of h @ w + b
        pre += b
        pre_activations.append(pre)
        h = pre if i == last else np.maximum(pre, 0.0)
    return ForwardCache(ids, layers, layer_inputs, pre_activations, h[:, 0], config)


def backward(cache: ForwardCache, labels: np.ndarray, blocks: dict) -> dict[str, np.ndarray]:
    """Exact gradients of the mean logistic loss for every block, at the
    parameters forward read; blocks are the blocks forward was given.

    The dense gradient is one new flat vector in the dense block's layout;
    each layer's weight and bias gradients are written into views of it.

    The embedding gradient is row-compact: the flat k x embed_dim gradients
    of the k rows in cache.rows, in that order; every other row's gradient
    is zero. GroupOptimizer.step takes it with rows=cache.rows and never
    builds the table-shaped form. Each row sums its fields' gradients in
    batch order from 0.0, as np.add.at into the table would, so that form,
    scattered into zeros, has its bits.
    """
    labels = np.asarray(labels, dtype=np.float64)
    batch = cache.logits.size
    if labels.size != batch:
        raise ValueError("labels do not match cached batch")
    config = cache.config

    delta = sigmoid(cache.logits)
    delta -= labels
    delta /= batch
    delta = delta[:, None]
    dense = np.empty(blocks[DENSE].values.size)
    hi = dense.size  # the layers' gradients fill dense from its end
    last = len(cache.layers) - 1
    for i in range(last, -1, -1):
        w, b = cache.layers[i]
        if i != last:
            delta *= cache.pre_activations[i] > 0.0
        mid = hi - b.size
        lo = mid - w.size
        np.add.reduce(delta, axis=0, out=dense[mid:hi])  # delta.sum(axis=0)
        np.matmul(cache.layer_inputs[i].T, delta, out=dense[lo:mid].reshape(w.shape))
        delta = delta @ w.T
        hi = lo

    # delta now holds d(loss)/d(concatenated embeddings); coordinate j of
    # the field slice with id inverse[i] goes to bin inverse[i]*d + j.
    # bincount adds its weights in input order (np.add.reduceat does not)
    rows, inverse = cache._unique_ids
    d = config.embed_dim
    bins = (inverse * d)[:, None] + np.arange(d)
    return {EMBEDDING: np.bincount(bins.ravel(), weights=delta.ravel(),
                                   minlength=rows.size * d),
            DENSE: dense}


def logits(blocks: dict, ids: np.ndarray, config: ModelConfig) -> np.ndarray:
    """forward(blocks, ids, config).logits, computed EVAL_ROWS rows at a time.

    Chunks start at multiples of EVAL_ROWS, and the last one also takes a
    tail shorter than EVAL_ROWS // 8. A matrix product may sum a row in
    another order when the row sits in a tiny call (one row goes to a
    vector product) or near the end of a call whose row count is not a
    multiple of the kernel's few-row blocks; aligned chunks of hundreds of
    rows avoid both. One call that a multithreaded BLAS splits may still
    differ from the chunks in the last place: tests/test_model.py states
    the tolerance.
    """
    ids = np.asarray(ids)
    if ids.ndim == 1:
        ids = ids[None, :]
    n = ids.shape[0]
    out = np.empty(n)
    lo = 0
    while lo < n:
        hi = lo + EVAL_ROWS
        if n - hi < EVAL_ROWS // 8:
            hi = n
        out[lo:hi] = forward(blocks, ids[lo:hi], config).logits
        lo = hi
    return out


def predict_proba(blocks: dict, ids: np.ndarray, config: ModelConfig) -> np.ndarray:
    return sigmoid(logits(blocks, ids, config))


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


def _entry(doc: dict, key: str, where: str):
    """doc[key]; a file without it is refused with ValueError naming it."""
    if key not in doc:
        raise ValueError(f"{where}: missing key {key!r}")
    return doc[key]


def load_checkpoint(path) -> tuple[ModelConfig, dict]:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    cfg = _entry(doc, "config", "checkpoint")
    _entry(cfg, "hidden_dims", "checkpoint config")  # not ModelConfig's default
    try:  # a field ModelConfig lacks, such as the seed older files carry, or a bad value
        config = ModelConfig(**cfg)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"checkpoint config: {exc}") from None
    blocks = {}
    for name, spec in _entry(doc, "blocks", "checkpoint").items():
        where = f"checkpoint block {name!r}"
        blocks[name] = ParamBlock(name, np.array(_entry(spec, "values", where)),
                                  _entry(spec, "group_size", where))
    # a file of another layout would load, then fail in forward or train wrong
    layout, found = ({name: (b.values.size, b.group_size) for name, b in bs.items()}
                     for bs in (init_params(config), blocks))
    for name in sorted(layout.keys() | found.keys()):
        if found.get(name) != layout.get(name):
            raise ValueError(f"checkpoint block {name!r}: (size, group_size) is "
                             f"{found.get(name)}, the model's is {layout.get(name)}")
    return config, blocks
