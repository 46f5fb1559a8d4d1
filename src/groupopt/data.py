"""Synthetic one-hot CTR data with a known informative support, plus a
libsvm-style text format for small real datasets.

A sample holds one active feature id per field. The generator draws ids
within each field's vocabulary slice, uniformly by default or with a
Zipf-like frequency skew, scores a sample by the sum of a sparse
ground-truth weight vector over its ids, draws the label from the
resulting sigmoid, and optionally flips it with a fixed probability.
The split is chronological: first 90% train, last 10% test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blocks import make_rng, require_integers
from .model import sigmoid


@dataclass
class SynthSpec:
    num_fields: int = 10
    vocab_per_field: int = 500
    informative_fraction: float = 0.1
    num_samples: int = 10_000
    noise: float = 0.0
    skew: float = 0.0
    seed: int = 0

    def __post_init__(self):
        require_integers(self, ("num_fields", "vocab_per_field", "num_samples", "seed"))
        if not 0.0 < self.informative_fraction <= 1.0:
            raise ValueError("informative_fraction must be in (0, 1]")
        if self.noise < 0:
            raise ValueError("noise must be >= 0")
        if self.skew < 0:
            raise ValueError("skew must be >= 0")
        if self.num_fields <= 0 or self.vocab_per_field <= 0 or self.num_samples <= 0:
            raise ValueError("num_fields, vocab_per_field, num_samples must be positive")

    @property
    def vocab(self) -> int:
        return self.num_fields * self.vocab_per_field


@dataclass
class Dataset:
    train_ids: np.ndarray
    train_labels: np.ndarray
    test_ids: np.ndarray
    test_labels: np.ndarray
    support: frozenset

    @property
    def num_train(self) -> int:
        return self.train_labels.size


def generate(spec: SynthSpec) -> Dataset:
    """Draw the dataset for a spec; identical spec gives identical data."""
    rng = make_rng(spec.seed)
    vocab = spec.vocab
    k = math.ceil(spec.informative_fraction * vocab)
    support = rng.choice(vocab, size=k, replace=False)
    weights = np.zeros(vocab)
    weights[support] = rng.uniform(1.0, 3.0, k) * rng.choice([-1.0, 1.0], k)

    offsets = np.arange(spec.num_fields) * spec.vocab_per_field
    if spec.skew == 0:
        ids = rng.integers(0, spec.vocab_per_field, (spec.num_samples, spec.num_fields))
    else:
        # Zipf-like impression frequencies: rank r drawn with p ~ (r+1)^-skew,
        # ranks mapped to ids by a per-field permutation so the informative
        # support lands anywhere in the frequency spectrum.
        probs = (np.arange(spec.vocab_per_field) + 1.0) ** -spec.skew
        probs /= probs.sum()
        cols = []
        for _ in range(spec.num_fields):
            perm = rng.permutation(spec.vocab_per_field)
            ranks = rng.choice(spec.vocab_per_field, size=spec.num_samples, p=probs)
            cols.append(perm[ranks])
        ids = np.stack(cols, axis=1)
    ids = ids + offsets[None, :]
    logits = weights[ids].sum(axis=1)
    labels = (rng.random(spec.num_samples) < sigmoid(logits)).astype(np.int64)
    if spec.noise > 0:
        flips = rng.random(spec.num_samples) < spec.noise
        labels = np.where(flips, 1 - labels, labels)

    n_train = int(0.9 * spec.num_samples)
    return Dataset(
        train_ids=ids[:n_train],
        train_labels=labels[:n_train],
        test_ids=ids[n_train:],
        test_labels=labels[n_train:],
        support=frozenset(int(i) for i in support),
    )


def load_libsvm(path) -> tuple[np.ndarray, np.ndarray]:
    """Parse "label id:1 id:1 ..." lines into (ids, labels) int64 arrays.

    Labels are {0,1} or {-1,+1}, values one-hot only, and every line must
    name as many ids as the first; blank lines are skipped.
    """
    rows, labels = [], []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            tokens = line.split()
            label_tok = tokens[0]
            if label_tok in ("1", "+1"):
                label = 1
            elif label_tok in ("0", "-1"):
                label = 0
            else:
                raise ValueError(f"bad label {label_tok!r} at line {lineno}")
            ids = []
            for tok in tokens[1:]:
                idx, sep, val = tok.partition(":")
                if not sep:
                    raise ValueError(f"malformed pair {tok!r} at line {lineno}")
                try:
                    idx = int(idx)
                    val = float(val)
                except ValueError as exc:
                    raise ValueError(f"malformed pair {tok!r} at line {lineno}") from exc
                if idx < 0:
                    raise ValueError(f"negative index at line {lineno}")
                if val != 1.0:
                    raise ValueError(f"non-one-hot value at line {lineno}")
                ids.append(idx)
            if rows and len(ids) != len(rows[0]):
                raise ValueError(f"{len(ids)} fields at line {lineno}, "
                                 f"the first sample has {len(rows[0])}")
            rows.append(ids)
            labels.append(label)
    if not rows:
        raise ValueError(f"no samples in {path}")
    return np.array(rows, dtype=np.int64), np.array(labels, dtype=np.int64)


def write_libsvm(path, ids: np.ndarray, labels: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row, label in zip(ids, labels):
            pairs = " ".join(f"{i}:1" for i in row)
            fh.write(f"{label} {pairs}\n" if pairs else f"{label}\n")
