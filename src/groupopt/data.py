"""Synthetic one-hot CTR data with a known informative support, plus a
libsvm-style text format for small real datasets.

A sample holds one active feature id per field. The generator draws ids
within each field's vocabulary slice, uniformly by default or with a
Zipf-like frequency skew, scores a sample by the sum of a sparse
ground-truth weight vector over its ids, draws the label from the
resulting sigmoid, and optionally flips it with a fixed probability.
The split is chronological: first 90% train, last 10% test.

A skewed field's ranks are drawn as Generator.choice(vocab_per_field,
size=n, p=probs) draws them, by the inverse of the same cdf at the same
uniforms, so the ranks and the generator's stream are choice's, bit for
bit. Only the search differs: a guide table over GUIDE equal buckets of
[0, 1) gives the rank of every uniform whose bucket holds no cdf value,
and cdf.searchsorted runs on the rest, about 6% of them at 1,000 ids and
skew 1.3 (Chen and Asau, 1974; Devroye 1986, III.2.4). Besides what it
returns, generate holds at most two vectors of num_samples numbers, the
128-KiB table and the search of the split buckets' uniforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blocks import COUNT, FRACTION, SEED, check_fields, make_rng, reals
from .model import EVAL_ROWS, sigmoid


# buckets of a skewed draw's guide table (see guide_table); a power of two,
# so u * GUIDE and b / GUIDE are exact
GUIDE = 2**14

SPEC_FIELDS = {"num_fields": COUNT, "vocab_per_field": COUNT,
               "informative_fraction": reals(0, 1, "(]"), "num_samples": COUNT,
               "noise": FRACTION, "skew": reals(0, math.inf, "[]"), "seed": SEED}


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
        check_fields(SPEC_FIELDS, vars(self))

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

    n, fields = spec.num_samples, spec.num_fields
    offsets = np.arange(fields) * spec.vocab_per_field
    # one (n, fields) id matrix, filled in place; every other array the
    # draw holds is one column or one row chunk long
    if spec.skew == 0:
        ids = rng.integers(0, spec.vocab_per_field, (n, fields))
        ids += offsets
    else:
        ids = _skewed_ids(rng, spec, offsets)
    # chunk by chunk, rng.random hands out the uniforms one draw of n would
    labels = np.empty(n, dtype=np.int64)
    for lo in range(0, n, EVAL_ROWS):
        logits = np.add.reduce(weights.take(ids[lo:lo + EVAL_ROWS]), axis=1)
        np.less(rng.random(logits.size), sigmoid(logits), out=labels[lo:lo + EVAL_ROWS])
    if spec.noise > 0:
        labels ^= rng.random(n) < spec.noise

    return chronological_split(ids, labels, frozenset(int(i) for i in support))


def _skewed_ids(rng: np.random.Generator, spec: SynthSpec, offsets: np.ndarray) -> np.ndarray:
    """Zipf-like impression frequencies: rank r drawn with p ~ (r+1)^-skew,
    ranks mapped to ids by a per-field permutation so the informative
    support lands anywhere in the frequency spectrum. A field's ranks are
    rng.choice(vocab_per_field, size=n, p=probs)'s, from its cdf and
    uniforms, but searched through the cdf's guide table."""
    probs = (np.arange(spec.vocab_per_field) + 1.0) ** -spec.skew
    probs /= probs.sum()
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    table = guide_table(cdf)
    ids = np.empty((spec.num_samples, spec.num_fields), dtype=np.int64)
    for f in range(spec.num_fields):
        perm = rng.permutation(spec.vocab_per_field)
        # no name holds a field's ranks, which are gone before the next draw
        np.add(perm.take(draw_ranks(cdf, table, rng.random(spec.num_samples))), offsets[f],
               out=ids[:, f])
    return ids


def guide_table(cdf: np.ndarray) -> np.ndarray:
    """The guide table of a cdf over [0, 1) cut into GUIDE equal buckets:
    bucket b holds the rank count(cdf <= u) that every u in [b/GUIDE,
    (b+1)/GUIDE) shares, count(cdf <= b/GUIDE), or -1 where a cdf value in
    the bucket splits it."""
    edges = np.arange(GUIDE + 1) / GUIDE
    table = cdf.searchsorted(edges[:-1], side="right")
    table[table != cdf.searchsorted(edges[1:], side="left")] = -1
    return table


def draw_ranks(cdf: np.ndarray, table: np.ndarray, u: np.ndarray) -> np.ndarray:
    """cdf.searchsorted(u, side="right") for uniforms u in [0, 1), given
    table = guide_table(cdf): a take from the table where u's bucket holds a
    rank, the search only where a cdf value splits it."""
    # u * GUIDE is exact and truncates to u's bucket. take writes each rank
    # over the bucket it has just read; mode="raise" would copy out first
    ranks = np.multiply(u, GUIDE, out=np.empty(u.shape, np.intp), casting="unsafe")
    table.take(ranks, out=ranks, mode="clip")
    split = np.flatnonzero(ranks < 0)
    ranks[split] = cdf.searchsorted(u.take(split), side="right")
    return ranks


def chronological_split(ids: np.ndarray, labels: np.ndarray,
                        support: frozenset = frozenset()) -> Dataset:
    """The first 90% of the samples train, the last 10% test."""
    n_train = int(0.9 * len(labels))
    return Dataset(ids[:n_train], labels[:n_train], ids[n_train:], labels[n_train:], support)


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
        raise ValueError("no samples")
    return np.array(rows, dtype=np.int64), np.array(labels, dtype=np.int64)


def write_libsvm(path, ids: np.ndarray, labels: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row, label in zip(ids, labels):
            pairs = " ".join(f"{i}:1" for i in row)
            fh.write(f"{label} {pairs}\n" if pairs else f"{label}\n")
