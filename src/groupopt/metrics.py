"""Evaluation metrics: AUC and the feature keep-rate ("sparsity")."""

from __future__ import annotations

import numpy as np

from .blocks import ParamBlock, group_l2_norms


def auc(labels, scores) -> float:
    """Mann-Whitney AUC: (#concordant + 0.5 * #tied) / (#pos * #neg).

    Computed via tie-averaged ranks, which is exact for the pairwise
    definition including tied scores.
    """
    labels = np.asarray(labels)
    scores = np.asarray(scores, dtype=np.float64)
    if labels.shape != scores.shape:
        raise ValueError("labels and scores must have equal length")
    npos = int(np.sum(labels == 1))
    nneg = int(np.sum(labels == 0))
    if npos == 0 or nneg == 0:
        raise ValueError("undefined AUC: need at least one positive and one negative")
    if npos + nneg != labels.size:
        raise ValueError("labels are not all 0 or 1")
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    avg_rank = ends - (counts - 1) / 2.0  # 1-based average rank per distinct score
    ranks = avg_rank[inverse]
    pos_rank_sum = float(np.sum(ranks[labels == 1]))
    return (pos_rank_sum - npos * (npos + 1) / 2.0) / (npos * nneg)


def nonzero_groups(block: ParamBlock) -> int:
    """Number of groups with any exactly nonzero coordinate."""
    return int(np.count_nonzero(group_l2_norms(block) > 0.0))


def sparsity(block: ParamBlock, features_seen) -> float:
    """Fraction of training-seen feature groups whose row is exactly nonzero."""
    if not block.grouped:
        raise ValueError(f"block {block.name!r} is not grouped")
    seen = np.fromiter(features_seen, dtype=np.int64) if not isinstance(
        features_seen, np.ndarray) else features_seen
    if seen.size == 0:
        raise ValueError("features_seen is empty")
    norms = group_l2_norms(block)
    return float(np.count_nonzero(norms[seen] > 0.0)) / seen.size
