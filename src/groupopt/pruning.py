"""Magnitude pruning of grouped blocks: rank rows by norm, keep the top N."""

from __future__ import annotations

import numpy as np

from .blocks import ParamBlock, group_l2_norms, integers

KEEP = integers(0)


def magnitude_prune(block: ParamBlock, keep: int) -> ParamBlock:
    """Zero all but the `keep` largest-norm groups; ties keep the lower index."""
    if not block.grouped:
        raise ValueError(f"block {block.name!r} is not grouped")
    KEEP.check("keep", keep)
    norms = group_l2_norms(block)
    keep = min(keep, norms.size)
    # stable sort on negated norms: equal norms stay in index order
    order = np.argsort(-norms, kind="stable")
    values = block.values.reshape(norms.size, block.group_size).copy()
    values[order[keep:]] = 0.0
    return ParamBlock(block.name, values.ravel(), block.group_size)
