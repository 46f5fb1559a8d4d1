"""Grouped parameter vectors and the pinned RNG.

Everything downstream works on flat fp64 vectors. A block is either
ungrouped (dense weights, biases) or split into contiguous fixed-size
groups (one embedding row per feature id); group g owns the slice
[g * group_size, (g + 1) * group_size).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def make_rng(seed: int) -> np.random.Generator:
    """Deterministic generator, pinned to PCG64.

    Equal seeds produce bitwise-equal streams; every random draw in the
    package goes through this constructor.
    """
    return np.random.Generator(np.random.PCG64(seed))


def is_integer(value) -> bool:
    """An int or a numpy integer; never a bool, nor a float such as 4.0."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def require_integers(obj, names, error=ValueError) -> None:
    """Raise error unless each attribute of obj in names is_integer."""
    for name in names:
        value = getattr(obj, name)
        if not is_integer(value):
            raise error(f"{name}: must be an integer, got {value!r}")


@dataclass
class ParamBlock:
    """A named fp64 parameter vector, optionally grouped."""

    name: str
    values: np.ndarray
    group_size: int | None = None

    def __post_init__(self):
        self.values = np.ascontiguousarray(self.values, dtype=np.float64)
        if self.values.ndim != 1:
            self.values = self.values.ravel()
        if not np.logical_and.reduce(np.isfinite(self.values), axis=None):
            raise ValueError(f"block {self.name!r}: values must be finite")
        if self.group_size is not None:
            if self.group_size <= 0:
                raise ValueError(f"block {self.name!r}: group_size must be positive")
            if self.values.size % self.group_size != 0:
                raise ValueError(
                    f"block {self.name!r}: size {self.values.size} is not a "
                    f"multiple of group_size {self.group_size}"
                )

    @property
    def grouped(self) -> bool:
        return self.group_size is not None

    @property
    def num_groups(self) -> int:
        if self.group_size is None:
            raise ValueError(f"block {self.name!r} is not grouped")
        return self.values.size // self.group_size

    def scatter_rows(self, values, rows) -> np.ndarray:
        """A flat zero vector of the block's size whose groups rows (distinct
        ids in [0, num_groups)) hold values, len(rows) * group_size values
        in the order of rows."""
        out = np.zeros((self.num_groups, self.group_size))
        out[rows] = np.reshape(values, (-1, self.group_size))
        return out.ravel()

    def copy(self) -> "ParamBlock":
        return ParamBlock(self.name, self.values.copy(), self.group_size)


def group_l2_norms(block: ParamBlock) -> np.ndarray:
    """Euclidean norm of each group slice, in group order."""
    if not block.grouped:
        raise ValueError(f"block {block.name!r} is not grouped")
    v = block.values.reshape(block.num_groups, block.group_size)
    return np.sqrt(np.einsum("ij,ij->i", v, v))

