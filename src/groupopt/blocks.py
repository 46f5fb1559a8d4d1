"""Grouped parameter vectors, the pinned RNG and the checks on input values.

Everything downstream works on flat fp64 vectors. A block is either
ungrouped (dense weights, biases) or split into contiguous fixed-size
groups (one embedding row per feature id); group g owns the slice
[g * group_size, (g + 1) * group_size).
"""

from __future__ import annotations

import ctypes
import numbers
from dataclasses import dataclass

import numpy as np

# np.count_nonzero's C function: on 8 bools, the Python wrapper and dispatch
# numpy puts around it take two thirds of its ~0.3 us (numpy 2.4, x86-64);
# clip, the ufunc behind np.clip: min(max(x, lo), hi) in one call, NaN kept
try:
    from numpy._core.multiarray import count_nonzero
    from numpy._core.umath import clip
except ImportError:  # numpy < 2 names the modules numpy.core
    from numpy.core.multiarray import count_nonzero
    from numpy.core.umath import clip

# glibc's malloc maps a block of at least the mmap threshold afresh (faulted
# in page by page, unmapped on free) and hands free heap above the trim
# threshold back to the system. Both start at 128 KiB and rise with the
# largest mapped block freed so far, so whether a table-sized array
# (640,000 B for a 10,000 x 8 table) or an evaluation chunk fault on every
# call depended on what the process had freed before. Fixed thresholds keep
# such temporaries on the heap in every run; larger blocks are still mapped.
MMAP_THRESHOLD = 8 << 20
TRIM_THRESHOLD = 2 * MMAP_THRESHOLD
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # glibc's mallopt parameters


def pin_malloc_thresholds() -> bool:
    """Fix glibc's mmap and trim thresholds; False where malloc is not glibc's."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return False
    return bool(mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD)
                and mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD))


def make_rng(seed: int) -> np.random.Generator:
    """Deterministic generator, pinned to PCG64.

    Equal seeds produce bitwise-equal streams; every random draw in the
    package goes through this constructor.
    """
    return np.random.Generator(np.random.PCG64(seed))


class ConfigError(ValueError):
    """Invalid experiment configuration; message includes the field path."""


def is_integer(value) -> bool:
    """An int or a numpy integer; never a bool, nor a float such as 4.0."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def is_real(value) -> bool:
    """A real number; never a bool (json's true would otherwise read as 1)."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def require_integers(obj, names, error=ValueError) -> None:
    """Raise error unless each attribute of obj in names is_integer."""
    for name in names:
        value = getattr(obj, name)
        if not is_integer(value):
            raise error(f"{name}: must be an integer, got {value!r}")


def require_reals(obj, names, error=ValueError) -> None:
    """Raise error unless each attribute of obj in names is_real."""
    for name in names:
        value = getattr(obj, name)
        if not is_real(value):
            raise error(f"{name} must be a real number, got {value!r}")


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
            if not is_integer(self.group_size) or self.group_size <= 0:
                raise ValueError(f"block {self.name!r}: group_size must be a positive integer")
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

    def copy(self) -> "ParamBlock":
        return ParamBlock(self.name, self.values.copy(), self.group_size)


def group_l2_norms(block: ParamBlock) -> np.ndarray:
    """Euclidean norm of each group slice, in group order."""
    if not block.grouped:
        raise ValueError(f"block {block.name!r} is not grouped")
    v = block.values.reshape(block.num_groups, block.group_size)
    return np.sqrt(np.einsum("ij,ij->i", v, v))

