"""Grouped parameter vectors, the pinned RNG and the domains of input values.

Everything downstream works on flat fp64 vectors. A block is either
ungrouped (dense weights, biases) or split into contiguous fixed-size
groups (one embedding row per feature id); group g owns the slice
[g * group_size, (g + 1) * group_size).
"""

from __future__ import annotations

import ctypes
import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np

# np.count_nonzero's C function: on 8 bools, the Python wrapper and dispatch
# numpy puts around it take two thirds of its ~0.3 us (numpy 2.4, x86-64);
# c_einsum, the C function np.einsum calls unoptimized (its default), with
# its bits and, like it, no overflow warning, without its ~1 us wrapper;
# clip, the ufunc behind np.clip: min(max(x, lo), hi) in one call, NaN kept
try:
    from numpy._core.multiarray import c_einsum, count_nonzero
    from numpy._core.umath import clip
except ImportError:  # numpy < 2 names the modules numpy.core
    from numpy.core.multiarray import c_einsum, count_nonzero
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


class Domain:
    """The values a field accepts, and the words that name them: check
    refuses any other value as "name: must be <words>, got <value!r>".
    integers, reals, names and sequence build the usual domains; any other
    is its words and a test."""

    def __init__(self, words: str, accepts, plural: str | None = None):
        self.words, self.accepts, self.plural = words, accepts, plural

    def check(self, name: str, value, error=ValueError) -> None:
        if not self.accepts(value):
            raise error(f"{name}: must be {self.words}, got {value!r}")


def integers(lo: int) -> Domain:
    """The ints and numpy integers >= lo; never a bool, nor a float such as 4.0."""
    return Domain(f"an integer >= {lo}", lambda v: isinstance(v, (int, np.integer))
                  and not isinstance(v, bool) and v >= lo, f"integers >= {lo}")


def reals(lo: float, hi: float, ends: str = "[)") -> Domain:
    """The real numbers from lo to hi, each end closed or open as ends says
    in interval notation: "[)" holds lo and not hi. NaN is in none, an
    infinite bound only at a closed end, and a bool (json's true would read
    as 1) in none."""
    above = operator.le if ends[0] == "[" else operator.lt
    below = operator.le if ends[1] == "]" else operator.lt
    interval = f"{ends[0]}{lo:g}, {hi:g}{ends[1]}"
    return Domain(f"a real number in {interval}",
                  lambda v: isinstance(v, numbers.Real) and not isinstance(v, bool)
                  and above(lo, v) and below(v, hi), f"real numbers in {interval}")


def names(*options: str) -> Domain:
    """One of a fixed set of names."""
    return Domain("one of " + ", ".join(map(repr, options)),
                  lambda v: isinstance(v, str) and v in options)


def sequence(of: Domain | None = None, nonempty: bool = False) -> Domain:
    """Any sized iterable, of values in of where given; nonempty where
    asked. An iterator has no size: a check would use up its values."""
    def accepts(v) -> bool:
        try:
            size = len(v)
        except TypeError:
            return False
        return (size > 0 or not nonempty) and (of is None or all(map(of.accepts, v)))
    words = "a nonempty sequence" if nonempty else "a sequence"
    return Domain(f"{words} of {of.plural}" if of else words, accepts)


def optional(domain: Domain) -> Domain:
    """domain's values, and None."""
    return Domain(f"{domain.words} or None", lambda v: v is None or domain.accepts(v))


def check_fields(table: dict, values: dict, error=ValueError) -> None:
    """Check values[name] against each domain of table, name -> Domain, in
    the table's order; the first value outside its domain raises error."""
    for name, domain in table.items():
        domain.check(name, values[name], error)


# the domains that fields of several classes share
SEED = integers(0)
COUNT = integers(1)
LR = reals(0, math.inf, "()")
PENALTY = reals(0, math.inf, "[)")  # lambda1, lambda21, lambda2, and epsilon
BETA = reals(0, 1, "[)")  # the moment decays beta1, beta2 and gamma
FRACTION = reals(0, 1, "[]")
OBJECT = Domain("an object", lambda v: isinstance(v, dict))  # a JSON object


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
            COUNT.check(f"block {self.name!r}: group_size", self.group_size)
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
    return np.sqrt(c_einsum("ij,ij->i", v, v))

