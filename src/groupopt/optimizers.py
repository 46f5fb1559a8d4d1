"""Adaptive optimizers with sparse-group-lasso regularization.

The group path maintains, per parameter block, a dual accumulator z and the
scaled stabilized root R_t of the second moment (sqrt(V_t)/alpha plus the
schedule's stabilizer). One step is

    z <- z + m_t - (R_t - R_{t-1}) * x_t
    x <- group_shrink(soft_threshold(z, lambda1), R_t, ...)

so R_t doubles as the prox's cumulative diagonal. This is the only update
rule: every optimizer name runs it. With all penalties zero the dual
telescopes to z_t = m_t - R_t * x_t and the update collapses to the plain
adaptive step x <- x - m_t / R_t, so "adam", "sgd", ... are their group
twins with the penalties off; FTRL-Proximal is the adagrad schedule at
eps = 0 with lambda1 alone. The plain and FTRL updates written out directly
(uncorrected moments with a step-size schedule instead of corrected moments
with a constant step) are test oracles in tests/oracles.py; tests pin the
trajectory equality at 1e-9.

Supported moment schedules:

    sgd        m_t = g_t                      R_t = sqrt(t)/lr
    momentum   m_t = gamma*m + g_t            R_t = 1/lr
    adagrad    m_t = g_t                      R_t = sqrt(sum g^2 + eps)/lr
    adam       m_t = mhat_t/(1-b1^t)          R_t = (sqrt(vhat_t/(1-b2^t)) + eps_t)/lr
    amsgrad    as adam with vhat_t = max(vhat_{t-1}, b2*vhat_{t-1}+(1-b2)g^2)

where mhat/vhat are the usual exponential moving averages, eps folds into
the first adagrad accumulation, and eps_t = eps/sqrt(1-b2^t) is recomputed
from the original eps each step. The amsgrad running max and its bias
correction reuse the adam lines with the max-accumulated second moment.

step_group advances the state in place, elementwise around a group-wise
prox, so GroupOptimizer.step steps any run of groups on views of the state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .blocks import ParamBlock
from .prox import NonpositiveDiagonalError, group_shrink, soft_threshold

# GroupOptimizer.step takes a dense step of a grouped block this many groups
# at a time, so its working memory scales with the chunk, not the table
STEP_ROWS = 1024

SCHEDULE_KINDS = ("sgd", "momentum", "adagrad", "adam", "amsgrad")
GROUP_NAMES = tuple(f"group-{k}" for k in SCHEDULE_KINDS)
OPTIMIZER_NAMES = SCHEDULE_KINDS + ("ftrl",) + GROUP_NAMES


class PoisonedStateError(RuntimeError):
    """A non-finite gradient or dual was seen; the state is permanently invalid."""


@dataclass
class MomentSchedule:
    """First/second moment recipe plus stabilizer for one optimizer family."""

    kind: str = "adam"
    gamma: float = 0.9
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8

    def __post_init__(self):
        if self.kind not in SCHEDULE_KINDS:
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        for name in ("gamma", "beta1", "beta2"):
            v = getattr(self, name)
            if not 0.0 <= v < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {v}")
        if not self.epsilon >= 0:  # NaN fails too
            raise ValueError("epsilon must be >= 0")


@dataclass
class RegConfig:
    """Sparse-group-lasso penalties and which blocks they apply to.

    apply_to=None applies the penalties to every block: a grouped block is
    penalized group by group, an ungrouped block (the model's dense block of
    MLP weights and biases) as groups of size 1, so lambda1 and lambda21
    both act per coordinate there. Otherwise only blocks whose name is
    listed are regularized and all other blocks take the lambda = 0 path.
    """

    lambda1: float = 0.0
    lambda21: float = 0.0
    lambda2: float = 0.0
    variant: str = "practical"
    apply_to: frozenset | None = None

    def __post_init__(self):
        if not (self.lambda1 >= 0 and self.lambda21 >= 0 and self.lambda2 >= 0):
            raise ValueError("penalties must be >= 0")  # NaN included
        if self.variant not in ("practical", "exact"):
            raise ValueError(f"unknown variant {self.variant!r}")
        if isinstance(self.apply_to, str):
            raise ValueError(f"apply_to must be a set of block names, not {self.apply_to!r}")
        if self.apply_to is not None:
            self.apply_to = frozenset(self.apply_to)

    def applies_to(self, block_name: str) -> bool:
        return self.apply_to is None or block_name in self.apply_to


NO_REG = RegConfig()


@dataclass
class OptimizerState:
    """Per-block state of the dual-averaging step: the dual z, the moment
    accumulators m_hat and v_hat, R_{t-1} as prev_scaled_root, and the step
    count t. poisoned is set for good once a step meets a non-finite value
    or a prox failure."""

    dim: int
    t: int = 0
    poisoned: bool = False
    z: np.ndarray = field(init=False)
    m_hat: np.ndarray = field(init=False)
    v_hat: np.ndarray = field(init=False)
    prev_scaled_root: np.ndarray = field(init=False)

    def __post_init__(self):
        self.z = np.zeros(self.dim)
        self.m_hat = np.zeros(self.dim)
        self.v_hat = np.zeros(self.dim)
        self.prev_scaled_root = np.zeros(self.dim)


def _check_step(state: OptimizerState, block: ParamBlock, grad, lr: float,
                rows=None) -> np.ndarray:
    """grad as float64 once the state, lr and grad's shape pass. Given rows,
    grad holds those groups' gradients, a shape _check_rows has checked."""
    grad = np.asarray(grad, dtype=np.float64)
    if state.poisoned:
        raise PoisonedStateError("optimizer state is poisoned")
    if not lr > 0:  # NaN fails too
        raise ValueError("lr must be > 0")
    if rows is None and (grad.shape != block.values.shape or state.dim != grad.size):
        raise ValueError(f"gradient/block/state dimension mismatch for block {block.name!r}")
    return grad


def _check_finite(state: OptimizerState, block: ParamBlock, grad: np.ndarray) -> None:
    """Poison state and raise unless grad is finite."""
    if not np.logical_and.reduce(np.isfinite(grad), axis=None):
        state.poisoned = True
        raise PoisonedStateError(f"non-finite gradient for block {block.name!r}")


def _advance_moments(state, grad, schedule, lr):
    """Advance the accumulators in place and return (m_t, R_t) for step
    t = state.t + 1: grad or new arrays."""
    t = state.t + 1
    kind = schedule.kind
    if kind == "sgd":
        return grad, np.full(grad.shape, math.sqrt(t) / lr)
    if kind == "momentum":
        state.m_hat *= schedule.gamma
        state.m_hat += grad
        return state.m_hat.copy(), np.full(grad.shape, 1.0 / lr)
    if kind == "adagrad":
        inc = grad * grad
        if t == 1:
            inc += schedule.epsilon
        state.v_hat += inc
        scaled_root = np.sqrt(state.v_hat)
        scaled_root /= lr
        return grad, scaled_root
    # adam, amsgrad: b1*m + (1-b1)*g and b2*v + (1-b2)*g*g, left to right
    b1, b2 = schedule.beta1, schedule.beta2
    m_hat, v_hat = state.m_hat, state.v_hat
    m_hat *= b1
    m_hat += (1.0 - b1) * grad
    sq = (1.0 - b2) * grad
    sq *= grad
    if kind == "amsgrad":
        sq += b2 * v_hat
        np.maximum(v_hat, sq, out=v_hat)
    else:
        v_hat *= b2
        v_hat += sq
    bc2 = 1.0 - b2**t
    scaled_root = v_hat / bc2
    np.sqrt(scaled_root, out=scaled_root)
    scaled_root += schedule.epsilon / np.sqrt(bc2)
    scaled_root /= lr
    return m_hat / (1.0 - b1**t), scaled_root


# the moment accumulators each schedule advances; a step advances z and
# prev_scaled_root too, and leaves the others as they are
_MOMENTS = {"sgd": (), "momentum": ("m_hat",), "adagrad": ("v_hat",),
            "adam": ("m_hat", "v_hat"), "amsgrad": ("m_hat", "v_hat")}


def _penalties(reg: RegConfig, block_name: str) -> tuple[float, float, float, str]:
    if reg.applies_to(block_name):
        return reg.lambda1, reg.lambda21, reg.lambda2, reg.variant
    return 0.0, 0.0, 0.0, reg.variant


def step_group(
    state: OptimizerState,
    block: ParamBlock,
    grad: np.ndarray,
    schedule: MomentSchedule,
    lr: float,
    reg: RegConfig = NO_REG,
) -> tuple[np.ndarray, np.ndarray]:
    """One regularized dual-averaging step; returns the step's (m_t, R_t),
    grad itself or new arrays that no later step writes to.

    The state's arrays (z, prev_scaled_root and the schedule's _MOMENTS)
    are advanced in place, and block.values is replaced by a new array.

    Blocks the reg config does not target take the lambda = 0 path, which is
    the plain adaptive update. Targeted ungrouped blocks are penalized too,
    as groups of size 1: lambda21 then shrinks each coordinate on its own.
    A non-finite gradient or dual, or a prox that cannot form finite
    parameters, poisons the state and raises PoisonedStateError naming the
    block; the block's values are then left as they were.
    """
    grad = _check_step(state, block, grad, lr)
    _check_finite(state, block, grad)
    lam1, lam21, lam2, variant = _penalties(reg, block.name)
    group_size = block.group_size if block.grouped else 1

    m, scaled_root = _advance_moments(state, grad, schedule, lr)
    # z + m - (R_t - R_{t-1}) * x in its left-to-right order
    drift = scaled_root - state.prev_scaled_root
    drift *= block.values
    z = state.z
    z += m
    z -= drift
    if not np.logical_and.reduce(np.isfinite(z), axis=None):
        state.poisoned = True
        raise PoisonedStateError(f"non-finite dual for block {block.name!r}")
    state.prev_scaled_root[...] = scaled_root
    state.t += 1

    s = soft_threshold(z, lam1)
    try:
        block.values = group_shrink(s, scaled_root, group_size, lam21, lam2, variant)
    except NonpositiveDiagonalError as exc:
        state.poisoned = True
        raise PoisonedStateError(
            f"{exc}: no finite parameters for block {block.name!r}") from exc
    return m, scaled_root


def _check_rows(block: ParamBlock, grad, rows) -> np.ndarray:
    """rows as intp ids, once grad is known to hold exactly the gradients of
    these groups of block; checked here, as numpy would wrap a negative id
    to another row."""
    rows = np.asarray(rows)
    n = block.num_groups
    if rows.size and not (rows.ndim == 1 and rows.dtype.kind in "iu" and rows[0] >= 0
                          and rows[-1] < n and (rows[1:] > rows[:-1]).all()):
        raise ValueError(f"rows must be strictly increasing integer group ids in [0, {n})")
    if np.shape(grad) != (rows.size * block.group_size,):
        raise ValueError(f"rows: gradient of shape {np.shape(grad)} for {rows.size} "
                         f"groups of {block.group_size}")
    return rows.astype(np.intp, copy=False)


def _groups_grad(grad, rows, lo: int, hi: int, out) -> np.ndarray:
    """The flat dense gradient of groups [lo, hi), given rows (checked by
    _check_rows) and grad, their gradients: those scattered into zeros in
    the first hi - lo rows of out, a (rows, group_size) array."""
    out = out[:hi - lo]
    out.fill(0.0)
    a, b = rows.searchsorted((lo, hi))
    out[rows[a:b] - lo] = np.reshape(grad, (-1, out.shape[1]))[a:b]
    return out.ravel()


def _shallow_copy(obj, **attrs):
    """copy.copy(obj) with attrs replaced, at a quarter of its cost; like
    copy.copy it skips __init__ and its checks."""
    new = object.__new__(type(obj))
    new.__dict__.update(obj.__dict__, **attrs)
    return new


class GroupOptimizer:
    """Driver holding one OptimizerState per block name; every block steps
    through step_group."""

    def __init__(self, schedule: MomentSchedule, lr: float, reg: RegConfig = NO_REG):
        self.schedule = schedule
        self.lr = lr
        self.reg = reg
        self.states: dict[str, OptimizerState] = {}

    def step(self, block: ParamBlock, grad: np.ndarray, rows=None) -> None:
        """Step one block.

        rows, if given, says that grad holds exactly these groups' gradients
        and that every other group's gradient is zero: rows are strictly
        increasing integer ids of groups of a grouped block, and grad holds
        len(rows) * group_size values in their order, as model.backward
        returns the embedding gradient. This is checked, and grad is checked
        finite once (by step_group when the step is one call), before any
        state changes. On the adagrad schedule
        (group-adagrad, adagrad, ftrl) the driver then steps only those
        groups from its second step on, gathered and scattered back: there a
        group with zero gradient is a fixed point, as its accumulator gains
        0, so its root, dual and parameters stay put. Skipping such groups
        is the lazy update of McMahan et al. (KDD 2013) and gives the same
        bits as the dense step.

        The first step and all steps of the other schedules are dense: a
        step_group call per chunk of STEP_ROWS groups (one chunk if the block
        is ungrouped), on views of the chunk's state. No temporary is
        table-sized but the new values, which replace the block's after the
        last chunk; the step acts group by group, so they are the bits of a
        whole-block step. If a step raises, the state is poisoned and the
        block keeps its values.
        """
        if rows is not None:
            rows = _check_rows(block, grad, rows)
        st = self.states.get(block.name)
        if st is None:
            st = self.states[block.name] = OptimizerState(block.values.size)
        grad = _check_step(st, block, grad, self.lr, rows)
        names = ("z", "prev_scaled_root", *_MOMENTS[self.schedule.kind])
        arrays = [getattr(st, name) for name in names] + [block.values]
        if rows is not None and self.schedule.kind == "adagrad" and st.t:
            full = [a.reshape(-1, block.group_size) for a in arrays]
            # take copies rows as a[rows] would, at a third of its cost
            parts = [a.take(rows, axis=0).ravel() for a in full]
            parts[-1] = self._step_part(st, block, grad, names, parts)
            for a, part in zip(full, parts):
                a[rows] = part.reshape(-1, block.group_size)
        else:
            d, n = (block.group_size, block.num_groups) if block.grouped else (grad.size, 1)
            if n > STEP_ROWS:  # else step_group checks the one chunk, all of grad
                _check_finite(st, block, grad)
            buf = None if rows is None else np.empty((min(n, STEP_ROWS), d))
            values = np.empty_like(block.values) if n > STEP_ROWS else None
            for lo in range(0, max(n, 1), STEP_ROWS):  # an empty block is one chunk
                hi = min(lo + STEP_ROWS, n)
                part = slice(lo * d, hi * d)
                chunk = grad[part] if rows is None else _groups_grad(grad, rows, lo, hi, buf)
                new = self._step_part(st, block, chunk, names, [a[part] for a in arrays])
                if values is None:
                    values = new
                else:
                    values[part] = new
            block.values = values
        st.t += 1

    def _step_part(self, st: OptimizerState, block: ParamBlock, grad, names,
                   parts) -> np.ndarray:
        """The new values of the coordinates of block whose gradient is grad,
        stepped on parts: st's arrays named names, then block.values, at
        those coordinates. st.t is the caller's to advance."""
        sub = _shallow_copy(st, dim=grad.size)
        sub.__dict__.update(zip(names, parts))  # cheaper than as keywords
        sub_block = _shallow_copy(block, values=parts[-1])
        try:
            step_group(sub, sub_block, grad, self.schedule, self.lr, self.reg)
        finally:
            st.poisoned = sub.poisoned
        return sub_block.values


def name_reg(name: str, reg: RegConfig) -> RegConfig:
    """The penalties the optimizer name runs with, given reg: all of reg for
    "group-adam" etc., none for "adam", "sgd", ..., and reg.lambda1 alone,
    on every block, for "ftrl"."""
    if name.startswith("group-"):
        return reg
    if name == "ftrl":
        return RegConfig(lambda1=reg.lambda1)
    return NO_REG


def check_name_reg(name: str, reg: RegConfig) -> None:
    """Raise ValueError if reg sets a penalty that the optimizer name does
    not apply (see name_reg): a run would report it, yet never use it."""
    used = name_reg(name, reg)
    unused = [k for k in ("lambda1", "lambda21", "lambda2")
              if getattr(reg, k) != getattr(used, k)]
    if unused:
        raise ValueError(f"{name!r} applies no {', '.join(unused)}; "
                         f"set it to 0 or use a group- optimizer")


def make_optimizer(name: str, lr: float, reg: RegConfig = NO_REG,
                   schedule_args: dict | None = None) -> GroupOptimizer:
    """Build the driver for a family-prefixed name; every name runs
    step_group, with the penalties name_reg(name, reg).

    "group-adam" etc. take the schedule from schedule_args; "adam", "sgd",
    ... are their group twins with every penalty off; "ftrl" is
    FTRL-Proximal, the adagrad schedule at epsilon 0 (schedule_args are not
    used) with l1 on every block.
    """
    reg = name_reg(name, reg)
    if name == "ftrl":
        return GroupOptimizer(MomentSchedule(kind="adagrad", epsilon=0.0), lr, reg)
    kind = name.removeprefix("group-")
    return GroupOptimizer(MomentSchedule(kind=kind, **(schedule_args or {})), lr, reg)
