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

A step is elementwise arithmetic on a state's arrays around a group-wise prox
(_dual_step, _prox): step_group runs it on a state's own arrays, and
GroupOptimizer.step on views of them chunk by chunk, or on gathered rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .blocks import ParamBlock, require_reals
from .prox import VARIANTS, NonpositiveDiagonalError, group_shrink, soft_threshold

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
        require_reals(self, ("gamma", "beta1", "beta2", "epsilon"))
        for name in ("gamma", "beta1", "beta2"):
            v = getattr(self, name)
            if not 0.0 <= v < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {v}")
        if not 0 <= self.epsilon < math.inf:  # NaN fails too
            raise ValueError(f"epsilon must be >= 0 and finite, got {self.epsilon}")


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
        require_reals(self, ("lambda1", "lambda21", "lambda2"))
        penalties = (self.lambda1, self.lambda21, self.lambda2)
        if not all(0 <= lam < math.inf for lam in penalties):  # NaN fails too
            raise ValueError(f"penalties must be >= 0 and finite, got {penalties}")
        if self.variant not in VARIANTS:
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
    """Per-block state of the dual-averaging step: arrays holds the dual z,
    R_{t-1} as prev_scaled_root and the moments _MOMENTS[kind], and nothing
    else (both moments for kind None, a state any schedule may step); state.z
    etc. read it. t counts the steps; poisoned is set for good once a step
    meets a non-finite value or a prox failure."""

    dim: int
    kind: str | None = None
    t: int = 0
    poisoned: bool = False
    arrays: dict[str, np.ndarray] = field(init=False)
    # properties, not __getattr__, which would slow every attribute read
    z = property(lambda self: self.arrays["z"])
    prev_scaled_root = property(lambda self: self.arrays["prev_scaled_root"])
    m_hat = property(lambda self: self.arrays["m_hat"])
    v_hat = property(lambda self: self.arrays["v_hat"])

    def __post_init__(self):
        moments = ("m_hat", "v_hat") if self.kind is None else _MOMENTS.get(self.kind)
        if moments is None:
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        self.arrays = {name: np.zeros(self.dim) for name in ("z", "prev_scaled_root", *moments)}


# the moment accumulators each schedule advances; a step advances z and
# prev_scaled_root too
_MOMENTS = {"sgd": (), "momentum": ("m_hat",), "adagrad": ("v_hat",),
            "adam": ("m_hat", "v_hat"), "amsgrad": ("m_hat", "v_hat")}


def _check_step(state: OptimizerState, block: ParamBlock, grad, lr: float,
                rows=None, kind: str | None = None) -> np.ndarray:
    """grad as float64 once the state, lr, kind (if given) and grad pass; a
    non-finite grad poisons the state. Given rows, grad holds those groups'
    gradients, a shape _check_rows has checked."""
    grad = np.asarray(grad, dtype=np.float64)
    if state.poisoned:
        raise PoisonedStateError("optimizer state is poisoned")
    if not 0 < lr < math.inf:  # NaN fails too
        raise ValueError(f"lr must be > 0 and finite, got {lr}")
    if kind and state.kind and state.kind != kind:
        raise ValueError(f"a {state.kind} state cannot take a {kind} step")
    if rows is None and (grad.shape != block.values.shape or state.dim != grad.size):
        raise ValueError(f"gradient/block/state dimension mismatch for block {block.name!r}")
    if not np.logical_and.reduce(np.isfinite(grad), axis=None):
        state.poisoned = True
        raise PoisonedStateError(f"non-finite gradient for block {block.name!r}")
    return grad


def _dual_step(a, t, x, grad, schedule, lr, name):
    """Step t of a, the state arrays of coordinates with values x and gradient
    grad, in place: the moments and z, then R_t into prev_scaled_root once z
    is finite; else PoisonedStateError names the block. Returns (m_t, R_t),
    grad or new arrays."""
    kind = schedule.kind
    if kind == "sgd":
        m, scaled_root = grad, np.full(grad.shape, math.sqrt(t) / lr)
    elif kind == "momentum":
        a["m_hat"] *= schedule.gamma
        a["m_hat"] += grad
        m, scaled_root = a["m_hat"].copy(), np.full(grad.shape, 1.0 / lr)
    elif kind == "adagrad":
        inc = grad * grad
        if t == 1:
            inc += schedule.epsilon
        a["v_hat"] += inc
        m, scaled_root = grad, np.sqrt(a["v_hat"])
        scaled_root /= lr
    else:  # adam, amsgrad: b1*m + (1-b1)*g and b2*v + (1-b2)*g*g, left to right
        b1, b2 = schedule.beta1, schedule.beta2
        m_hat, v_hat = a["m_hat"], a["v_hat"]
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
        m = m_hat / (1.0 - b1**t)
    # z + m - (R_t - R_{t-1}) * x in its left-to-right order
    drift = scaled_root - a["prev_scaled_root"]
    drift *= x
    z = a["z"]
    z += m
    z -= drift
    if not np.logical_and.reduce(np.isfinite(z), axis=None):
        raise PoisonedStateError(f"non-finite dual for block {name!r}")
    a["prev_scaled_root"][...] = scaled_root
    return m, scaled_root


def _penalties(reg: RegConfig, block_name: str) -> tuple[float, float, float, str]:
    if reg.applies_to(block_name):
        return reg.lambda1, reg.lambda21, reg.lambda2, reg.variant
    return 0.0, 0.0, 0.0, reg.variant


def _prox(z, scaled_root, block: ParamBlock, reg: RegConfig) -> np.ndarray:
    """The new values of the coordinates of block whose dual is z and root
    R_t scaled_root; a prox failure raises PoisonedStateError naming it."""
    lam1, lam21, lam2, variant = _penalties(reg, block.name)
    s = soft_threshold(z, lam1)
    try:
        return group_shrink(s, scaled_root, block.group_size or 1, lam21, lam2, variant)
    except NonpositiveDiagonalError as exc:
        raise PoisonedStateError(
            f"{exc}: no finite parameters for block {block.name!r}") from exc


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

    The state's arrays are advanced in place, and block.values is replaced
    by a new array. A state of another kind than the schedule's raises
    ValueError.

    Blocks the reg config does not target take the lambda = 0 path, which is
    the plain adaptive update. Targeted ungrouped blocks are penalized too,
    as groups of size 1: lambda21 then shrinks each coordinate on its own.
    A non-finite gradient or dual, or a prox that cannot form finite
    parameters, poisons the state and raises PoisonedStateError naming the
    block; the block's values are then left as they were.
    """
    grad = _check_step(state, block, grad, lr, kind=schedule.kind)
    try:
        m, scaled_root = _dual_step(state.arrays, state.t + 1, block.values, grad,
                                    schedule, lr, block.name)
        state.t += 1
        block.values = _prox(state.arrays["z"], scaled_root, block, reg)
    except PoisonedStateError:
        state.poisoned = True
        raise
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


class GroupOptimizer:
    """Driver holding one OptimizerState per block name; it steps each as step_group does."""

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
        finite, before any state changes. On the adagrad schedule
        (group-adagrad, adagrad, ftrl) the driver then steps copies of only
        those groups from its second step on and scatters them back: a group
        with zero gradient is a fixed point there, as its accumulator gains
        0. This is the lazy update of McMahan et al. (KDD 2013), with the
        bits of the dense step.

        Other steps are dense: step_group's arithmetic on views of the
        state's arrays, STEP_ROWS groups at a time (one chunk if the block is
        ungrouped). Only the new values are table-sized; they replace the
        block's after the last chunk, with the bits of one whole-block step.
        If a step raises, the state is poisoned and the block keeps its values.
        """
        if rows is not None:
            rows = _check_rows(block, grad, rows)
        st = self.states.get(block.name)
        if st is None:
            st = self.states[block.name] = OptimizerState(block.values.size, self.schedule.kind)
        grad = _check_step(st, block, grad, self.lr, rows, self.schedule.kind)
        t, schedule, lr = st.t + 1, self.schedule, self.lr
        try:
            if rows is not None and schedule.kind == "adagrad" and st.t:
                # the rows of the state's arrays and, as x, of the values
                full = {k: a.reshape(-1, block.group_size)
                        for k, a in (*st.arrays.items(), ("x", block.values))}
                # take copies rows as a[rows] would, at a third of its cost
                part = {k: a.take(rows, axis=0).ravel() for k, a in full.items()}
                _, root = _dual_step(part, t, part["x"], grad, schedule, lr, block.name)
                part["x"] = _prox(part["z"], root, block, self.reg)
                for k, a in full.items():
                    a[rows] = part[k].reshape(-1, block.group_size)
            else:
                d, n = (block.group_size, block.num_groups) if block.grouped else (grad.size, 1)
                buf = None if rows is None else np.empty((min(n, STEP_ROWS), d))
                values = np.empty_like(block.values) if n > STEP_ROWS else None
                for lo in range(0, max(n, 1), STEP_ROWS):  # an empty block is one chunk
                    hi = min(lo + STEP_ROWS, n)
                    chunk = slice(lo * d, hi * d)
                    part = {k: a[chunk] for k, a in st.arrays.items()}
                    g = grad[chunk] if rows is None else _groups_grad(grad, rows, lo, hi, buf)
                    _, root = _dual_step(part, t, block.values[chunk], g, schedule, lr,
                                         block.name)
                    new = _prox(part["z"], root, block, self.reg)
                    if values is None:
                        values = new
                    else:
                        values[chunk] = new
                block.values = values
        except PoisonedStateError:
            st.poisoned = True
            raise
        st.t = t


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
