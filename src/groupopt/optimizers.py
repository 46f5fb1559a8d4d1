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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .blocks import ParamBlock
from .prox import NonpositiveDiagonalError, group_shrink, soft_threshold

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
    penalized group by group, an ungrouped block (dense weights, biases) as
    groups of size 1, so lambda1 and lambda21 both act per coordinate there.
    Otherwise only blocks whose name is listed are regularized and all other
    blocks take the lambda = 0 path.
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


def _check_step(state: OptimizerState, block: ParamBlock, grad, lr: float) -> np.ndarray:
    grad = np.asarray(grad, dtype=np.float64)
    if state.poisoned:
        raise PoisonedStateError("optimizer state is poisoned")
    if not lr > 0:  # NaN fails too
        raise ValueError("lr must be > 0")
    if grad.shape != block.values.shape or state.dim != grad.size:
        raise ValueError("gradient/block/state dimension mismatch")
    if not np.logical_and.reduce(np.isfinite(grad), axis=None):
        state.poisoned = True
        raise PoisonedStateError(f"non-finite gradient for block {block.name!r}")
    return grad


def _advance_moments(state, grad, schedule, lr):
    """Advance accumulators and return (m_t, R_t) for step t = state.t + 1."""
    t = state.t + 1
    kind = schedule.kind
    if kind == "sgd":
        m = grad
        scaled_root = np.full(grad.shape, math.sqrt(t) / lr)
    elif kind == "momentum":
        state.m_hat = schedule.gamma * state.m_hat + grad
        m = state.m_hat
        scaled_root = np.full(grad.shape, 1.0 / lr)
    elif kind == "adagrad":
        inc = grad * grad
        if t == 1:
            inc += schedule.epsilon
        state.v_hat = state.v_hat + inc
        m = grad
        scaled_root = np.sqrt(state.v_hat)
        scaled_root /= lr
    else:  # adam, amsgrad
        b1, b2 = schedule.beta1, schedule.beta2
        state.m_hat = b1 * state.m_hat + (1.0 - b1) * grad
        raw = b2 * state.v_hat + (1.0 - b2) * grad * grad
        if kind == "amsgrad":
            raw = np.maximum(state.v_hat, raw)
        state.v_hat = raw
        bc1 = 1.0 - b1**t
        bc2 = 1.0 - b2**t
        m = state.m_hat / bc1
        v = state.v_hat / bc2
        eps_t = schedule.epsilon / np.sqrt(bc2)
        scaled_root = (np.sqrt(v) + eps_t) / lr
    return m, scaled_root


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
    """One regularized dual-averaging step; mutates state and block in place
    and returns the step's (m_t, R_t).

    Blocks the reg config does not target take the lambda = 0 path, which is
    the plain adaptive update. Targeted ungrouped blocks are penalized too,
    as groups of size 1: lambda21 then shrinks each coordinate on its own.
    A non-finite gradient or dual, or a prox that cannot form finite
    parameters, poisons the state and raises PoisonedStateError naming the
    block; the block's values are then left as they were.
    """
    grad = _check_step(state, block, grad, lr)
    lam1, lam21, lam2, variant = _penalties(reg, block.name)
    group_size = block.group_size if block.grouped else 1

    m, scaled_root = _advance_moments(state, grad, schedule, lr)
    # z + m - (R_t - R_{t-1}) * x in its left-to-right order, on fresh arrays
    drift = scaled_root - state.prev_scaled_root
    drift *= block.values
    z = state.z + m
    z -= drift
    state.z = z
    if not np.logical_and.reduce(np.isfinite(z), axis=None):
        state.poisoned = True
        raise PoisonedStateError(f"non-finite dual for block {block.name!r}")
    state.prev_scaled_root = scaled_root
    state.t += 1

    s = soft_threshold(state.z, lam1)
    try:
        block.values = group_shrink(s, scaled_root, group_size, lam21, lam2, variant)
    except NonpositiveDiagonalError as exc:
        state.poisoned = True
        raise PoisonedStateError(
            f"{exc}: no finite parameters for block {block.name!r}") from exc
    return m, scaled_root


def _blame_member(exc: PoisonedStateError, pack: ParamBlock, grad, state: OptimizerState,
                  reg: RegConfig, members: list) -> PoisonedStateError:
    """The pack's error renamed to the member block holding the first failing
    coordinate: a non-finite gradient, else a non-finite dual, else one the
    prox rejects, the order in which the step checks them. A pack's prox is
    elementwise, so it is rerun member by member on the step's dual and root."""
    if repr(pack.name) not in str(exc):
        return exc  # a step refused on a poisoned state names no block
    names = [block.name for block in members]
    ends = np.cumsum([block.values.size for block in members])

    def blame(member):
        return PoisonedStateError(str(exc).replace(repr(pack.name), repr(member)))

    for values in (grad, state.z):
        bad = ~np.isfinite(values)
        if bad.any():
            return blame(names[int(np.searchsorted(ends, np.argmax(bad), side="right"))])
    lam1, lam21, lam2, variant = _penalties(reg, pack.name)
    for lo, hi, member in zip(np.concatenate(([0], ends[:-1])), ends, names):
        try:
            group_shrink(soft_threshold(state.z[lo:hi], lam1), state.prev_scaled_root[lo:hi],
                         1, lam21, lam2, variant)
        except NonpositiveDiagonalError:
            return blame(member)
    return exc


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
        returns the embedding gradient. This is checked before any state
        changes. On the adagrad schedule (group-adagrad, adagrad, ftrl) the
        driver then steps only those groups from its second step on: there
        a group with zero gradient is a fixed point, as its accumulator
        gains 0, so its root, dual and parameters stay put. Skipping such
        groups is the lazy update of McMahan et al. (KDD 2013) and gives the
        same bits as the dense step. The listed groups are gathered into a
        k-group state and block, stepped by step_group (whose checks see
        k * group_size values) and scattered back; if that step raises, the
        state is poisoned and nothing is scattered. Other schedules and the
        first step scatter grad into the block's dense gradient and take
        the dense step.
        """
        if rows is not None:
            rows = _check_rows(block, grad, rows)
        st = self.states.get(block.name)
        if st is None:
            st = self.states[block.name] = OptimizerState(block.values.size)
        if rows is not None and (self.schedule.kind != "adagrad" or st.t == 0):
            grad, rows = block.scatter_rows(grad, rows), None
        if rows is None:
            step_group(st, block, grad, self.schedule, self.lr, self.reg)
            return
        shape = (block.num_groups, block.group_size)
        full = [a.reshape(shape) for a in (st.z, st.v_hat, st.prev_scaled_root, block.values)]
        # take copies rows as a[rows] would, at a third of its cost
        z, v_hat, prev, values = (a.take(rows, axis=0).ravel() for a in full)
        sub = _shallow_copy(st, dim=z.size, z=z, v_hat=v_hat, prev_scaled_root=prev)
        sub_block = _shallow_copy(block, values=values)
        try:
            step_group(sub, sub_block, grad, self.schedule, self.lr, self.reg)
        finally:
            st.poisoned = sub.poisoned
        for a, new in zip(full, (sub.z, sub.v_hat, sub.prev_scaled_root, sub_block.values)):
            a[rows] = new.reshape(-1, block.group_size)
        st.t += 1

    def step_all(self, blocks: dict, grads: dict, rows=None) -> None:
        """Step every block of blocks with its gradient grads[name].

        Grouped blocks are stepped one by one, each with rows, the groups
        its gradient holds (see step). The ungrouped blocks are
        concatenated, in dict order, into at most two packs, one per penalty
        setting, and each pack takes one step: the updates are elementwise,
        so this gives the same bits as a step per block at the fixed cost of
        one. A pack is named after its first member, so the
        penalties follow from its name as for a block and its state is kept
        under that name. The pack is rebuilt on every call; afterwards each
        member's values is a view of its slice of the pack's new values.
        """
        packs: dict[bool, list] = {}
        for name, block in blocks.items():
            if block.grouped:
                self.step(block, grads[name], rows=rows)
            else:
                packs.setdefault(self.reg.applies_to(block.name), []).append(
                    (block, grads[name]))
        for members in packs.values():
            for block, grad in members:
                if np.shape(grad) != block.values.shape:
                    raise ValueError(f"gradient/block dimension mismatch for block "
                                     f"{block.name!r}")
            pack = ParamBlock(members[0][0].name,
                              np.concatenate([block.values for block, _ in members]))
            grad = np.concatenate([grad for _, grad in members])
            try:
                self.step(pack, grad)
            except PoisonedStateError as exc:
                raise _blame_member(exc, pack, grad, self.states[pack.name], self.reg,
                                    [block for block, _ in members]) from None
            lo = 0
            for block, _ in members:
                hi = lo + block.values.size
                block.values = pack.values[lo:hi]
                lo = hi


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
