"""Adaptive optimizers with sparse-group-lasso regularization.

The group path maintains, per parameter block, a dual accumulator z and the
scaled stabilized root R_t of the second moment (sqrt(V_t)/alpha plus the
schedule's stabilizer). One step is

    z <- z + m_t - (R_t - R_{t-1}) * x_t
    x <- group_shrink(soft_threshold(z, lambda1), R_t, ...)

so R_t doubles as the prox's cumulative diagonal. With all penalties zero
the dual telescopes to z_t = m_t - R_t * x_t and the update collapses to the
plain adaptive step x <- x - m_t / R_t; the vanilla references below compute
that step through an independent algebraic route (uncorrected moments with a
step-size schedule instead of corrected moments with a constant step), and
the trajectory equality is pinned by tests at 1e-9.

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
from .prox import group_shrink, soft_threshold

SCHEDULE_KINDS = ("sgd", "momentum", "adagrad", "adam", "amsgrad")
VANILLA_NAMES = SCHEDULE_KINDS + ("ftrl",)
GROUP_NAMES = tuple(f"group-{k}" for k in SCHEDULE_KINDS)
OPTIMIZER_NAMES = VANILLA_NAMES + GROUP_NAMES


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
    """Per-block optimizer state for the group, vanilla and FTRL paths."""

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
    if not np.isfinite(grad).all():
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
    """
    grad = _check_step(state, block, grad, lr)
    lam1, lam21, lam2, variant = _penalties(reg, block.name)
    group_size = block.group_size if block.grouped else 1

    m, scaled_root = _advance_moments(state, grad, schedule, lr)
    state.z = state.z + m - (scaled_root - state.prev_scaled_root) * block.values
    if not np.isfinite(state.z).all():
        state.poisoned = True
        raise PoisonedStateError(f"non-finite dual for block {block.name!r}")
    state.prev_scaled_root = scaled_root
    state.t += 1

    s = soft_threshold(state.z, lam1)
    block.values = group_shrink(s, scaled_root, group_size, lam21, lam2, variant)
    return m, scaled_root


def vanilla_step(
    state: OptimizerState,
    block: ParamBlock,
    grad: np.ndarray,
    schedule: MomentSchedule,
    lr: float,
) -> None:
    """Reference unregularized update x <- x - alpha_t * m_t / denom_t.

    Written in the conventional direct form (uncorrected moments, bias
    corrections folded into the step size for adam/amsgrad) so it shares no
    algebra with the dual path of step_group.
    """
    grad = _check_step(state, block, grad, lr)
    t = state.t + 1
    kind = schedule.kind
    if kind == "sgd":
        delta = (lr / np.sqrt(float(t))) * grad
    elif kind == "momentum":
        state.m_hat = schedule.gamma * state.m_hat + grad
        delta = lr * state.m_hat
    elif kind == "adagrad":
        inc = grad * grad
        if t == 1:
            inc += schedule.epsilon
        state.v_hat = state.v_hat + inc
        # a coordinate that never had a gradient (v_hat = 0 at epsilon 0)
        # stays put, as it does on the group path, instead of taking 0/0
        delta = np.divide(lr * grad, np.sqrt(state.v_hat), out=np.zeros(grad.shape),
                          where=state.v_hat != 0.0)
    else:  # adam, amsgrad
        b1, b2 = schedule.beta1, schedule.beta2
        state.m_hat = b1 * state.m_hat + (1.0 - b1) * grad
        raw = b2 * state.v_hat + (1.0 - b2) * grad * grad
        if kind == "amsgrad":
            raw = np.maximum(state.v_hat, raw)
        state.v_hat = raw
        alpha_t = lr * np.sqrt(1.0 - b2**t) / (1.0 - b1**t)
        delta = alpha_t * state.m_hat / (np.sqrt(state.v_hat) + schedule.epsilon)
    state.t = t
    block.values = block.values - delta
    if not np.isfinite(block.values).all():
        state.poisoned = True
        raise PoisonedStateError(f"non-finite parameters for block {block.name!r}")


def ftrl_step(
    state: OptimizerState,
    block: ParamBlock,
    grad: np.ndarray,
    lr: float,
    lambda1: float = 0.0,
) -> None:
    """Proximal FTRL coordinate update with an l1 dead zone; mutates in place.

    Per coordinate: sigma_t = (sqrt(n + g^2) - sqrt(n)) / lr, z += g - sigma*x,
    n += g^2, then x = 0 where |z| <= lambda1 and (sign(z)*lambda1 - z)*lr/sqrt(n)
    elsewhere. With lambda1 = 0 this is the adagrad trajectory. n lives in
    state.v_hat: it is the running sum of g^2 that adagrad keeps with eps = 0.
    """
    grad = _check_step(state, block, grad, lr)
    n_next = state.v_hat + grad * grad
    sigma = (np.sqrt(n_next) - np.sqrt(state.v_hat)) / lr
    state.z = state.z + grad - sigma * block.values
    state.v_hat = n_next
    state.t += 1
    with np.errstate(divide="ignore", invalid="ignore"):
        x = np.where(
            np.abs(state.z) <= lambda1,
            0.0,
            (np.sign(state.z) * lambda1 - state.z) * lr / np.sqrt(state.v_hat),
        )
    # coordinates never touched by any gradient stay at the dead-zone zero
    block.values = np.where(state.v_hat > 0.0, x, 0.0)


def _blame_member(exc: PoisonedStateError, pack: ParamBlock, grad, state: OptimizerState,
                  names: list, ends) -> PoisonedStateError:
    """The pack's error renamed to the member holding the first non-finite
    value: in the gradient, else the dual, else the parameters, the order in
    which the step checks them."""
    for values in (grad, state.z, pack.values):
        bad = ~np.isfinite(values)
        if bad.any():
            member = names[int(np.searchsorted(ends, np.argmax(bad), side="right"))]
            return PoisonedStateError(str(exc).replace(repr(pack.name), repr(member)))
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
    """Driver holding one OptimizerState per block name; subclasses replace _update."""

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
        changes. Every adagrad-schedule driver (group-adagrad, vanilla
        adagrad, FTRL) then steps only those groups from its second step on:
        there a group with zero gradient is a fixed point, as its
        accumulator gains 0, so its root, dual and parameters stay put.
        Skipping such groups is the lazy update of McMahan et al. (KDD 2013)
        and gives the same bits as the dense step. The listed groups are
        gathered into a k-group state and block, stepped by _update (whose
        checks see k * group_size values) and scattered back. Other
        schedules and the first step scatter grad into the block's dense
        gradient and take the dense step.
        """
        if rows is not None:
            rows = _check_rows(block, grad, rows)
        st = self.states.get(block.name)
        if st is None:
            st = self.states[block.name] = OptimizerState(block.values.size)
        if rows is None:
            self._update(st, block, grad)
            return
        if self.schedule.kind != "adagrad" or st.t == 0:
            self._update(st, block, block.scatter_rows(grad, rows))
            return
        shape = (block.num_groups, block.group_size)
        full = [a.reshape(shape) for a in (st.z, st.v_hat, st.prev_scaled_root, block.values)]
        # take copies rows as a[rows] would, at a third of its cost
        z, v_hat, prev, values = (a.take(rows, axis=0).ravel() for a in full)
        sub = _shallow_copy(st, dim=z.size, z=z, v_hat=v_hat, prev_scaled_root=prev)
        sub_block = _shallow_copy(block, values=values)
        try:
            self._update(sub, sub_block, grad)
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
            ends = np.cumsum([block.values.size for block, _ in members])
            pack = ParamBlock(members[0][0].name,
                              np.concatenate([block.values for block, _ in members]))
            grad = np.concatenate([grad for _, grad in members])
            try:
                self.step(pack, grad)
            except PoisonedStateError as exc:
                raise _blame_member(exc, pack, grad, self.states[pack.name],
                                    [block.name for block, _ in members], ends) from None
            for (block, _), hi in zip(members, ends):
                block.values = pack.values[hi - block.values.size:hi]

    def _update(self, state: OptimizerState, block: ParamBlock, grad) -> None:
        step_group(state, block, grad, self.schedule, self.lr, self.reg)


class VanillaOptimizer(GroupOptimizer):
    """Driver for the unregularized reference updates."""

    def __init__(self, schedule: MomentSchedule, lr: float):
        super().__init__(schedule, lr)

    def _update(self, state: OptimizerState, block: ParamBlock, grad) -> None:
        vanilla_step(state, block, grad, self.schedule, self.lr)


class FtrlOptimizer(GroupOptimizer):
    """Driver for the proximal FTRL reference: adagrad with eps = 0 plus l1."""

    def __init__(self, lr: float, lambda1: float = 0.0):
        super().__init__(MomentSchedule(kind="adagrad", epsilon=0.0), lr,
                         RegConfig(lambda1=lambda1))

    def _update(self, state: OptimizerState, block: ParamBlock, grad) -> None:
        ftrl_step(state, block, grad, self.lr, self.reg.lambda1)


def make_optimizer(name: str, lr: float, reg: RegConfig = NO_REG,
                   schedule_args: dict | None = None):
    """Build a driver from a family-prefixed name.

    "adam", "sgd", ... are the vanilla references; "group-adam" etc. take
    the regularized path; "ftrl" is the proximal FTRL reference (its l1
    strength comes from reg.lambda1).
    """
    args = schedule_args or {}
    if name == "ftrl":
        return FtrlOptimizer(lr, reg.lambda1)
    if name.startswith("group-"):
        return GroupOptimizer(MomentSchedule(kind=name[len("group-"):], **args), lr, reg)
    return VanillaOptimizer(MomentSchedule(kind=name, **args), lr)
