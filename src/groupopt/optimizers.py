"""Adaptive optimizers with sparse-group-lasso regularization.

The group path maintains, per parameter block, a dual accumulator z and the
moments from which it forms the scaled stabilized root R_t of the second
moment (sqrt(V_t)/alpha plus the schedule's stabilizer). One step is

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

step_group and GroupOptimizer.step run one body, _step: elementwise
arithmetic on a state's arrays (_dual_step) around a group-wise prox
(_prox). A dense step runs once, on the state's own arrays and the whole
block; a lazy adagrad row step runs on gathered copies of its rows. No
table-sized temporary outlives its use, so a dense step of a table peaks
at about three table sizes. sgd, momentum and adagrad recompute R_{t-1}
from the state (the step count, the accumulator and prev_lr, the lr of the
last step); adam and amsgrad store it, as theirs depends on every earlier
step's bias correction. The gradient is
checked finite; a non-finite dual always makes the prox's check of the new
values fail, and only then is the dual looked at. _prox poisons the state
on either failure: the one failure rule of every path.

A step of a few coordinates costs its numpy calls, so each argument is
checked once: _check_step takes the state, lr, the gradient and any rows,
all before any state changes; RegConfig checked the penalties, and
soft_threshold and group_shrink pass them in their single argument test.
The prox's constants are 0-d float64 arrays (see prox). lr and prev_lr stay
Python floats: a 0-d array built each step would cost what it saves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .blocks import (BETA, LR, PENALTY, ConfigError, Domain, ParamBlock, check_fields,
                     count_nonzero, names)
from .prox import (PENALTIES, PENALTY_FIELDS, NonpositiveDiagonalError, group_shrink,
                   soft_threshold)

SCHEDULE_KINDS = ("sgd", "momentum", "adagrad", "adam", "amsgrad")
GROUP_NAMES = tuple(f"group-{k}" for k in SCHEDULE_KINDS)
OPTIMIZER_NAMES = SCHEDULE_KINDS + ("ftrl",) + GROUP_NAMES

# the schedule's hyperparameters; epsilon shares the penalties' [0, inf)
SCHEDULE_FIELDS = {"gamma": BETA, "beta1": BETA, "beta2": BETA, "epsilon": PENALTY}
SCHEDULE_KIND = names(*SCHEDULE_KINDS)
OPTIMIZER_NAME = names(*OPTIMIZER_NAMES)
# apply_to: any collection of names (a string would be a set of its
# characters), or None for every block
REG_FIELDS = {**PENALTY_FIELDS, "apply_to": Domain(
    "a collection of block names or None",
    lambda v: v is None or not isinstance(v, str) and hasattr(v, "__iter__"))}


class PoisonedStateError(RuntimeError):
    """A step met a non-finite gradient or dual, or a prox failure; the
    state is permanently invalid. block, step and check say where, check
    being "gradient", "dual" (the new values fail whenever the dual is not
    finite) or "prox" (no finite parameters from a finite dual); the message
    then ends "for block 'e' at step 3". A step on a state poisoned before
    carries none of them."""

    def __init__(self, message: str, block: str | None = None, step: int | None = None,
                 check: str | None = None):
        if block is not None:
            message = f"{message} for block {block!r} at step {step}"
        super().__init__(message)
        self.block, self.step, self.check = block, step, check


@dataclass
class MomentSchedule:
    """First/second moment recipe plus stabilizer for one optimizer family."""

    kind: str = "adam"
    gamma: float = 0.9
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8

    def __post_init__(self):
        check_fields({"kind": SCHEDULE_KIND, **SCHEDULE_FIELDS}, vars(self))


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
        check_fields(REG_FIELDS, vars(self))
        if self.apply_to is not None:
            self.apply_to = frozenset(self.apply_to)

    def applies_to(self, block_name: str) -> bool:
        return self.apply_to is None or block_name in self.apply_to


NO_REG = RegConfig()


@dataclass
class OptimizerState:
    """Per-block state of the dual-averaging step of one schedule kind:
    arrays holds the dual z, the moments _MOMENTS[kind] and, for adam and
    amsgrad, R_{t-1} as prev_scaled_root, and nothing else; the other kinds
    compute R_{t-1} from their moments, t and prev_lr, the lr of the last
    step (inf before the first, so that R_0 is 0). t counts the steps;
    poisoned is set for good once a step meets a non-finite value or a prox
    failure."""

    dim: int
    kind: str
    t: int = 0
    poisoned: bool = False
    prev_lr: float = math.inf
    arrays: dict[str, np.ndarray] = field(init=False)

    def __post_init__(self):
        SCHEDULE_KIND.check("kind", self.kind)
        self.arrays = {name: np.zeros(self.dim) for name in ("z", *_MOMENTS[self.kind])}


# the arrays each schedule advances beside z; only a root that depends on
# every earlier step's bias correction is stored
_MOMENTS = {"sgd": (), "momentum": ("m_hat",), "adagrad": ("v_hat",),
            "adam": ("m_hat", "v_hat", "prev_scaled_root"),
            "amsgrad": ("m_hat", "v_hat", "prev_scaled_root")}


def _check_step(state: OptimizerState, block: ParamBlock, grad, kind: str, lr: float,
                rows=None, states: dict | None = None) -> np.ndarray:
    """grad as float64 once the state, its kind, lr, grad and any rows pass,
    which must be strictly increasing integer ids (numpy would wrap a
    negative one to another row) of the groups of block whose gradients grad
    holds. Once the shapes pass, states, a driver's, keeps the state under
    the block's name; a refused step changes nothing, a non-finite grad
    poisons the kept state."""
    grad = np.asarray(grad, dtype=np.float64)
    if state.poisoned:
        raise PoisonedStateError("optimizer state is poisoned")
    if not (isinstance(lr, float) and 0.0 < lr < math.inf):  # a float in range passes at once
        LR.check("lr", lr)
    if state.kind != kind:
        raise ValueError(f"a {state.kind} state cannot take a {kind} step")
    shape = block.values.shape
    if rows is not None:
        rows, n = np.asarray(rows), block.num_groups
        if rows.ndim != 1 or rows.size and not (
                rows.dtype.kind in "iu" and rows[0] >= 0 and rows[-1] < n
                and count_nonzero(rows[1:] > rows[:-1]) == rows.size - 1):
            raise ValueError(f"rows are not strictly increasing integer group ids in [0, {n})")
        shape = (rows.size * block.group_size,)
        if grad.shape != shape:
            raise ValueError(f"rows: gradient of shape {grad.shape} for {rows.size} "
                             f"groups of {block.group_size}")
    if grad.shape != shape or state.dim != block.values.size:
        raise ValueError(f"gradient/block/state dimension mismatch for block {block.name!r}")
    if states is not None:
        states[block.name] = state
    finite = np.isfinite(grad)
    if count_nonzero(finite) != finite.size:
        state.poisoned = True
        raise PoisonedStateError("non-finite gradient", block.name, state.t + 1, "gradient")
    return grad


def _dual_step(a, t, x, grad, schedule, lr, prev_lr):
    """Step t of a, the state arrays of coordinates with values x and gradient
    grad, in place: the moments, then z, which may come out non-finite (the
    prox then fails). prev_lr is the lr of step t - 1. Returns R_t, a new
    array: adam's and amsgrad's m_t is a scratch that is gone on return."""
    kind = schedule.kind
    # z + m_t - drift in its left-to-right order, m_t added first; drift is
    # (R_t - R_{t-1}) * x, and a Python float difference subtracts as the
    # arrays it fills would
    z = a["z"]
    if kind == "sgd":
        root = math.sqrt(t) / lr
        z += grad
        scaled_root = np.full(grad.shape, root)
        drift = (root - math.sqrt(t - 1) / prev_lr) * x
    elif kind == "momentum":
        m = a["m_hat"]
        m *= schedule.gamma
        m += grad
        z += m
        scaled_root = np.full(grad.shape, 1.0 / lr)
        drift = (1.0 / lr - 1.0 / prev_lr) * x
    elif kind == "adagrad":
        drift = np.sqrt(a["v_hat"])
        drift /= prev_lr  # R_{t-1}, from v before it advances
        scaled_root = np.multiply(grad, grad)  # the increment of v, then R_t
        if t == 1:
            scaled_root += schedule.epsilon
        a["v_hat"] += scaled_root
        z += grad
        np.sqrt(a["v_hat"], out=scaled_root)
        scaled_root /= lr
        np.subtract(scaled_root, drift, out=drift)
        drift *= x
    else:  # adam, amsgrad: b1*m + (1-b1)*g and b2*v + (1-b2)*g*g, left to right
        # one scratch holds (1-b1)*g, then (1-b2)*g*g, then m_t, then the drift
        b1, b2 = schedule.beta1, schedule.beta2
        m_hat, v_hat = a["m_hat"], a["v_hat"]
        m_hat *= b1
        drift = np.multiply(1.0 - b1, grad)
        m_hat += drift
        np.multiply(1.0 - b2, grad, out=drift)
        drift *= grad
        if kind == "amsgrad":
            drift += b2 * v_hat
            np.maximum(v_hat, drift, out=v_hat)
        else:
            v_hat *= b2
            v_hat += drift
        bc2 = 1.0 - b2**t
        scaled_root = v_hat / bc2
        np.sqrt(scaled_root, out=scaled_root)
        scaled_root += schedule.epsilon / math.sqrt(bc2)  # the bits of np.sqrt
        scaled_root /= lr
        z += np.divide(m_hat, 1.0 - b1**t, out=drift)
        np.subtract(scaled_root, a["prev_scaled_root"], out=drift)
        drift *= x
    z -= drift
    return scaled_root


def _prox(st: OptimizerState, a, scaled_root, block: ParamBlock, reg: RegConfig,
          lr: float) -> np.ndarray:
    """The new values of the coordinates of block whose arrays a (st's own
    dict, or copies of its rows) hold step st.t + 1's dual z and whose R_t
    is scaled_root, kept as a's prev_scaled_root if a has one. group_shrink
    fails whenever z is not finite, and only then is z looked at; st is
    poisoned and PoisonedStateError says "dual", R_t not kept, or "prox",
    R_t kept and t and prev_lr advanced: a prox failure counts as a step."""
    t = st.t + 1
    if reg.apply_to is None or block.name in reg.apply_to:  # reg.applies_to(block.name)
        lam1, lam21, lam2 = reg.lambda1, reg.lambda21, reg.lambda2
    else:
        lam1 = lam21 = lam2 = 0.0
    failure = None
    try:
        # no name holds soft_threshold's result, so group_shrink can drop it
        x = group_shrink(soft_threshold(a["z"], lam1), scaled_root, block.group_size or 1,
                         lam21, lam2, reg.variant)
    except NonpositiveDiagonalError as exc:
        st.poisoned = True
        if not np.isfinite(a["z"]).all():
            raise PoisonedStateError("non-finite dual", block.name, t, "dual") from None
        failure = exc
    if "prev_scaled_root" in a:
        a["prev_scaled_root"] = scaled_root
    if failure is not None:
        st.t, st.prev_lr = t, lr
        raise PoisonedStateError(f"{failure}: no finite parameters", block.name, t,
                                 "prox") from failure
    return x


def _step(st: OptimizerState, block: ParamBlock, grad: np.ndarray, schedule: MomentSchedule,
          lr: float, reg: RegConfig, rows=None) -> np.ndarray:
    """Step st.t + 1 of block, given grad that _check_step passed and, if
    grad holds only their gradients, rows as intp group ids; returns R_t.
    An adagrad rows step after the first steps gathered copies of those
    groups; any other is dense, once, on the state's own arrays and the
    whole block. The block's values change only if the step did not fail."""
    t = st.t + 1
    if rows is not None and schedule.kind == "adagrad" and st.t:
        # the values, as x, and the state's arrays; take copies rows as
        # a[rows] would, at a third of its cost
        full = {"x": block.values, **st.arrays}
        part = {k: a.reshape(-1, block.group_size).take(rows, axis=0).ravel()
                for k, a in full.items()}
        root = _dual_step(part, t, part["x"], grad, schedule, lr, st.prev_lr)
        part["x"] = _prox(st, part, root, block, reg, lr)
        # each row back as one item of group_size doubles, which a[rows] =
        # ... on the 2-D view copies at twice the cost
        row = np.dtype((np.void, 8 * block.group_size))
        for k, a in full.items():
            a.view(row)[rows] = part[k].view(row)
    else:
        # no name holds a scattered row gradient, which is gone before the prox
        root = _dual_step(st.arrays, t, block.values,
                          grad if rows is None else _groups_grad(grad, rows, block),
                          schedule, lr, st.prev_lr)
        block.values = _prox(st, st.arrays, root, block, reg, lr)
    st.t, st.prev_lr = t, lr
    return root


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
    ValueError. lr may differ from step to step.

    Blocks the reg config does not target take the lambda = 0 path, which is
    the plain adaptive update. Targeted ungrouped blocks are penalized too,
    as groups of size 1: lambda21 then shrinks each coordinate on its own.
    A non-finite gradient or dual, or a prox that cannot form finite
    parameters, poisons the state and raises PoisonedStateError naming the
    block, the step and the check; the block's values are then left as they
    were. A non-finite gradient raises before any state changes; a prox
    failure with a finite dual counts as a step, a non-finite dual not.
    """
    grad = _check_step(state, block, grad, schedule.kind, lr)
    scaled_root = _step(state, block, grad, schedule, lr, reg)
    # copies of what the state keeps: momentum's m_t is its m_hat, and an
    # adam or amsgrad state keeps R_t as its prev_scaled_root; their m_t is
    # rebuilt by the step's own division
    if schedule.kind == "momentum":
        return state.arrays["m_hat"].copy(), scaled_root
    if schedule.kind in ("adam", "amsgrad"):
        return (state.arrays["m_hat"] / (1.0 - schedule.beta1**state.t),
                scaled_root.copy())
    return grad, scaled_root


def _groups_grad(grad, rows, block: ParamBlock) -> np.ndarray:
    """The flat dense gradient of block, given rows (checked by _check_step)
    and grad, their gradients: those scattered as whole rows into zeros."""
    out = np.zeros(block.values.size)
    # each row as one item of group_size doubles, as the lazy row step
    # writes back; a view of void items needs contiguous doubles, which a
    # caller's strided grad is not
    row = np.dtype((np.void, 8 * block.group_size))
    out.view(row)[rows] = np.ascontiguousarray(grad).view(row)
    return out


class GroupOptimizer:
    """Driver holding one OptimizerState per block name; it steps each as step_group does."""

    def __init__(self, schedule: MomentSchedule, lr: float, reg: RegConfig = NO_REG):
        LR.check("lr", lr)
        self._schedule, self._lr = schedule, lr
        self.reg = reg
        self.states: dict[str, OptimizerState] = {}

    # read-only: a lazy row step computes R_{t-1} of a row last stepped long
    # ago from the lr of the last step, exact only while lr stays constant
    schedule = property(lambda self: self._schedule)
    lr = property(lambda self: self._lr)

    def step(self, block: ParamBlock, grad: np.ndarray, rows=None) -> None:
        """Step one block.

        rows, if given, says that grad holds exactly these groups' gradients
        and that every other group's gradient is zero: rows are strictly
        increasing integer ids of groups of a grouped block, and grad holds
        len(rows) * group_size values in their order, as model.backward
        returns the embedding gradient. This is checked, and grad is checked
        finite, before any state changes; a refused step makes no state. On the
        adagrad schedule (group-adagrad, adagrad, ftrl) a step from the
        second on steps copies of only those groups and scatters them back:
        a group with zero gradient is a fixed point there, as its
        accumulator gains 0. This is the lazy update of McMahan et al. (KDD
        2013), with the bits of the dense step.

        Other steps are dense, on the whole block, with step_group's bits;
        the rows' gradients are scattered into a table-shaped gradient for
        them. Failures follow step_group's rule.
        """
        schedule, lr = self._schedule, self._lr
        st = self.states.get(block.name) or OptimizerState(block.values.size, schedule.kind)
        grad = _check_step(st, block, grad, schedule.kind, lr, rows, self.states)
        _step(st, block, grad, schedule, lr, self.reg,
              None if rows is None else np.asarray(rows, dtype=np.intp))


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
    """Raise ConfigError if reg sets a penalty that the optimizer name does
    not apply (see name_reg): a run would report it, yet never use it."""
    used = name_reg(name, reg)
    unused = [k for k in PENALTIES if getattr(reg, k) != getattr(used, k)]
    if unused:
        raise ConfigError(f"reg: {name!r} applies no {', '.join(unused)}; "
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
    OPTIMIZER_NAME.check("name", name)
    reg = name_reg(name, reg)
    if name == "ftrl":
        return GroupOptimizer(MomentSchedule(kind="adagrad", epsilon=0.0), lr, reg)
    kind = name.removeprefix("group-")
    return GroupOptimizer(MomentSchedule(kind=kind, **(schedule_args or {})), lr, reg)
