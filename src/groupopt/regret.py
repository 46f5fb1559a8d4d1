"""Online convex optimization lab.

Runs the regularized dual-averaging update on streams of convex losses and
measures cumulative regret against the exact best fixed comparator in
hindsight, at geometric checkpoints. Also evaluates the measured constants
(G, D1, D2, kappa) and the closed-form regret upper bound they imply, so the
sqrt(T) growth claim can be checked numerically rather than assumed.

Comparator minima are exact: quadratic streams admit a closed form from
running sums; logistic streams are solved to high precision with a damped
Newton method on the prefix objective.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .blocks import ParamBlock, make_rng, require_integers
from .optimizers import (
    MomentSchedule,
    NO_REG,
    OptimizerState,
    RegConfig,
    step_group,
)

PROBLEM_KINDS = ("quadratic", "logistic")
MODES = ("stochastic", "stationary", "alternating", "zero")

NEWTON_MAX_ITER = 100
NEWTON_GRAD_TOL = 1e-12


@dataclass
class OnlineProblem:
    kind: str = "quadratic"
    dim: int = 8
    horizon: int = 1 << 10
    seed: int = 0
    mode: str = "stochastic"

    def __post_init__(self):
        require_integers(self, ("dim", "horizon", "seed"))
        if self.kind not in PROBLEM_KINDS:
            raise ValueError(f"unknown problem kind {self.kind!r}")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "zero" and self.kind != "quadratic":
            raise ValueError("zero mode only makes sense for quadratic losses")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.horizon < 2:
            raise ValueError("horizon must be >= 2")
        if self.seed < 0:
            raise ValueError(f"seed: must be >= 0, got {self.seed}")


def _make_stream(problem: OnlineProblem):
    """Per-step loss data: (targets,) for quadratic, (features, labels) for
    logistic. Stationary/alternating reuse one base draw across all steps."""
    rng = make_rng(problem.seed)
    T, d = problem.horizon, problem.dim
    base = rng.uniform(-1.0, 1.0, size=(T, d))
    if problem.mode == "zero":
        base = np.zeros((T, d))
    elif problem.mode == "stationary":
        base = np.broadcast_to(base[0], (T, d)).copy()
    elif problem.mode == "alternating":
        signs = np.where(np.arange(T) % 2 == 0, 1.0, -1.0)
        base = signs[:, None] * base[0]
    if problem.kind == "quadratic":
        return {"targets": base}
    planted = rng.normal(size=d)
    margins = base @ planted
    labels = np.where(margins >= 0.0, 1.0, -1.0)
    return {"features": base, "labels": labels}


def _quadratic_prefix_min(prefix_sum, prefix_sq, t):
    """min_x sum_{s<=t} 0.5*||x - a_s||^2 and its argmin, from running sums."""
    x_star = prefix_sum / t
    value = 0.5 * (prefix_sq - t * float(x_star @ x_star))
    return value, x_star


def _logistic_objective(x, features, labels):
    margins = labels * (features @ x)
    return float(np.sum(np.logaddexp(0.0, -margins)))


def _logistic_prefix_min(features, labels, x0):
    """Damped Newton on the prefix logistic loss; returns (min value, argmin).

    On separable prefixes the infimum is approached but not attained; the
    loop then stops on vanishing improvement, which overestimates the minimum
    by at most the final improvement and so never inflates the regret.
    """
    x = x0.copy()
    value = _logistic_objective(x, features, labels)
    for _ in range(NEWTON_MAX_ITER):
        margins = labels * (features @ x)
        q = np.exp(-np.logaddexp(0.0, margins))
        grad = -(features.T @ (labels * q))
        if np.max(np.abs(grad)) <= NEWTON_GRAD_TOL:
            break
        weights = q * (1.0 - q)
        hess = features.T @ (weights[:, None] * features)
        hess[np.diag_indices_from(hess)] += 1e-12
        direction = np.linalg.solve(hess, grad)
        decrement = float(grad @ direction)
        step = 1.0
        for _ in range(60):
            candidate = x - step * direction
            cand_value = _logistic_objective(candidate, features, labels)
            if cand_value <= value - 1e-4 * step * decrement:
                break
            step *= 0.5
        else:
            break
        if value - cand_value < 1e-14 * max(1.0, abs(value)):
            x, value = candidate, cand_value
            break
        x, value = candidate, cand_value
    return value, x


def _checkpoints(horizon: int) -> np.ndarray:
    ts = [1 << k for k in range(horizon.bit_length()) if (1 << k) <= horizon]
    if ts[-1] != horizon:
        ts.append(horizon)
    return np.array(ts, dtype=np.int64)


@dataclass
class RegretRun:
    problem: OnlineProblem
    lr: float
    schedule: MomentSchedule
    reg: RegConfig
    checkpoints: np.ndarray
    regrets: np.ndarray
    cum_losses: np.ndarray
    minima: np.ndarray
    comparators: np.ndarray
    slope: float
    kappa: float
    grad_bound: float
    monotone_checked: int
    monotone_violations: int
    xs: np.ndarray = field(repr=False)
    ms: np.ndarray = field(repr=False)
    step_decay: str = "none"
    # (step t, coordinate, g_t there) where kappa is first reached; None
    # while kappa is 0
    kappa_at: tuple | None = None

    @property
    def x_star(self) -> np.ndarray:
        return self.comparators[-1]

    @property
    def regret_final(self) -> float:
        return float(self.regrets[-1])

    def kappa_location(self) -> dict:
        """kappa_at as the keys kappa_step, kappa_coord and kappa_grad, each
        None where kappa_at is."""
        step, coord, grad = self.kappa_at or (None, None, None)
        return {"kappa_step": step, "kappa_coord": coord, "kappa_grad": grad}

    def rows(self):
        """(t, R_t) pairs for CSV emission."""
        return [(int(t), float(r)) for t, r in zip(self.checkpoints, self.regrets)]

    def to_dict(self) -> dict:
        return {
            "problem": {"kind": self.problem.kind, "dim": self.problem.dim,
                        "horizon": self.problem.horizon, "seed": self.problem.seed,
                        "mode": self.problem.mode},
            "optimizer": self.schedule.kind,
            "reg": {"lambda1": self.reg.lambda1, "lambda21": self.reg.lambda21,
                    "lambda2": self.reg.lambda2, "variant": self.reg.variant},
            "lr": self.lr,
            "step_decay": self.step_decay,
            "checkpoints": [int(t) for t in self.checkpoints],
            "regrets": [float(r) for r in self.regrets],
            "slope": self.slope,
            "kappa": self.kappa,
            **self.kappa_location(),
            "monotone_checked": self.monotone_checked,
            "monotone_violations": self.monotone_violations,
        }


def _interval_loss_at(x, stream, kind, lo, hi, prefix_sum, prefix_sq):
    """sum_{s in (lo, hi]} f_s(x) for a fixed point x (0-indexed: rows lo..hi-1)."""
    if kind == "quadratic":
        n = hi - lo
        seg_sum = prefix_sum[hi] - prefix_sum[lo]
        seg_sq = prefix_sq[hi] - prefix_sq[lo]
        return 0.5 * (n * float(x @ x) - 2.0 * float(x @ seg_sum) + seg_sq)
    return _logistic_objective(x, stream["features"][lo:hi], stream["labels"][lo:hi])


STEP_DECAYS = ("none", "sqrt_t")

# steps whose gradients and roots run_regret keeps between two folds
CHUNK = 1024


def _fold(first: int, grads: np.ndarray, roots: np.ndarray) -> tuple[float, float, tuple]:
    """grad_bound and kappa over a chunk of steps first, first + 1, ...:
    (the largest |g_t|, the largest (R_{t-1}/R_t)^2, and the first step,
    coordinate and g_t there). grads holds the steps' gradients, roots[1:]
    their roots R_t after roots[0], the root of step first - 1; a zero R_t
    counts as the ratio 0. Both maxima take the values a per-step max
    would, and a step with a NaN ratio is left out of kappa, as
    max(kappa, float(ratio_t.max())) leaves it."""
    ratio = np.divide(roots[:-1], roots[1:], out=np.zeros(grads.shape), where=roots[1:] > 0)
    ratio **= 2
    per_step = ratio.max(axis=1)
    kappa = float(np.fmax.reduce(per_step))
    i = int(np.argmax(per_step == kappa))
    j = int(np.argmax(ratio[i] == kappa))
    return float(np.abs(grads).max()), kappa, (first + i, j, float(grads[i, j]))


def run_regret(problem: OnlineProblem, kind: str = "adagrad", lr: float = 0.5,
               reg: RegConfig = NO_REG, step_decay: str = "none") -> RegretRun:
    """Play the update against the stream and measure regret at checkpoints.

    step_decay="sqrt_t" feeds the update lr/sqrt(t) at step t. The sgd and
    adagrad schedules already build that decay into their scaled roots, so
    the option matters for the averaged-moment schedules (adam, amsgrad),
    whose roots otherwise stay bounded and whose regret then grows linearly
    on noisy streams. The dual update telescopes correctly under any
    positive step sequence.
    """
    if step_decay not in STEP_DECAYS:
        raise ValueError(f"unknown step decay {step_decay!r}")
    schedule = MomentSchedule(kind=kind)
    stream = _make_stream(problem)
    T, d = problem.horizon, problem.dim

    if problem.kind == "quadratic":
        targets = stream["targets"]
        prefix_sum = np.vstack([np.zeros(d), np.cumsum(targets, axis=0)])
        prefix_sq = np.concatenate([[0.0], np.cumsum(np.sum(targets**2, axis=1))])
    else:
        prefix_sum = prefix_sq = None

    block = ParamBlock("x", np.zeros(d))
    state = OptimizerState(d, schedule.kind)
    checkpoints = _checkpoints(T)
    checkpoint_ts = checkpoints.tolist()
    xs = np.zeros((T, d))
    ms = np.zeros((T, d))
    # a chunk's gradients, and its roots after row 0, R of the step before
    # it: 0 before step 1, whose ratio 0 then leaves kappa as it is
    grads = np.zeros((CHUNK, d))
    roots = np.zeros((CHUNK + 1, d))
    cum_loss = 0.0
    grad_bound = kappa = 0.0
    kappa_at = None  # (step, coordinate, gradient) where kappa is first reached
    cum_at, minima, comparators = [], [], []
    next_cp = 0

    warm = np.zeros(d)
    for t in range(1, T + 1):
        i = (t - 1) % CHUNK  # the step's row in grads, roots[i + 1] in roots
        x = block.values
        xs[t - 1] = x
        if problem.kind == "quadratic":
            a = targets[t - 1]
            diff = x - a
            cum_loss += 0.5 * float(diff @ diff)
            grad = diff
        else:
            b = stream["features"][t - 1]
            y = stream["labels"][t - 1]
            margin = y * float(b @ x)
            cum_loss += float(np.logaddexp(0.0, -margin))
            grad = -y * b * np.exp(-np.logaddexp(0.0, margin))
        grads[i] = grad
        if not math.isfinite(cum_loss):
            raise FloatingPointError("divergent trajectory: non-finite loss")

        lr_t = lr / np.sqrt(float(t)) if step_decay == "sqrt_t" else lr
        ms[t - 1], roots[i + 1] = step_group(state, block, grad, schedule, lr_t, reg)
        if i == CHUNK - 1 or t == T:
            chunk_bound, chunk_kappa, chunk_at = _fold(t - i, grads[:i + 1], roots[:i + 2])
            grad_bound = max(grad_bound, chunk_bound)
            if chunk_kappa > kappa:
                kappa, kappa_at = chunk_kappa, chunk_at
            roots[0] = roots[i + 1]

        if t == checkpoint_ts[next_cp]:
            if problem.kind == "quadratic":
                value, x_star = _quadratic_prefix_min(prefix_sum[t], prefix_sq[t], t)
            else:
                value, x_star = _logistic_prefix_min(
                    stream["features"][:t], stream["labels"][:t], warm)
                warm = x_star
            cum_at.append(cum_loss)
            minima.append(value)
            comparators.append(x_star.copy())
            next_cp += 1

    cum_at = np.array(cum_at)
    minima = np.array(minima)
    comparators = np.array(comparators)
    regrets = cum_at - minima

    # Monotonicity of R_t between checkpoints is only guaranteed when the
    # trajectory's interval loss is at least the interval loss at the older
    # comparator; count violations under that exact condition.
    checked = violations = 0
    for k in range(len(checkpoints) - 1):
        lo, hi = int(checkpoints[k]), int(checkpoints[k + 1])
        travelled = cum_at[k + 1] - cum_at[k]
        at_old = _interval_loss_at(comparators[k], stream, problem.kind,
                                   lo, hi, prefix_sum, prefix_sq)
        if travelled >= at_old - 1e-12:
            checked += 1
            if regrets[k + 1] < regrets[k] - 1e-9:
                violations += 1

    half = len(checkpoints) // 2
    if len(checkpoints) - half < 2:
        half = 0
    ts = checkpoints[half:].astype(np.float64)
    rs = np.maximum(regrets[half:], 1e-300)
    slope = float(np.polyfit(np.log(ts), np.log(rs), 1)[0]) if len(ts) >= 2 else float("nan")

    return RegretRun(problem=problem, lr=lr, schedule=schedule, reg=reg,
                     checkpoints=checkpoints, regrets=regrets, cum_losses=cum_at,
                     minima=minima, comparators=comparators, slope=slope,
                     kappa=kappa, grad_bound=grad_bound, monotone_checked=checked,
                     monotone_violations=violations, xs=xs, ms=ms,
                     step_decay=step_decay, kappa_at=kappa_at)


def measure_bound_constants(run: RegretRun) -> dict:
    """Measured constants of the regret upper bound, the bound's value, and
    whether the curvature-ratio condition needed for it was met on this run.

    The premise fraction reports how often <m_{t-1}, x_t - x*> >= 0 held;
    it is measured, never assumed.
    """
    x_star = run.x_star
    G = run.grad_bound
    D1 = float(np.max(np.abs(x_star))) if x_star.size else 0.0
    D2 = float(np.max(np.abs(run.xs - x_star)))
    schedule = run.schedule
    if schedule.kind in ("adam", "amsgrad"):
        gamma_eff = schedule.beta1
    elif schedule.kind == "momentum":
        gamma_eff = schedule.gamma
    else:
        gamma_eff = 0.0
    kappa = run.kappa
    condition_met = kappa < 1.0
    nu = max(gamma_eff, kappa)

    m_prev = np.vstack([np.zeros(run.problem.dim), run.ms[:-1]])
    premise = np.sum((run.xs - x_star) * m_prev, axis=1) >= 0.0
    premise_fraction = float(np.mean(premise))

    T = run.problem.horizon
    d = run.problem.dim
    alpha = run.lr
    reg = run.reg
    if condition_met:
        rhs = (d * D1 * (reg.lambda1
                         + reg.lambda21 * np.sqrt(np.sqrt(T) * G / (2 * alpha) + reg.lambda2)
                         + reg.lambda2 * D1)
               + d * G * (D2**2 / (2 * alpha) + alpha / (1.0 - nu) ** 2) * np.sqrt(T))
        rhs = float(rhs)
        bound_holds = run.regret_final <= rhs
    else:
        rhs = float("inf")
        bound_holds = None
    return {
        "G": G, "D1": D1, "D2": D2,
        "kappa": kappa, "gamma": gamma_eff, "nu": nu,
        "condition_met": condition_met,
        "bound_rhs": rhs,
        "regret_T": run.regret_final,
        "bound_holds": bound_holds,
        "premise_fraction": premise_fraction,
        **run.kappa_location(),
    }
