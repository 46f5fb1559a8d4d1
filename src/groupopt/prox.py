"""Closed-form proximal update for the sparse-group-lasso penalty.

The group optimizers accumulate a dual vector z and a cumulative positive
diagonal D (the running sum of scaled second-moment root increments). Each
step reconstructs the parameters by solving

    min_x  z.x + (1/2) x'Dx + lambda1 * ||x||_1
         + sum_g lambda21 * sqrt(d_g) * ||A^(1/2) x^g||_2
         + lambda2 * ||x||_2^2,

where A = D/2 + lambda2*I is diagonal and d_g is the group size. The
solution factors into a coordinate soft-threshold producing s, followed by
one multiplicative shrink per group:

    x^g = (D + 2*lambda2)^(-1) * max(1 - sqrt(d_g)*lambda21 / n_g, 0) * s^g.

Two gating norms n_g are supported:

* ``"exact"``: n_g = ||A^(-1/2) s^g||_2, which makes x the exact minimizer
  (substitute y = A^(1/2) x; the objective becomes isotropic in y and the
  gate falls out of the norm of the transformed linear term).
* ``"practical"``: n_g = ||s^g||_2, a cheaper gate that skips the rescale.
  It keeps the same dead zone, sign, and whole-group-zeroing structure but
  is not the exact minimizer unless A is the identity.

``group_shrink`` is unmasked: a dead group's ratio c/0 is inf, silently,
and its factor max(1 - inf, 0) is +0.0; s + 0.0 turns -0.0 into +0.0, so a coordinate without dual mass comes out
+0.0; only if a diagonal is not positive does it look for mass there, raise
if there is any, and divide the massless coordinates by 1.0 instead. With
groups of one coordinate and lambda21 = 0 it works elementwise: a gate norm
is positive where |s| > ``SQUARE_UNDERFLOW``, and where every coordinate is
live, s holds no zero and x is s / denom. ``soft_threshold`` is a clip and a
subtraction, and never returns -0.0. Both return the same bits and raise the
same errors as their plain ``np.where`` form, which
``tests/test_prox_bits.py`` keeps as a frozen oracle. They emit no
RuntimeWarning (a zero diagonal without dual mass included) unless a
quotient is infinite: the result, which then raises, or the exact gate's
rescaled dual at |s| > ~1e146 or diagonal 5e-324.

A step of a few coordinates costs its numpy calls, not its arithmetic, so
both functions keep the calls few. The constants a ufunc takes on every
step (0, 1 and ``SQUARE_UNDERFLOW``) are 0-d float64 arrays, which numpy takes
about 0.2 us faster than a Python float (numpy 2.4, 8 doubles, x86-64).
Each function checks its arguments in one condition, which float
penalties, vectors of equal length and an int group_size pass at once;
only when it fails are the arguments looked at one by one, to accept them
(an int penalty, a numpy integer group size, arrays that are not 1-D) or
to raise the refusal that names one. ``blocks.count_nonzero`` counts a
mask without numpy's Python wrapper.

Penalties are real numbers in [0, inf): ``check_penalties`` is the one rule,
which ``RegConfig`` and ``ProxProblem`` both apply, and ``soft_threshold``
and ``group_shrink`` refuse any other penalty with a ValueError.

``prox_oracle`` is an independent check: proximal-gradient iteration in the
transformed coordinates, then a subgradient-optimality certificate evaluated
from scratch on the original objective. It certifies the exact variant only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blocks import clip, count_nonzero, is_integer, is_real, require_reals

VARIANTS = ("practical", "exact")
PENALTIES = ("lambda1", "lambda21", "lambda2")

ORACLE_MAX_DIM = 64
ORACLE_BUDGET = 10**6
ORACLE_TOL = 1e-7

# the largest double whose square rounds to 0: x * x > 0 exactly where
# |x| > SQUARE_UNDERFLOW (NaN is neither)
SQUARE_UNDERFLOW = float.fromhex("0x1.6a09e667f3bccp-538")

# 0-d float64 operands: a ufunc takes one about 0.2 us faster than a Python
# float, which it converts on every call (a third of a call on 8 doubles)
_ZERO, _ONE = np.zeros(()), np.ones(())
_SQUARE_UNDERFLOW = np.array(SQUARE_UNDERFLOW)
_ZERO.flags.writeable = _ONE.flags.writeable = _SQUARE_UNDERFLOW.flags.writeable = False


def _is_penalty(value) -> bool:
    """The one penalty rule: a real number in [0, inf) (NaN fails too)."""
    return is_real(value) and 0 <= value < math.inf


def check_penalties(owner) -> None:
    """Raise ValueError unless owner's PENALTIES are real numbers in
    [0, inf) and its variant is one of VARIANTS."""
    require_reals(owner, PENALTIES)
    penalties = tuple(getattr(owner, name) for name in PENALTIES)
    if not all(map(_is_penalty, penalties)):
        raise ValueError(f"penalties must be >= 0 and finite, got {penalties}")
    if owner.variant not in VARIANTS:
        raise ValueError(f"unknown variant {owner.variant!r}")


class NonpositiveDiagonalError(ValueError):
    """The prox met a nonpositive effective diagonal where the dual carries
    mass. Raised mid-run by a numeric failure, not by a bad argument."""


def soft_threshold(z: np.ndarray, lambda1: float) -> np.ndarray:
    """Thresholded negation of the dual vector.

    out_i = 0 when |z_i| <= lambda1, else sign(z_i)*lambda1 - z_i. Ties at
    the threshold map to zero. Equivalently -sign(z_i)*max(|z_i|-lambda1, 0).
    It never returns -0.0.
    """
    # a float in range passes at once; any other lambda1 meets _is_penalty
    if not (isinstance(lambda1, float) and 0.0 <= lambda1 < math.inf
            or _is_penalty(lambda1)):
        raise ValueError(f"lambda1 must be >= 0 and finite, got {lambda1!r}")
    if not lambda1:
        # float64 whatever z is; the dead zone is z = ±0, which 0 - z maps to +0.0
        return _ZERO - z
    z = np.asarray(z, dtype=np.float64)
    # clipping z to [-lambda1, lambda1] gives sign(z)*lambda1 outside the
    # dead zone and z inside it, where z - z is +0.0; the clip ufunc is
    # np.minimum(np.maximum(z, -lambda1), lambda1) in one call
    out = clip(z, -lambda1, lambda1)
    out -= z
    return out


def _shrink_refusal(s, cum_diag, group_size, lambda21, lambda2, variant) -> str | None:
    """Why group_shrink refuses its arguments, or None if it takes them."""
    if variant not in VARIANTS:
        return f"unknown variant {variant!r}"
    if not (_is_penalty(lambda21) and _is_penalty(lambda2)):
        return f"lambda21 and lambda2 must be >= 0 and finite, got {lambda21!r}, {lambda2!r}"
    if s.shape != cum_diag.shape:
        return "s and cum_diag must have equal length"
    if not is_integer(group_size) or group_size < 1 or s.size % group_size:
        return (f"group_size {group_size!r} is not a positive integer "
                f"dividing the length {s.size}")
    return None


def group_shrink(
    s: np.ndarray,
    cum_diag: np.ndarray,
    group_size: int,
    lambda21: float,
    lambda2: float,
    variant: str = "practical",
) -> np.ndarray:
    """Per-group multiplicative shrink of the thresholded dual s.

    Groups whose gating norm is at or below sqrt(group_size)*lambda21 come
    out exactly zero; a zero gating norm also gives a zero group, which is
    why a group of tiny s (|s| below about 1e-162, whose squares underflow)
    is zeroed even with every penalty 0. Raises on a nonpositive effective
    diagonal wherever it would actually matter (coordinates carrying zero
    dual mass are allowed a zero diagonal and stay at zero).
    """
    s = np.asarray(s, dtype=np.float64)
    cum_diag = np.asarray(cum_diag, dtype=np.float64)
    # vectors, float penalties and an int group_size pass in one test; only
    # when it fails are the arguments looked at one by one
    if not (variant in VARIANTS and isinstance(lambda21, float) and isinstance(lambda2, float)
            and 0.0 <= lambda21 < math.inf and 0.0 <= lambda2 < math.inf
            and s.ndim == 1 and s.shape == cum_diag.shape
            and group_size.__class__ is int and group_size > 0 and not s.size % group_size):
        refusal = _shrink_refusal(s, cum_diag, group_size, lambda21, lambda2, variant)
        if refusal:
            raise ValueError(refusal)
        s, cum_diag = s.ravel(), cum_diag.ravel()

    # cum_diag + 0.0 only turns -0.0 into +0.0, which the result never shows
    denom = cum_diag + 2.0 * lambda2 if lambda2 else cum_diag
    # half > 0 implies denom > 0, so the exact gate checks only half
    if variant == "exact":
        half = 0.5 * cum_diag
        half += lambda2
    else:
        half = denom
    positive = half > _ZERO
    if count_nonzero(positive) == positive.size:
        if variant == "exact":  # s / sqrt(half), in half's place
            gate = np.sqrt(half, out=half)
            np.divide(s, gate, out=gate)
        else:
            gate = s
    else:
        empty = s == 0.0
        if ((denom <= 0.0) & ~empty).any():
            raise NonpositiveDiagonalError("nonpositive effective diagonal")
        # a massless coordinate may have any diagonal: divide it by 1.0
        denom, half = np.where(empty, 1.0, denom), np.where(empty, 1.0, half)
        # a positive diagonal whose half rounds to 0 (5e-324 at lambda2 = 0)
        # gates dual mass as s / 0, an infinite norm; the division is meant
        with np.errstate(divide="ignore"):
            gate = s / np.sqrt(half) if variant == "exact" else s
    if group_size == 1 and not lambda21:
        # groups of one coordinate, no group penalty: live where gate * gate > 0, that is
        # |gate| > SQUARE_UNDERFLOW, without einsum's dispatch or an overflow warning
        live = np.abs(gate) > _SQUARE_UNDERFLOW
        if count_nonzero(live) == live.size:
            x = s / denom  # s * 1.0, bit for bit: no coordinate is live at s = ±0
        else:
            # s + 0.0 turns -0.0 into +0.0, so x is +0.0 wherever s is ±0
            x = (s + _ZERO) * live
            x /= denom
    else:
        gate = gate.reshape(-1, group_size)
        # einsum, unlike gate * gate, does not warn where a square overflows
        squares = np.einsum("ij,ij->i", gate, gate)
        if lambda21:
            # max(1 - c/norm, 0), in the norms' place: a dead group's norm
            # is 0, its ratio c/0 = inf and its factor +0.0
            factor = np.sqrt(squares, out=squares)
            with np.errstate(divide="ignore"):
                np.divide(math.sqrt(group_size) * lambda21, factor, out=factor)
            np.subtract(_ONE, factor, out=factor)
            np.maximum(factor, _ZERO, out=factor)
        else:
            # max(1 - 0/norm, 0) is 1 for a live group, whose norm
            # sqrt(squares) > 0.0, and +0.0 for a dead one
            factor = (squares > 0.0).astype(np.float64)
        # s + 0.0 as above; the gate's squares do not see the sign of a zero.
        # factor.repeat is one flat multiply, where factor[:, None] broadcasts
        # a short inner loop per group
        x = s + _ZERO
        x *= factor.repeat(group_size)
        x /= denom
    # x overflows where the diagonal is tiny against the dual, and is rejected
    finite = np.isfinite(x)
    if count_nonzero(finite) != finite.size:
        raise NonpositiveDiagonalError("nonpositive effective diagonal")
    return x


@dataclass
class ProxProblem:
    """One prox instance: dual z, cumulative diagonal, penalties, gate variant."""

    z: np.ndarray
    cum_diag: np.ndarray
    group_size: int
    lambda1: float = 0.0
    lambda21: float = 0.0
    lambda2: float = 0.0
    variant: str = "practical"

    def __post_init__(self):
        self.z = np.asarray(self.z, dtype=np.float64)
        self.cum_diag = np.asarray(self.cum_diag, dtype=np.float64)
        if self.z.shape != self.cum_diag.shape:
            raise ValueError("z and cum_diag must have equal length")
        if (not is_integer(self.group_size) or self.group_size <= 0
                or self.z.size % self.group_size != 0):
            raise ValueError(f"invalid group_size {self.group_size!r}")
        check_penalties(self)
        if not np.all(self.cum_diag >= 0):  # NaN fails too
            raise ValueError("cum_diag must be elementwise >= 0")
        if np.any(self.cum_diag + 2.0 * self.lambda2 <= 0):
            raise ValueError("nonpositive effective diagonal")

    @property
    def dim(self) -> int:
        return self.z.size


def prox_solve(p: ProxProblem) -> np.ndarray:
    """Closed-form solution: soft_threshold then group_shrink."""
    s = soft_threshold(p.z, p.lambda1)
    return group_shrink(s, p.cum_diag, p.group_size, p.lambda21, p.lambda2, p.variant)


@dataclass
class OracleResult:
    x_star: np.ndarray
    certified: bool
    witness_norm: float
    iterations: int


def _witness_subgradient(p: ProxProblem, x: np.ndarray) -> np.ndarray:
    """An explicit subgradient of the objective at x, chosen to have small
    norm where freedom exists. At the true minimizer it is exactly zero up
    to rounding, so its inf-norm certifies optimality.
    """
    half = 0.5 * p.cum_diag + p.lambda2
    kappa = p.lambda21 * np.sqrt(p.group_size)
    r = p.z + p.cum_diag * x + 2.0 * p.lambda2 * x
    q = np.empty_like(x)
    num_groups = x.size // p.group_size
    for g in range(num_groups):
        sl = slice(g * p.group_size, (g + 1) * p.group_size)
        xg, rg, ag = x[sl], r[sl], half[sl]
        if np.any(xg != 0.0):
            # active group: the group term is differentiable
            weighted = np.sqrt((ag * xg) @ xg)
            grp = kappa * ag * xg / weighted
            qg = rg + grp
            on = xg != 0.0
            qg = np.where(on, qg + p.lambda1 * np.sign(xg),
                          np.sign(qg) * np.maximum(np.abs(qg) - p.lambda1, 0.0))
            q[sl] = qg
        else:
            # zero group: reduce the residual by the l1 box, then test it
            # against the ellipsoid image of the group-norm subdifferential
            w = np.sign(rg) * np.maximum(np.abs(rg) - p.lambda1, 0.0)
            t = np.sqrt(np.sum(w * w / ag))
            if t <= kappa:
                q[sl] = 0.0
            else:
                q[sl] = w * (1.0 - kappa / t)
    return q


def prox_oracle(p: ProxProblem, budget: int = ORACLE_BUDGET) -> OracleResult:
    """Brute-force minimizer of the prox objective plus an optimality proof.

    Works in the coordinates y = A^(1/2) x (A = cum_diag/2 + lambda2) where
    the smooth part is the isotropic quadratic c.y + ||y||^2: proximal
    gradient with step 1/L (L = 2 exactly) iterates to a fixed point, and
    each iteration's prox splits into a weighted coordinate soft-threshold
    followed by a plain group shrink. The returned point is certified by an
    independent subgradient check on the original objective; only a point
    whose witness subgradient has inf-norm <= 1e-7 is certified.
    """
    if p.dim > ORACLE_MAX_DIM:
        raise ValueError(f"oracle supports dim <= {ORACLE_MAX_DIM}, got {p.dim}")
    half = 0.5 * p.cum_diag + p.lambda2  # strictly positive per ProxProblem
    root = np.sqrt(half)
    c = p.z / root
    w = p.lambda1 / root
    kappa = p.lambda21 * np.sqrt(p.group_size)
    step = 0.5

    y = np.zeros_like(c)
    iterations = 0
    converged = False
    while iterations < budget:
        v = y - step * (c + 2.0 * y)
        # prox of step * (sum_i w_i|y_i| + kappa * sum_g ||y^g||):
        # weighted soft-threshold, then group shrink
        u = np.sign(v) * np.maximum(np.abs(v) - step * w, 0.0)
        ug = u.reshape(-1, p.group_size)
        norms = np.sqrt(np.einsum("ij,ij->i", ug, ug))
        with np.errstate(divide="ignore", invalid="ignore"):
            factor = np.where(norms > 0.0, np.maximum(1.0 - step * kappa / norms, 0.0), 0.0)
        y_next = (factor[:, None] * ug).ravel()
        iterations += 1
        scale = max(1.0, float(np.max(np.abs(y_next))))
        if np.max(np.abs(y_next - y)) <= 1e-14 * scale:
            y = y_next
            converged = True
            break
        y = y_next

    x_star = y / root
    witness = _witness_subgradient(p, x_star)
    wnorm = float(np.max(np.abs(witness))) if witness.size else 0.0
    certified = converged and wnorm <= ORACLE_TOL
    return OracleResult(x_star=x_star, certified=certified,
                        witness_norm=wnorm, iterations=iterations)


def random_problem(rng: np.random.Generator, variant: str = "exact") -> ProxProblem:
    """A random well-posed problem instance for self-testing.

    Dimensions 2..16 with a compatible group size up to 8; each penalty is
    zero a quarter of the time, otherwise log-uniform over [1e-3, 10]; the
    diagonal is log-uniform per coordinate with an occasional zeroed entry
    (backed by a strictly positive lambda2 so the problem stays well posed).

    The oracle certifies the true minimizer, which the exact gate computes
    for any diagonal. The practical gate only agrees with it on unit
    curvature (cum_diag = 2*(1 - lambda2) everywhere), so practical-variant
    problems are drawn from that regime; elsewhere the two gates are allowed
    to differ and oracle agreement is not a correctness criterion.
    """
    dim = int(rng.integers(2, 17))
    divisors = [k for k in range(1, min(dim, 8) + 1) if dim % k == 0]
    group_size = int(rng.choice(divisors))

    def lam():
        if rng.random() < 0.25:
            return 0.0
        return float(10.0 ** rng.uniform(-3.0, 1.0))

    z = rng.normal(scale=10.0 ** rng.uniform(-1.0, 1.0), size=dim)
    if variant == "practical":
        lambda2 = 0.0 if rng.random() < 0.25 else float(10.0 ** rng.uniform(-3.0, -0.5))
        cum_diag = np.full(dim, 2.0 * (1.0 - lambda2))
    else:
        cum_diag = 10.0 ** rng.uniform(-2.0, 2.0, size=dim)
        lambda2 = lam()
        if rng.random() < 0.1:
            cum_diag[rng.integers(dim)] = 0.0
            lambda2 = max(lambda2, 1e-3)
    return ProxProblem(z=z, cum_diag=cum_diag, group_size=group_size,
                       lambda1=lam(), lambda21=lam(), lambda2=lambda2,
                       variant=variant)
