"""The prox pinned bit for bit to a frozen copy of its original closed form.

soft_threshold and group_shrink are written to cost little more than their
arithmetic: no np.errstate and no np.where temporaries.
The frozen functions below are the straightforward bodies they replaced; the
rewrite must return the same bits and raise the same exception types, and
must not warn where the frozen form did not. The one exception is lambda1:
soft_threshold refuses an infinite or NaN one, which the frozen form takes.
"""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from groupopt.prox import VARIANTS, NonpositiveDiagonalError, group_shrink, soft_threshold


def frozen_soft_threshold(z, lambda1):
    if lambda1 < 0:
        raise ValueError("lambda1 must be >= 0")
    z = np.asarray(z, dtype=np.float64)
    return np.where(np.abs(z) <= lambda1, 0.0, np.sign(z) * lambda1 - z)


def frozen_group_shrink(s, cum_diag, group_size, lambda21, lambda2, variant="practical"):
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if lambda21 < 0 or lambda2 < 0:
        raise ValueError("lambda21 and lambda2 must be >= 0")
    s = np.asarray(s, dtype=np.float64)
    cum_diag = np.asarray(cum_diag, dtype=np.float64)
    if s.shape != cum_diag.shape:
        raise ValueError("s and cum_diag must have equal length")
    if s.size % group_size != 0:
        raise ValueError("length is not a multiple of group_size")

    denom = cum_diag + 2.0 * lambda2
    bad = (denom <= 0) & (s != 0.0)
    if np.any(bad):
        raise NonpositiveDiagonalError("nonpositive effective diagonal")

    num_groups = s.size // group_size
    sg = s.reshape(num_groups, group_size)

    if variant == "exact":
        half = 0.5 * cum_diag + lambda2
        with np.errstate(divide="ignore", invalid="ignore"):
            rescaled = np.where(s != 0.0, s / np.sqrt(half), 0.0)
        gate = rescaled.reshape(num_groups, group_size)
    else:
        gate = sg
    norms = np.sqrt(np.einsum("ij,ij->i", gate, gate))

    threshold = np.sqrt(group_size) * lambda21
    with np.errstate(divide="ignore", invalid="ignore"):
        factor = np.where(norms > 0.0, np.maximum(1.0 - threshold / norms, 0.0), 0.0)
        x = np.where(sg != 0.0, factor[:, None] * sg / denom.reshape(sg.shape), 0.0)
    x = x.ravel()
    if not np.all(np.isfinite(x)):
        raise NonpositiveDiagonalError("nonpositive effective diagonal")
    return x


def outcome(fn, *args):
    """The result's bits, or the type of what fn raised; a warning raises."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return np.asarray(fn(*args)).tobytes()
        except Exception as exc:  # the type is compared, whatever it is
            return type(exc)


# the dense pack of the README model: 80x32 + 32 + 32x16 + 16 + 16x1 + 1
PACK_SIZE = 3137

penalty = st.sampled_from([0.0, -0.0, 1e-3, 0.1, 2.0, -0.1])


@st.composite
def prox_inputs(draw):
    """(z, cum_diag, group_size): zeros of both signs in z and in the
    diagonal, a few negative diagonal entries, and groups whose |z| <= 1e-160
    so that their squared norm underflows to 0."""
    if draw(st.integers(0, 9)) == 0:
        group_size, num_groups = 1, PACK_SIZE
    else:
        group_size, num_groups = draw(st.integers(1, 8)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = group_size * num_groups
    z = rng.normal(scale=10.0 ** rng.uniform(-2, 2), size=size)
    tiny = rng.random(num_groups) < 0.3
    z.reshape(num_groups, group_size)[tiny] *= 10.0 ** rng.uniform(-200, -160,
                                                                   (tiny.sum(), 1))
    z[rng.random(size) < 0.2] = 0.0
    z[rng.random(size) < 0.1] = -0.0
    cum_diag = 10.0 ** rng.uniform(-3, 3, size)
    cum_diag[rng.random(size) < 0.15] = 0.0
    cum_diag[rng.random(size) < 0.05] = -0.0
    cum_diag[rng.random(size) < 0.03] = -1.0
    if draw(st.booleans()):  # every diagonal entry with mass positive
        cum_diag[z != 0.0] = np.abs(cum_diag[z != 0.0]) + 1e-3
    return z, cum_diag, group_size


def f64(*values):
    return np.array(values, dtype=np.float64)


# inputs that reach the prox's nonpositive-diagonal branch: a zero diagonal
# with and without dual mass, a diagonal whose half rounds to 0 (5e-324 at
# lambda2 = 0; with mass there the exact gate divides by 0, see the edge
# cases), a diagonal of -2 * lambda2, and s = -0.0 over a zero diagonal
NONPOSITIVE_DIAGONAL_EXAMPLES = [
    ((f64(1.0, 2.0), f64(0.0, 1.0), 1), 0.0, 0.0, 0.0),
    ((f64(1.0, 2.0, 0.5, 0.0), f64(1.0, 0.0, 1.0, 1.0), 2), 0.0, 0.1, 0.0),
    ((f64(0.0, 2.0, 0.0, 0.0), f64(0.0, 1.0, -1.0, -0.0), 2), 0.0, 0.1, 0.0),
    ((f64(0.0, 2.0, 0.0, 3.0), f64(0.0, 1.0, 0.0, 2.0), 1), 1e-3, 0.0, 0.0),
    ((f64(0.0, 1.5, 0.0, -1.0), f64(5e-324, 2.0, 5e-324, 1.0), 2), 0.0, 0.1, 0.0),
    ((f64(0.0, 1.5), f64(5e-324, 2.0), 1), 0.0, 0.0, 0.0),
    ((f64(0.0, 1.0, -0.5), f64(-0.2, 1.0, 1.0), 3), 0.0, 0.1, 0.1),
    ((f64(-0.0, 1.0), f64(0.0, 1.0), 2), 0.0, 0.0, 0.0),
    ((f64(-0.0, -0.0, 1.0), f64(0.0, -0.0, 1.0), 1), 0.0, 0.1, 0.0),
]


def with_examples(cases):
    def decorate(test):
        for inputs, lambda1, lambda21, lambda2 in cases:
            for variant in VARIANTS:
                test = example(inputs=inputs, variant=variant, lambda1=lambda1,
                               lambda21=lambda21, lambda2=lambda2)(test)
        return test
    return decorate


class TestFrozenBits:
    @settings(max_examples=400, deadline=None)
    @with_examples(NONPOSITIVE_DIAGONAL_EXAMPLES)
    @given(inputs=prox_inputs(), variant=st.sampled_from(VARIANTS),
           lambda1=penalty, lambda21=penalty, lambda2=penalty)
    def test_same_bits_and_errors(self, inputs, variant, lambda1, lambda21, lambda2):
        z, cum_diag, group_size = inputs
        assert outcome(soft_threshold, z, lambda1) == outcome(frozen_soft_threshold, z, lambda1)
        # z itself stands in for a thresholded dual, -0.0 entries included
        for s in (z, frozen_soft_threshold(z, abs(lambda1))):
            args = (s, cum_diag, group_size, lambda21, lambda2, variant)
            assert outcome(group_shrink, *args) == outcome(frozen_group_shrink, *args)

    @pytest.mark.parametrize("lambda1", [0.0, 0.5])
    def test_soft_threshold_on_non_finite_input(self, lambda1):
        z = np.array([0.0, -0.0, 0.5, -0.5, 1.0, -1.0, np.inf, -np.inf, np.nan])
        with np.errstate(all="ignore"):  # 0 * inf warns in the frozen form
            assert outcome(soft_threshold, z, lambda1) == outcome(frozen_soft_threshold,
                                                                  z, lambda1)

    @pytest.mark.parametrize("lambda1", [np.inf, np.nan])
    def test_soft_threshold_refuses_a_non_finite_lambda1(self, lambda1):
        # a penalty is a real number in [0, inf), the rule of RegConfig and
        # ProxProblem; the frozen form took these and returned zeros or NaN
        z = np.array([0.0, -0.0, 0.5, -0.5, 1.0, -1.0, np.inf, -np.inf, np.nan])
        with pytest.raises(ValueError, match="lambda1 must be >= 0 and finite"):
            soft_threshold(z, lambda1)

    @pytest.mark.parametrize("args", [
        ([1.0, 2.0], [1.0, 1.0], 2, 0.0, 0.0, "nope"),
        ([1.0, 2.0], [1.0], 1, 0.0, 0.0, "practical"),
        ([1.0, 2.0, 3.0], [1.0, 1.0, 1.0], 2, 0.0, 0.0, "exact"),
        ([1.0, np.nan], [1.0, 1.0], 1, 0.1, 0.0, "practical"),
        ([1.0, 2.0], [1.0, np.nan], 2, 0.1, 0.0, "exact"),
        ([1e-300, 1.0], [1e-300, 1.0], 1, 0.0, 0.0, "practical"),
        ([], [], 4, 0.1, 0.1, "exact"),
        # dual mass over a diagonal whose half rounds to 0: the exact gate is
        # s / 0, finite x where s is tiny enough, else an overflow that raises
        ([1e-320, 0.5], [5e-324, 1.0], 2, 0.1, 0.0, "exact"),
        ([1.0, 0.5], [5e-324, 1.0], 2, 0.1, 0.0, "exact"),
    ])
    def test_same_bits_and_errors_on_edge_cases(self, args):
        s, cum_diag = np.array(args[0]), np.array(args[1])
        rest = args[2:]
        with np.errstate(all="ignore"):  # the non-finite cases may warn in both
            assert (outcome(group_shrink, s, cum_diag, *rest)
                    == outcome(frozen_group_shrink, s, cum_diag, *rest))


class TestNoWarnings:
    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("lambda21", [0.0, 0.5])
    def test_zero_diagonal_without_dual_mass(self, variant, lambda21):
        # zero and negative diagonal entries where s is 0, a group of only
        # such entries, and every penalty but lambda21 zero
        s = np.array([0.0, 2.0, -0.0, 0.0, 0.0, 0.0])
        cum_diag = np.array([0.0, 1.0, -0.0, -1.0, 0.0, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x = group_shrink(s, cum_diag, 2, lambda21, 0.0, variant)
            soft_threshold(s, 0.0)
            soft_threshold(s, 0.5)
        assert x.tobytes() == frozen_group_shrink(s, cum_diag, 2, lambda21, 0.0,
                                                  variant).tobytes()

    def test_dual_mass_over_a_diagonal_whose_half_rounds_to_zero(self):
        # the exact gate is 1e-300 / sqrt(0.5 * 5e-324) = 1e-300 / 0, an
        # infinite norm that keeps the coordinate: x = 1e-300 / 5e-324
        args = (np.array([1e-300, 0.0]), np.array([5e-324, 1.0]), 1, 0.0, 0.0, "exact")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x = group_shrink(*args)
        assert x.tobytes() == frozen_group_shrink(*args).tobytes()
        assert x[0] == 1e-300 / 5e-324
