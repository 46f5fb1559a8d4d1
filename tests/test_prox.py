import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from groupopt.blocks import make_rng
from groupopt.optimizers import RegConfig
from groupopt.prox import (
    PENALTIES,
    NonpositiveDiagonalError,
    ProxProblem,
    group_shrink,
    prox_oracle,
    prox_solve,
    random_problem,
    soft_threshold,
)
from oracles import prox_objective


class TestSoftThreshold:
    def test_dead_zone(self):
        assert_allclose(soft_threshold(np.array([0.5]), 1.0), [0.0])

    def test_outside_threshold(self):
        assert_allclose(soft_threshold(np.array([2.0, -3.0]), 0.5), [-1.5, 2.5])

    def test_zero_lambda_is_negation(self):
        assert_allclose(soft_threshold(np.array([7.0, -2.0]), 0.0), [-7.0, 2.0])

    def test_tie_maps_to_zero(self):
        assert_allclose(soft_threshold(np.array([1.0, -1.0]), 1.0), [0.0, 0.0])


class TestGroupShrink:
    def test_practical_worked_example(self):
        x = group_shrink(np.array([3.0, 4.0]), np.array([1.0, 1.0]), 2, 1.0, 0.0,
                         variant="practical")
        assert_allclose(x, [2.1514719, 2.8686292], atol=1e-7)

    def test_exact_worked_example(self):
        # same inputs, rescaled gate: ||s / sqrt(1/2)|| = 5*sqrt(2), factor 0.8
        x = group_shrink(np.array([3.0, 4.0]), np.array([1.0, 1.0]), 2, 1.0, 0.0,
                         variant="exact")
        assert_allclose(x, [2.4, 3.2], rtol=1e-12)

    def test_whole_group_zeroed(self):
        for variant in ("practical", "exact"):
            x = group_shrink(np.array([0.6, 0.8]), np.array([1.0, 1.0]), 2, 1.0, 0.0,
                             variant=variant)
            assert_allclose(x, [0.0, 0.0])

    def test_no_group_penalty_is_division(self):
        x = group_shrink(np.array([2.0, 4.0]), np.array([2.0, 4.0]), 2, 0.0, 0.0)
        assert_allclose(x, [1.0, 1.0])

    def test_zero_diag_with_mass_rejected(self):
        with pytest.raises(ValueError, match="nonpositive effective diagonal"):
            group_shrink(np.array([1.0, 2.0]), np.array([0.0, 1.0]), 1, 0.0, 0.0)

    def test_zero_diag_with_mass_is_a_typed_numeric_error(self):
        for variant in ("practical", "exact"):
            with pytest.raises(NonpositiveDiagonalError):
                group_shrink(np.array([1.0, 2.0]), np.array([0.0, 1.0]), 1, 0.0, 0.0,
                             variant=variant)

    def test_zero_diag_without_mass_passes(self):
        x = group_shrink(np.array([0.0, 2.0]), np.array([0.0, 1.0]), 1, 0.0, 0.0)
        assert_allclose(x, [0.0, 2.0])

    def test_numpy_integer_group_size_accepted(self):
        x = group_shrink(np.array([2.0, 4.0]), np.array([2.0, 4.0]), np.int64(2), 0.0, 0.0)
        assert_allclose(x, [1.0, 1.0])


def _shrink(s=np.ones(8), cum_diag=np.ones(8), group_size=2, lambda21=0.1, lambda2=0.0,
            variant="practical"):
    return lambda: group_shrink(s, cum_diag, group_size, lambda21, lambda2, variant)


# penalties refused as ProxProblem and RegConfig refuse them: a string once
# failed with a bare TypeError, and True ran as 1.0
BAD_PENALTIES = (-0.1, math.nan, math.inf, "0.1", True)

# one refusal per case, with its whole message
REFUSALS = [
    *((f"lambda1={v!r}", lambda v=v: soft_threshold(np.ones(2), v),
       f"lambda1 must be >= 0 and finite, got {v!r}") for v in BAD_PENALTIES),
    ("variant", _shrink(variant="nope"), "unknown variant 'nope'"),
    *((f"lambda21={v!r}", _shrink(lambda21=v),
       f"lambda21 and lambda2 must be >= 0 and finite, got {v!r}, 0.0") for v in BAD_PENALTIES),
    *((f"lambda2={v!r}", _shrink(lambda21=0.0, lambda2=v),
       f"lambda21 and lambda2 must be >= 0 and finite, got 0.0, {v!r}") for v in BAD_PENALTIES),
    ("shape", _shrink(cum_diag=np.ones(9), group_size=1),
     "s and cum_diag must have equal length"),
    # as ProxProblem: of any type, or not dividing the length
    *((f"group_size={size!r} {variant}", _shrink(group_size=size, variant=variant),
       f"group_size {size!r} is not a positive integer dividing the length 8")
      for size in (0, -8, -1, 2.0, 1.5, True, None, "2", 3)
      for variant in ("practical", "exact")),
]


C = 0.3
SUBNORMAL = 5e-324


def old_factor(norms, c):
    """The reference group factor max(1 - c/norm, 0): a dead group's c/0 is
    inf under np.errstate, and its factor +0.0."""
    with np.errstate(divide="ignore"):
        return np.maximum(1.0 - c / norms, 0.0)


class TestGroupFactor:
    """group_shrink forms a group's factor as 1 - c / max(norm, c), which must
    give the bits of max(1 - c/norm, 0) at every edge of the dead zone."""

    @pytest.mark.parametrize("s, lambda21", [
        ([0.0], C), ([-0.0], C),  # norm 0
        ([SUBNORMAL], C),  # its square underflows: norm 0
        ([1e-160], C),  # a subnormal square: norm 1e-160 < c
        ([0.0], SUBNORMAL), ([1e-160], SUBNORMAL),  # c subnormal; c/norm underflows
        ([C], C), ([-C], C),  # norm exactly c
        ([math.nextafter(C, 0.0)], C), ([math.nextafter(C, math.inf)], C),
        ([3.0, 4.0], 5.0 / math.sqrt(2.0)),  # norm 5 = c, as sqrt(2) * lambda21 rounds
        ([1e200, -1e200], C),  # squares overflow: norm +inf, factor 1
        ([1e-3, 2e-3, 0.0, 0.5, -0.5, 0.0], C)])  # three groups of 2: dead, live, live
    def test_factor_has_the_bits_of_max_one_minus_ratio(self, s, lambda21):
        s = np.array(s)
        group_size = 2 if s.size % 2 == 0 else 1
        cum_diag = np.full(s.size, 1.5)
        gate = s.reshape(-1, group_size)
        norms = np.sqrt(np.einsum("ij,ij->i", gate, gate))
        factor = old_factor(norms, math.sqrt(group_size) * lambda21)
        expected = (s + 0.0) * factor.repeat(group_size) / cum_diag
        got = group_shrink(s, cum_diag, group_size, lambda21, 0.0)
        assert got.tobytes() == expected.tobytes()

    def test_nan_norm_gives_nan_and_raises_as_before(self):
        c = np.array([C])
        assert np.isnan(1.0 - c / np.maximum(np.array([math.nan]), c)).all()
        assert np.isnan(old_factor(np.array([math.nan]), C)).all()
        with pytest.raises(NonpositiveDiagonalError):
            group_shrink(np.array([math.nan, 1.0]), np.ones(2), 2, C, 0.0)

    @pytest.mark.parametrize("variant", ["practical", "exact"])
    @pytest.mark.parametrize("lambda2", [0.0, 1e-3])
    def test_same_bits_under_a_callers_errstate_raise(self, variant, lambda2):
        # dead groups (norm 0, and a gate norm at or below c) divide by no 0
        rng = make_rng(9)
        s = rng.normal(size=24)
        s[:4] = 0.0
        s[4:8] *= 1e-3
        cum_diag = rng.uniform(0.5, 2.0, 24)
        args = (s, cum_diag, 4, 0.2, lambda2, variant)
        expected = group_shrink(*args)
        with np.errstate(all="raise"):
            got = group_shrink(*args)
        assert got.tobytes() == expected.tobytes()
        assert not got[:8].any() and got[8:].all()


@pytest.mark.parametrize("call, message", [case[1:] for case in REFUSALS],
                         ids=[case[0] for case in REFUSALS])
def test_prox_refusals(call, message):
    # a ValueError, never its NonpositiveDiagonalError nor a TypeError,
    # ZeroDivisionError or numpy reshape error
    with pytest.raises(ValueError) as info:
        call()
    assert type(info.value) is ValueError
    assert str(info.value) == message


class TestProxSolve:
    def test_l1_dead_zone_everywhere(self):
        p = ProxProblem(z=np.array([0.3, -0.2]), cum_diag=np.array([1.0, 1.0]),
                        group_size=2, lambda1=1.0, lambda21=0.7, lambda2=0.1)
        assert_allclose(prox_solve(p), [0.0, 0.0])

    def test_l1_only(self):
        p = ProxProblem(z=np.array([-5.0, -5.0]), cum_diag=np.array([1.0, 1.0]),
                        group_size=2, lambda1=1.0)
        assert_allclose(prox_solve(p), [4.0, 4.0])

    def test_mixed_example_matches_oracle(self):
        p = ProxProblem(z=np.array([-5.0, 12.0]), cum_diag=np.array([2.0, 2.0]),
                        group_size=2, lambda1=1.0, lambda21=1.0, lambda2=0.5,
                        variant="exact")
        oracle = prox_oracle(p)
        assert oracle.certified
        assert_allclose(prox_solve(p), oracle.x_star, atol=1e-7)


def penalty_message(build):
    """The message of the ValueError build() raises, or None if it builds."""
    try:
        build()
    except ValueError as exc:
        return str(exc)
    return None


class TestProxProblemValidation:
    @pytest.mark.parametrize("field, value, accepted", [
        *((name, value, True) for name in PENALTIES for value in (0.0, -0.0, 1e-3)),
        *((name, value, False) for name in PENALTIES
          for value in (math.inf, math.nan, -1.0, "0.1", True)),
        ("variant", "exact", True),
        ("variant", "nope", False),
    ])
    def test_one_penalty_rule_with_reg_config(self, field, value, accepted):
        # RegConfig and ProxProblem accept the same penalties and variant,
        # and refuse the rest with the same message
        reg = penalty_message(lambda: RegConfig(**{field: value}))
        prox = penalty_message(lambda: ProxProblem(z=np.ones(4), cum_diag=np.ones(4),
                                                   group_size=2, **{field: value}))
        assert reg == prox
        assert (reg is None) == accepted

    @pytest.mark.parametrize("group_size", [0, -2, 3, 2.0, 1.5, True, None, "2"])
    def test_group_size_must_be_a_positive_integer_dividing_the_length(self, group_size):
        # 2.0 and True used to pass, and prox_oracle then failed with a TypeError
        with pytest.raises(ValueError) as info:
            ProxProblem(z=np.ones(4), cum_diag=np.ones(4), group_size=group_size)
        assert str(info.value) == ("group_size 3 does not divide the length 4"
                                   if group_size == 3 else
                                   f"group_size: must be an integer >= 1, got {group_size!r}")

    @pytest.mark.parametrize("value", [-0.1, float("nan")])
    @pytest.mark.parametrize("penalty", ["lambda1", "lambda21", "lambda2"])
    def test_penalties_must_be_nonnegative(self, penalty, value):
        # NaN passes a check written as x < 0, and prox_solve then reported
        # a nonpositive effective diagonal
        with pytest.raises(ValueError) as info:
            ProxProblem(z=np.ones(4), cum_diag=np.ones(4), group_size=2, **{penalty: value})
        assert str(info.value) == f"{penalty}: must be a real number in [0, inf), got {value!r}"

    @pytest.mark.parametrize("diag", [-1.0, float("nan")])
    def test_diagonal_must_be_nonnegative(self, diag):
        # a NaN diagonal used to pass, and prox_solve then reported a
        # nonpositive effective diagonal
        with pytest.raises(ValueError, match="^cum_diag has an entry below 0 or NaN$"):
            ProxProblem(z=np.ones(2), cum_diag=np.array([diag, 1.0]), group_size=1)

    def test_numpy_integer_group_size_accepted(self):
        p = ProxProblem(z=np.array([-2.0, 4.0]), cum_diag=np.array([2.0, 4.0]),
                        group_size=np.int64(2), variant="exact")
        assert prox_oracle(p).certified
        assert_allclose(prox_solve(p), [1.0, -1.0])


class TestProxOracle:
    def test_unpenalized_quadratic_minimum(self):
        rng = make_rng(1)
        z = rng.normal(size=6)
        diag = rng.uniform(0.5, 2.0, size=6)
        p = ProxProblem(z=z, cum_diag=diag, group_size=3)
        oracle = prox_oracle(p)
        assert oracle.certified
        assert_allclose(oracle.x_star, -z / diag, atol=1e-9)

    def test_zero_dual_gives_origin(self):
        p = ProxProblem(z=np.zeros(4), cum_diag=np.ones(4), group_size=2,
                        lambda1=0.3, lambda21=0.2, lambda2=0.1)
        oracle = prox_oracle(p)
        assert oracle.certified
        assert_allclose(oracle.x_star, np.zeros(4), atol=1e-12)

    def test_dimension_cap(self):
        p = ProxProblem(z=np.zeros(128), cum_diag=np.ones(128), group_size=2)
        with pytest.raises(ValueError):
            prox_oracle(p)

    def test_exact_variant_agrees_on_random_problems(self):
        rng = make_rng(7)
        for _ in range(150):
            p = random_problem(rng, variant="exact")
            oracle = prox_oracle(p)
            assert oracle.certified
            assert_allclose(prox_solve(p), oracle.x_star, atol=1e-6)

    def test_closed_form_beats_random_perturbations(self):
        rng = make_rng(11)
        for _ in range(25):
            p = random_problem(rng, variant="exact")
            x = prox_solve(p)
            base = prox_objective(p, x)
            for _ in range(20):
                delta = rng.normal(scale=1e-3, size=p.dim)
                assert prox_objective(p, x + delta) >= base - 1e-12


def st_problem(variant):
    """Small random problems as a hypothesis composite."""

    @st.composite
    def build(draw):
        num_groups = draw(st.integers(1, 4))
        group_size = draw(st.integers(1, 4))
        dim = num_groups * group_size
        z = draw(st.lists(st.floats(-20, 20), min_size=dim, max_size=dim))
        diag = draw(st.lists(st.floats(0.05, 50), min_size=dim, max_size=dim))
        lam1 = draw(st.floats(0, 5))
        lam21 = draw(st.floats(0, 5))
        lam2 = draw(st.floats(0, 2))
        return ProxProblem(z=np.array(z), cum_diag=np.array(diag),
                           group_size=group_size, lambda1=lam1,
                           lambda21=lam21, lambda2=lam2, variant=variant)

    return build()


class TestStructuralProperties:
    @given(st_problem("practical"))
    @settings(max_examples=150, deadline=None)
    def test_dead_zone_property(self, p):
        x = prox_solve(p)
        inside = np.abs(p.z) <= p.lambda1
        assert np.all(x[inside] == 0.0)

    @given(st_problem("exact"))
    @settings(max_examples=150, deadline=None)
    def test_sign_property(self, p):
        x = prox_solve(p)
        nz = x != 0.0
        assert np.all(np.sign(x[nz]) == -np.sign(p.z[nz]))

    @given(st_problem("practical"), st_problem("exact"))
    @settings(max_examples=100, deadline=None)
    def test_zeroing_gate(self, pp, pe):
        for p in (pp, pe):
            s = soft_threshold(p.z, p.lambda1)
            if p.variant == "exact":
                half = 0.5 * p.cum_diag + p.lambda2
                gate = np.where(s != 0.0, s / np.sqrt(half), 0.0)
            else:
                gate = s
            norms = np.sqrt(np.sum(gate.reshape(-1, p.group_size) ** 2, axis=1))
            zeroed = norms <= np.sqrt(p.group_size) * p.lambda21
            x = prox_solve(p).reshape(-1, p.group_size)
            group_is_zero = np.all(x == 0.0, axis=1)
            assert np.array_equal(group_is_zero, zeroed)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_monotone_sparsity_in_lambda21(self, seed):
        rng = np.random.default_rng(seed)
        dim, gs = 12, 3
        z = rng.normal(scale=3.0, size=dim)
        diag = rng.uniform(0.1, 5.0, size=dim)
        for variant in ("practical", "exact"):
            prev_zeroed = None
            for lam21 in (0.0, 0.3, 1.0, 3.0, 10.0):
                p = ProxProblem(z=z, cum_diag=diag, group_size=gs,
                                lambda1=0.5, lambda21=lam21, lambda2=0.05,
                                variant=variant)
                x = prox_solve(p).reshape(-1, gs)
                zeroed = set(np.flatnonzero(np.all(x == 0.0, axis=1)))
                if prev_zeroed is not None:
                    assert zeroed >= prev_zeroed
                prev_zeroed = zeroed

    @given(st.integers(0, 2**31 - 1), st.floats(0.0, 0.45))
    @settings(max_examples=60, deadline=None)
    def test_variants_coincide_when_transform_is_identity(self, seed, lam2):
        # cum_diag/2 + lambda2 == 1 makes the rescaled gate equal s itself
        rng = np.random.default_rng(seed)
        dim, gs = 8, 4
        z = rng.normal(scale=4.0, size=dim)
        diag = np.full(dim, 2.0 * (1.0 - lam2))
        xs = []
        for variant in ("practical", "exact"):
            p = ProxProblem(z=z, cum_diag=diag, group_size=gs, lambda1=0.4,
                            lambda21=0.8, lambda2=lam2, variant=variant)
            xs.append(prox_solve(p))
        assert_allclose(xs[0], xs[1], rtol=1e-12, atol=1e-15)
