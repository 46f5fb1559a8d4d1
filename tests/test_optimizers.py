import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from groupopt import optimizers
from groupopt.blocks import ParamBlock, make_rng
from groupopt.model import DENSE, EMBEDDING, ModelConfig, init_params
from groupopt.optimizers import (
    GROUP_NAMES,
    GroupOptimizer,
    MomentSchedule,
    NO_REG,
    OPTIMIZER_NAMES,
    OptimizerState,
    PoisonedStateError,
    RegConfig,
    make_optimizer,
    step_group,
)
from oracles import fresh_step_group, ftrl_step, scatter_rows, vanilla_step

KINDS = ("sgd", "momentum", "adagrad", "adam", "amsgrad")
SCHEDULE_KIND_WORDS = "one of 'sgd', 'momentum', 'adagrad', 'adam', 'amsgrad'"


def quadratic_grad(x, center):
    return x - center


def logistic_grad(x, features, labels):
    p = 1.0 / (1.0 + np.exp(-(features @ x)))
    return features.T @ (p - labels) / len(labels)


def run_pair(kind, seed, steps=60, dim=6, objective="quadratic"):
    """Group path at zero regularization vs the vanilla reference."""
    rng = make_rng(seed)
    x0 = rng.normal(size=dim)
    center = rng.normal(size=dim)
    features = rng.normal(size=(12, dim))
    labels = (rng.random(12) < 0.5).astype(np.float64)
    schedule = MomentSchedule(kind=kind)
    lr = 0.05

    worst = 0.0
    blocks = [ParamBlock("w", x0.copy()), ParamBlock("w", x0.copy())]
    states = [OptimizerState(dim, kind), OptimizerState(dim, kind)]
    for _ in range(steps):
        for block, state, stepper in zip(blocks, states, (step_group, vanilla_step)):
            if objective == "quadratic":
                g = quadratic_grad(block.values, center)
            else:
                g = logistic_grad(block.values, features, labels)
            stepper(state, block, g, schedule, lr)
        worst = max(worst, float(np.max(np.abs(blocks[0].values - blocks[1].values))))
    return worst


class TestHandSteps:
    def test_single_step_cumulative_schedule(self):
        # g=[2], lr=1, eps=0: V=[4], z=[2], s=[-2], x=[-1]
        state = OptimizerState(1, "adagrad")
        block = ParamBlock("w", np.zeros(1))
        schedule = MomentSchedule(kind="adagrad", epsilon=0.0)
        _, root = step_group(state, block, np.array([2.0]), schedule, 1.0)
        assert_allclose(state.arrays["z"], [2.0])
        assert_allclose(root, [2.0])
        assert_allclose(block.values, [-1.0])

    def test_vanilla_sgd_first_step(self):
        state = OptimizerState(1, "sgd")
        block = ParamBlock("w", np.ones(1))
        vanilla_step(state, block, np.array([1.0]), MomentSchedule(kind="sgd"), 1.0)
        assert_allclose(block.values, [0.0])

    def test_vanilla_momentum_first_step_is_gradient(self):
        state = OptimizerState(2, "momentum")
        block = ParamBlock("w", np.zeros(2))
        schedule = MomentSchedule(kind="momentum", gamma=0.9)
        vanilla_step(state, block, np.array([1.0, -2.0]), schedule, 0.5)
        assert_allclose(block.values, [-0.5, 1.0])
        assert_allclose(state.arrays["m_hat"], [1.0, -2.0])

    def test_momentum_root_is_constant_after_first_step(self):
        state = OptimizerState(1, "momentum")
        block = ParamBlock("w", np.zeros(1))
        schedule = MomentSchedule(kind="momentum", gamma=0.5)
        for g in ([1.0], [0.25], [-2.0]):
            _, root = step_group(state, block, np.array(g), schedule, 0.1)
            assert_allclose(root, [10.0])

    def test_vanilla_adagrad_epsilon_zero_leaves_unseen_coordinates(self):
        # at epsilon 0 a coordinate with no gradient yet has v_hat = 0; the
        # oracle keeps it put instead of taking 0/0 and poisoning the state
        state = OptimizerState(4, "adagrad")
        block = ParamBlock("e", np.full(4, 0.5), group_size=2)
        schedule = MomentSchedule(kind="adagrad", epsilon=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vanilla_step(state, block, np.array([0.0, 0.0, 1.0, 2.0]), schedule, 0.1)
            assert block.values.tolist() == [0.5, 0.5, 0.4, 0.4]
            vanilla_step(state, block, np.array([0.0, -3.0, 0.0, 0.0]), schedule, 0.1)
        assert block.values.tolist() == [0.5, 0.6, 0.4, 0.4]
        assert not state.poisoned

    @pytest.mark.parametrize("name", ["adagrad", "ftrl"])
    def test_adagrad_epsilon_zero_zeroes_unseen_coordinates(self, name):
        # on the dual path a coordinate with no gradient yet has no dual mass
        # and a zero root, so it sits at 0 from the first step, as under FTRL
        opt = make_optimizer(name, 0.1, schedule_args={"epsilon": 0.0})
        block = ParamBlock("e", np.full(4, 0.5), group_size=2)
        ftrl_state, ftrl_block = OptimizerState(4, "adagrad"), ParamBlock("e", np.full(4, 0.5))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            opt.step(block, np.array([0.0, 0.0, 1.0, 2.0]))
            ftrl_step(ftrl_state, ftrl_block, np.array([0.0, 0.0, 1.0, 2.0]), 0.1)
            assert block.values.tolist() == ftrl_block.values.tolist() == [0.0, 0.0, 0.4, 0.4]
            opt.step(block, np.array([0.0, -3.0]), rows=[0])
        assert block.values.tolist() == [0.0, 0.1, 0.4, 0.4]
        assert not opt.states["e"].poisoned

    def test_huge_group_penalty_zeroes_in_one_step(self):
        state = OptimizerState(6, "adagrad")
        block = ParamBlock("e", make_rng(0).normal(size=6), group_size=3)
        reg = RegConfig(lambda21=1e9)
        schedule = MomentSchedule(kind="adagrad")
        step_group(state, block, make_rng(1).normal(size=6), schedule, 0.1, reg)
        assert_allclose(block.values, np.zeros(6))


class TestEquivalenceAtZeroRegularization:
    @pytest.mark.parametrize("kind", KINDS)
    def test_quadratic(self, kind):
        for seed in range(5):
            assert run_pair(kind, seed, objective="quadratic") <= 1e-9

    @pytest.mark.parametrize("kind", KINDS)
    def test_logistic(self, kind):
        for seed in range(5):
            assert run_pair(kind, seed, objective="logistic") <= 1e-9


class TestFtrlIdentity:
    def test_matches_size_one_group_cumulative_path(self):
        rng = make_rng(3)
        dim = 5
        lam1 = 0.3
        for seed in range(8):
            rng = make_rng(seed)
            center = rng.normal(size=dim)
            group = GroupOptimizer(MomentSchedule(kind="adagrad", epsilon=0.0), 0.5,
                                   RegConfig(lambda1=lam1))
            ftrl = OptimizerState(dim, "adagrad")
            a = ParamBlock("w", np.zeros(dim), group_size=1)
            b = ParamBlock("w", np.zeros(dim))
            for _ in range(100):
                ga = quadratic_grad(a.values, center)
                gb = quadratic_grad(b.values, center)
                group.step(a, ga)
                ftrl_step(ftrl, b, gb, 0.5, lam1)
                assert np.max(np.abs(a.values - b.values)) <= 1e-9

    def test_zero_l1_matches_vanilla_cumulative(self):
        rng = make_rng(9)
        dim = 4
        center = rng.normal(size=dim)
        ftrl, vanilla = OptimizerState(dim, "adagrad"), OptimizerState(dim, "adagrad")
        schedule = MomentSchedule(kind="adagrad", epsilon=0.0)
        a = ParamBlock("w", np.zeros(dim))
        b = ParamBlock("w", np.zeros(dim))
        for _ in range(100):
            ftrl_step(ftrl, a, quadratic_grad(a.values, center), 0.5)
            vanilla_step(vanilla, b, quadratic_grad(b.values, center), schedule, 0.5)
        assert np.max(np.abs(a.values - b.values)) <= 1e-9

    def test_dead_zone(self):
        state = OptimizerState(2, "adagrad")
        block = ParamBlock("w", np.zeros(2))
        ftrl_step(state, block, np.array([0.01, -0.02]), 1.0, lambda1=10.0)
        assert_allclose(block.values, [0.0, 0.0])


class TestTelescoping:
    @pytest.mark.parametrize("kind", KINDS)
    def test_scaled_root_matches_fresh_recompute(self, kind):
        rng = make_rng(17)
        dim, steps, lr = 4, 50, 0.2
        schedule = MomentSchedule(kind=kind)
        state = OptimizerState(dim, kind)
        block = ParamBlock("w", rng.normal(size=dim))
        grads = []
        center = rng.normal(size=dim)
        for _ in range(steps):
            g = quadratic_grad(block.values, center)
            grads.append(g.copy())
            _, root = step_group(state, block, g, schedule, lr)

        t = steps
        if kind == "sgd":
            expected = np.full(dim, np.sqrt(t) / lr)
        elif kind == "momentum":
            expected = np.full(dim, 1.0 / lr)
        elif kind == "adagrad":
            expected = np.sqrt(np.sum(np.square(grads), axis=0) + schedule.epsilon) / lr
        else:
            v = np.zeros(dim)
            for g in grads:
                candidate = schedule.beta2 * v + (1 - schedule.beta2) * g * g
                v = np.maximum(v, candidate) if kind == "amsgrad" else candidate
            bc2 = 1 - schedule.beta2**t
            expected = (np.sqrt(v / bc2) + schedule.epsilon / np.sqrt(bc2)) / lr
        assert np.max(np.abs(root - expected)) <= 1e-12


class TestEpsilonHandling:
    def test_noncompounding_bias_scaling(self):
        # the stabilizer at step t must be eps0/sqrt(1-beta2^t), from eps0 each time
        eps0, beta2 = 1e-3, 0.9
        schedule = MomentSchedule(kind="adam", beta1=0.5, beta2=beta2, epsilon=eps0)
        state = OptimizerState(1, "adam")
        block = ParamBlock("w", np.zeros(1))
        lr = 1.0
        grads = [np.array([1.0]), np.array([2.0])]
        v = 0.0
        for t, g in enumerate(grads, start=1):
            step_group(state, block, g, schedule, lr)
            v = beta2 * v + (1 - beta2) * float(g[0]) ** 2
            bc2 = 1 - beta2**t
            observed_eps = float(state.arrays["prev_scaled_root"][0]) * lr - np.sqrt(v / bc2)
            assert_allclose(observed_eps, eps0 / np.sqrt(bc2), rtol=1e-12)


class TestStateSafety:
    def test_nan_gradient_poisons(self):
        state = OptimizerState(2, "adam")
        block = ParamBlock("w", np.zeros(2))
        schedule = MomentSchedule(kind="adam")
        with pytest.raises(PoisonedStateError):
            step_group(state, block, np.array([np.nan, 0.0]), schedule, 0.1)
        with pytest.raises(PoisonedStateError):
            step_group(state, block, np.zeros(2), schedule, 0.1)

    def test_overflowing_dual_poisons_dense_step(self):
        # finite gradients whose running dual overflows to inf on step 2
        state = OptimizerState(2, "sgd")
        block = ParamBlock("w", np.zeros(2))
        schedule = MomentSchedule(kind="sgd")
        grad = np.full(2, 1e308)
        step_group(state, block, grad, schedule, 0.1)
        with np.errstate(over="ignore"), pytest.raises(PoisonedStateError, match="dual"):
            step_group(state, block, grad, schedule, 0.1)
        assert state.poisoned
        with pytest.raises(PoisonedStateError):
            step_group(state, block, np.zeros(2), schedule, 0.1)

    def test_overflowing_dual_poisons_row_step(self):
        # a 1e200 row squares to inf, so R_t and the dual of that row are not finite
        opt = GroupOptimizer(MomentSchedule(kind="adagrad"), 0.1)
        block = ParamBlock("e", np.zeros(6), group_size=2)
        opt.step(block, np.ones(6))
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(PoisonedStateError, match="dual"):
            opt.step(block, np.full(2, 1e200), rows=[0])
        assert opt.states["e"].poisoned
        with pytest.raises(PoisonedStateError):
            opt.step(block, np.zeros(2), rows=[0])

    def test_prox_failure_poisons_dense_step(self):
        # R = 1/lr = 1e-10 under a dual of 1e300: x = -z/R overflows
        state = OptimizerState(2, "sgd")
        block = ParamBlock("w", np.ones(2))
        schedule = MomentSchedule(kind="sgd")
        with np.errstate(over="ignore"), pytest.raises(
                PoisonedStateError,
                match="nonpositive effective diagonal: no finite parameters for block 'w'"):
            step_group(state, block, np.array([0.0, 1e300]), schedule, 1e10)
        assert state.poisoned
        assert block.values.tolist() == [1.0, 1.0]
        with pytest.raises(PoisonedStateError, match="poisoned"):
            step_group(state, block, np.zeros(2), schedule, 1e10)

    def test_prox_failure_poisons_row_step(self):
        # at epsilon 0 a gradient of 1e-170 squares to 0: dual mass on a zero root
        opt = GroupOptimizer(MomentSchedule(kind="adagrad", epsilon=0.0), 0.1)
        block = ParamBlock("e", np.zeros(6), group_size=2)
        opt.step(block, np.ones(2), rows=[0])
        before = block.values.copy()
        with pytest.raises(PoisonedStateError,
                           match="nonpositive effective diagonal: no finite parameters "
                                 "for block 'e'"):
            opt.step(block, np.array([1e-170, 0.0]), rows=[2])
        assert opt.states["e"].poisoned
        assert np.array_equal(block.values, before)
        with pytest.raises(PoisonedStateError, match="poisoned"):
            opt.step(block, np.zeros(2), rows=[0])

    def test_dimension_mismatch(self):
        state = OptimizerState(2, "sgd")
        block = ParamBlock("w", np.zeros(3))
        with pytest.raises(ValueError):
            step_group(state, block, np.zeros(3), MomentSchedule(kind="sgd"), 0.1)

    def test_nonpositive_lr(self):
        state = OptimizerState(1, "sgd")
        block = ParamBlock("w", np.zeros(1))
        with pytest.raises(ValueError):
            step_group(state, block, np.ones(1), MomentSchedule(kind="sgd"), 0.0)

    @pytest.mark.parametrize("lr, shown", [
        ("0.1", "'0.1'"), (True, "True"), (False, "False"), (float("nan"), "nan"),
        (float("inf"), "inf"), (-float("inf"), "-inf"), (0.0, "0.0"), (-0.5, "-0.5"),
        (0, "0"), (None, "None")])
    def test_an_lr_other_than_a_positive_finite_real_is_refused(self, lr, shown):
        # a string or None compared with 0 raised a bare TypeError, and a
        # bool stepped as 0 or 1; both entry points refuse before any change
        message = f"lr: must be a real number in (0, inf), got {shown}"
        state = OptimizerState(2, "adagrad")
        block = ParamBlock("w", np.ones(2))
        with pytest.raises(ValueError) as info:
            step_group(state, block, np.ones(2), MomentSchedule(kind="adagrad"), lr)
        assert type(info.value) is ValueError and str(info.value) == message
        assert state.t == 0 and not state.poisoned and block.values.tolist() == [1.0, 1.0]
        with pytest.raises(ValueError) as info:
            GroupOptimizer(MomentSchedule(kind="adagrad"), lr)
        assert type(info.value) is ValueError and str(info.value) == message

    @pytest.mark.parametrize("lr", [1, np.float64(0.1), np.int64(2), 1e-300])
    def test_a_positive_finite_real_lr_of_any_type_is_taken(self, lr):
        for opt in (GroupOptimizer(MomentSchedule(kind="adagrad"), lr), None):
            state = OptimizerState(2, "adagrad")
            block = ParamBlock("w", np.ones(2))
            if opt is None:
                step_group(state, block, np.ones(2), MomentSchedule(kind="adagrad"), lr)
            else:
                opt.step(block, np.ones(2))
                state = opt.states["w"]
            assert state.t == 1 and state.prev_lr == lr

    def test_nan_hyperparameters_rejected(self):
        # NaN passes a check written as x < 0
        nan = float("nan")
        for penalty_name in ("lambda1", "lambda21", "lambda2"):
            # an infinite penalty trains to AUC 0.5, or makes the regret bound NaN
            for bad in (nan, float("inf")):
                with pytest.raises(ValueError, match=rf"^{penalty_name}: must be a real number "
                                                     rf"in \[0, inf\), got {bad}$"):
                    RegConfig(**{penalty_name: bad})
        # inf passes a check written as x > 0 or x >= 0 and would fail on the first step
        for bad in (nan, float("inf")):
            with pytest.raises(ValueError, match=rf"^epsilon: must be a real number in "
                                                 rf"\[0, inf\), got {bad}$"):
                MomentSchedule(kind="adagrad", epsilon=bad)
            state = OptimizerState(1, "sgd")
            block = ParamBlock("w", np.zeros(1))
            with pytest.raises(ValueError, match=rf"^lr: must be a real number in "
                                                 rf"\(0, inf\), got {bad}$"):
                step_group(state, block, np.ones(1), MomentSchedule(kind="sgd"), bad)
            assert state.t == 0 and not state.poisoned

    def test_schedule_validation(self):
        # a value that is no real number, or out of range, is refused by its
        # field's name
        for field, bad in (("beta1", 1.0), ("beta1", "0.9"), ("gamma", None), ("beta2", True),
                           ("epsilon", [1e-8]), ("gamma", -0.1), ("kind", "nope")):
            with pytest.raises(ValueError) as info:
                MomentSchedule(**{"kind": "momentum", field: bad})
            domain = {"epsilon": "a real number in [0, inf)", "kind": SCHEDULE_KIND_WORDS}
            assert str(info.value) == (f"{field}: must be "
                                       f"{domain.get(field, 'a real number in [0, 1)')}, "
                                       f"got {bad!r}")


def failing_step(path, check):
    """Steps 1 and 2 of an epsilon-0 adagrad on 3 groups of 2, gradient on
    group 0 alone, then a step 3 whose gradient on group 2 fails check: a
    NaN, 1e200, which squares to inf (a dual of 0 * inf), or 1e-170, which
    squares to 0 (dual mass on a zero root). Returns step 3's error and the
    state."""
    schedule = MomentSchedule(kind="adagrad", epsilon=0.0)
    state, opt = OptimizerState(6, "adagrad"), GroupOptimizer(schedule, 0.1)
    opt.states["e"] = state
    block = ParamBlock("e", np.zeros(6), group_size=2)
    planted = {"gradient": np.nan, "dual": 1e200, "prox": 1e-170}[check]
    for rows, g in (([0], [1.0, -1.0]), ([0], [0.5, 0.5]), ([2], [planted, 0.0])):
        rows = np.array(rows)
        dense = scatter_rows(block, g, rows)
        with np.errstate(all="ignore"):
            try:
                if path == "step_group":
                    step_group(state, block, dense, schedule, 0.1)
                else:
                    opt.step(block, *((np.array(g), rows) if path == "lazy" else (dense,)))
            except PoisonedStateError as exc:
                assert state.poisoned
                return exc, state
    raise AssertionError("step 3 did not fail")


class TestFailureReports:
    """A PoisonedStateError says which check fired, for which block and at
    which step."""

    @pytest.mark.parametrize("path", ["step_group", "dense", "lazy"])
    @pytest.mark.parametrize("check, message", [
        ("gradient", "non-finite gradient"), ("dual", "non-finite dual"),
        ("prox", "nonpositive effective diagonal: no finite parameters")])
    def test_error_names_block_step_and_check(self, path, check, message):
        exc, state = failing_step(path, check)
        assert (exc.block, exc.step, exc.check) == ("e", 3, check)
        assert str(exc) == f"{message} for block 'e' at step 3"
        # one rule on every path: a prox failure counts as a step, the others not
        assert (state.t, state.prev_lr) == (3 if check == "prox" else 2, 0.1)

    def test_a_poisoned_state_names_nothing(self):
        state = OptimizerState(2, "sgd")
        state.poisoned = True
        with pytest.raises(PoisonedStateError, match="^optimizer state is poisoned$") as info:
            step_group(state, ParamBlock("w", np.zeros(2)), np.zeros(2),
                       MomentSchedule(kind="sgd"), 0.1)
        assert (info.value.block, info.value.step, info.value.check) == (None, None, None)


class TestDriverChecks:
    @pytest.mark.parametrize("name", OPTIMIZER_NAMES)
    def test_every_driver_checks_its_steps(self, name):
        opt = make_optimizer(name, 0.1, RegConfig(lambda1=1e-3))
        block = ParamBlock("w", np.zeros(3))
        with pytest.raises(ValueError):
            opt.step(block, np.zeros(4))
        with pytest.raises(PoisonedStateError):
            opt.step(block, np.array([0.0, np.nan, 0.0]))
        with pytest.raises(PoisonedStateError):
            opt.step(block, np.zeros(3))


class TestRegTargeting:
    def test_string_apply_to_rejected(self):
        # a string would become a set of its characters and match no block
        with pytest.raises(ValueError, match="^apply_to: must be a collection of block names or "
                                             "None, got 'embedding'$"):
            RegConfig(lambda21=0.1, apply_to="embedding")
        assert RegConfig(apply_to=["embedding"]).applies_to("embedding")

    def test_untargeted_block_takes_plain_path(self):
        reg = RegConfig(lambda1=5.0, lambda21=5.0, lambda2=5.0,
                        apply_to=frozenset({"embedding"}))
        schedule = MomentSchedule(kind="adagrad", epsilon=0.0)
        center = make_rng(2).normal(size=3)

        regularized = GroupOptimizer(schedule, 0.5, reg)
        plain = OptimizerState(3, "adagrad")
        a = ParamBlock("dense", np.zeros(3))
        b = ParamBlock("dense", np.zeros(3))
        for _ in range(30):
            regularized.step(a, quadratic_grad(a.values, center))
            vanilla_step(plain, b, quadratic_grad(b.values, center), schedule, 0.5)
        assert np.max(np.abs(a.values - b.values)) <= 1e-9

    def test_apply_to_none_penalizes_ungrouped_blocks_as_size_one_groups(self):
        # g=[2, 0.1], lr=1, eps=0: R=|g|, s=-g; each coordinate is its own
        # group, so lambda21=0.5 zeroes the small one alone: x=[0.75*-2/2, 0]
        schedule = MomentSchedule(kind="adagrad", epsilon=0.0)
        opt = GroupOptimizer(schedule, 1.0, RegConfig(lambda21=0.5))
        block = ParamBlock("dense", np.zeros(2))
        opt.step(block, np.array([2.0, 0.1]))
        assert_allclose(block.values, [-0.75, 0.0])

        opt = GroupOptimizer(MomentSchedule(kind="adagrad"), 0.5, RegConfig(lambda1=10.0))
        block = ParamBlock("dense", np.zeros(2))
        opt.step(block, np.array([0.5, -0.5]))
        assert np.array_equal(block.values, [0.0, 0.0])

    def test_targeted_block_is_regularized(self):
        reg = RegConfig(lambda1=5.0, apply_to=frozenset({"embedding"}))
        opt = GroupOptimizer(MomentSchedule(kind="adagrad"), 0.5, reg)
        block = ParamBlock("embedding", np.zeros(2), group_size=1)
        opt.step(block, np.array([0.5, -0.5]))
        assert_allclose(block.values, [0.0, 0.0])


def sparse_row_stream(seed, num_groups, group_size, steps):
    """Gradients that are zero outside a few random rows; row ids repeat."""
    rng = make_rng(seed)
    for _ in range(steps):
        rows = rng.integers(0, num_groups, size=int(rng.integers(0, 2 * num_groups)))
        grad = np.zeros((num_groups, group_size))
        grad[rows] = rng.normal(scale=10.0 ** rng.uniform(-2, 1), size=(rows.size, group_size))
        yield grad.ravel(), rows


def row_form(grad, rows, group_size):
    """(the rows' gradients, the sorted unique rows): the form in which step
    takes rows, as model.backward returns the embedding gradient."""
    rows = np.unique(rows)
    return grad.reshape(-1, group_size)[rows].ravel(), rows



def state_bits(opt, block):
    """The bits of block's values, the names and bits of every array its
    state holds, then the state's step count."""
    state = opt.states[block.name]
    arrays = sorted(state.arrays.items())
    return [block.values.tobytes(), [name for name, _ in arrays],
            *(a.tobytes() for _, a in arrays), state.t]


penalty = st.one_of(st.just(0.0), st.floats(1e-4, 1.0))


ADAGRAD_FAMILY = ("group-adagrad", "adagrad", "ftrl")
# the lazy row step, and the dense step it falls back to
ROW_CHECKED = (*ADAGRAD_FAMILY, "group-adam")


def steps_alike(opts, blocks, grad, rows):
    """Step opts[0] with the rows' gradients and opts[1] densely; both must
    raise alike."""
    raised = []
    compact, rows = row_form(grad, rows, blocks[0].group_size)
    for opt, block, args in zip(opts, blocks, ((compact, rows), (grad, None))):
        try:
            opt.step(block, *args)
        except PoisonedStateError:
            raised.append(True)
        else:
            raised.append(False)
    assert raised[0] == raised[1]
    return raised[0]


class TestRowPath:
    @settings(max_examples=150, deadline=None)
    @given(name=st.sampled_from(ADAGRAD_FAMILY),
           seed=st.integers(0, 2**31 - 1), num_groups=st.integers(1, 12),
           group_size=st.integers(1, 4), steps=st.integers(1, 12),
           epsilon=st.sampled_from([0.0, 1e-8]),
           variant=st.sampled_from(["practical", "exact"]),
           lambda1=penalty, lambda21=penalty, lambda2=penalty)
    def test_adagrad_rows_match_dense_bit_for_bit(self, name, seed, num_groups, group_size,
                                                  steps, epsilon, variant,
                                                  lambda1, lambda21, lambda2):
        # a step that poisons one path must poison the other
        reg = RegConfig(lambda1=lambda1, lambda21=lambda21, lambda2=lambda2,
                        variant=variant)
        x0 = make_rng(seed + 1).uniform(-0.5, 0.5, num_groups * group_size)
        opts = [make_optimizer(name, 0.3, reg, {"epsilon": epsilon}) for _ in range(2)]
        blocks = [ParamBlock("e", x0.copy(), group_size=group_size) for _ in range(2)]
        for grad, rows in sparse_row_stream(seed, num_groups, group_size, steps):
            if steps_alike(opts, blocks, grad, rows):
                break
            assert state_bits(opts[0], blocks[0]) == state_bits(opts[1], blocks[1])
            assert opts[0].states["e"].t == opts[1].states["e"].t

    def test_adagrad_steps_only_the_listed_rows(self, monkeypatch):
        # the update sees the whole block on step 1 and the listed row after
        seen = []
        update = optimizers._dual_step
        monkeypatch.setattr(optimizers, "_dual_step",
                            lambda a, *args: (seen.append(a["z"].size), update(a, *args))[1])
        for name in ADAGRAD_FAMILY:
            opt = make_optimizer(name, 0.1)
            seen.clear()
            block = ParamBlock("e", np.zeros(6), group_size=2)
            opt.step(block, np.ones(2), rows=np.array([0]))
            before = block.values.copy()
            opt.step(block, np.ones(2), rows=np.array([2]))
            assert seen == [6, 2], name
            assert np.array_equal(block.values[:4], before[:4]), name
            assert not np.array_equal(block.values[4:], before[4:]), name

    @pytest.mark.parametrize("name", ["group-sgd", "group-momentum", "group-adam",
                                      "group-amsgrad", "adam"])
    def test_rows_have_no_effect_elsewhere(self, name):
        reg = RegConfig(lambda1=1e-3, lambda21=0.05, lambda2=1e-4)
        opts = [make_optimizer(name, 0.1, reg) for _ in range(2)]
        blocks = [ParamBlock("e", np.full(20, 0.1), group_size=4) for _ in range(2)]
        for grad, rows in sparse_row_stream(5, 5, 4, 10):
            opts[0].step(blocks[0], *row_form(grad, rows, 4))
            opts[1].step(blocks[1], grad)
        assert state_bits(opts[0], blocks[0]) == state_bits(opts[1], blocks[1])

    # out of range, not integer, repeated, unsorted, not 1-D (empty too)
    @pytest.mark.parametrize("rows", [[-3], [3], [1, 3], [1.0], np.array([0.5]),
                                      [1, 1], [2, 0], [[0, 1]], np.zeros((0, 3), int)])
    def test_bad_row_ids_rejected_before_any_change(self, rows):
        for name in ROW_CHECKED:
            opt = make_optimizer(name, 0.1)
            block = ParamBlock("e", np.zeros(6), group_size=2)
            opt.step(block, np.ones(6))
            before = state_bits(opt, block)
            with pytest.raises(ValueError, match=r"^rows are not strictly increasing integer "
                                                 r"group ids in \[0, 3\)$"):
                opt.step(block, np.ones(2 * np.size(rows)), rows=rows)
            assert state_bits(opt, block) == before, name
            assert opt.states["e"].t == 1 and not opt.states["e"].poisoned, name
            opt.step(block, np.ones(6), rows=[0, 1, 2])

    @pytest.mark.parametrize("size", [0, 2, 5, 6])
    def test_wrongly_sized_gradient_rejected_before_any_change(self, size):
        # two rows of two need four values, the dense six among others
        for name in ROW_CHECKED:
            opt = make_optimizer(name, 0.1)
            block = ParamBlock("e", np.zeros(6), group_size=2)
            opt.step(block, np.ones(6))
            before = state_bits(opt, block)
            with pytest.raises(ValueError, match=rf"^rows: gradient of shape \({size},\) for 2 "
                                                 r"groups of 2$"):
                opt.step(block, np.ones(size), rows=[0, 2])
            with pytest.raises(ValueError, match=r"^rows: gradient of shape \(2, 2\) for 2 "
                                                 r"groups of 2$"):
                opt.step(block, np.ones((2, 2)), rows=[0, 2])
            assert state_bits(opt, block) == before, name
            assert opt.states["e"].t == 1 and not opt.states["e"].poisoned, name

    @pytest.mark.parametrize("rows", [[0], [3]])
    def test_state_of_another_size_rejected_before_any_change(self, rows):
        # the state of a 3x2 block "e", then rows of a 4x2 block of that name
        for name in ("group-adagrad", "group-adam"):
            opt = make_optimizer(name, 0.1)
            opt.step(ParamBlock("e", np.zeros(6), group_size=2), np.ones(6))
            block = ParamBlock("e", np.zeros(8), group_size=2)
            before = state_bits(opt, block)
            with pytest.raises(ValueError, match="^gradient/block/state dimension mismatch "
                                                 "for block 'e'$"):
                opt.step(block, np.ones(2), rows=rows)
            assert state_bits(opt, block) == before, name
            assert opt.states["e"].t == 1 and not opt.states["e"].poisoned, name

    def test_rows_of_an_ungrouped_block_rejected(self):
        opt = make_optimizer("group-adagrad", 0.1)
        with pytest.raises(ValueError, match="^block 'w' is not grouped$"):
            opt.step(ParamBlock("w", np.zeros(3)), np.ones(1), rows=[0])
        assert not opt.states

    @pytest.mark.parametrize("rows", [[], np.array([], dtype=np.int64)])
    def test_empty_rows_step_nothing(self, rows):
        opt = GroupOptimizer(MomentSchedule(kind="adagrad"), 0.1)
        block = ParamBlock("e", np.zeros(6), group_size=2)
        opt.step(block, np.ones(6))
        before = state_bits(opt, block)
        opt.step(block, np.zeros(0), rows=rows)
        # nothing moves, but it counts as a step, as a dense zero gradient does
        assert state_bits(opt, block)[:-1] == before[:-1]
        assert opt.states["e"].t == 2

    def test_nan_in_a_listed_row_poisons(self):
        for name in ROW_CHECKED:
            opt = make_optimizer(name, 0.1)
            block = ParamBlock("e", np.zeros(6), group_size=2)
            opt.step(block, np.ones(6), rows=np.arange(3))
            with pytest.raises(PoisonedStateError, match="gradient"):
                opt.step(block, np.array([0.0, np.nan]), rows=np.array([2]))
            assert opt.states["e"].poisoned, name
            with pytest.raises(PoisonedStateError):
                opt.step(block, np.zeros(2), rows=np.array([0]))


class TestDenseStep:
    """A dense step runs once on the whole block: a failure leaves the
    values as they were, and a large table's step stays within a memory
    bound."""

    @pytest.mark.parametrize("with_rows", [True, False], ids=["rows", "dense"])
    @pytest.mark.parametrize("failure", ["gradient", "prox", "dual"])
    def test_failing_whole_table_step_keeps_the_values(self, monkeypatch, failure,
                                                       with_rows):
        # 9 groups of 2, of which group 7 fails, in one step of all 18
        # coordinates. A NaN gradient is found before the step; at epsilon 0
        # a gradient of 1e-170 squares to 0, dual mass on a zero root; under
        # sgd a second gradient of 1e308 overflows the dual
        calls = []
        update = optimizers._dual_step
        monkeypatch.setattr(optimizers, "_dual_step",
                            lambda a, *args: (calls.append(a["z"].size), update(a, *args))[1])
        opt = make_optimizer("group-sgd" if failure == "dual" else "group-adagrad", 0.1,
                             schedule_args={"epsilon": 0.0})
        planted, message, stepped = {
            "gradient": (np.nan, "non-finite gradient", []),
            "prox": (1e-170, "nonpositive effective diagonal: no finite parameters", [18]),
            "dual": (1e308, "non-finite dual", [18])}[failure]
        block = ParamBlock("e", np.full(18, 0.5), group_size=2)
        grad = np.zeros(18)
        grad[:2] = 1.0
        grad[14] = planted
        step = (grad[np.r_[0:2, 14:16]], np.array([0, 7])) if with_rows else (grad, None)
        if failure == "dual":
            opt.step(block, *step)
        calls.clear()
        before = block.values.copy()
        with np.errstate(over="ignore"), \
                pytest.raises(PoisonedStateError, match=f"{message}.*block 'e'"):
            opt.step(block, *step)
        assert calls == stepped
        assert block.values.tobytes() == before.tobytes()
        state = opt.states["e"]
        assert state.poisoned
        if failure == "gradient":  # no state changed but the flag
            assert state.t == 0
            for name, array in state.arrays.items():
                assert not array.any(), name
        with pytest.raises(PoisonedStateError, match="poisoned"):
            opt.step(block, np.zeros(18))

    @pytest.mark.parametrize("name", GROUP_NAMES)
    @pytest.mark.parametrize("variant", ["practical", "exact"])
    @pytest.mark.parametrize("penalties", [{"lambda21": 0.05},
                                           {"lambda1": 1e-3, "lambda21": 0.05, "lambda2": 1e-5}],
                             ids=["lambda21", "all"])
    def test_dense_step_of_a_large_table_peaks_below_two_tables(self, name, variant,
                                                                penalties):
        # a 10,000 x 8 table and ~600 rows, as on the 10k-row benchmark
        # workload, where the first adagrad step and every other schedule's
        # step are dense. A whole step holds at most three new table-sized
        # arrays at once: the scattered gradient, a scratch and R_t in the
        # dual step, then R_t, the new values and a scratch in the prox
        # (3.13 tables at the peak; 5.3 to 8.3 when each temporary lived to
        # the end of its function)
        rng = make_rng(0)
        rows = np.unique(rng.integers(0, 10_000, 620))
        grad = rng.normal(size=rows.size * 8)
        reg = RegConfig(variant=variant, **penalties)
        make_optimizer(name, 0.01, reg).step(ParamBlock("w", np.ones(16), group_size=8),
                                             np.ones(16))  # lazy imports allocate too
        opt = make_optimizer(name, 0.01, reg)
        block = ParamBlock(EMBEDDING, rng.normal(scale=0.01, size=80_000), group_size=8)
        opt.states[EMBEDDING] = OptimizerState(block.values.size, opt.schedule.kind)
        tracemalloc.start()
        try:
            opt.step(block, grad, rows=rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert opt.states[EMBEDDING].t == 1
        assert peak <= 2 * block.values.nbytes + 2**20


def try_step(step):
    """(the bits of the arrays step() returns, or None if it raised
    PoisonedStateError; that error's message, or None). Overflow and 0/0
    are meant: their warnings are off."""
    with np.errstate(all="ignore"):
        try:
            returned = step()
        except PoisonedStateError as exc:
            return None, str(exc)
    return [a.tobytes() for a in returned or ()], None


# step_group at a constant lr and at lr/sqrt(t); the driver's dense step,
# and its row step, lazy on adagrad
STEP_GROUP_PATHS = ("step_group", "decay")
PATHS = (*STEP_GROUP_PATHS, "dense", "rows")


class TestStoredRootStep:
    """sgd, momentum and adagrad states compute R_{t-1} instead of storing
    it, and a step finds a non-finite dual through the prox's result check.
    Every path must give the bits and the errors of oracles.fresh_step_group,
    which stores R_{t-1} beside the state and checks the dual itself."""

    @settings(max_examples=400, deadline=None)
    @given(kind=st.sampled_from(KINDS), path=st.sampled_from(PATHS),
           seed=st.integers(0, 2**31 - 1), num_groups=st.integers(1, 8),
           group_size=st.integers(1, 4), grouped=st.booleans(),
           scales=st.lists(st.sampled_from([1.0, 1.0, 1.0, 1e-170, 1e160, np.nan]),
                           min_size=1, max_size=6),
           epsilon=st.sampled_from([0.0, 1e-8]),
           variant=st.sampled_from(["practical", "exact"]),
           lambda1=penalty, lambda21=penalty, lambda2=penalty)
    def test_matches_the_stored_root_step_bit_for_bit(self, kind, path, seed, num_groups,
                                                      group_size, grouped, scales,
                                                      epsilon, variant,
                                                      lambda1, lambda21, lambda2):
        # one step per scale: gradients of 1e-170 square to 0 (a prox failure
        # at epsilon 0), of 1e160 to inf (a dual failure), and NaN fails the
        # gradient check; both steps must fail alike, with the same message
        schedule = MomentSchedule(kind=kind, epsilon=epsilon)
        reg = RegConfig(lambda1=lambda1, lambda21=lambda21, lambda2=lambda2,
                        variant=variant)
        rng = make_rng(seed)
        size = num_groups * group_size
        x0 = rng.uniform(-0.5, 0.5, size)
        grouped = grouped or path == "rows"
        blocks = [ParamBlock("e", x0.copy(), group_size=group_size if grouped else None)
                  for _ in range(2)]
        state, oracle = OptimizerState(size, kind), OptimizerState(size, kind)
        roots = {"prev_scaled_root": np.zeros(size)}
        opt = GroupOptimizer(schedule, 0.3, reg)
        opt.states["e"] = state
        last_lr = math.inf
        for t, scale in enumerate(scales, start=1):
            # some groups without gradient, as most rows of a batch
            live = rng.random(num_groups) < 0.7
            grad = np.where(np.repeat(live, group_size),
                            scale * rng.normal(scale=10.0 ** rng.uniform(-2, 1), size=size),
                            0.0)
            lr = 0.3 / math.sqrt(t) if path == "decay" else 0.3
            expected = try_step(lambda: fresh_step_group(oracle, blocks[1], grad, schedule,
                                                         lr, reg, roots=roots))
            if path in STEP_GROUP_PATHS:
                got = try_step(lambda: step_group(state, blocks[0], grad, schedule, lr, reg))
                assert got == expected
            else:
                rows = np.flatnonzero(live)
                args = ((grad.reshape(num_groups, group_size)[rows].ravel(), rows)
                        if path == "rows" else (grad, None))
                got = try_step(lambda: opt.step(blocks[0], *args))
                assert got[1] == expected[1]
            assert blocks[0].values.tobytes() == blocks[1].values.tobytes()
            assert state.poisoned == oracle.poisoned
            if oracle.t == t:
                last_lr = lr
            assert (state.t, state.prev_lr) == (oracle.t, last_lr)
            # a failing lazy row step does not scatter its rows back
            if expected[1] is None or path != "rows" or "gradient" in expected[1]:
                reference = {**oracle.arrays, **roots}
                for name, array in state.arrays.items():
                    assert array.tobytes() == reference[name].tobytes(), name
            if expected[1] is not None:
                break


class TestInPlaceStep:
    """step_group advances the state's arrays in place, yet what it returns
    stays the caller's."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_returned_arrays_stay_the_callers(self, kind):
        # the regret lab keeps each step's R_t (and m_t) across later steps
        rng = make_rng(4)
        schedule = MomentSchedule(kind=kind)
        state, block = OptimizerState(6, kind), ParamBlock("w", rng.normal(size=6))
        kept = []
        for _ in range(4):
            m, root = step_group(state, block, rng.normal(size=6), schedule, 0.1,
                                 RegConfig(lambda21=0.01))
            for array in (*state.arrays.values(), block.values):
                assert not np.shares_memory(m, array) and not np.shares_memory(root, array)
            kept.append((m, root, m.tobytes(), root.tobytes()))
        for m, root, m_bits, root_bits in kept:
            assert (m.tobytes(), root.tobytes()) == (m_bits, root_bits)


class TestDenseDriverStep:
    """A dense driver step runs on the state's own arrays and must give
    step_group's bits: the block's values, every state array and t. An adam
    or amsgrad state keeps R_t as its prev_scaled_root, which must then be
    an array of its own."""

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("layout", ["grouped", "rows", "ungrouped"])
    def test_stored_root_is_its_own_array_with_step_groups_bits(self, kind, layout):
        rng = make_rng(11)
        schedule = MomentSchedule(kind=kind)
        reg = RegConfig(lambda1=1e-3, lambda21=0.05, lambda2=1e-5)
        group_size = None if layout == "ungrouped" else 3
        x0 = rng.normal(scale=0.1, size=12)
        block, twin = (ParamBlock("e", x0.copy(), group_size) for _ in range(2))
        opt, state = GroupOptimizer(schedule, 0.1, reg), OptimizerState(12, kind)
        for _ in range(3):
            grad = rng.normal(size=12)
            rows = None
            if layout == "rows":
                rows = np.array([0, 2])
                grad.reshape(4, 3)[[1, 3]] = 0.0
            opt.step(block, *((grad.reshape(4, 3)[rows].ravel(), rows) if rows is not None
                              else (grad,)))
            _, root = step_group(state, twin, grad, schedule, 0.1, reg)
            arrays = opt.states["e"].arrays
            assert block.values.tobytes() == twin.values.tobytes()
            assert ({k: a.tobytes() for k, a in arrays.items()}
                    == {k: a.tobytes() for k, a in state.arrays.items()})
            assert opt.states["e"].t == state.t
            if "prev_scaled_root" in arrays:
                stored = arrays["prev_scaled_root"]
                assert stored.tobytes() == root.tobytes()
                for other in (block.values, grad, *(a for k, a in arrays.items()
                                                    if k != "prev_scaled_root")):
                    assert not np.shares_memory(stored, other)

    def test_strided_row_gradient(self):
        # a caller's grad may be a view with a stride, which a view of whole
        # rows as void items refuses
        rng = make_rng(12)
        rows = np.array([1, 4, 5])
        wide = rng.normal(size=(rows.size * 4, 2))
        opts = [make_optimizer("group-adam", 0.1, RegConfig(lambda21=0.05)) for _ in range(2)]
        blocks = [ParamBlock("e", np.full(24, 0.1), 4) for _ in range(2)]
        opts[0].step(blocks[0], wide[:, 0], rows)
        opts[1].step(blocks[1], wide[:, 0].copy(), rows)
        assert state_bits(opts[0], blocks[0]) == state_bits(opts[1], blocks[1])


def model_blocks(seed, num_features=12, embed_dim=3, num_fields=2, hidden_dims=(5, 4)):
    """The CTR model's blocks, the embedding table and the flat dense block,
    and the dense block's members: (name, slice) of each layer's weights and
    biases in its layout w0, b0, w1, b1, ..."""
    config = ModelConfig(num_features=num_features, embed_dim=embed_dim,
                         num_fields=num_fields, hidden_dims=hidden_dims)
    widths = [num_fields * embed_dim, *hidden_dims, 1]
    members, lo = [], 0
    for i, (fan_in, fan_out) in enumerate(zip(widths[:-1], widths[1:])):
        for kind, size in (("w", fan_in * fan_out), ("b", fan_out)):
            members.append((f"{kind}{i}", slice(lo, lo + size)))
            lo += size
    blocks = init_params(config, seed)
    assert lo == blocks[DENSE].values.size
    return blocks, dict(members)


def model_grad_stream(seed, blocks, members, steps):
    """Per step, the batch's embedding rows and one gradient per block: the
    embedding's as the gradients of those rows, and the dense one member by
    member at a random scale and now and then all zero."""
    rng = make_rng(seed)
    emb = blocks[EMBEDDING]
    for _ in range(steps):
        grad, rows = row_form(*next(sparse_row_stream(
            int(rng.integers(2**31)), emb.num_groups, emb.group_size, 1)), emb.group_size)
        grads = {EMBEDDING: 10.0 ** rng.uniform(-3, 1) * grad,
                 DENSE: np.zeros(blocks[DENSE].values.size)}
        for part in members.values():
            if rng.random() >= 0.1:
                grads[DENSE][part] = rng.normal(scale=10.0 ** rng.uniform(-3, 1),
                                                size=part.stop - part.start)
        yield grads, rows


def step_batch(opt, blocks, grads, rows=None):
    """A training batch's steps: the embedding with its rows, then dense."""
    opt.step(blocks[EMBEDDING], grads[EMBEDDING], rows=rows)
    opt.step(blocks[DENSE], grads[DENSE])


def zero_grads(blocks):
    return {key: np.zeros(block.values.size) for key, block in blocks.items()}


APPLY_TO = [None, frozenset({EMBEDDING})]


class TestStepAll:
    """Stepping all of the model's blocks as a training batch does. The
    dense block packs every layer's weights and biases, its members, into
    one flat vector that takes one step; an error names the block."""

    @pytest.mark.parametrize("apply_to", APPLY_TO, ids=["all", "embedding"])
    @pytest.mark.parametrize("name", OPTIMIZER_NAMES)
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), steps=st.integers(1, 6),
           variant=st.sampled_from(["practical", "exact"]),
           lambda1=penalty, lambda21=penalty, lambda2=penalty)
    def test_matches_a_step_per_block_bit_for_bit(self, name, apply_to, seed, steps,
                                                  variant, lambda1, lambda21, lambda2):
        # the flat dense block against each member stepped as a block of its own
        reg = RegConfig(lambda1=lambda1, lambda21=lambda21, lambda2=lambda2,
                        variant=variant, apply_to=apply_to)
        packed, per_block = (make_optimizer(name, 0.05, reg) for _ in range(2))
        blocks, members = model_blocks(seed % 1000)
        emb = ParamBlock(EMBEDDING, blocks[EMBEDDING].values.copy(),
                         group_size=blocks[EMBEDDING].group_size)
        parts = {member: ParamBlock(member, blocks[DENSE].values[part].copy())
                 for member, part in members.items()}
        for grads, rows in model_grad_stream(seed, blocks, members, steps):
            step_batch(packed, blocks, grads, rows)
            per_block.step(emb, grads[EMBEDDING], rows=rows)
            for member, part in members.items():
                per_block.step(parts[member], grads[DENSE][part])
        assert state_bits(packed, blocks[EMBEDDING]) == state_bits(per_block, emb)
        state = packed.states[DENSE]
        for member, part in members.items():
            assert (blocks[DENSE].values[part].tobytes()
                    == parts[member].values.tobytes()), member
            ref = per_block.states[member]
            assert state.t == ref.t
            assert state.arrays.keys() == ref.arrays.keys()
            for name, array in state.arrays.items():
                assert array[part].tobytes() == ref.arrays[name].tobytes(), (member, name)

    @pytest.mark.parametrize("name", OPTIMIZER_NAMES)
    def test_nan_gradient_names_the_member_and_poisons_the_pack(self, name):
        opt = make_optimizer(name, 0.05, RegConfig(lambda21=0.1,
                                                   apply_to=frozenset({EMBEDDING})))
        blocks, members = model_blocks(1)
        grads, rows = next(model_grad_stream(1, blocks, members, 1))
        step_batch(opt, blocks, grads, rows)
        before = blocks[DENSE].values.copy()
        grads[DENSE][members["b1"].start + 2] = np.nan
        with pytest.raises(PoisonedStateError, match="gradient for block 'dense'"):
            step_batch(opt, blocks, grads, rows)
        assert np.array_equal(blocks[DENSE].values, before)
        assert opt.states[DENSE].poisoned and not opt.states[EMBEDDING].poisoned
        grads[DENSE][members["b1"].start + 2] = 0.0
        with pytest.raises(PoisonedStateError, match="poisoned"):
            step_batch(opt, blocks, grads, rows)

    def test_overflowing_dual_names_the_member(self):
        opt = make_optimizer("group-sgd", 0.1)
        blocks, members = model_blocks(2)
        grads = zero_grads(blocks)
        grads[DENSE][members["b1"]] = 1e308
        step_batch(opt, blocks, grads)
        with np.errstate(over="ignore"), \
                pytest.raises(PoisonedStateError, match="dual for block 'dense'"):
            step_batch(opt, blocks, grads)
        with pytest.raises(PoisonedStateError):
            step_batch(opt, blocks, grads)

    def test_overflowing_vanilla_parameters_name_the_member(self):
        opt = make_optimizer("sgd", 1e10)
        blocks, members = model_blocks(3)
        grads = zero_grads(blocks)
        grads[DENSE][members["w2"].start] = 1e300
        with np.errstate(over="ignore"), \
                pytest.raises(PoisonedStateError, match="parameters for block 'dense'"):
            step_batch(opt, blocks, grads)
        with pytest.raises(PoisonedStateError):
            step_batch(opt, blocks, grads)

    def test_prox_failure_names_the_member_and_keeps_values(self):
        # a middle member of dense: a dual of 1e300 over R = 1e-10 overflows
        opt = make_optimizer("group-sgd", 1e10, RegConfig(lambda21=0.1,
                                                          apply_to=frozenset({EMBEDDING})))
        blocks, members = model_blocks(5)
        grads = zero_grads(blocks)
        grads[DENSE][members["b1"].start + 1] = 1e300
        before = blocks[DENSE].values.copy()
        with np.errstate(over="ignore"), \
                pytest.raises(PoisonedStateError, match="nonpositive effective diagonal: "
                              "no finite parameters for block 'dense'"):
            step_batch(opt, blocks, grads)
        assert np.array_equal(blocks[DENSE].values, before)
        assert opt.states[DENSE].poisoned
        with pytest.raises(PoisonedStateError, match="poisoned"):
            step_batch(opt, blocks, grads)

    def test_member_gradient_shape_checked(self):
        # a gradient laid out per member, or one coordinate short or long,
        # does not fit the flat block
        opt = make_optimizer("group-adam", 0.05)
        blocks, members = model_blocks(4)
        before = blocks[DENSE].values.copy()
        size = before.size
        for grad in (np.zeros(members["w0"].stop), np.zeros(size - 1), np.zeros(size + 1),
                     np.zeros((1, size))):
            with pytest.raises(ValueError, match="^gradient/block/state dimension mismatch for "
                                                 "block 'dense'$"):
                opt.step(blocks[DENSE], grad)
        assert np.array_equal(blocks[DENSE].values, before)
        assert DENSE not in opt.states

    def test_right_sized_block_steps_after_a_refused_first_step(self):
        # a refused first step keeps no state, so it cannot refuse the next
        opt = make_optimizer("adam", 0.1)
        with pytest.raises(ValueError, match="^gradient/block/state dimension mismatch for "
                                             "block 'w'$"):
            opt.step(ParamBlock("w", np.zeros(6)), np.zeros(4))
        assert not opt.states
        block, twin = ParamBlock("w", np.zeros(8)), ParamBlock("w", np.zeros(8))
        state, grad = OptimizerState(8, "adam"), np.linspace(-1.0, 1.0, 8)
        opt.step(block, grad)
        step_group(state, twin, grad, opt.schedule, 0.1)
        assert opt.states["w"].t == 1 and not opt.states["w"].poisoned
        assert block.values.tobytes() == twin.values.tobytes()


class TestDeterminism:
    def test_bitwise_repeatability(self):
        def run():
            rng = make_rng(23)
            opt = make_optimizer("group-adam", 0.01,
                                 RegConfig(lambda1=1e-3, lambda21=1e-2))
            block = ParamBlock("e", rng.normal(size=8), group_size=4)
            for _ in range(40):
                opt.step(block, rng.normal(size=8))
            return block.values.copy()

        first, second = run(), run()
        assert np.array_equal(first, second)


class TestMakeOptimizer:
    def test_name_parsing(self):
        reg = RegConfig(lambda1=0.1, lambda21=0.2, lambda2=0.3,
                        apply_to=frozenset({EMBEDDING}))
        ftrl = make_optimizer("ftrl", 0.1, reg, {"epsilon": 1e-3})
        assert ftrl.schedule == MomentSchedule(kind="adagrad", epsilon=0.0)
        assert ftrl.reg == RegConfig(lambda1=0.1)
        adam = make_optimizer("adam", 0.1, reg, {"beta1": 0.5})
        assert adam.schedule == MomentSchedule(kind="adam", beta1=0.5)
        assert adam.reg == NO_REG
        group_sgd = make_optimizer("group-sgd", 0.1, reg)
        assert group_sgd.schedule == MomentSchedule(kind="sgd")
        assert group_sgd.reg == reg
        for name in OPTIMIZER_NAMES:
            assert type(make_optimizer(name, 0.1)) is GroupOptimizer

    def test_unknown_kind_rejected(self):
        # "ftrl" is a name, not a kind: the name is checked, and named
        words = re.escape(", ".join(map(repr, OPTIMIZER_NAMES)))
        for name in ("group-ftrl", "adamw"):
            with pytest.raises(ValueError, match=f"^name: must be one of {words}, "
                                                 f"got {name!r}$"):
                make_optimizer(name, 0.1)


# the arrays each schedule keeps beside z: its moments and, where R_{t-1}
# cannot be computed from them, that root
KEPT = {"sgd": set(), "momentum": {"m_hat"}, "adagrad": {"v_hat"},
        "adam": {"m_hat", "v_hat", "prev_scaled_root"},
        "amsgrad": {"m_hat", "v_hat", "prev_scaled_root"}}


class TestStateLayout:
    """A driver's state holds the arrays its schedule steps, and no others."""

    @pytest.mark.parametrize("apply_to", APPLY_TO, ids=["all", "embedding"])
    @pytest.mark.parametrize("name", OPTIMIZER_NAMES)
    def test_every_state_holds_only_what_its_schedule_steps(self, name, apply_to):
        opt = make_optimizer(name, 0.05, RegConfig(apply_to=apply_to))
        blocks, members = model_blocks(0)
        for grads, rows in model_grad_stream(0, blocks, members, 2):
            step_batch(opt, blocks, grads, rows)
        expected = {"z", *KEPT[opt.schedule.kind]}
        for key, block in blocks.items():
            state = opt.states[key]
            assert state.kind == opt.schedule.kind and state.t == 2, key
            assert state.prev_lr == 0.05, key
            assert set(state.arrays) == expected, key
            for array in state.arrays.values():
                assert array.shape == block.values.shape, key

    @pytest.mark.parametrize("name, tables", [("group-sgd", 1), ("group-momentum", 2),
                                              ("group-adagrad", 2), ("ftrl", 2),
                                              ("group-adam", 4), ("group-amsgrad", 4)])
    def test_state_of_a_large_table_holds_its_tables(self, name, tables):
        # 10,000 x 8 float64 is 640,000 B: a group-adagrad state holds z and
        # v_hat, and computes R_{t-1} from v_hat and prev_lr
        opt = make_optimizer(name, 0.01, RegConfig(lambda21=0.05))
        block = ParamBlock(EMBEDDING, np.zeros(80_000), group_size=8)
        for _ in range(2):  # the second adagrad step is lazy
            opt.step(block, np.ones(16), rows=np.array([3, 9_999]))
        state = opt.states[EMBEDDING]
        assert [a.nbytes for a in state.arrays.values()] == [640_000] * tables
        assert state.t == 2 and state.prev_lr == 0.01

    def test_the_lr_of_a_driver_is_read_only(self):
        # a lazy row step computes R_{t-1} from the lr of the last step, which
        # is that of a row's last step only while lr stays constant
        opt = make_optimizer("group-adagrad", 0.01)
        for attribute, value in (("lr", 0.02), ("schedule", MomentSchedule(kind="adagrad"))):
            with pytest.raises(AttributeError):
                setattr(opt, attribute, value)
        assert opt.lr == 0.01 and opt.schedule == MomentSchedule(kind="adagrad")

    @pytest.mark.parametrize("kind, other", [("adagrad", "adam"), ("adam", "amsgrad"),
                                             ("sgd", "momentum"), ("amsgrad", "sgd")])
    def test_a_state_of_another_kind_is_refused_before_any_change(self, kind, other):
        rng = make_rng(6)
        block = ParamBlock("e", rng.normal(size=6), group_size=2)
        state = OptimizerState(6, kind)
        step_group(state, block, rng.normal(size=6), MomentSchedule(kind=kind), 0.1)
        before = [block.values.tobytes(), *(a.tobytes() for a in state.arrays.values())]
        with pytest.raises(ValueError, match=f"^a {kind} state cannot take a {other} step$"):
            step_group(state, block, np.full(6, np.nan), MomentSchedule(kind=other), 0.1)
        opt = make_optimizer(f"group-{other}", 0.1)
        opt.states["e"] = state
        with pytest.raises(ValueError, match=f"^a {kind} state cannot take a {other} step$"):
            opt.step(block, rng.normal(size=6))
        assert [block.values.tobytes(), *(a.tobytes() for a in state.arrays.values())] \
            == before
        assert state.t == 1 and not state.poisoned

    def test_unknown_or_missing_kind_rejected(self):
        with pytest.raises(ValueError) as info:
            OptimizerState(3, "nope")
        assert str(info.value) == f"kind: must be {SCHEDULE_KIND_WORDS}, got 'nope'"
        # every state holds the arrays of one schedule kind, which alone may step it
        with pytest.raises(TypeError):
            OptimizerState(3)
