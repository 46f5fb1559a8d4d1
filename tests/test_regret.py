import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from groupopt import regret
from groupopt.optimizers import SCHEDULE_KINDS, RegConfig
from groupopt.regret import (MODES, PROBLEM_KINDS, STEP_DECAYS, OnlineProblem, _make_stream,
                             measure_bound_constants, run_regret)
from oracles import per_step_regret


class TestOnlineProblem:
    def test_validation(self):
        for field, bad, domain in (
                ("kind", "cubic", "one of 'quadratic', 'logistic'"),
                ("mode", "chaotic", "one of 'stochastic', 'stationary', 'alternating', 'zero'"),
                ("dim", 0, "an integer >= 1"), ("horizon", 1, "an integer >= 2"),
                ("horizon", 2.0, "an integer >= 2"), ("seed", -1, "an integer >= 0")):
            with pytest.raises(ValueError) as info:
                OnlineProblem(**{field: bad})
            assert str(info.value) == f"{field}: must be {domain}, got {bad!r}"
        with pytest.raises(ValueError, match="^zero mode only makes sense for quadratic losses$"):
            OnlineProblem(kind="logistic", mode="zero")

    def test_checkpoints_are_powers_of_two_plus_horizon(self):
        problem = OnlineProblem(kind="quadratic", dim=2, horizon=10, mode="zero")
        run = run_regret(problem, kind="adagrad", lr=0.5)
        assert list(run.checkpoints) == [1, 2, 4, 8, 10]

    def test_unknown_schedule_kind(self):
        problem = OnlineProblem(dim=2, horizon=4)
        with pytest.raises(ValueError, match="^kind: must be one of 'sgd', 'momentum', 'adagrad', "
                                             "'adam', 'amsgrad', got 'rmsprop'$"):
            run_regret(problem, kind="rmsprop")

    # such a penalty used to step nothing, yet was reported and bounded
    def test_reg_that_applies_to_no_block_refused_before_the_stream(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("the stream was built")

        monkeypatch.setattr(regret, "_make_stream", never)
        with pytest.raises(ValueError, match=r"^reg: apply_to \['embedding'\] names no block "
                                             r"of the regret lab, whose one block is 'x'$"):
            run_regret(OnlineProblem(horizon=256),
                       reg=RegConfig(lambda1=0.5, apply_to={"embedding"}))


class TestZeroMode:
    def test_regret_identically_zero(self):
        problem = OnlineProblem(kind="quadratic", dim=4, horizon=64, mode="zero")
        run = run_regret(problem, kind="adagrad", lr=0.5)
        assert np.all(run.regrets == 0.0)
        assert np.all(run.cum_losses == 0.0)
        assert np.all(run.comparators == 0.0)


class TestQuadraticRegret:
    def make_run(self, mode="stochastic", horizon=2048, kind="adagrad", lr=0.5):
        problem = OnlineProblem(kind="quadratic", dim=8, horizon=horizon,
                                seed=0, mode=mode)
        return run_regret(problem, kind=kind, lr=lr)

    def test_stochastic_sublinear_slope(self):
        run = self.make_run()
        assert 0.25 <= run.slope <= 0.65

    def test_stationary_regret_levels_off(self):
        run = self.make_run(mode="stationary")
        assert run.slope <= 0.1
        assert run.regret_final < 10.0

    def test_alternating_sublinear_slope(self):
        run = self.make_run(mode="alternating")
        assert run.slope <= 0.65

    def test_regret_nonnegative_and_monotone(self):
        run = self.make_run()
        assert np.all(run.regrets >= -1e-9)
        assert run.monotone_checked > 0
        assert run.monotone_violations == 0

    def test_deterministic(self):
        a, b = self.make_run(), self.make_run()
        assert np.array_equal(a.regrets, b.regrets)
        assert np.array_equal(a.xs, b.xs)

    def test_rows_match_checkpoints(self):
        run = self.make_run(horizon=128)
        rows = run.rows()
        assert len(rows) == len(run.checkpoints)
        assert all(isinstance(t, int) and isinstance(r, float) for t, r in rows)
        assert rows[-1][0] == 128

    def test_to_dict_round_trips_scalars(self):
        run = self.make_run(horizon=64)
        doc = run.to_dict()
        assert doc["problem"]["horizon"] == 64
        assert doc["optimizer"] == "adagrad"
        assert doc["step_decay"] == "none"
        assert doc["regrets"] == [float(r) for r in run.regrets]


class TestRecordedMoments:
    @pytest.mark.parametrize("lambda1, kappa", [(0.0, 0.9999999976841174),
                                                (0.05, 0.999999999076937)])
    def test_adagrad_moments_are_the_gradients(self, lambda1, kappa):
        # adagrad's m_t is g_t, which on a quadratic stream is x_t - a_t
        problem = OnlineProblem(kind="quadratic", dim=4, horizon=512, seed=3)
        run = run_regret(problem, kind="adagrad", lr=0.5, reg=RegConfig(lambda1=lambda1))
        targets = _make_stream(problem)["targets"]
        assert run.ms.tobytes() == (run.xs - targets).tobytes()
        assert run.kappa == kappa


class TestStepDecay:
    def test_rejects_unknown(self):
        problem = OnlineProblem(dim=2, horizon=4)
        with pytest.raises(ValueError,
                           match="^step_decay: must be one of 'none', 'sqrt_t', got 'linear'$"):
            run_regret(problem, step_decay="linear")

    def test_decay_makes_adam_sublinear(self):
        problem = OnlineProblem(kind="quadratic", dim=8, horizon=4096,
                                seed=0, mode="stochastic")
        constant = run_regret(problem, kind="adam", lr=0.1)
        decayed = run_regret(problem, kind="adam", lr=0.1, step_decay="sqrt_t")
        assert constant.slope > 0.8
        assert decayed.slope < 0.65
        assert decayed.regret_final < constant.regret_final

    def test_noop_for_adagrad_family_semantics(self):
        # adagrad already decays via its root; the extra decay just rescales
        problem = OnlineProblem(kind="quadratic", dim=4, horizon=512,
                                seed=2, mode="stochastic")
        run = run_regret(problem, kind="adagrad", lr=0.5, step_decay="sqrt_t")
        assert np.isfinite(run.regret_final)
        assert run.monotone_violations == 0


class TestBoundConstants:
    def make_constants(self, kind="adagrad", lr=0.5, reg=None):
        problem = OnlineProblem(kind="quadratic", dim=8, horizon=2048,
                                seed=0, mode="stochastic")
        run = run_regret(problem, kind=kind, lr=lr,
                         reg=reg if reg is not None else RegConfig())
        return run, measure_bound_constants(run)

    def test_adagrad_bound_holds(self):
        run, c = self.make_constants()
        assert c["condition_met"]
        assert c["kappa"] < 1.0
        assert c["bound_holds"] is True
        assert c["regret_T"] <= c["bound_rhs"]

    def test_unregularized_rhs_formula(self):
        run, c = self.make_constants()
        d, T, alpha = run.problem.dim, run.problem.horizon, run.lr
        expected = d * c["G"] * (c["D2"] ** 2 / (2 * alpha)
                                 + alpha / (1.0 - c["nu"]) ** 2) * np.sqrt(T)
        assert_allclose(c["bound_rhs"], expected, rtol=1e-12)

    def test_regularized_rhs_formula(self):
        reg = RegConfig(lambda1=0.01, lambda21=0.02, lambda2=0.03)
        run, c = self.make_constants(reg=reg)
        d, T, alpha = run.problem.dim, run.problem.horizon, run.lr
        G, D1, D2, nu = c["G"], c["D1"], c["D2"], c["nu"]
        expected = (d * D1 * (reg.lambda1
                              + reg.lambda21 * np.sqrt(np.sqrt(T) * G / (2 * alpha)
                                                       + reg.lambda2)
                              + reg.lambda2 * D1)
                    + d * G * (D2 ** 2 / (2 * alpha)
                               + alpha / (1.0 - nu) ** 2) * np.sqrt(T))
        assert_allclose(c["bound_rhs"], expected, rtol=1e-12)
        assert c["bound_holds"] is True

    def test_constants_are_coherent(self):
        run, c = self.make_constants()
        assert np.isfinite([c["G"], c["D1"], c["D2"]]).all()
        assert c["G"] > 0
        # the trajectory starts at the origin, so D2 >= |0 - x*|_inf = D1
        assert c["D2"] >= c["D1"]
        assert 0.0 <= c["premise_fraction"] <= 1.0

    def test_momentum_condition_unmet(self):
        run, c = self.make_constants(kind="momentum")
        assert c["kappa"] == 1.0
        assert not c["condition_met"]
        assert c["bound_rhs"] == float("inf")
        assert c["bound_holds"] is None

    def test_adam_condition_unmet(self):
        run, c = self.make_constants(kind="adam", lr=0.05)
        assert c["kappa"] > 1.0
        assert not c["condition_met"]
        assert c["bound_holds"] is None

    def test_sgd_bound_holds(self):
        run, c = self.make_constants(kind="sgd")
        assert c["condition_met"]
        assert c["bound_holds"] is True


class TestLogisticRegret:
    def test_sane_and_warning_free(self):
        problem = OnlineProblem(kind="logistic", dim=6, horizon=512,
                                seed=1, mode="stochastic")
        with np.errstate(over="raise"):
            run = run_regret(problem, kind="adagrad", lr=0.5)
        assert np.all(run.regrets >= -1e-8)
        assert np.isfinite(run.regret_final)
        assert run.monotone_violations == 0

    def test_stationary_separable_stream(self):
        # one repeated separable loss: the comparator chase must stay finite
        problem = OnlineProblem(kind="logistic", dim=4, horizon=128,
                                seed=3, mode="stationary")
        run = run_regret(problem, kind="adagrad", lr=0.5)
        assert np.isfinite(run.minima).all()
        assert np.all(run.minima >= 0.0)


class TestChunkedFold:
    """run_regret keeps a chunk of gradients and roots and folds grad_bound
    and kappa once per chunk; the per-step loop it replaced is the oracle."""

    @settings(max_examples=80, deadline=None)
    @given(chunk=st.sampled_from([1, 2, 3, 7]), chunks=st.integers(1, 3),
           offset=st.sampled_from([-1, 0, 1]), kind=st.sampled_from(SCHEDULE_KINDS),
           problem_kind=st.sampled_from(PROBLEM_KINDS), mode=st.sampled_from(MODES),
           step_decay=st.sampled_from(STEP_DECAYS), lambda1=st.sampled_from([0.0, 0.05]),
           dim=st.integers(1, 4), seed=st.integers(0, 50))
    def test_same_bits_as_the_per_step_loop(self, chunk, chunks, offset, kind, problem_kind,
                                            mode, step_decay, lambda1, dim, seed):
        if problem_kind == "logistic" and mode == "zero":
            mode = "stochastic"
        # horizons on both sides of a chunk boundary
        problem = OnlineProblem(kind=problem_kind, dim=dim, mode=mode, seed=seed,
                                horizon=max(2, chunk * chunks + offset))
        args = (problem, kind, 0.3, RegConfig(lambda1=lambda1), step_decay)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(regret, "CHUNK", chunk)
            run = run_regret(*args)
        xs, ms, regrets, kappa, grad_bound = per_step_regret(*args)
        assert run.xs.tobytes() == xs.tobytes()
        assert run.ms.tobytes() == ms.tobytes()
        assert run.regrets.tobytes() == regrets.tobytes()
        assert (run.kappa, run.grad_bound) == (kappa, grad_bound)

    def test_memory_stays_at_the_per_step_loop(self):
        # the run holds four T x d arrays (targets, their prefix sums, xs and
        # ms), 4 MiB here; the per-step loop peaked at 4.13 MiB, and a fifth
        # T x d array would add 1 MiB
        run_regret(OnlineProblem(dim=8, horizon=64))  # lazy imports allocate too
        problem = OnlineProblem(kind="quadratic", dim=8, horizon=2**14, seed=0)
        tracemalloc.start()
        try:
            run_regret(problem, kind="adagrad", lr=0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (4.13 + 0.5) * 2**20


def adagrad_roots(run):
    """The roots R_t of an adagrad run, rebuilt from its moments, which are
    its gradients: R_t = sqrt(eps + sum g^2)/lr, summed in step order as the
    step does."""
    inc = run.ms * run.ms
    inc[0] += run.schedule.epsilon
    return np.sqrt(np.cumsum(inc, axis=0)) / run.lr


class TestKappaLocation:
    @pytest.mark.parametrize("seed, at_one", [(0, False), (1, True), (3, True),
                                              (7, False), (12, True)])
    def test_where_adagrad_reaches_kappa(self, seed, at_one):
        problem = OnlineProblem(kind="quadratic", dim=8, horizon=2**14, seed=seed)
        run = run_regret(problem, kind="adagrad", lr=0.5)
        step, coord, grad = run.kappa_at
        roots = adagrad_roots(run)
        ratio = roots[:-1] / roots[1:]
        sq = ratio * ratio  # over the steps t = 2..T
        assert run.kappa == sq.max()
        # the first step and coordinate where the maximum is reached
        assert np.flatnonzero(sq.ravel() == sq.max())[0] == (step - 2) * 8 + coord
        assert grad == run.ms[step - 1, coord]
        assert (run.kappa == 1.0) == at_one
        if at_one:
            # a nonzero g^2 rounded away: R_t = R_{t-1} all the same
            assert grad != 0.0
            assert roots[step - 1, coord] == roots[step - 2, coord]
        else:
            assert run.kappa < 1.0

    def test_reported_in_the_run_and_the_bound(self):
        problem = OnlineProblem(kind="quadratic", dim=4, horizon=300, seed=1)
        run = run_regret(problem, kind="adagrad", lr=0.5)
        step, coord, grad = run.kappa_at
        keys = {"kappa_step": step, "kappa_coord": coord, "kappa_grad": grad}
        assert {k: run.to_dict()[k] for k in keys} == keys
        constants = measure_bound_constants(run)
        assert {k: constants[k] for k in keys} == keys
        assert constants["condition_met"] == (constants["kappa"] < 1.0)

    def test_constant_root_reaches_one_at_step_two(self):
        # on a zero stream the gradient is 0 and adagrad's root stays at
        # sqrt(eps)/lr: kappa is 1.0 from step 2 on, with no rounding at all
        problem = OnlineProblem(kind="quadratic", dim=2, horizon=8, mode="zero")
        run = run_regret(problem, kind="adagrad", lr=0.5)
        assert run.kappa == 1.0
        assert run.kappa_at == (2, 0, 0.0)

    def test_none_while_kappa_is_zero(self, monkeypatch):
        # a zero root counts as the ratio 0. An infinite lr, which made every
        # root 0, is refused; here the step's roots are zeroed instead
        problem = OnlineProblem(kind="quadratic", dim=2, horizon=8, mode="zero")
        with pytest.raises(ValueError,
                           match=r"^lr: must be a real number in \(0, inf\), got inf$"):
            run_regret(problem, kind="adagrad", lr=np.inf)
        step = regret.step_group
        monkeypatch.setattr(regret, "step_group",
                            lambda *args: (lambda m, root: (m, 0.0 * root))(*step(*args)))
        run = run_regret(problem, kind="adagrad", lr=0.5)
        assert run.kappa == 0.0 and run.kappa_at is None
        assert run.to_dict()["kappa_step"] is None
