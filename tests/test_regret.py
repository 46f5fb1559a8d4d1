import numpy as np
import pytest
from numpy.testing import assert_allclose

from groupopt.optimizers import RegConfig
from groupopt.regret import OnlineProblem, _make_stream, measure_bound_constants, run_regret


class TestOnlineProblem:
    def test_validation(self):
        with pytest.raises(ValueError, match="unknown problem kind"):
            OnlineProblem(kind="cubic")
        with pytest.raises(ValueError, match="unknown mode"):
            OnlineProblem(mode="chaotic")
        with pytest.raises(ValueError, match="zero mode"):
            OnlineProblem(kind="logistic", mode="zero")
        with pytest.raises(ValueError):
            OnlineProblem(dim=0)
        with pytest.raises(ValueError):
            OnlineProblem(horizon=1)

    def test_checkpoints_are_powers_of_two_plus_horizon(self):
        problem = OnlineProblem(kind="quadratic", dim=2, horizon=10, mode="zero")
        run = run_regret(problem, kind="adagrad", lr=0.5)
        assert list(run.checkpoints) == [1, 2, 4, 8, 10]

    def test_unknown_schedule_kind(self):
        problem = OnlineProblem(dim=2, horizon=4)
        with pytest.raises(ValueError, match="unknown schedule kind"):
            run_regret(problem, kind="rmsprop")


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
        with pytest.raises(ValueError, match="unknown step decay"):
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
