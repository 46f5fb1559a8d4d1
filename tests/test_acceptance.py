"""Acceptance suite: one test per headline property of the package.

Each test prints a single summary line (bypassing capture) so a plain
pytest -v run shows the measured numbers next to the pass/fail verdicts.
Heavy artifacts (benchmark sweeps, long-tail training runs) are cached at
module scope and shared between tests.
"""

import time

import numpy as np
import pytest

from groupopt.blocks import ParamBlock, group_l2_norms, make_rng
from groupopt.cli import GRIDS
from groupopt.data import SynthSpec
from groupopt.model import (
    EMBEDDING,
    ModelConfig,
    backward,
    forward,
    init_params,
    logloss,
)
from groupopt.optimizers import (
    GroupOptimizer,
    MomentSchedule,
    OptimizerState,
    RegConfig,
    step_group,
)
from groupopt.prox import prox_oracle, prox_solve, random_problem
from groupopt.regret import OnlineProblem, measure_bound_constants, run_regret
from groupopt.training import (
    ExperimentConfig,
    load_dataset,
    prune_baseline,
    sweep,
    train_model,
)
from oracles import ftrl_step, scatter_rows, vanilla_step

pytestmark = pytest.mark.acceptance

PRACTICAL_GRID = tuple(GRIDS["l21-grid-practical"])
EXACT_GRID = tuple(GRIDS["l21-grid-exact"])

_CACHE = {}


def _say(capsys, ok: bool, tag: str, detail: str):
    with capsys.disabled():
        print(f"\nACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'} - {detail}")


# ---------------------------------------------------------------------------
# Shared benchmarks.
#
# Uniform benchmark: 10k samples, 5k vocabulary (10 fields x 500), 10%
# informative, equal feature frequencies. Used for the sparsity sweeps and
# the penalty comparison.
#
# Long-tail benchmark: 50k samples, 1000 groups (10 fields x 100), 10%
# informative, Zipf-like frequencies (skew 1.3). Used for support recovery,
# the pruning comparison, and the embedding-dimension trend, where rare
# features make feature selection a real problem.
# ---------------------------------------------------------------------------


def uniform_config(variant="practical", lr=1e-2, seed=0, epochs=2,
                   lambda1=0.0, lambda21=0.0, lambda2=1e-5):
    return ExperimentConfig(
        model=ModelConfig(num_features=5000, embed_dim=16, num_fields=10,
                          hidden_dims=(64, 32)),
        data=SynthSpec(num_fields=10, vocab_per_field=500,
                       informative_fraction=0.1, num_samples=10_000, seed=seed),
        optimizer="group-adam", lr=lr,
        reg=RegConfig(lambda1=lambda1, lambda21=lambda21, lambda2=lambda2,
                      variant=variant, apply_to=frozenset({EMBEDDING})),
        epochs=epochs, batch_size=64, seed=seed)


def uniform_sweep(variant, lr):
    key = ("uniform-sweep", variant, lr)
    if key not in _CACHE:
        grid = PRACTICAL_GRID if variant == "practical" else EXACT_GRID
        _CACHE[key] = sweep(uniform_config(variant, lr), list(grid))
    return _CACHE[key]


def longtail_config(seed, optimizer, lambda21=0.0, embed_dim=8):
    reg = (RegConfig(lambda21=lambda21, lambda2=1e-5, variant="practical",
                     apply_to=frozenset({EMBEDDING}))
           if lambda21 else RegConfig())
    return ExperimentConfig(
        model=ModelConfig(num_features=1000, embed_dim=embed_dim, num_fields=10,
                          hidden_dims=(32, 16)),
        data=SynthSpec(num_fields=10, vocab_per_field=100,
                       informative_fraction=0.1, num_samples=50_000,
                       skew=1.3, seed=seed),
        optimizer=optimizer, lr=1e-2, reg=reg, epochs=3, batch_size=64, seed=seed)


def longtail_data(seed):
    key = ("longtail-data", seed)
    if key not in _CACHE:
        _CACHE[key] = load_dataset(longtail_config(seed, "group-adam"))
    return _CACHE[key]


def longtail_run(seed, lambda21, embed_dim=8):
    key = ("longtail-run", seed, lambda21, embed_dim)
    if key not in _CACHE:
        _CACHE[key] = train_model(
            longtail_config(seed, "group-adam", lambda21, embed_dim),
            dataset=longtail_data(seed))
    return _CACHE[key]


def support_precision(report, dataset):
    norms = group_l2_norms(report.blocks[EMBEDDING])
    kept = set(np.flatnonzero(norms > 0).tolist())
    kept &= set(int(i) for i in report.features_seen)
    if not kept:
        return 0.0
    return len(kept & dataset.support) / len(kept)


def quadratic_grad(x, center):
    return x - center


def test_01_prox_closed_form_matches_certified_oracle(capsys):
    t0 = time.perf_counter()
    certified = 0
    worst = 0.0
    for i in range(1000):
        rng = make_rng(1000 + i)
        problem = random_problem(rng, variant="exact")
        oracle = prox_oracle(problem)
        if not oracle.certified:
            continue
        certified += 1
        x = prox_solve(problem)
        worst = max(worst, float(np.max(np.abs(x - oracle.x_star))))
    elapsed = time.perf_counter() - t0
    ok = certified >= 950 and worst <= 1e-6 and elapsed < 60.0
    _say(capsys, ok, "01 prox-closed-form-vs-oracle",
         f"{certified}/1000 certified, max err {worst:.2e}, {elapsed:.1f}s")
    assert certified >= 950
    assert worst <= 1e-6
    assert elapsed < 60.0


def test_02_zero_regularization_matches_vanilla_trajectories(capsys):
    t0 = time.perf_counter()
    dim = 6
    worst = 0.0
    reg = RegConfig()
    for kind in ("momentum", "adagrad", "adam", "amsgrad"):
        for seed in range(50):
            rng = make_rng(97 * seed + 13)
            quad = rng.normal(size=(dim, dim))
            quad = quad @ quad.T / dim + np.eye(dim)
            lin = rng.normal(size=dim)
            feats = rng.normal(size=(32, dim))
            labels = rng.choice([-1.0, 1.0], 32)

            def logi_grad(x):
                margins = feats @ x * labels
                w = labels * np.exp(-np.logaddexp(0.0, margins))
                return -feats.T @ w / labels.size

            for grad_fn in (lambda x: quad @ x + lin, logi_grad):
                x0 = rng.normal(size=dim) * 0.1
                schedule = MomentSchedule(kind=kind)
                grouped = ParamBlock("w", x0.copy(), group_size=1)
                plain = ParamBlock("w", x0.copy())
                gs, vs = OptimizerState(dim, kind), OptimizerState(dim, kind)
                for _ in range(100):
                    step_group(gs, grouped, grad_fn(grouped.values),
                               schedule, 0.1, reg)
                    vanilla_step(vs, plain, grad_fn(plain.values),
                                 schedule, 0.1)
                worst = max(worst, float(np.max(np.abs(grouped.values
                                                       - plain.values))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 30.0
    _say(capsys, ok, "02 zero-lambda-equivalence",
         f"4 kinds x 50 seeds x 100 steps x 2 objectives, "
         f"max drift {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-9
    assert elapsed < 30.0


def test_03_size_one_group_adagrad_is_ftrl_proximal(capsys):
    dim = 5
    worst = 0.0
    for seed in range(20):
        rng = make_rng(seed)
        center = rng.normal(size=dim)
        lam1 = float(rng.uniform(0.0, 0.5))
        group = GroupOptimizer(MomentSchedule(kind="adagrad", epsilon=0.0),
                               0.5, RegConfig(lambda1=lam1))
        ftrl = OptimizerState(dim, "adagrad")
        a = ParamBlock("w", np.zeros(dim), group_size=1)
        b = ParamBlock("w", np.zeros(dim))
        for _ in range(100):
            group.step(a, quadratic_grad(a.values, center))
            ftrl_step(ftrl, b, quadratic_grad(b.values, center), 0.5, lam1)
            worst = max(worst, float(np.max(np.abs(a.values - b.values))))
    ok = worst <= 1e-9
    _say(capsys, ok, "03 ftrl-proximal-identity",
         f"20 seeds x 100 steps, max drift {worst:.2e}")
    assert worst <= 1e-9


def test_04_group_penalty_sweep_is_monotone_and_prunes_hard(capsys):
    t0 = time.perf_counter()
    runs = uniform_sweep("practical", 1e-2)
    elapsed = time.perf_counter() - t0
    counts = [r.final["nonzero_groups"] for r in runs]
    keeps = [r.final["sparsity"] for r in runs]
    monotone = all(b <= a for a, b in zip(counts, counts[1:]))
    ok = monotone and keeps[-1] <= 0.10 and elapsed < 300.0
    _say(capsys, ok, "04 sparsity-monotonicity",
         f"nonzero groups {counts}, final keep {keeps[-1]:.4f}, {elapsed:.0f}s")
    assert monotone, counts
    assert keeps[-1] <= 0.10
    assert elapsed < 300.0


def test_05_group_penalty_prunes_more_than_l1_at_equal_strength(capsys):
    seeds = (0, 1, 2)
    keeps_21 = {s: [] for s in seeds}
    keeps_1 = {s: [] for s in seeds}
    for seed in seeds:
        data = load_dataset(uniform_config(seed=seed, epochs=1))
        for lam in PRACTICAL_GRID:
            r21 = train_model(uniform_config(seed=seed, epochs=1, lambda21=lam,
                                             lambda2=0.0), dataset=data)
            r1 = train_model(uniform_config(seed=seed, epochs=1, lambda1=lam,
                                            lambda2=0.0), dataset=data)
            keeps_21[seed].append(r21.final["sparsity"])
            keeps_1[seed].append(r1.final["sparsity"])
    checked = 0
    failed = []
    for i, lam in enumerate(PRACTICAL_GRID):
        pruning = any(keeps_21[s][i] < 1.0 or keeps_1[s][i] < 1.0 for s in seeds)
        if not pruning:
            continue
        checked += 1
        votes = sum(keeps_21[s][i] <= keeps_1[s][i] for s in seeds)
        if votes * 2 <= len(seeds):
            failed.append((lam, votes))
    ok = checked > 0 and not failed
    _say(capsys, ok, "05 group-vs-l1-pruning-strength",
         f"{checked} pruning grid points, majority vote failures: {failed}")
    assert checked > 0
    assert not failed, failed


def test_06_retained_groups_recover_planted_support(capsys):
    rows = []
    ok = True
    for seed in (0, 1, 2):
        report = longtail_run(seed, 0.2)
        keep = report.final["sparsity"]
        prec = support_precision(report, longtail_data(seed))
        rows.append(f"seed {seed}: keep {keep:.3f} precision {prec:.3f}")
        ok = ok and 0.10 <= keep <= 0.20 and prec >= 0.2
    _say(capsys, ok, "06 support-recovery",
         "base rate 0.1, need precision >= 0.2 at keep 10-20%; "
         + "; ".join(rows))
    assert ok, rows


def test_07_sparse_training_beats_magnitude_pruning_at_matched_keep(capsys):
    ladder = (0.2, 0.25, 0.3, 0.45, 0.7)
    wins = 0
    rows = []
    for seed in range(10):
        picked = None
        for lam in ladder:
            report = longtail_run(seed, lam)
            keep = report.final["sparsity"]
            if keep == 0.0:
                break
            if keep <= 0.10:
                picked = report
                break
        if picked is None:
            rows.append(f"seed {seed}: no ladder point in (0, 0.10] -> loss")
            continue
        nz = picked.final["nonzero_groups"]
        baseline = prune_baseline(longtail_config(seed, "adam"), nz,
                                  dataset=longtail_data(seed))
        group_auc = picked.final["auc"]
        pruned_auc = baseline["best"]["auc"]
        win = group_auc >= pruned_auc
        wins += win
        rows.append(f"seed {seed}: keep {picked.final['sparsity']:.3f} "
                    f"group {group_auc:.4f} pruned {pruned_auc:.4f} "
                    f"{'win' if win else 'loss'}")
    ok = wins >= 7
    _say(capsys, ok, "07 sparse-training-vs-pruned-baseline",
         f"{wins}/10 wins at matched keep <= 10%")
    with capsys.disabled():
        for row in rows:
            print(f"    {row}")
    assert wins >= 7, rows


def test_08_regret_grows_like_sqrt_t_and_respects_the_bound(capsys):
    # Slopes are measured on noisy streams. The curvature-ratio condition is
    # exercised on an alternating stream, whose gradients stay bounded away
    # from zero: on the noisy stream the occasional near-zero gradient leaves
    # the adagrad accumulator bitwise unchanged at this horizon, so the
    # measured max root ratio saturates at exactly 1.0 and the condition is
    # honestly (if artifactually) reported unmet.
    t0 = time.perf_counter()
    horizon = 1 << 17
    noisy = OnlineProblem(kind="quadratic", dim=8, horizon=horizon,
                          seed=0, mode="stochastic")
    swinging = OnlineProblem(kind="quadratic", dim=8, horizon=horizon,
                             seed=0, mode="alternating")
    runs = {
        "adagrad": run_regret(noisy, kind="adagrad", lr=0.5),
        "adam": run_regret(noisy, kind="adam", lr=0.5, step_decay="sqrt_t"),
        "adagrad-alternating": run_regret(swinging, kind="adagrad", lr=0.5),
    }
    elapsed = time.perf_counter() - t0
    rows = []
    ok = elapsed < 180.0
    bound_checked = 0
    for name, run in runs.items():
        constants = measure_bound_constants(run)
        slope_ok = 0.3 <= run.slope <= 0.65
        if constants["condition_met"]:
            bound_checked += 1
            bound_ok = bool(constants["bound_holds"])
            status = (f"bound {constants['regret_T']:.3g} <= "
                      f"{constants['bound_rhs']:.3g}: {bound_ok}")
        else:
            bound_ok = True
            status = f"condition unmet (kappa {constants['kappa']:.4f})"
        ok = ok and slope_ok and bound_ok
        rows.append(f"{name}: slope {run.slope:.3f}, {status}")
    ok = ok and bound_checked >= 1
    _say(capsys, ok, "08 sqrt-horizon-regret",
         f"{'; '.join(rows)}; {elapsed:.0f}s")
    assert ok, rows
    assert bound_checked >= 1
    assert elapsed < 180.0


def test_09_wider_embeddings_prune_harder_at_fixed_penalty(capsys):
    keeps = []
    for dim in (4, 8, 16, 32):
        report = longtail_run(0, 0.2, embed_dim=dim)
        keeps.append(report.final["sparsity"])
    ties = sum(b == a for a, b in zip(keeps, keeps[1:]))
    monotone = all(b <= a for a, b in zip(keeps, keeps[1:]))
    ok = monotone and ties <= 1
    _say(capsys, ok, "09 embedding-dimension-trend",
         f"keep by dim {dict(zip((4, 8, 16, 32), [round(k, 3) for k in keeps]))}, "
         f"ties {ties}")
    assert monotone, keeps
    assert ties <= 1


def test_10_backward_matches_central_differences(capsys):
    rng = make_rng(7)
    hidden_choices = ((4,), (5,), (7, 4), (8,))
    worst = 0.0
    for case in range(20):
        config = ModelConfig(
            num_features=int(rng.integers(8, 17)),
            embed_dim=int(rng.integers(2, 7)),
            num_fields=int(rng.integers(2, 4)),
            hidden_dims=hidden_choices[case % len(hidden_choices)])
        blocks = init_params(config, case)
        for block in blocks.values():
            block.values += rng.normal(scale=0.05, size=block.values.size)
        batch = int(rng.integers(3, 7))
        ids = rng.integers(0, config.num_features,
                           size=(batch, config.num_fields))
        labels = (rng.random(batch) < 0.5).astype(np.float64)
        cache = forward(blocks, ids, config)
        grads = backward(cache, labels, blocks)
        grads[EMBEDDING] = scatter_rows(blocks[EMBEDDING], grads[EMBEDDING], cache.rows)
        h = 1e-5
        for name, block in blocks.items():
            values = block.values
            numeric = np.zeros_like(values)
            for i in range(values.size):
                orig = values[i]
                values[i] = orig + h
                hi = logloss(forward(blocks, ids, config).logits, labels)
                values[i] = orig - h
                lo = logloss(forward(blocks, ids, config).logits, labels)
                values[i] = orig
                numeric[i] = (hi - lo) / (2 * h)
            scale = np.maximum(np.abs(numeric), 1e-3)
            rel = float(np.max(np.abs(grads[name] - numeric) / scale))
            worst = max(worst, rel)
    ok = worst <= 1e-6
    _say(capsys, ok, "10 gradient-check",
         f"20 random configs, max relative error {worst:.2e}")
    assert worst <= 1e-6


def test_11_exact_gate_frontier_vs_practical_gate_frontier(capsys):
    points = {"practical": [], "exact": []}
    for variant in ("practical", "exact"):
        for lr in (1e-2, 3e-2):
            for run in uniform_sweep(variant, lr):
                points[variant].append((run.final["sparsity"],
                                        run.final["auc"]))

    def bucket_means(pts):
        by_bucket = {}
        for keep, auc in pts:
            by_bucket.setdefault(min(9, int(keep * 10)), []).append(auc)
        return {b: float(np.mean(v)) for b, v in by_bucket.items()}

    practical = bucket_means(points["practical"])
    exact = bucket_means(points["exact"])
    matched = sorted(set(practical) & set(exact))
    if len(matched) < 3:
        _say(capsys, True, "11 gating-norm-frontier",
             f"report-only: {len(matched)} matched keep-rate buckets "
             f"(practical {sorted(practical)}, exact {sorted(exact)})")
        return
    wins = sum(practical[b] >= exact[b] for b in matched)
    table = ", ".join(f"bucket {b}: {practical[b]:.3f} vs {exact[b]:.3f}"
                      for b in matched)
    ok = wins * 2 > len(matched)
    _say(capsys, ok, "11 gating-norm-frontier",
         f"practical wins {wins}/{len(matched)} matched buckets ({table})")
    assert ok, table
