"""The benchmark's workloads: the inputs each builds from a seed, the public
API calls it times, and the checks its outputs must pass.

groupopt is imported inside setup(), never at module level, so that the
set-up time the benchmark reports starts before `import groupopt`.

Every method that calls into groupopt takes `call(name, fn, *args)`: the
untraced run passes `direct`, the traced run a Tracer's `call`, which
records a root span around the public function.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

DEFAULT_SEED = 0
# Reference outputs were recorded at DEFAULT_SEED; a change that keeps the
# arithmetic must reproduce them to this relative tolerance.
REL_TOL = 1e-9


def direct(name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


def _mismatch(key, value, reference) -> str | None:
    if isinstance(reference, float):
        same = math.isclose(value, reference, rel_tol=REL_TOL, abs_tol=0.0)
    else:
        same = value == reference
    return None if same else f"{key} {value!r} differs from the reference {reference!r}"


def _reference_problems(outputs: dict, reference: dict | None, seed: int) -> list[str]:
    if reference is None or seed != DEFAULT_SEED:
        return []
    found = (_mismatch(key, outputs[key], ref) for key, ref in reference.items())
    return [problem for problem in found if problem]


@dataclass(frozen=True)
class TrainWorkload:
    """train_model on long-tail synthetic data: batch 64, embed_dim 8,
    hidden (32, 16), penalties on the embedding table only."""

    name: str
    vocab_per_field: int
    optimizer: str
    lr: float
    reg: dict
    epochs: int
    reference: dict | None
    auc_floor: float = 0.6
    num_samples: int = 50_000
    throughput_name = "train_samples_per_s"

    def setup(self, seed: int, call=direct):
        from groupopt import (EMBEDDING, ExperimentConfig, ModelConfig, RegConfig,
                              SynthSpec, generate)

        spec = SynthSpec(num_fields=10, vocab_per_field=self.vocab_per_field,
                         informative_fraction=0.1, num_samples=self.num_samples,
                         skew=1.3, seed=seed)
        config = ExperimentConfig(
            model=ModelConfig(num_features=spec.vocab, embed_dim=8, num_fields=10,
                              hidden_dims=(32, 16)),
            data=spec, optimizer=self.optimizer, lr=self.lr,
            reg=RegConfig(**self.reg, apply_to=frozenset({EMBEDDING})),
            epochs=self.epochs, batch_size=64, seed=seed)
        return config, call("data.generate", generate, spec)

    def work(self, inputs) -> int:
        """Samples trained by one run()."""
        config, dataset = inputs
        return dataset.num_train * config.epochs

    def run(self, inputs, call=direct):
        from groupopt import train_model

        config, dataset = inputs
        return call("training.train_model", train_model, config, dataset=dataset)

    def outputs(self, report) -> tuple[dict, str]:
        """The checked outputs and a digest of every trained parameter bit."""
        from groupopt import EMBEDDING

        final = report.final
        outputs = {"auc": final["auc"], "logloss": final["logloss"],
                   "nonzero_groups": final["nonzero_groups"],
                   "rows": report.blocks[EMBEDDING].num_groups}
        digest = hashlib.sha256(repr(sorted(outputs.items())).encode())
        for name in sorted(report.blocks):
            digest.update(name.encode())
            digest.update(report.blocks[name].values.tobytes())
        return outputs, digest.hexdigest()

    def check(self, outputs: dict, seed: int) -> list[str]:
        """Reference match on the default seed; on every seed, conditions that
        hold whatever the data: a finite loss, a pruned table, and an AUC above
        the floor unless every row died, in which case the model ignores its
        input and all test scores tie."""
        problems = _reference_problems(outputs, self.reference, seed)
        auc, alive, rows = outputs["auc"], outputs["nonzero_groups"], outputs["rows"]
        if not math.isfinite(outputs["logloss"]) or outputs["logloss"] <= 0:
            problems.append(f"test logloss {outputs['logloss']!r} is not finite and positive")
        if not 0 <= alive < rows:
            problems.append(f"{alive} of {rows} rows alive: the group penalty pruned none")
        if alive == 0 and auc != 0.5:
            problems.append(f"no row alive, yet AUC is {auc!r} rather than 0.5")
        if alive > 0 and not auc >= self.auc_floor:
            problems.append(f"AUC {auc!r} is below the floor {self.auc_floor}")
        return problems


@dataclass(frozen=True)
class RegretWorkload:
    """run_regret on a quadratic stream with adagrad, then
    measure_bound_constants on the run."""

    name: str
    horizon: int
    reference: dict | None
    throughput_name = "regret_steps_per_s"

    def setup(self, seed: int, call=direct):
        from groupopt import OnlineProblem

        return OnlineProblem(kind="quadratic", dim=8, horizon=self.horizon, seed=seed)

    def work(self, problem) -> int:
        """Online steps played by one run()."""
        return problem.horizon

    def run(self, problem, call=direct):
        from groupopt import measure_bound_constants, run_regret

        run = call("regret.run_regret", run_regret, problem, kind="adagrad", lr=0.5)
        return run, call("regret.measure_bound_constants", measure_bound_constants, run)

    def outputs(self, result) -> tuple[dict, str]:
        run, bound = result
        outputs = {"slope": run.slope, "regret_final": run.regret_final,
                   "bound_holds": bound["bound_holds"],
                   "condition_met": bound["condition_met"]}
        digest = hashlib.sha256(repr(sorted(bound.items())).encode())
        for array in (run.xs, run.ms, run.regrets):
            digest.update(array.tobytes())
        return outputs, digest.hexdigest()

    def check(self, outputs: dict, seed: int) -> list[str]:
        """Reference match on the default seed; on every seed, finite positive
        regret growing sublinearly, and a bound that is never exceeded.

        bound_holds is None when the curvature-ratio condition kappa < 1 is
        not met and the bound is not evaluated; that depends on the seed.
        """
        problems = _reference_problems(outputs, self.reference, seed)
        regret, slope = outputs["regret_final"], outputs["slope"]
        if not math.isfinite(regret) or regret <= 0:
            problems.append(f"final regret {regret!r} is not finite and positive")
        if not 0 < slope < 1:
            problems.append(f"regret slope {slope!r} is not sublinear")
        if outputs["bound_holds"] is False:
            problems.append("final regret exceeds the measured bound")
        return problems


WORKLOADS = {w.name: w for w in (
    TrainWorkload(
        name="train-longtail-10k-adagrad", vocab_per_field=1000,
        optimizer="group-adagrad", lr=0.05, epochs=2,
        reg={"lambda1": 1e-3, "lambda21": 0.1, "lambda2": 1e-5, "variant": "exact"},
        reference={"auc": 0.8137975334349372, "logloss": 0.5138175036471939,
                   "nonzero_groups": 1629}),
    TrainWorkload(
        name="train-longtail-1k-adam", vocab_per_field=100,
        optimizer="group-adam", lr=1e-2, epochs=3, auc_floor=0.55,
        reg={"lambda21": 0.2, "lambda2": 1e-5},
        reference={"auc": 0.8181077819172248, "logloss": 0.48743291260888255,
                   "nonzero_groups": 156}),
    RegretWorkload(
        name="regret-quadratic-2e14", horizon=2**14,
        reference={"slope": 0.47047421981708837, "regret_final": 148.65648657223574,
                   "bound_holds": True}),
)}
