"""Adaptive optimizers with sparse-group-lasso regularization.

The package provides the closed-form proximal update and its certified
oracle, the family of regularized dual-averaging optimizers (the plain
optimizers and FTRL-Proximal are its zero-penalty and l1-only members), a
small embedding+MLP training harness on synthetic or libsvm data, a
magnitude-pruning baseline, and an online regret measurement lab.

A public name imports the submodule that defines it on first use (PEP 562),
so `import groupopt` loads only groupopt.blocks, and a regret run never
loads the training stack.
"""

from importlib import import_module

from .blocks import pin_malloc_thresholds

__version__ = "0.1.0"

# the same allocations in every run, whatever the process freed before
# (blocks.MMAP_THRESHOLD)
pin_malloc_thresholds()

# each submodule and the public names it defines
_EXPORTS = {
    "blocks": ("ParamBlock", "group_l2_norms", "make_rng"),
    "data": ("Dataset", "SynthSpec", "generate", "load_libsvm", "write_libsvm"),
    "metrics": ("auc", "nonzero_groups", "sparsity"),
    "model": ("DENSE", "EMBEDDING", "ModelConfig", "backward", "forward", "init_params",
              "load_checkpoint", "logloss", "predict_proba", "save_checkpoint"),
    "optimizers": ("GroupOptimizer", "MomentSchedule", "OptimizerState", "PoisonedStateError",
                   "RegConfig", "make_optimizer", "step_group"),
    "prox": ("NonpositiveDiagonalError", "ProxProblem", "group_shrink", "prox_oracle",
             "prox_solve", "random_problem", "soft_threshold"),
    "pruning": ("magnitude_prune",),
    "regret": ("OnlineProblem", "RegretRun", "measure_bound_constants", "run_regret"),
    "training": ("ExperimentConfig", "config_from_dict", "prune_baseline", "run_repeated",
                 "sweep", "train_model"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_OWNER, "__version__"]


def __getattr__(name: str):
    """Import the submodule that owns name, and keep name in the package."""
    if name in _EXPORTS:  # the submodules, attributes as the import leaves them
        return import_module(f"{__name__}.{name}")
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_OWNER[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *__all__})
