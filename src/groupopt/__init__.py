"""Adaptive optimizers with sparse-group-lasso regularization.

The package provides the closed-form proximal update and its certified
oracle, the family of regularized dual-averaging optimizers (the plain
optimizers and FTRL-Proximal are its zero-penalty and l1-only members), a
small embedding+MLP training harness on synthetic or libsvm data, a
magnitude-pruning baseline, and an online regret measurement lab.
"""

from .blocks import ParamBlock, group_l2_norms, make_rng, pin_malloc_thresholds
from .data import Dataset, SynthSpec, generate, load_libsvm, write_libsvm
from .metrics import auc, nonzero_groups, sparsity
from .model import (
    DENSE,
    EMBEDDING,
    ModelConfig,
    backward,
    forward,
    init_params,
    load_checkpoint,
    logloss,
    predict_proba,
    save_checkpoint,
)
from .optimizers import (
    GroupOptimizer,
    MomentSchedule,
    NO_REG,
    OptimizerState,
    PoisonedStateError,
    RegConfig,
    make_optimizer,
    step_group,
)
from .prox import (
    NonpositiveDiagonalError,
    OracleResult,
    ProxProblem,
    group_shrink,
    prox_objective,
    prox_oracle,
    prox_solve,
    random_problem,
    soft_threshold,
)
from .pruning import PruneSchedule, magnitude_prune
from .regret import OnlineProblem, RegretRun, measure_bound_constants, run_regret
from .training import (
    ExperimentConfig,
    RunReport,
    config_from_dict,
    prune_baseline,
    prune_finetune_prune,
    run_repeated,
    sweep,
    train_model,
)

__version__ = "0.1.0"

# the same allocations in every run, whatever the process freed before
# (blocks.MMAP_THRESHOLD)
pin_malloc_thresholds()

__all__ = [
    "ParamBlock", "group_l2_norms", "make_rng",
    "Dataset", "SynthSpec", "generate", "load_libsvm", "write_libsvm",
    "auc", "nonzero_groups", "sparsity",
    "DENSE", "EMBEDDING", "ModelConfig", "backward", "forward", "init_params",
    "load_checkpoint", "logloss", "predict_proba", "save_checkpoint",
    "GroupOptimizer", "MomentSchedule", "NO_REG", "OptimizerState",
    "PoisonedStateError", "RegConfig", "make_optimizer", "step_group",
    "NonpositiveDiagonalError", "OracleResult", "ProxProblem", "group_shrink",
    "prox_objective", "prox_oracle", "prox_solve", "random_problem", "soft_threshold",
    "PruneSchedule", "magnitude_prune",
    "OnlineProblem", "RegretRun", "measure_bound_constants", "run_regret",
    "ExperimentConfig", "RunReport", "config_from_dict", "prune_baseline",
    "prune_finetune_prune", "run_repeated", "sweep", "train_model",
    "__version__",
]
