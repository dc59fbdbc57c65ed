"""Gaussian-process domain experts.

Train RBF-kernel GP regressors on one or more source domains, adapt them to
a sparsely labeled target domain by conditioning the source posterior on the
target data, and fuse all experts by predictive precision.  Includes the
evaluation metrics, PCA preprocessing, a seeded synthetic covariate-shift
generator, and a benchmark protocol, all exposed both as a library and
through the ``gpde`` command-line tool.
"""

from .adaptation import AdaptedExpert, adapted_posterior
from .bench import BenchmarkResult, BenchmarkSpec, BenchRow, run_benchmark, write_result_table
from .data import (
    PcaProjector,
    ShiftConfig,
    config_hash,
    load_dataset,
    load_features,
    load_shift_config,
    pca_apply,
    pca_fit,
    save_dataset,
    save_shift_config,
    synth_shift,
)
from .exceptions import (
    ConfigError,
    DataLoadError,
    GpdeError,
    InvalidInputError,
    NumericalError,
    UndefinedMetricError,
)
from .experts import (
    FusedPrediction,
    GpdeModel,
    expert_weights,
    fuse,
    hard_labels,
    predict,
    train_gpde,
    train_source_experts,
    train_target_expert,
)
from .gp_core import (
    Dataset,
    Expert,
    FitResult,
    PosteriorPrediction,
    fit,
    fit_detailed,
    log_marginal_likelihood,
    posterior,
    train_expert,
)
from .kernel import Hyperparams, kernel_matrix
from .metrics import MetricReport, auc_roc, classification_rate, f1_score, multilabel_report
from .model_io import load_bundle, load_experts, save_bundle, save_expert_pool

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # kernel / core GP
    "Hyperparams", "kernel_matrix",
    "Dataset", "Expert", "PosteriorPrediction", "FitResult",
    "log_marginal_likelihood", "fit", "fit_detailed",
    "train_expert", "posterior",
    # adaptation
    "AdaptedExpert", "adapted_posterior",
    # experts / fusion
    "GpdeModel", "FusedPrediction", "fuse", "hard_labels",
    "train_source_experts", "train_target_expert", "train_gpde",
    "predict", "expert_weights",
    # metrics
    "MetricReport", "classification_rate", "f1_score", "auc_roc", "multilabel_report",
    # data / synthetic
    "load_dataset", "load_features", "save_dataset", "PcaProjector", "pca_fit", "pca_apply",
    "ShiftConfig", "synth_shift", "load_shift_config", "save_shift_config", "config_hash",
    # serialization
    "save_expert_pool", "load_experts", "save_bundle", "load_bundle",
    # benchmark
    "BenchmarkSpec", "BenchRow", "BenchmarkResult", "run_benchmark", "write_result_table",
    # errors
    "GpdeError", "InvalidInputError", "DataLoadError", "NumericalError",
    "UndefinedMetricError", "ConfigError",
]
