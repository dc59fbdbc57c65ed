"""Domain-expert pools: shared-hyperparameter source GPs, a target GP, and
precision-weighted fusion of their predictions.

Training factorizes across domains: all source datasets share one
hyperparameter triple (fit on the sum of their marginal likelihoods) while
the target expert gets its own.  At prediction time each source expert is
corrected toward the target training data (see :mod:`gpde.adaptation`), the
target expert predicts directly, and the experts are combined as a weighted
product of Gaussians:

    fused_var  = [sum_i beta_i / var_i]^-1
    fused_mean = fused_var * sum_i beta_i * mean_i / var_i

so confident (low-variance) experts dominate.  Hard labels come from the
sign of the fused mean per output, or the argmax across outputs in
multi-class mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._blas import blas_threads
from .adaptation import AdaptedExpert
from .exceptions import InvalidInputError
from .gp_core import Dataset, Expert, _as_queries, _check_domains, fit, posterior, train_expert
from .kernel import kernel_matrix

__all__ = [
    "VARIANCE_FLOOR",
    "GpdeModel",
    "FusedPrediction",
    "train_source_experts",
    "train_target_expert",
    "train_gpde",
    "fuse",
    "hard_labels",
    "predict",
    "expert_weights",
]

# Predictive variances are clamped here before inversion; never divided raw.
VARIANCE_FLOOR = 1e-10

MODES = ("multilabel", "multiclass")

# Largest accepted |sum(betas) - 1|.
BETA_SUM_TOL = 1e-9


def _check_betas(betas, n_experts: int) -> np.ndarray:
    """Combination weights as a float array: one per expert, nonnegative,
    summing to 1 within ``BETA_SUM_TOL``.  NaN entries fail both tests."""
    betas = np.asarray(betas, dtype=float)
    if betas.shape != (n_experts,):
        raise InvalidInputError(
            f"betas must have one entry per expert ({n_experts}), got shape {betas.shape}"
        )
    if not (np.all(betas >= 0.0) and abs(float(betas.sum()) - 1.0) <= BETA_SUM_TOL):
        raise InvalidInputError(f"betas must be nonnegative and sum to 1, got {betas!r}")
    return betas


@dataclass(frozen=True)
class GpdeModel:
    """Trained expert pool: M source experts, an optional target expert, and
    normalized combination weights (ordered sources first, target last),
    uniform over the experts present unless given."""

    sources: list[Expert]
    target: Expert | None
    betas: np.ndarray | None = None
    mode: str = "multilabel"

    def __post_init__(self):
        _check_domains([e.data for e in [*self.sources, self.target] if e is not None])
        n = self.n_experts
        betas = np.full(n, 1.0 / n) if self.betas is None else self.betas
        object.__setattr__(self, "betas", _check_betas(betas, n))
        if self.mode not in MODES:
            raise InvalidInputError(f"mode must be one of {MODES}, got {self.mode!r}")
        for e in self.sources[1:]:
            if e.hyper != self.sources[0].hyper:
                raise InvalidInputError("source experts must share identical hyperparameters")

    @property
    def n_experts(self) -> int:
        return len(self.sources) + (1 if self.target is not None else 0)


@dataclass(frozen=True)
class FusedPrediction:
    """Fused mean/variance plus the per-expert predictions behind them.

    ``per_expert_means`` and ``per_expert_variances`` are ordered like the
    model's experts (sources first, target last).  ``labels`` holds the hard
    {-1, +1} decisions.
    """

    mean: np.ndarray
    variance: np.ndarray
    per_expert_means: list[np.ndarray] = field(repr=False)
    per_expert_variances: list[np.ndarray] = field(repr=False)
    labels: np.ndarray = field(default=None)


def train_source_experts(source_datasets: list[Dataset]) -> list[Expert]:
    """Fit one shared hyperparameter triple over all source datasets and
    train an expert per dataset with it; the one place a fit is paired with
    expert training."""
    shared = fit(source_datasets)
    return [train_expert(d, shared) for d in source_datasets]


def train_target_expert(target_dataset: Dataset) -> Expert:
    """Fit hyperparameters on the target data alone and train its expert."""
    return train_source_experts([target_dataset])[0]


def train_gpde(source_datasets: list[Dataset], target_dataset: Dataset | None) -> GpdeModel:
    """Train the full expert pool, with uniform betas and multilabel labels.

    ``target_dataset=None`` builds a source-only pool.  Other weights or the
    multiclass rule are composed from the trained experts, as
    ``GpdeModel(model.sources, model.target, betas, mode)``.  Source experts
    do not depend on the target, so a trained pool is re-pointed at a new
    target domain, with no source refit, the same way:
    ``GpdeModel(model.sources, train_target_expert(new_target))``.
    """
    sources = train_source_experts(source_datasets) if source_datasets else []
    target = train_target_expert(target_dataset) if target_dataset is not None else None
    return GpdeModel(sources=sources, target=target)


def fuse(
    expert_means: list[np.ndarray],
    expert_variances: list[np.ndarray],
    betas,
) -> tuple[np.ndarray, np.ndarray]:
    """Combine per-expert predictions by normalized precision.

    Parameters
    ----------
    expert_means : list of (M_test x C) arrays
    expert_variances : list of (M_test,) arrays
        Clamped at ``VARIANCE_FLOOR`` before inversion.
    betas : array-like, nonnegative, summing to 1 within ``BETA_SUM_TOL``

    Returns
    -------
    mean : ndarray, (M_test x C)
    variance : ndarray, (M_test,)
    """
    if not expert_means or len(expert_means) != len(expert_variances):
        raise InvalidInputError("expert mean/variance lists must be nonempty and aligned")
    betas = _check_betas(betas, len(expert_means))
    means = [np.asarray(m, dtype=float) for m in expert_means]
    variances = [
        np.maximum(np.asarray(v, dtype=float).ravel(), VARIANCE_FLOOR) for v in expert_variances
    ]
    if means[0].ndim != 2 or {m.shape for m in means} != {means[0].shape} or \
            {v.size for v in variances} != {len(means[0])}:
        raise InvalidInputError(f"expert means must share one (M, C) shape and each variance "
                                f"hold M values, got {[m.shape for m in means]} and "
                                f"{[np.shape(v) for v in expert_variances]}")
    active = [i for i in range(len(means)) if betas[i] > 0.0]
    if len(active) == 1:  # single-expert degeneracy is exact, no double rounding
        i = active[0]
        return means[i].copy(), variances[i].copy()
    precision = np.zeros_like(variances[0])
    weighted = np.zeros_like(means[0])
    for i in active:
        p = betas[i] / variances[i]
        precision += p
        weighted += p[:, None] * means[i]
    variance = 1.0 / precision
    mean = variance[:, None] * weighted
    return mean, variance


def hard_labels(mean: np.ndarray, mode: str) -> np.ndarray:
    """Decision rule on a fused mean matrix.

    multilabel: per-output sign, with sign(0) fixed to +1.
    multiclass: argmax across the C outputs, emitted one-hot in {-1, +1}.
    """
    mean = np.atleast_2d(mean)
    if mode == "multilabel":
        return np.where(mean >= 0.0, 1.0, -1.0)
    if mode == "multiclass":
        labels = -np.ones_like(mean)
        labels[np.arange(mean.shape[0]), np.argmax(mean, axis=1)] = 1.0
        return labels
    raise InvalidInputError(f"mode must be one of {MODES}, got {mode!r}")


def predict(model: GpdeModel, X_star) -> FusedPrediction:
    """Fused prediction at ``X_star`` with per-expert detail and hard labels.

    Source experts are conditioned on the target expert's data; without a
    target expert there is nothing to condition on, so they predict unadapted.
    The sources share hyperparameters, so the target-side kernel blocks
    ``K(X_t, X_t)`` and ``K(X_t, X_star)`` are formed once for all of them.
    """
    target = model.target
    X_star = _as_queries((model.sources or [target])[0], X_star)
    with blas_threads(1):
        if target is None:
            preds = [posterior(src, X_star) for src in model.sources]
        else:
            preds = []
            if model.sources:
                h, X_t = model.sources[0].hyper, target.data.X
                K_tt, K_t_star = kernel_matrix(X_t, h=h), kernel_matrix(X_t, X_star, h=h)
                preds = [AdaptedExpert(src, target.data, K_tt=K_tt)
                         .posterior(X_star, K_t_star=K_t_star) for src in model.sources]
            preds.append(posterior(target, X_star))
        means = [p.mean for p in preds]
        variances = [p.variance for p in preds]
        mean, variance = fuse(means, variances, model.betas)
    return FusedPrediction(
        mean=mean,
        variance=variance,
        per_expert_means=means,
        per_expert_variances=variances,
        labels=hard_labels(mean, model.mode),
    )


def expert_weights(model: GpdeModel, x_star) -> np.ndarray:
    """Per-expert importance at the query points: beta_i / var_i, normalized
    to sum to 1 (sources first, target last), from :func:`predict`'s
    per-expert variances.

    Returns shape ``(M_test, n_experts)`` for any query, one row per point,
    as :func:`predict` returns one row of means per point.
    """
    variances = predict(model, x_star).per_expert_variances
    precisions = np.stack(
        [b / np.maximum(v, VARIANCE_FLOOR) for b, v in zip(model.betas, variances)], axis=1
    )
    return precisions / precisions.sum(axis=1, keepdims=True)
