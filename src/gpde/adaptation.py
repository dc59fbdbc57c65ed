"""Adapt a trained source-domain GP to scarce target data without refitting.

The source expert's posterior, evaluated at the target training inputs, acts
as a prior for the target data.  Observing the target labels then corrects
the source prediction at any test point:

    mean_adapted = mean_source + cross^T (V + noise_s^2 I)^-1 (Y_t - prior_mean)
    var_adapted  = var_source  - cross^T (V + noise_s^2 I)^-1 cross

where ``V`` is the source-posterior covariance between the target inputs and
``cross`` the source-posterior covariance between target inputs and test
points.  This is exactly sequential Gaussian conditioning, so the result
matches a joint GP conditioned on source and target data with the source
noise; the source hyperparameters are reused throughout (no retraining).

The correction only ever shrinks the predictive variance.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import cho_solve, solve_triangular

from .exceptions import InvalidInputError
from .gp_core import (Dataset, Expert, PosteriorPrediction, _as_queries, _posterior_with_solve,
                      cholesky_with_jitter, posterior)
from .kernel import kernel_matrix

__all__ = ["AdaptedExpert", "adapted_posterior"]


class AdaptedExpert:
    """A source expert conditioned on one target training set.

    Caches the target-side factorization (the expensive, test-independent
    part); cross-covariances are computed per prediction batch.  Instances
    are immutable after construction and safe to share across batches.
    """

    def __init__(self, source: Expert, target: Dataset):
        if target.dim != source.data.dim:
            raise InvalidInputError(
                f"target has D={target.dim}, source expert has D={source.data.dim}"
            )
        if target.n_outputs != source.data.n_outputs:
            raise InvalidInputError(
                f"target has C={target.n_outputs}, source expert has C={source.data.n_outputs}"
            )
        self.source = source
        self.target = target
        # Source posterior jointly at the target inputs: mean (N_t x C) and
        # covariance (N_t x N_t), symmetrized against floating-point asymmetry.
        K_st = kernel_matrix(source.data.X, target.X, h=source.hyper)  # N_s x N_t
        prior_mean = K_st.T @ source.alpha
        # N_s x N_t half-solve, reused for every cross-covariance batch
        self._v_t = solve_triangular(source.chol, K_st, lower=True, check_finite=False)
        prior_cov = kernel_matrix(target.X, h=source.hyper) - self._v_t.T @ self._v_t
        prior_cov = 0.5 * (prior_cov + prior_cov.T)
        noise_var = source.hyper.noise_std**2  # source noise, also on target observations
        self._chol_t, self.jitter = cholesky_with_jitter(prior_cov + noise_var * np.eye(target.n))
        self._correction = cho_solve((self._chol_t, True), target.Y - prior_mean,
                                     check_finite=False)

    def posterior(self, X_star) -> PosteriorPrediction:
        """Adapted predictive mean and variance at ``X_star`` (M x D)."""
        X_star = _as_queries(self.source, X_star)
        base, v_star = _posterior_with_solve(self.source, X_star)
        # source-posterior covariance between target inputs and test points (N_t x M)
        cross = kernel_matrix(self.target.X, X_star, h=self.source.hyper) - self._v_t.T @ v_star
        mean = base.mean + cross.T @ self._correction
        u = solve_triangular(self._chol_t, cross, lower=True, check_finite=False)
        variance = base.variance - np.sum(u * u, axis=0)
        np.maximum(variance, 0.0, out=variance)
        return PosteriorPrediction(mean=mean, variance=variance)


def adapted_posterior(source: Expert, target: Dataset | None, X_star) -> PosteriorPrediction:
    """Source prediction at ``X_star`` corrected by the target training set.

    ``target=None`` stands for the empty target set, in which case the
    correction vanishes and the plain source posterior is returned.
    """
    if target is None:
        return posterior(source, X_star)
    return AdaptedExpert(source, target).posterior(X_star)
