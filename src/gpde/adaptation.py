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

from .gp_core import (Dataset, Expert, PosteriorPrediction, _as_queries, _check_domains,
                      _factor, _less_explained, _mean_and_solve, _solve_lower, posterior)
from .kernel import kernel_matrix

__all__ = ["AdaptedExpert", "adapted_posterior"]


class AdaptedExpert:
    """A source expert conditioned on one target training set.

    Caches the target-side factorization (the expensive, test-independent
    part); cross-covariances are computed per prediction batch.  Instances
    are immutable after construction and safe to share across batches.

    The target-side kernel blocks depend only on the target inputs and the
    source hyperparameters, so sources that share hyperparameters can share
    them: ``K_tt`` (``K(X_t, X_t)``) here and ``K_t_star`` (``K(X_t, X_star)``)
    in :meth:`posterior`, both computed with ``source.hyper`` and only read.
    ``None`` computes them.
    """

    def __init__(self, source: Expert, target: Dataset, *, K_tt: np.ndarray | None = None):
        _check_domains([source.data, target])
        self.source = source
        self.target = target
        # Source posterior jointly at the target inputs: mean (N_t x C) and
        # covariance (N_t x N_t).  The covariance is symmetric bit for bit, as
        # the factorization needs: K_tt is, and numpy forms v.T @ v by a
        # symmetric rank-k update.
        K_st = kernel_matrix(source.data.X, target.X, h=source.hyper)  # N_s x N_t
        prior_mean = K_st.T @ source.alpha
        # N_s x N_t half-solve, reused for every cross-covariance batch; K_st is consumed
        self._v_t = _solve_lower(source.chol, K_st)
        if K_tt is None:
            K_tt = kernel_matrix(target.X, h=source.hyper)
        prior_cov = K_tt - self._v_t.T @ self._v_t
        self._chol_t, self._correction, self.jitter = _factor(  # source noise on target rows
            prior_cov, source.hyper.noise_std**2, target.Y - prior_mean)

    def posterior(self, X_star, *, K_t_star: np.ndarray | None = None) -> PosteriorPrediction:
        """Adapted predictive mean and variance at ``X_star`` (M x D).

        Beyond ``K_t_star``, the working set is one N_s x M and one N_t x M
        buffer: the source solve ``v`` is squared in place once the
        cross-covariance has read it, and the target solve ``u`` is formed and
        squared in the cross-covariance's buffer, each in the plain
        expression's order, so the bits are those of separate arrays.
        """
        X_star = _as_queries(self.source, X_star)
        base_mean, v_star = _mean_and_solve(self.source, X_star)
        if K_t_star is None:
            K_t_star = kernel_matrix(self.target.X, X_star, h=self.source.hyper)
        # source-posterior covariance between target inputs and test points
        # (N_t x M), formed in the product's buffer
        cross = self._v_t.T @ v_star
        np.subtract(K_t_star, cross, out=cross)
        base_variance = _less_explained(self.source.hyper.signal_std**2, v_star)
        mean = base_mean + cross.T @ self._correction
        u = _solve_lower(self._chol_t, cross)  # cross is consumed
        return PosteriorPrediction(mean=mean, variance=_less_explained(base_variance, u))


def adapted_posterior(source: Expert, target: Dataset | None, X_star) -> PosteriorPrediction:
    """Source prediction at ``X_star`` corrected by the target training set.

    ``target=None`` stands for the empty target set, in which case the
    correction vanishes and the plain source posterior is returned.
    """
    if target is None:
        return posterior(source, X_star)
    return AdaptedExpert(source, target).posterior(X_star)
