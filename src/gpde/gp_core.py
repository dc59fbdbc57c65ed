"""Exact multi-output GP regression with a shared RBF kernel across outputs.

Training maximizes the log-marginal likelihood

    L(h) = -1/2 tr[(K + noise^2 I)^-1 Y Y^T]
           - C/2 log|K + noise^2 I| - N*C/2 log(2*pi)

over the three hyperparameters, by gradient ascent in log-space with a
backtracking (sufficient-increase) line search.  A trained :class:`Expert`
caches the Cholesky factor of ``K + noise^2 I`` and the solve against the
label matrix, so prediction reduces to triangular solves.

Labels are conventionally in {-1, +1}, which lets the Gaussian-likelihood
regression double as a classifier through a sign readout; the functions here
accept any finite real label matrix (hyperparameter-recovery workflows fit on
continuous GP draws).
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_solve, cholesky, solve_triangular

from .exceptions import InvalidInputError, NumericalError
from .kernel import Hyperparams, kernel_matrix, squared_distances

__all__ = [
    "Dataset",
    "Expert",
    "PosteriorPrediction",
    "OptimizerOptions",
    "FitResult",
    "log_marginal_likelihood",
    "default_init",
    "fit",
    "fit_detailed",
    "train_expert",
    "posterior",
]

logger = logging.getLogger(__name__)

# Jitter ladder for failed Cholesky factorizations, relative to mean(diag).
JITTER_START = 1e-10
JITTER_MAX = 1e-4
JITTER_GROWTH = 10.0

LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass(frozen=True)
class Dataset:
    """One domain's training data: features ``X`` (N x D) and labels ``Y`` (N x C).

    ``Y`` entries are {-1, +1} for classification datasets (the CSV loader and
    the synthetic generator enforce this); real-valued labels are accepted so
    the same machinery can fit continuous GP samples.
    """

    X: np.ndarray
    Y: np.ndarray
    domain_id: str = ""

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        Y = np.asarray(self.Y, dtype=float)
        if Y.ndim == 1:
            Y = Y[:, None]
        if X.ndim != 2:
            raise InvalidInputError(f"X must be 2-d (N x D), got ndim={X.ndim}")
        if X.shape[0] < 1 or X.shape[1] < 1:
            raise InvalidInputError(f"X must have N >= 1 and D >= 1, got shape {X.shape}")
        if Y.shape != (X.shape[0], Y.shape[1]) or Y.shape[1] < 1:
            raise InvalidInputError(f"Y shape {Y.shape} inconsistent with X shape {X.shape}")
        if not np.all(np.isfinite(X)) or not np.all(np.isfinite(Y)):
            raise InvalidInputError("X and Y must be free of NaN/Inf")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Y", Y)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def dim(self) -> int:
        return self.X.shape[1]

    @property
    def n_outputs(self) -> int:
        return self.Y.shape[1]


@dataclass(frozen=True)
class Expert:
    """A GP trained on one domain, with cached factorization.

    ``chol`` is the lower Cholesky factor of ``K + noise^2 I`` (plus any
    jitter that was needed, recorded in ``jitter``); ``alpha`` solves
    ``(K + noise^2 I) alpha = Y``.
    """

    data: Dataset
    hyper: Hyperparams
    chol: np.ndarray
    alpha: np.ndarray
    jitter: float = 0.0


@dataclass(frozen=True)
class PosteriorPrediction:
    """Posterior mean (M x C) and per-point latent variance (M,).

    One scalar variance per test point is shared by all C outputs because the
    kernel is shared across output dimensions.
    """

    mean: np.ndarray
    variance: np.ndarray


@dataclass(frozen=True)
class OptimizerOptions:
    """Settings for the gradient-ascent fit."""

    max_iter: int = 200
    grad_tol: float = 1e-5
    sufficient_increase: float = 1e-4
    min_step: float = 1e-14
    step_growth: float = 2.0
    max_step: float = 10.0


@dataclass
class FitResult:
    """Outcome of :func:`fit_detailed`: best hyperparameters plus diagnostics."""

    hyper: Hyperparams
    objective: float
    converged: bool
    n_iter: int
    trace: list[float] = field(default_factory=list)


def cholesky_with_jitter(A: np.ndarray) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of a symmetric PSD matrix, escalating jitter on failure.

    Jitter starts at ``JITTER_START * mean(diag)`` and grows by factors of
    ``JITTER_GROWTH`` up to ``JITTER_MAX * mean(diag)``; beyond that a
    :class:`NumericalError` reports the attempted range.
    """
    try:
        return cholesky(A, lower=True, check_finite=False), 0.0
    except np.linalg.LinAlgError:
        pass
    diag_mean = float(np.mean(np.diagonal(A)))
    scale = diag_mean if diag_mean > 0 else 1.0
    jitter = JITTER_START * scale
    eye = np.eye(A.shape[0])
    while jitter <= JITTER_MAX * scale:
        try:
            L = cholesky(A + jitter * eye, lower=True, check_finite=False)
            logger.debug("Cholesky needed jitter %.3e (relative %.1e)", jitter, jitter / scale)
            return L, jitter
        except np.linalg.LinAlgError:
            jitter *= JITTER_GROWTH
    raise NumericalError(
        "Cholesky failed after escalating jitter up to "
        f"{JITTER_MAX * scale:.3e} ({JITTER_START:.0e}..{JITTER_MAX:.0e} x mean diagonal)"
    )


def _lml_value(sq: np.ndarray, Y: np.ndarray, h: Hyperparams):
    """Log-marginal likelihood from a precomputed squared-distance matrix, plus
    the factors ``(K, L, alpha)`` that :func:`_lml_grad` takes at the same point."""
    n, c = Y.shape
    K = h.signal_std**2 * np.exp(-0.5 * sq / h.length_scale**2)
    Kn = K + h.noise_std**2 * np.eye(n)
    L, _ = cholesky_with_jitter(Kn)
    alpha = cho_solve((L, True), Y, check_finite=False)
    quad = float(np.sum(Y * alpha))
    logdet = 2.0 * float(np.sum(np.log(np.diagonal(L))))
    value = -0.5 * quad - 0.5 * c * logdet - 0.5 * n * c * LOG_2PI
    return value, (K, L, alpha)


def _lml_grad(sq: np.ndarray, h: Hyperparams, K: np.ndarray, L: np.ndarray,
              alpha: np.ndarray) -> np.ndarray:
    """Log-space gradient of the log-marginal likelihood from the factors
    :func:`_lml_value` returned at ``h``."""
    n, c = alpha.shape
    # d/dtheta = 1/2 tr[(alpha alpha^T - C Kn^-1) dK/dtheta], theta in log-space.
    Kn_inv = cho_solve((L, True), np.eye(n), check_finite=False)
    T = alpha @ alpha.T - c * Kn_inv
    d_log_ell = K * (sq / h.length_scale**2)
    g_ell = 0.5 * float(np.sum(T * d_log_ell))
    g_sf = 0.5 * float(np.sum(T * (2.0 * K)))
    g_sv = h.noise_std**2 * float(np.trace(T))
    return np.array([g_ell, g_sf, g_sv])


def log_marginal_likelihood(data: Dataset, h: Hyperparams) -> tuple[float, np.ndarray]:
    """Log-marginal likelihood of ``data`` under ``h`` and its gradient.

    Returns
    -------
    value : float
    grad : ndarray, shape (3,)
        Derivatives w.r.t. (log length_scale, log signal_std, log noise_std).
    """
    sq = squared_distances(data.X)
    value, factors = _lml_value(sq, data.Y, h)
    return value, _lml_grad(sq, h, *factors)


def default_init(datasets: list[Dataset]) -> Hyperparams:
    """Scale-matching initialization: median pairwise distance for the
    length-scale, label standard deviation for the signal, a tenth of that
    for the noise."""
    X = np.concatenate([d.X for d in datasets], axis=0)
    if X.shape[0] > 1024:  # keep the heuristic O(1M) distances
        X = X[:: int(np.ceil(X.shape[0] / 1024))]
    if X.shape[0] > 1:
        dists = np.sqrt(squared_distances(X))
        positive = dists[np.triu_indices_from(dists, k=1)]
        positive = positive[positive > 0]
        ell = float(np.median(positive)) if positive.size else 1.0
    else:
        ell = 1.0
    y_std = float(np.std(np.concatenate([d.Y.ravel() for d in datasets])))
    sf = y_std if y_std > 0 else 1.0
    return Hyperparams(length_scale=ell or 1.0, signal_std=sf, noise_std=0.1 * sf)


def _validate_fit_inputs(datasets: list[Dataset]):
    if not datasets:
        raise InvalidInputError("fit needs at least one dataset")
    dim, n_out = datasets[0].dim, datasets[0].n_outputs
    for d in datasets[1:]:
        if d.dim != dim or d.n_outputs != n_out:
            raise InvalidInputError(
                f"datasets must share D and C: got ({dim},{n_out}) and ({d.dim},{d.n_outputs})"
            )


def fit_detailed(
    datasets: list[Dataset],
    init: Hyperparams | None = None,
    opts: OptimizerOptions | None = None,
) -> FitResult:
    """Maximize the summed log-marginal likelihood of ``datasets`` over one
    shared hyperparameter triple.

    Gradient ascent in log-space with a backtracking line search under a
    sufficient-increase condition; the accepted-objective trace is
    non-decreasing by construction.  A single-element list is ordinary GP
    training.
    """
    _validate_fit_inputs(datasets)
    opts = opts or OptimizerOptions()
    h0 = init or default_init(datasets)
    parts = [(squared_distances(d.X), d.Y) for d in datasets]

    def value(z: np.ndarray):
        """Summed objective at ``z``, plus what :func:`gradient` needs there."""
        h = Hyperparams.from_log(z)
        total, factors = 0.0, []
        for sq, Y in parts:
            v, f = _lml_value(sq, Y, h)
            total += v
            factors.append(f)
        return total, (h, factors)

    def value_only(z: np.ndarray):
        try:
            return value(z)
        except (NumericalError, InvalidInputError, OverflowError):
            # overflow/underflow of exp(z) or signal_std**2, or a failed
            # factorization: reject the step
            return -np.inf, None

    def gradient(state) -> np.ndarray:
        # from the factors the value was computed with: each point is
        # factorized once, whether it was the start or an accepted trial
        h, factors = state
        grad = np.zeros(3)
        for (sq, _), f in zip(parts, factors):
            grad += _lml_grad(sq, h, *f)
        return grad

    z = h0.to_log()
    f, state = value(z)
    g = gradient(state)
    if not np.isfinite(f):
        raise InvalidInputError(f"objective is non-finite at the initial hyperparameters {h0}")
    trace = [f]
    step = 1.0 / max(1.0, float(np.linalg.norm(g)))
    z_prev = g_prev = None
    converged = False
    n_iter = 0
    for n_iter in range(opts.max_iter):
        gnorm = float(np.linalg.norm(g))
        if gnorm < opts.grad_tol:
            converged = True
            break
        # Spectral (Barzilai-Borwein) trial step; curvature along the last
        # accepted move sets the scale, which avoids the slow zigzag of a
        # fixed-growth step near ill-conditioned optima.
        if z_prev is not None:
            dz = z - z_prev
            dg = g - g_prev
            curv = -float(dz @ dg)  # positive where the objective is locally concave
            if curv > 0:
                step = float(dz @ dz) / curv
            else:
                step *= opts.step_growth
        step = float(np.clip(step, opts.min_step, opts.max_step))
        accepted = False
        s = step
        gg = gnorm**2
        while s >= opts.min_step:
            z_try = z + s * g
            f_try, state = value_only(z_try)
            if np.isfinite(f_try) and f_try >= f + opts.sufficient_increase * s * gg:
                accepted = True
                break
            s *= 0.5
        if not accepted:  # line search exhausted: no ascent direction progress
            break
        z_prev, g_prev = z, g
        z, f = z_try, f_try
        g = gradient(state)
        trace.append(f)
        step = s
    else:
        n_iter = opts.max_iter
    if not converged and float(np.linalg.norm(g)) < opts.grad_tol:
        converged = True
    return FitResult(
        hyper=Hyperparams.from_log(z),
        objective=f,
        converged=converged,
        n_iter=n_iter,
        trace=trace,
    )


def fit(
    datasets: list[Dataset],
    init: Hyperparams | None = None,
    opts: OptimizerOptions | None = None,
) -> Hyperparams:
    """Like :func:`fit_detailed` but returns only the hyperparameters,
    warning when the iteration cap was hit before the gradient tolerance."""
    result = fit_detailed(datasets, init=init, opts=opts)
    if not result.converged:
        warnings.warn(
            f"fit stopped after {result.n_iter} iterations without reaching the "
            f"gradient tolerance; returning the best iterate (objective {result.objective:.6g})",
            RuntimeWarning,
            stacklevel=2,
        )
    return result.hyper


def train_expert(data: Dataset, h: Hyperparams) -> Expert:
    """Factorize ``K + noise^2 I`` for ``data`` and cache the label solve."""
    K = kernel_matrix(data.X, h=h)
    Kn = K + h.noise_std**2 * np.eye(data.n)
    L, jitter = cholesky_with_jitter(Kn)
    alpha = cho_solve((L, True), data.Y, check_finite=False)
    return Expert(data=data, hyper=h, chol=L, alpha=alpha, jitter=jitter)


def _as_queries(e: Expert, X_star) -> np.ndarray:
    """Test inputs as an M x D float matrix, checked against the expert's D."""
    X_star = np.asarray(X_star, dtype=float)
    if X_star.ndim == 1:
        X_star = X_star[None, :]
    if X_star.shape[1] != e.data.dim:
        raise InvalidInputError(
            f"X_star has D={X_star.shape[1]}, expert was trained with D={e.data.dim}"
        )
    return X_star


def _posterior_with_solve(e: Expert, X_star: np.ndarray):
    """Posterior at checked test inputs plus the half-solve ``L^-1 K(X, X_star)``,
    which adaptation reuses for its cross-covariance."""
    K_star = kernel_matrix(e.data.X, X_star, h=e.hyper)  # N x M
    mean = K_star.T @ e.alpha
    v = solve_triangular(e.chol, K_star, lower=True, check_finite=False)
    variance = e.hyper.signal_std**2 - np.sum(v * v, axis=0)
    np.maximum(variance, 0.0, out=variance)
    return PosteriorPrediction(mean=mean, variance=variance), v


def posterior(e: Expert, X_star) -> PosteriorPrediction:
    """Predictive posterior of an expert at test inputs ``X_star`` (M x D).

    The mean is ``k_*^T (K + noise^2 I)^-1 Y``; the variance is the latent
    prior variance ``signal_std**2`` minus the explained part, computed via
    triangular solves against the cached factor and clamped at zero.
    """
    return _posterior_with_solve(e, _as_queries(e, X_star))[0]
