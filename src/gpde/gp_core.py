"""Exact multi-output GP regression with a shared RBF kernel across outputs.

Training maximizes the log-marginal likelihood

    L(h) = -1/2 tr[(K + noise^2 I)^-1 Y Y^T]
           - C/2 log|K + noise^2 I| - N*C/2 log(2*pi)

over the three hyperparameters in log-space with SciPy's L-BFGS-B, run from
two starts (the scale-matching default and the same point with a quarter of
its length-scale); the higher optimum wins.  A trained :class:`Expert`
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
from scipy.optimize import minimize

from ._blas import blas_threads
from .exceptions import InvalidInputError, NumericalError
from .kernel import Hyperparams, kernel_matrix, squared_distances

__all__ = [
    "Dataset",
    "Expert",
    "PosteriorPrediction",
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

# Hyperparameter fit: iteration cap per start, and L-BFGS-B's stopping
# tolerance on the largest gradient component, below which a fit counts as
# converged.
MAX_ITER = 200
GRAD_TOL = 1e-5
# Length-scale of the second start, relative to the first.
SECOND_START_ELL = 0.25

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


@dataclass
class FitResult:
    """Outcome of :func:`fit_detailed`: best hyperparameters plus diagnostics.

    ``converged`` is L-BFGS-B's own stopping test at the winning optimum,
    ``max |gradient| <= GRAD_TOL`` in log-space; ``message`` is its stop
    message.
    """

    hyper: Hyperparams
    objective: float
    converged: bool
    n_iter: int
    trace: list[float] = field(default_factory=list)
    message: str = ""


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


def _factor(K: np.ndarray, noise_var: float, Y: np.ndarray):
    """Lower Cholesky factor ``L`` of ``K + noise_var I``, the solve ``alpha``
    of that matrix against ``Y``, and the jitter the factorization needed."""
    L, jitter = cholesky_with_jitter(K + noise_var * np.eye(K.shape[0]))
    return L, cho_solve((L, True), Y, check_finite=False), jitter


def _lml_value(sq: np.ndarray, Y: np.ndarray, h: Hyperparams):
    """Log-marginal likelihood from a precomputed squared-distance matrix, plus
    the factors ``(K, L, alpha)`` that :func:`_lml_grad` takes at the same point."""
    n, c = Y.shape
    K = h.signal_std**2 * np.exp(-0.5 * sq / h.length_scale**2)
    L, alpha, _ = _factor(K, h.noise_std**2, Y)
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


def fit_detailed(datasets: list[Dataset], init: Hyperparams | None = None) -> FitResult:
    """Maximize the summed log-marginal likelihood of ``datasets`` over one
    shared hyperparameter triple.

    L-BFGS-B in log-space, run from ``init`` (default :func:`default_init`)
    and from the same point with its length-scale times ``SECOND_START_ELL``;
    the higher optimum wins.  The second start keeps the fit off the
    ``signal_std -> 0`` plateau that a single start can slide onto.  The
    trace is the winning start's objective per iteration, non-decreasing;
    ``n_iter`` counts the iterations of both starts.  A single-element list is
    ordinary GP training.
    """
    _validate_fit_inputs(datasets)
    with blas_threads(1):
        return _fit(datasets, init)


def _fit(datasets: list[Dataset], init: Hyperparams | None) -> FitResult:
    """:func:`fit_detailed` on validated inputs."""
    h0 = init or default_init(datasets)
    parts = [(squared_distances(d.X), d.Y) for d in datasets]

    def ascend(z0: np.ndarray):
        """One L-BFGS-B run from ``z0``: its result and its objective trace."""
        trace: list[float] = []

        def negative(z: np.ndarray):
            """Negated summed objective and gradient at ``z``; each matrix is
            factorized once, for the value and the gradient together."""
            try:
                h = Hyperparams.from_log(z)
                total, grad = 0.0, np.zeros(3)
                for sq, Y in parts:
                    value, factors = _lml_value(sq, Y, h)
                    total += value
                    grad += _lml_grad(sq, h, *factors)
            except (NumericalError, InvalidInputError, OverflowError):
                # overflow/underflow of exp(z) or signal_std**2, or a failed
                # factorization: a point the line search must back away from
                total, grad = -np.inf, np.zeros(3)
            if not trace:  # the optimizer's first evaluation is at z0
                trace.append(total)
            return -total, -grad

        # ftol=0: stop on the gradient tolerance, not on a small relative decrease
        res = minimize(negative, z0, jac=True, method="L-BFGS-B",
                       callback=lambda intermediate_result: trace.append(-intermediate_result.fun),
                       options={"maxiter": MAX_ITER, "gtol": GRAD_TOL, "ftol": 0.0})
        return res, trace

    z0 = h0.to_log()
    best, trace = ascend(z0)
    if not np.isfinite(trace[0]):
        raise InvalidInputError(f"objective is non-finite at the initial hyperparameters {h0}")
    second, second_trace = ascend(z0 + [np.log(SECOND_START_ELL), 0.0, 0.0])
    n_iter = best.nit + second.nit
    if second.fun < best.fun:
        best, trace = second, second_trace
    return FitResult(
        hyper=Hyperparams.from_log(best.x),
        objective=-float(best.fun),
        converged=bool(np.max(np.abs(best.jac)) <= GRAD_TOL),
        n_iter=n_iter,
        trace=trace,
        message=str(best.message),
    )


def fit(datasets: list[Dataset], init: Hyperparams | None = None) -> Hyperparams:
    """Like :func:`fit_detailed` but returns only the hyperparameters,
    warning when the fit stopped before the gradient tolerance."""
    result = fit_detailed(datasets, init=init)
    if not result.converged:
        warnings.warn(
            f"fit of domains {[d.domain_id for d in datasets]} "
            f"(N={sum(d.n for d in datasets)}) stopped after "
            f"{result.n_iter} iterations without reaching the gradient tolerance "
            f"({result.message}); returning the best iterate "
            f"(objective {result.objective:.6g})",
            RuntimeWarning,
            stacklevel=2,
        )
    return result.hyper


def train_expert(data: Dataset, h: Hyperparams) -> Expert:
    """Factorize ``K + noise^2 I`` for ``data`` and cache the label solve."""
    with blas_threads(1):
        L, alpha, jitter = _factor(kernel_matrix(data.X, h=h), h.noise_std**2, data.Y)
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
