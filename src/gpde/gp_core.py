"""Exact multi-output GP regression with a shared RBF kernel across outputs.

Training maximizes the log-marginal likelihood

    L(h) = -1/2 tr[(K + noise^2 I)^-1 Y Y^T]
           - C/2 log|K + noise^2 I| - N*C/2 log(2*pi)

over the three hyperparameters in log-space with SciPy's L-BFGS-B, run from
two starts (the scale-matching default and the same point with a quarter of
its length-scale); the higher optimum wins.  The gradient,
1/2 tr[(alpha alpha^T - C (K + noise^2 I)^-1) dK/dtheta] (GPML section
5.4.1), takes the inverse from LAPACK's ``dpotri``, which forms only its
lower triangle, and sums each symmetric trace over that triangle.  Because
``dpotri``'s last bits depend on the BLAS thread count, the winning optimum
is finished with at most two capped Newton steps on the gradient, which
pin well-posed fits to about 1e-14 whatever the thread count.

A fit evaluates the objective some hundred times on matrices of one size,
so each start allocates one workspace, two N x N buffers for its largest
domain, and every evaluation works in them: K is built in the first;
K + noise^2 I is copied into the second and factorized there by
``dpotrf``, whose column-major view of that buffer is the matrix itself
because K is symmetric bit for bit; ``dpotrs`` takes the label solve and
``dpotri`` overwrites the factor with the inverse; K o sq replaces K once
the signal gradient has read it.  These are the LAPACK routines scipy's
``cholesky``, ``cho_solve`` and ``dpotri`` wrappers call, on the same
numbers, so the bits are the same; only the fresh N x N arrays, and the
page faults of mapping them, are gone.  The O(N^3) ones, ``dpotrf`` and
``dpotri`` (with the ``dlaset`` that clears above the factor), are called
through ctypes pointers from scipy's Cython LAPACK table (:func:`_lapack`),
which release the GIL while LAPACK runs, so the two starts of a large
enough fit run at once where two CPUs are usable, the second as a future
on a one-worker ``ThreadPoolExecutor``, each in its own workspace (4 N^2
floats in all instead of 2), with the same bits as one after the other.
The O(N^2) solves, ``dpotrs`` and prediction's ``dtrsm``, hold the GIL only
briefly and go through scipy's wrappers, which cost less per call.  The
fit also runs with subnormals flushed to zero
(:func:`gpde._blas.flush_subnormals`), in the worker thread too: at short
length-scales the kernel underflows, and subnormal operands stall the
factorizations, while terms that small never reach a rounded sum.

A trained :class:`Expert` caches the Cholesky factor of ``K + noise^2 I``
and the solve against the label matrix, so prediction reduces to triangular
solves.

Labels are conventionally in {-1, +1}, which lets the Gaussian-likelihood
regression double as a classifier through a sign readout; the functions here
accept any finite real label matrix (hyperparameter-recovery workflows fit on
continuous GP draws).
"""

from __future__ import annotations

import ctypes
import logging
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cython_lapack
from scipy.linalg.blas import dtrsm
from scipy.linalg.lapack import dpotrs
from scipy.optimize import minimize

from ._blas import blas_threads, flush_subnormals, usable_cpus
from .exceptions import InvalidInputError, NumericalError
from .kernel import Hyperparams, _as_matrix, _rbf, kernel_matrix, squared_distances

__all__ = [
    "Dataset",
    "Expert",
    "PosteriorPrediction",
    "FitResult",
    "log_marginal_likelihood",
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
# The two starts run at once only when the largest domain has at least this
# many rows: below it an evaluation is mostly Python, which holds the GIL,
# and two threads took 1.05-1.7x the time of one (10-80 rows, 2 vCPUs).
THREAD_MIN_ROWS = 100
# Newton finish after L-BFGS-B: forward-difference step of the Jacobian of
# the gradient (log-space), the largest step component it may take, and the
# number of steps.  It polishes an optimum; it does not search for one.
NEWTON_FD_STEP = 1e-6
NEWTON_MAX_STEP = 1e-3
NEWTON_STEPS = 2
# A finishing step may lower the objective by this much, relative: rounding.
NEWTON_REL_DROP = 1e-12

LOG_2PI = float(np.log(2.0 * np.pi))


def _lapack(name: str, *argtypes):
    """LAPACK routine ``name`` from scipy's Cython LAPACK table, the routine
    scipy's ``scipy.linalg.lapack`` wrappers call, as a ctypes function:
    unlike those wrappers it releases the GIL while it runs."""
    capsule = cython_lapack.__pyx_capi__[name]
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    return ctypes.CFUNCTYPE(None, *argtypes)(get_pointer(capsule, get_name(capsule)))


_INT = ctypes.POINTER(ctypes.c_int)
_PTR = ctypes.c_void_p  # a double array, or one double
# (uplo, n, a, lda, info)
_dpotrf = _lapack("dpotrf", ctypes.c_char_p, _INT, _PTR, _INT, _INT)
_dpotri = _lapack("dpotri", ctypes.c_char_p, _INT, _PTR, _INT, _INT)
# (uplo, m, n, alpha, beta, a, lda)
_dlaset = _lapack("dlaset", ctypes.c_char_p, _INT, _INT, _PTR, _PTR, _PTR, _INT)
_ZERO = ctypes.byref(ctypes.c_double(0.0))  # only ever read


def _matrix(a: np.ndarray) -> tuple[ctypes.c_int, int]:
    """The order and the address of ``a``, checked to be a writable square
    column-major float64 matrix, which LAPACK may read and write in place.
    The address is taken from the buffer of ``a``'s C-ordered transpose
    (faster than ``a.ctypes.data``), which refuses a read-only array."""
    if not (a.dtype == np.float64 and a.ndim == 2 and a.shape[0] == a.shape[1]
            and a.flags.f_contiguous):
        raise ValueError(f"need a square F-ordered float64 matrix, got {a.dtype} {a.shape}, "
                         f"F-ordered {a.flags.f_contiguous}")
    return ctypes.c_int(a.shape[0]), ctypes.addressof(ctypes.c_char.from_buffer(a.T))


def _potrf(a: np.ndarray) -> int:
    """``dpotrf`` of ``a``'s lower triangle in place, then zeros above the
    diagonal, as scipy's ``dpotrf(a, lower=1, clean=1)`` writes them;
    returns LAPACK's ``info``, 0 when ``a`` was positive definite."""
    (n, address), info = _matrix(a), ctypes.c_int()
    _dpotrf(b"L", n, address, n, info)
    if n.value > 1:  # the upper triangle of the (n-1) x (n-1) block from a[0, 1]
        m = ctypes.c_int(n.value - 1)
        _dlaset(b"U", m, m, _ZERO, _ZERO, address + a.itemsize * n.value, n)
    return info.value


def _potri(L: np.ndarray) -> int:
    """``dpotri`` in place: the lower factor ``L`` becomes the lower triangle
    of ``(L L^T)^-1``, and what is above the diagonal is left as it was;
    returns LAPACK's ``info``, positive where ``L`` is singular."""
    (n, address), info = _matrix(L), ctypes.c_int()
    _dpotri(b"L", n, address, n, info)
    return info.value


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
    message, and ``n_iter`` and ``trace`` are L-BFGS-B's too.  ``hyper``,
    ``objective`` and ``grad_max`` (max |gradient| in log-space) are at the
    returned point, after the Newton finish.  ``n_eval`` counts the
    objective-and-gradient evaluations of both starts and of the finish.
    ``start`` is the start that won, 0 for the initial point and 1 for its
    quarter-length-scale twin, and ``seconds`` the fit's wall time.
    """

    hyper: Hyperparams
    objective: float
    converged: bool
    n_iter: int
    n_eval: int
    grad_max: float
    start: int
    seconds: float
    trace: list[float] = field(default_factory=list)
    message: str = ""


def _factor(K: np.ndarray, noise_var: float, Y: np.ndarray, out: np.ndarray | None = None):
    """Lower Cholesky factor ``L`` of ``K + noise_var I`` for a PSD ``K``
    that is symmetric bit for bit, the solve ``alpha`` of that matrix
    against ``Y``, and the jitter the factorization needed.

    ``K`` is left as it is.  The factor is formed in ``out``, a C-ordered
    array of ``K``'s shape that it overwrites, or else in a new array, and
    returned as its column-major view.  If ``K + noise_var I`` is not
    positive definite, jitter starts at ``JITTER_START * mean(diag)`` of it
    and grows by factors of ``JITTER_GROWTH`` up to
    ``JITTER_MAX * mean(diag)``; beyond that a :class:`NumericalError`
    reports the attempted range.  ``alpha`` is scipy's ``dpotrs`` of ``L``
    against an F-ordered copy of ``Y``, a new array.
    """
    n = K.shape[0]
    A = np.empty((n, n)) if out is None else out
    L = A.T  # column-major, so LAPACK works in place; as K is symmetric, the same matrix

    def factored(jitter: float) -> bool:
        """Whether dpotrf of ``K + noise_var I + jitter I`` in ``A`` succeeded."""
        np.copyto(A, K)
        A.flat[:: n + 1] += noise_var
        if jitter:
            A.flat[:: n + 1] += jitter
        return _potrf(L) == 0

    jitter = 0.0
    if not factored(jitter):
        diag_mean = float(np.mean(np.diagonal(K) + noise_var))
        scale = diag_mean if diag_mean > 0 else 1.0
        jitter = JITTER_START * scale
        while not factored(jitter):
            jitter *= JITTER_GROWTH
            if jitter > JITTER_MAX * scale:
                raise NumericalError(
                    "Cholesky failed after escalating jitter up to "
                    f"{JITTER_MAX * scale:.3e} "
                    f"({JITTER_START:.0e}..{JITTER_MAX:.0e} x mean diagonal)")
        logger.debug("Cholesky needed jitter %.3e (relative %.1e)", jitter, jitter / scale)
    alpha, info = dpotrs(L, Y, lower=1)
    if info != 0:
        raise ValueError(f"dpotrs: illegal value in argument {-info}")
    return L, alpha, jitter


def _lml(sq: np.ndarray, Y: np.ndarray, h: Hyperparams, work) -> tuple[float, np.ndarray]:
    """Log-marginal likelihood from a precomputed squared-distance matrix, and
    its log-space gradient, from one factorization.

    ``work`` is a pair of C-ordered arrays of ``sq``'s shape, the caller's
    workspace, which receive K and L and are overwritten.
    """
    ell_sq = h.length_scale**2
    if ell_sq == 0.0:  # underflowed, so the kernel and d/dlog(ell) divide by zero
        raise NumericalError(f"length_scale {h.length_scale!r} squared underflows to 0")
    n, c = Y.shape
    K_out, L_out = work
    K = _rbf(sq, h, out=K_out)
    L, alpha, _ = _factor(K, h.noise_std**2, Y, L_out)
    quad = float(np.sum(Y * alpha))
    logdet = 2.0 * float(np.sum(np.log(np.diagonal(L))))
    value = -0.5 * quad - 0.5 * c * logdet - 0.5 * n * c * LOG_2PI
    # d/dtheta = 1/2 tr[(alpha alpha^T - C Kn^-1) dK/dtheta], theta in log-space,
    # with dK/dlog(ell) = K o sq / ell^2, dK/dlog(sf) = 2K, dK/dlog(sv) = 2 sv^2 I.
    # dpotri writes Kn^-1 over L's lower triangle, and dpotrf left zeros above
    # it, so for a symmetric S, sum(Kn^-1 o S) = 2 sum(P o S) - sum(diag(P) diag(S)).
    info = _potri(L)
    if info != 0:
        raise NumericalError(f"dpotri failed with info={info}")
    P = L
    P_diag = np.diagonal(P)

    def trace_term(S: np.ndarray) -> float:
        """tr[(alpha alpha^T - C Kn^-1) S] for a symmetric S; P.T is P's
        C-ordered view, so vdot reads it without a copy."""
        inv_part = 2.0 * np.vdot(P.T, S) - np.vdot(P_diag, np.diagonal(S))
        return float(np.vdot(alpha, S @ alpha) - c * inv_part)

    g_sf = trace_term(K)
    K *= sq
    g_ell = 0.5 * trace_term(K) / ell_sq
    g_sv = h.noise_std**2 * float(np.vdot(alpha, alpha) - c * np.sum(P_diag))
    return value, np.array([g_ell, g_sf, g_sv])


def log_marginal_likelihood(data: Dataset, h: Hyperparams) -> tuple[float, np.ndarray]:
    """Log-marginal likelihood of ``data`` under ``h`` and its gradient,
    computed as a fit's objective computes them, on one BLAS thread with
    subnormals flushed, so the two agree bit for bit.

    Returns
    -------
    value : float
    grad : ndarray, shape (3,)
        Derivatives w.r.t. (log length_scale, log signal_std, log noise_std).
    """
    with blas_threads(1), flush_subnormals():
        return _lml(squared_distances(data.X), data.Y, h, np.empty((2, data.n, data.n)))


def _default_init(datasets: list[Dataset]) -> Hyperparams:
    """Scale-matching initialization: median pairwise distance for the
    length-scale, label standard deviation for the signal, a tenth of that
    for the noise."""
    X = np.concatenate([d.X for d in datasets], axis=0)
    if X.shape[0] > 1024:  # keep the heuristic O(1M) distances
        X = X[:: int(np.ceil(X.shape[0] / 1024))]
    if X.shape[0] > 1:
        upper = squared_distances(X)[~np.tri(len(X), dtype=bool)]  # i < j, row by row
        np.sqrt(upper, out=upper)
        positive = upper[upper > 0]
        ell = float(np.median(positive)) if positive.size else 1.0
    else:
        ell = 1.0
    y_std = float(np.std(np.concatenate([d.Y.ravel() for d in datasets])))
    sf = y_std if y_std > 0 else 1.0
    return Hyperparams(length_scale=ell or 1.0, signal_std=sf, noise_std=0.1 * sf)


def _check_domains(datasets: list[Dataset]) -> None:
    """Require at least one dataset, and one feature count D and one output
    count C across all of them."""
    if not datasets:
        raise InvalidInputError("need at least one domain")
    first = datasets[0]
    for d in datasets[1:]:
        if (d.dim, d.n_outputs) != (first.dim, first.n_outputs):
            raise InvalidInputError(
                f"domains must share D and C: {first.domain_id!r} has (D, C) = "
                f"({first.dim}, {first.n_outputs}), {d.domain_id!r} has ({d.dim}, {d.n_outputs})"
            )


def fit_detailed(datasets: list[Dataset]) -> FitResult:
    """Maximize the summed log-marginal likelihood of ``datasets`` over one
    shared hyperparameter triple.

    L-BFGS-B in log-space, run from a scale-matching start (:func:`_default_init`)
    and from the same point with its length-scale times
    ``SECOND_START_ELL``; the higher optimum wins.  The second start keeps
    the fit off the ``signal_std -> 0`` plateau that a single start can slide
    onto.  The gradient takes ``(K + noise^2 I)^-1`` from ``dpotri``, half an
    inverse, summed over its lower triangle.  The winning optimum is then
    finished by at most ``NEWTON_STEPS`` capped Newton steps on the gradient
    (:func:`_newton_finish`).  ``dpotri``'s last bits change with the BLAS
    thread count, and near the optimum the objective is flat to rounding, so
    L-BFGS-B alone stops at a point that moves by up to ~2e-7 with them;
    after the finish, well-posed fits agree to about 1e-14.  The trace is
    the winning start's objective per L-BFGS-B iteration, non-decreasing;
    ``n_iter`` counts the iterations of both starts.  A single-element list
    is ordinary GP training.

    The two starts run at once, start 1 as a future on a one-worker
    ``ThreadPoolExecutor``, where more than one CPU is usable
    (:func:`gpde._blas.usable_cpus`) and the largest domain has at least
    ``THREAD_MIN_ROWS`` rows, so that the O(N^3) LAPACK calls, ``dpotrf``
    and ``dpotri``, which release the GIL, dominate an evaluation (the label
    solve, ``dpotrs``, holds it for O(N^2) work); otherwise one after the
    other.  Leaving the executor's ``with`` block joins the worker before
    the fit returns or raises, and the future's ``result()`` raises an
    exception of the worker again with its own type.  Each start works in
    its own workspace of two N x N buffers, sized for the largest domain,
    allocated before the worker starts and freed when the fit returns, so a
    fit on two threads holds 4 N^2 floats and one on one thread 2 N^2.  Both
    threads run on one BLAS thread with subnormals flushed to zero (see the
    module docstring).  None of this changes a result bit: each start's
    evaluations are the same calls on the same numbers either way.  Every
    fit logs its record at DEBUG.
    """
    _check_domains(datasets)
    threads = 2 if max(d.n for d in datasets) >= THREAD_MIN_ROWS and usable_cpus() > 1 else 1
    with blas_threads(1), flush_subnormals():
        result = _fit(datasets, threads)
    logger.debug("fit of domains %s (N=%d): %d iterations, %d evaluations, converged %s, "
                 "max |gradient| %.3g, start %d won, %.3f s, starts on %d thread%s",
                 [d.domain_id for d in datasets], sum(d.n for d in datasets), result.n_iter,
                 result.n_eval, result.converged, result.grad_max, result.start,
                 result.seconds, threads, "s" if threads > 1 else "")
    return result


def _fit(datasets: list[Dataset], threads: int) -> FitResult:
    """:func:`fit_detailed` on validated inputs, its starts on ``threads``
    threads, 1 or 2."""
    t0 = time.perf_counter()
    h0 = _default_init(datasets)
    sqs = [squared_distances(d.X) for d in datasets]
    # per start that runs at once, two buffers, each the size of the largest
    # domain's K; every domain's K and L are C-ordered views of their leading
    # entries
    workspaces = np.empty((threads, 2, max(d.n for d in datasets) ** 2))

    def objective_in(workspace: np.ndarray):
        """The summed objective and gradient, evaluated in ``workspace``."""
        parts = [(sq, d.Y, [buffer[: d.n * d.n].reshape(d.n, d.n) for buffer in workspace])
                 for sq, d in zip(sqs, datasets)]

        def objective(z: np.ndarray):
            """Summed objective and gradient at ``z``."""
            try:
                h = Hyperparams.from_log(z)
                total, grad = 0.0, np.zeros(3)
                for sq, Y, work in parts:
                    value, g = _lml(sq, Y, h, work)
                    total += value
                    grad += g
            except (NumericalError, InvalidInputError, OverflowError):
                # overflow/underflow of exp(z) or signal_std**2, or a failed
                # factorization: a point the line search must back away from
                total, grad = -np.inf, np.zeros(3)
            return total, grad

        return objective

    objectives = [objective_in(workspace) for workspace in workspaces]
    z0 = h0.to_log()
    z1 = z0 + [np.log(SECOND_START_ELL), 0.0, 0.0]
    # the worker thread is started here, so it inherits this thread's flushed
    # MXCSR (POSIX threads inherit the floating-point environment)
    with ThreadPoolExecutor(1, thread_name_prefix="gpde-fit-start") as pool:
        later = pool.submit(_ascend, objectives[1], z1) if threads > 1 else None
        best, trace = _ascend(objectives[0], z0)
    if not np.isfinite(trace[0]):
        raise InvalidInputError(f"objective is non-finite at the initial hyperparameters {h0}")
    second, second_trace = later.result() if later else _ascend(objectives[0], z1)
    n_iter = best.nit + second.nit
    n_eval = best.nfev + second.nfev
    start = int(second.fun < best.fun)
    if start:
        best, trace = second, second_trace
    z, value, grad, finish_evals = _newton_finish(objectives[0], best.x, -float(best.fun),
                                                  -best.jac)
    return FitResult(
        hyper=Hyperparams.from_log(z),
        objective=value,
        converged=bool(np.max(np.abs(best.jac)) <= GRAD_TOL),
        n_iter=n_iter,
        n_eval=n_eval + finish_evals,
        grad_max=float(np.max(np.abs(grad))),
        start=start,
        seconds=time.perf_counter() - t0,
        trace=trace,
        message=str(best.message),
    )


def _ascend(objective, z0: np.ndarray):
    """One L-BFGS-B run of ``objective`` from ``z0``: its result and its
    objective trace."""
    trace: list[float] = []

    def negative(z: np.ndarray):
        total, grad = objective(z)
        if not trace:  # the optimizer's first evaluation is at z0
            trace.append(total)
        return -total, -grad

    # ftol=0: stop on the gradient tolerance, not on a small relative decrease
    res = minimize(negative, z0, jac=True, method="L-BFGS-B",
                   callback=lambda intermediate_result: trace.append(-intermediate_result.fun),
                   options={"maxiter": MAX_ITER, "gtol": GRAD_TOL, "ftol": 0.0})
    return res, trace


def _newton_finish(objective, z: np.ndarray, value: float, grad: np.ndarray):
    """At most ``NEWTON_STEPS`` Newton steps on ``grad = 0`` from the optimum
    ``z`` with objective ``value`` and gradient ``grad``.

    Each step solves against the symmetrized forward-difference Jacobian of
    the gradient.  A step larger than ``NEWTON_MAX_STEP`` in any component
    ends the finish untaken, and so does one that lowers the objective
    beyond ``NEWTON_REL_DROP`` relative or does not lower max |gradient|.
    Returns the point reached, its objective and gradient, and the
    evaluations spent.
    """
    n_eval = 0
    for _ in range(NEWTON_STEPS):
        J = np.empty((3, 3))
        for k in range(3):
            z_k = z.copy()
            z_k[k] += NEWTON_FD_STEP
            value_k, grad_k = objective(z_k)
            n_eval += 1
            if not np.isfinite(value_k):
                return z, value, grad, n_eval
            J[:, k] = (grad_k - grad) / NEWTON_FD_STEP
        try:
            step = -np.linalg.solve(0.5 * (J + J.T), grad)
        except np.linalg.LinAlgError:
            break
        trial = z + step
        if (not np.all(np.isfinite(step)) or np.max(np.abs(step)) > NEWTON_MAX_STEP
                or np.array_equal(trial, z)):  # a null step would evaluate z again
            break
        trial_value, trial_grad = objective(trial)
        n_eval += 1
        if not (trial_value >= value - NEWTON_REL_DROP * abs(value)
                and np.max(np.abs(trial_grad)) < np.max(np.abs(grad))):
            break
        z, value, grad = trial, trial_value, trial_grad
    return z, value, grad, n_eval


def fit(datasets: list[Dataset]) -> Hyperparams:
    """Like :func:`fit_detailed` but returns only the hyperparameters,
    warning when the fit stopped before the gradient tolerance.  The warning
    holds no wall time, so identical fits warn with identical text and
    Python reports them once."""
    result = fit_detailed(datasets)
    if not result.converged:
        warnings.warn(
            f"fit of domains {[d.domain_id for d in datasets]} "
            f"(N={sum(d.n for d in datasets)}) stopped after "
            f"{result.n_iter} iterations and {result.n_eval} evaluations "
            f"without reaching the gradient tolerance "
            f"({result.message}); returning the best iterate of start {result.start} "
            f"(objective {result.objective:.6g}, max |gradient| {result.grad_max:.3g})",
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
    """Finite test inputs as an M x D float matrix, checked against the expert's D."""
    X_star = _as_matrix(X_star, "X_star")
    if X_star.shape[1] != e.data.dim:
        raise InvalidInputError(
            f"X_star has D={X_star.shape[1]}, expert was trained with D={e.data.dim}"
        )
    if not np.isfinite(X_star).all():
        raise InvalidInputError("X_star contains NaN or Inf")
    return X_star


def _solve_lower(L: np.ndarray, B: np.ndarray) -> np.ndarray:
    """``L^-1 B`` for a lower-triangular ``L``, computed in the memory of a
    C-ordered ``B``, which it overwrites.

    The solve runs as the right-side solve ``B^T L^-T`` on ``B``'s
    column-major view, so a row-major block needs no layout copy; any other
    ``B`` is copied first and left as it was.
    """
    return dtrsm(1.0, L, B.T, side=1, lower=1, trans_a=1, overwrite_b=1).T


def _mean_and_solve(e: Expert, X_star: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean at checked test inputs plus the half-solve
    ``v = L^-1 K(X, X_star)`` (N x M), formed in the kernel block's buffer."""
    K_star = kernel_matrix(e.data.X, X_star, h=e.hyper)  # N x M
    mean = K_star.T @ e.alpha
    return mean, _solve_lower(e.chol, K_star)  # K_star is consumed


def _less_explained(prior_variance, v: np.ndarray) -> np.ndarray:
    """``prior_variance`` minus the column sums of ``v**2``, clamped at zero.
    ``v`` is squared in place, so it is consumed."""
    variance = prior_variance - np.sum(np.multiply(v, v, out=v), axis=0)
    np.maximum(variance, 0.0, out=variance)
    return variance


def posterior(e: Expert, X_star) -> PosteriorPrediction:
    """Predictive posterior of an expert at test inputs ``X_star`` (M x D).

    The mean is ``k_*^T (K + noise^2 I)^-1 Y``; the variance is the latent
    prior variance ``signal_std**2`` minus the explained part, computed via
    triangular solves against the cached factor and clamped at zero.  The
    N x M kernel block, its solve and the squares summed for the variance
    share one buffer; each is the plain expression's operations in the same
    order, so the bits are those of separate arrays.
    """
    mean, v = _mean_and_solve(e, _as_queries(e, X_star))
    return PosteriorPrediction(mean=mean, variance=_less_explained(e.hyper.signal_std**2, v))
