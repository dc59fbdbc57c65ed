"""Isotropic RBF covariance matrices.

The kernel is

    k(x, x') = signal_std**2 * exp(-||x - x'||**2 / (2 * length_scale**2))

with a single shared length-scale for all input dimensions.  Hyperparameters
are kept strictly positive by storing and differentiating them in log-space,
which keeps the marginal-likelihood optimizer unconstrained.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidInputError

__all__ = [
    "Hyperparams",
    "kernel_matrix",
]

# Entries of one row block of a distance matrix: the one temporary it needs.
_BLOCK_ENTRIES = 1 << 16


@dataclass(frozen=True)
class Hyperparams:
    """RBF kernel and noise hyperparameters, all strictly positive.

    Attributes
    ----------
    length_scale : float
        Kernel length-scale, in feature-space distance units.
    signal_std : float
        Prior standard deviation of the latent function (output units).
    noise_std : float
        Standard deviation of the additive observation noise (output units).
    """

    length_scale: float
    signal_std: float
    noise_std: float

    def __post_init__(self):
        for name in ("length_scale", "signal_std", "noise_std"):
            value = getattr(self, name)
            if not np.isfinite(value) or value <= 0.0:
                raise InvalidInputError(f"{name} must be strictly positive, got {value!r}")

    def to_log(self) -> np.ndarray:
        """Return ``[log length_scale, log signal_std, log noise_std]``."""
        return np.log([self.length_scale, self.signal_std, self.noise_std])

    @classmethod
    def from_log(cls, z) -> "Hyperparams":
        """Inverse of :meth:`to_log`."""
        z = np.asarray(z, dtype=float)
        if z.shape != (3,):
            raise InvalidInputError(f"expected 3 log-hyperparameters, got shape {z.shape}")
        if not np.all(np.abs(z) < 700.0):  # exp would overflow or underflow to 0
            raise InvalidInputError(f"log-hyperparameters out of range: {z}")
        ell, sf, sv = np.exp(z)
        return cls(length_scale=float(ell), signal_std=float(sf), noise_std=float(sv))


def _as_matrix(X, name: str) -> np.ndarray:
    """``X`` as a C-contiguous M x D float matrix, a single row for a 1-d
    input; a C-contiguous float array is not copied."""
    X = np.asarray(X, dtype=float, order="C")
    if X.ndim == 1:
        X = X[None, :]
    if X.ndim != 2:
        raise InvalidInputError(f"{name} must be a 2-d array, got ndim={X.ndim}")
    return X


def squared_distances(X: np.ndarray, X_prime: np.ndarray | None = None) -> np.ndarray:
    """Pairwise squared Euclidean distances between rows of X and X_prime.

    Every entry is formed as ``(|x|^2 + |x'|^2) - 2 (x . x')`` and clamped
    at zero, as cancellation can leave it slightly negative: ``2 X X'^T`` is
    formed in the one N x M buffer returned, and the norm sums are
    subtracted from it a row block of about ``_BLOCK_ENTRIES`` entries, the
    one temporary, at a time.  When ``X_prime`` is omitted or is ``X``
    itself, the diagonal is then set to zero, and the result is exactly
    symmetric: inputs are made C-contiguous, so ``X @ X^T`` is numpy's
    symmetric rank-k update, which mirrors one triangle into the other, and
    the norm sums commute.  No bit depends on the inputs' memory layout.
    """
    self_mode = X_prime is None or X_prime is X
    X = _as_matrix(X, "X")
    Xp = X if self_mode else _as_matrix(X_prime, "X_prime")
    if X.shape[1] != Xp.shape[1]:
        raise InvalidInputError(
            f"dimension mismatch: X has D={X.shape[1]}, X_prime has D={Xp.shape[1]}"
        )
    sq_x = np.sum(X * X, axis=1)
    sq_xp = sq_x if self_mode else np.sum(Xp * Xp, axis=1)
    sq = X @ Xp.T
    sq *= 2.0
    step = max(1, _BLOCK_ENTRIES // max(1, len(Xp)))
    for i in range(0, len(X), step):
        block = sq[i:i + step]
        np.subtract(np.add.outer(sq_x[i:i + step], sq_xp), block, out=block)
        np.maximum(block, 0.0, out=block)
    if self_mode:
        np.fill_diagonal(sq, 0.0)
    return sq


def kernel_matrix(X, X_prime=None, *, h: Hyperparams) -> np.ndarray:
    """Kernel matrix with entry (i, j) = k(X[i], X_prime[j]).

    With ``X_prime=None`` (or the same array object) the Gram matrix K(X, X)
    is returned, exactly symmetric with diagonal ``signal_std**2``.
    """
    sq = squared_distances(X, X_prime)
    return _rbf(sq, h, out=sq)


def _rbf(sq: np.ndarray, h: Hyperparams, out: np.ndarray) -> np.ndarray:
    """``signal_std^2 exp(-0.5 sq / length_scale^2)`` of squared distances
    ``sq``, formed in and returned as ``out``, which may be ``sq`` itself."""
    K = np.multiply(sq, -0.5, out=out)
    np.divide(K, h.length_scale**2, out=K)
    np.exp(K, out=K)
    np.multiply(K, h.signal_std**2, out=K)
    return K

