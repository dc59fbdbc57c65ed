"""Dense reference for the serve workload's responses.

Each adapted source expert is recomputed as one GP conditioned jointly on
its source data and the target data at the source noise level, the target
expert as a plain GP on the target data, and the fusion as a
precision-weighted product.  Only ``gpde.kernel_matrix`` and numpy are
used, never ``gpde.adaptation`` or ``gpde.experts``, so the check stays
valid when the prediction path is rewritten.
"""

from __future__ import annotations

import numpy as np

import gpde

VARIANCE_FLOOR = 1e-10  # the fusion's documented clamp before inversion


class _DenseGP:
    def __init__(self, X, Y, h):
        self.X, self.h = X, h
        K = gpde.kernel_matrix(X, h=h) + h.noise_std**2 * np.eye(X.shape[0])
        self.L = np.linalg.cholesky(K)
        self.alpha = np.linalg.solve(self.L.T, np.linalg.solve(self.L, Y))

    def posterior(self, Xq):
        Ks = gpde.kernel_matrix(self.X, Xq, h=self.h)
        v = np.linalg.solve(self.L, Ks)
        var = np.maximum(self.h.signal_std**2 - np.sum(v * v, axis=0), 0.0)
        return Ks.T @ self.alpha, var


class Oracle:
    """Fused mean, variance, labels and expert weights of a trained model."""

    def __init__(self, model):
        t = model.target.data
        self.betas = np.asarray(model.betas, dtype=float)
        self.gps = [
            _DenseGP(np.vstack([s.data.X, t.X]), np.vstack([s.data.Y, t.Y]), s.hyper)
            for s in model.sources
        ] + [_DenseGP(t.X, t.Y, model.target.hyper)]

    def _precisions(self, Xq):
        preds = [gp.posterior(Xq) for gp in self.gps]
        prec = np.stack([b / np.maximum(v, VARIANCE_FLOOR) for b, (_, v) in zip(self.betas, preds)],
                        axis=1)
        return preds, prec

    def predict(self, Xq):
        preds, prec = self._precisions(Xq)
        var = 1.0 / prec.sum(axis=1)
        mean = var[:, None] * sum(p[:, None] * m for p, (m, _) in zip(prec.T, preds))
        return mean, var, np.where(mean >= 0.0, 1.0, -1.0)

    def weights(self, Xq):
        _, prec = self._precisions(Xq)
        return prec / prec.sum(axis=1, keepdims=True)
