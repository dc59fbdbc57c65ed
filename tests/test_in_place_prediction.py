"""The prediction path forms each N x M block once and reuses its buffer.

Each test compares the library with plain whole-array expressions, each of
which allocates its result, with ``==``: the in-place code runs the same
operations in the same order, so it gives the same bits.  The allocation
guards bound what the buffer reuse saves, also for self-distances.
"""

import tracemalloc

import numpy as np
import pytest

from gpde import (AdaptedExpert, Dataset, ShiftConfig, expert_weights, fuse, kernel_matrix,
                  posterior, predict, synth_shift, train_expert)
from gpde._blas import blas_threads
from gpde.experts import VARIANCE_FLOOR
from gpde.gp_core import _default_init, _solve_lower
from gpde.kernel import _BLOCK_ENTRIES, squared_distances

from test_kernel import plain_kernel_matrix, plain_squared_distances

M_VALUES = [0, 1, 2, 300, 3000]


@pytest.fixture(scope="module")
def queries():
    """3000 query points from the serve model's target domain."""
    return synth_shift(ShiftConfig(n_target_test=3000))[2].X


@pytest.fixture(scope="module")
def short_block_source(serve_model):
    """A 130-row source expert: at M = 3000 its distance rows come in blocks
    of 21, the last one 4 rows long."""
    e = serve_model[0].sources[0]
    X = np.concatenate([s.data.X for s in serve_model[0].sources])[:130]
    Y = np.concatenate([s.data.Y for s in serve_model[0].sources])[:130]
    return train_expert(Dataset(X, Y, "short"), e.hyper)


def plain_posterior(e, X):
    """Mean, variance and half-solve of one expert, as whole-array expressions."""
    K = plain_kernel_matrix(e.data.X, X, h=e.hyper)
    mean = K.T @ e.alpha
    v = _solve_lower(e.chol, K)
    variance = np.maximum(e.hyper.signal_std**2 - np.sum(v * v, axis=0), 0.0)
    return mean, variance, v


def plain_adapted(adapted, X, K_t_star=None):
    e = adapted.source
    mean, variance, v = plain_posterior(e, X)
    if K_t_star is None:
        K_t_star = plain_kernel_matrix(adapted.target.X, X, h=e.hyper)
    cross = K_t_star - adapted._v_t.T @ v
    mean = mean + cross.T @ adapted._correction
    u = _solve_lower(adapted._chol_t, cross)
    return mean, np.maximum(variance - np.sum(u * u, axis=0), 0.0)


def plain_predict(model, X):
    """Per-expert means and variances and the fused prediction."""
    h, X_t = model.sources[0].hyper, model.target.data.X
    K_t_star = plain_kernel_matrix(X_t, X, h=h)
    preds = [plain_adapted(AdaptedExpert(s, model.target.data), X, K_t_star)
             for s in model.sources]
    preds.append(plain_posterior(model.target, X)[:2])
    means, variances = [p[0] for p in preds], [p[1] for p in preds]
    return means, variances, fuse(means, variances, model.betas)


def assert_bits(got, want):
    assert got.shape == want.shape and np.array_equal(got, want)


class TestPredictionBits:
    """Run under one BLAS thread, as ``predict`` runs: sums can group by
    thread count."""

    @pytest.mark.parametrize("m", M_VALUES)
    def test_posterior(self, serve_model, queries, m):
        e, X = serve_model[0].sources[0], queries[:m]
        with blas_threads(1):
            got, (mean, variance, _) = posterior(e, X), plain_posterior(e, X)
        assert_bits(got.mean, mean)
        assert_bits(got.variance, variance)

    @pytest.mark.parametrize("shared", [False, True], ids=["own", "shared"])
    @pytest.mark.parametrize("m", M_VALUES)
    def test_adapted_posterior(self, serve_model, queries, m, shared):
        model, X = serve_model[0], queries[:m]
        adapted = AdaptedExpert(model.sources[1], model.target.data)
        K_t_star = kernel_matrix(model.target.data.X, X, h=model.sources[0].hyper) \
            if shared else None
        with blas_threads(1):
            got = adapted.posterior(X, K_t_star=K_t_star)
            mean, variance = plain_adapted(adapted, X, K_t_star)
        assert_bits(got.mean, mean)
        assert_bits(got.variance, variance)

    @pytest.mark.parametrize("m", M_VALUES)
    def test_predict_and_weights(self, serve_model, queries, m):
        model, X = serve_model[0], queries[:m]
        got = predict(model, X)
        with blas_threads(1):
            means, variances, (mean, variance) = plain_predict(model, X)
        assert_bits(got.mean, mean)
        assert_bits(got.variance, variance)
        for g, w in zip(got.per_expert_means + got.per_expert_variances, means + variances):
            assert_bits(g, w)
        precisions = np.stack(
            [b / np.maximum(v, VARIANCE_FLOOR) for b, v in zip(model.betas, variances)], axis=1)
        assert_bits(expert_weights(model, X), precisions / precisions.sum(axis=1, keepdims=True))

    def test_short_last_row_block(self, serve_model, queries, short_block_source):
        e, target = short_block_source, serve_model[0].target.data
        assert e.data.n % (_BLOCK_ENTRIES // len(queries)) != 0
        assert_bits(squared_distances(e.data.X, queries),
                    plain_squared_distances(e.data.X, queries))
        adapted = AdaptedExpert(e, target)
        with blas_threads(1):
            got, want = posterior(e, queries), plain_posterior(e, queries)
            got_a, want_a = adapted.posterior(queries), plain_adapted(adapted, queries)
        assert_bits(got.mean, want[0])
        assert_bits(got.variance, want[1])
        assert_bits(got_a.mean, want_a[0])
        assert_bits(got_a.variance, want_a[1])


def triu_length_scale(X):
    """``_default_init``'s length-scale, with the strict upper triangle taken
    through ``triu_indices``."""
    if len(X) > 1024:
        X = X[:: int(np.ceil(len(X) / 1024))]
    if len(X) < 2:
        return 1.0
    dists = np.sqrt(squared_distances(X))
    positive = dists[np.triu_indices_from(dists, k=1)]
    positive = positive[positive > 0]
    return (float(np.median(positive)) if positive.size else 1.0) or 1.0


class TestDefaultInitBits:
    @pytest.mark.parametrize("case", ["single_row", "duplicates", "all_equal", "serve_sources",
                                      "subsampled"])
    def test_length_scale_equals_triu_formula(self, rng, serve_model, case):
        if case == "serve_sources":
            datasets = [e.data for e in serve_model[0].sources]  # 5 x 120 rows
        else:
            X = {"single_row": lambda: rng.normal(size=(1, 3)),
                 "duplicates": lambda: np.repeat(rng.normal(size=(7, 3)), 3, axis=0),
                 "all_equal": lambda: np.ones((9, 3)),
                 "subsampled": lambda: rng.normal(size=(1500, 4))}[case]()
            datasets = [Dataset(X, rng.choice([-1.0, 1.0], size=(len(X), 1)), case)]
        X = np.concatenate([d.X for d in datasets])
        assert _default_init(datasets).length_scale == triu_length_scale(X)


def traced_peak(fn):
    """Peak bytes that ``fn()`` allocates above what was allocated before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


class TestAllocations:
    def test_adapted_posterior_holds_one_block_per_domain(self, serve_model, queries):
        # v (N_s x M) and the cross-covariance (N_t x M), plus one row block
        # of distances: no square or norm sum gets an N x M array of its own.
        model = serve_model[0]
        adapted = AdaptedExpert(model.sources[0], model.target.data)
        K_t_star = kernel_matrix(model.target.data.X, queries, h=model.sources[0].hyper)
        n_s, n_t, m = model.sources[0].data.n, model.target.data.n, len(queries)
        peak = traced_peak(lambda: adapted.posterior(queries, K_t_star=K_t_star))
        assert peak < 8 * ((n_s + n_t) * m + _BLOCK_ENTRIES)

    def test_self_distances_hold_one_matrix(self, rng):
        # The N x N result plus one row block of norm sums: no second N x N
        # buffer to average the matrix with its transpose.
        n = 1024
        X = rng.normal(size=(n, 5))
        assert traced_peak(lambda: squared_distances(X)) < 9 * n**2

    def test_default_init_builds_no_index_arrays(self, rng):
        # The distance matrix, one N x N boolean mask and the N(N-1)/2
        # distances of its strict upper triangle; two int64 index arrays of
        # the triangle would add 8 N^2 bytes.
        n = 1024
        data = Dataset(rng.normal(size=(n, 5)), np.ones((n, 1)), "d")
        assert traced_peak(lambda: _default_init([data])) < 14 * n**2
