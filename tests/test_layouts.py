"""No output bit depends on the memory layout of an input.

Strided, column-major and column-sliced inputs are compared with ``==``
against their C-contiguous copies: the kernel makes every input C-contiguous
first, so ``X @ X^T`` is always numpy's symmetric rank-k update and every
product runs the same BLAS call on the same numbers.
"""

import numpy as np
import pytest

from gpde import (Dataset, ShiftConfig, expert_weights, kernel_matrix, load_bundle, posterior,
                  predict, save_bundle, synth_shift, train_gpde)
from gpde.kernel import squared_distances

from conftest import random_hyper

LAYOUTS = {
    "row_strided": lambda X: np.repeat(X, 2, axis=0)[::2],
    "col_strided": lambda X: np.repeat(X, 2, axis=1)[:, ::2],
    "fortran": np.asfortranarray,
    "col_sliced": lambda X: np.hstack([X, np.ones_like(X)])[:, : X.shape[1]],
}


def laid_out(X, layout):
    Y = LAYOUTS[layout](X)
    assert np.array_equal(Y, X) and not Y.flags.c_contiguous
    return Y


def assert_bits(got, want):
    assert got.shape == want.shape and np.array_equal(got, want)


@pytest.mark.parametrize("layout", LAYOUTS)
class TestKernel:
    @pytest.mark.parametrize("n, d", [(130, 3), (300, 4), (700, 9)])
    def test_self_distances(self, rng, layout, n, d):
        X = 3.0 * rng.normal(size=(n, d))
        got = squared_distances(laid_out(X, layout))
        assert_bits(got, squared_distances(X))
        assert np.array_equal(got, got.T) and not np.any(np.diag(got))

    def test_cross_distances_and_kernel(self, rng, layout):
        X, Z = rng.normal(size=(200, 5)), rng.normal(size=(300, 5))
        h = random_hyper(rng)
        X_l, Z_l = laid_out(X, layout), laid_out(Z, layout)
        assert_bits(squared_distances(X_l, Z_l), squared_distances(X, Z))
        assert_bits(kernel_matrix(X_l, Z_l, h=h), kernel_matrix(X, Z, h=h))
        assert_bits(kernel_matrix(X_l, h=h), kernel_matrix(X, h=h))

    def test_gram_of_the_same_object_is_a_gram(self, rng, layout):
        """``kernel_matrix(A, A)`` names one object twice: the self path, so
        the diagonal is the prior variance exactly."""
        h = random_hyper(rng)
        A = laid_out(rng.normal(size=(150, 7)), layout)
        K = kernel_matrix(A, A, h=h)
        assert np.all(np.diag(K) == h.signal_std**2) and np.array_equal(K, K.T)


@pytest.mark.parametrize("convert", [np.ndarray.tolist, lambda A: A.astype(np.float32)],
                         ids=["list", "float32"])
def test_gram_of_a_converted_input_is_a_gram(rng, convert):
    """An input converted to a new float64 array on every call is still the
    same argument twice."""
    h = random_hyper(rng)
    A = convert(rng.normal(size=(200, 9)))
    K = kernel_matrix(A, A, h=h)
    assert np.all(np.diag(K) == h.signal_std**2) and np.array_equal(K, K.T)


# a single row is C-contiguous in every layout but a column stride
@pytest.mark.parametrize("layout, m", [*((layout, 300) for layout in LAYOUTS), ("col_strided", 1)])
def test_posterior_and_predict(serve_model, layout, m):
    model, X = serve_model
    X = X[:m]
    X_l = laid_out(X, layout)
    got, want = posterior(model.target, X_l), posterior(model.target, X)
    assert_bits(got.mean, want.mean)
    assert_bits(got.variance, want.variance)
    got, want = predict(model, X_l), predict(model, X)
    for a, b in zip([got.mean, got.variance, got.labels, *got.per_expert_variances],
                    [want.mean, want.variance, want.labels, *want.per_expert_variances]):
        assert_bits(a, b)
    assert_bits(expert_weights(model, X_l), expert_weights(model, X))


def test_strided_corpus_bundle_round_trip(tmp_path):
    """A model trained on column-strided copies of the default corpus is the
    model its bundle reloads, which is rebuilt from C-contiguous arrays."""
    sources, pool, test = synth_shift(ShiftConfig(dims=3))
    strided = [Dataset(laid_out(d.X, "col_strided"), d.Y, d.domain_id)
               for d in [*sources, Dataset(pool.X[:100], pool.Y[:100], "target")]]
    model = train_gpde(strided[:-1], strided[-1])
    save_bundle(tmp_path / "model.json", model)
    loaded = load_bundle(tmp_path / "model.json")
    for e, f in zip([*model.sources, model.target], [*loaded.sources, loaded.target]):
        assert_bits(f.chol, e.chol)
        assert_bits(f.alpha, e.alpha)
    got, want = predict(loaded, test.X), predict(model, test.X)
    for a, b in zip([got.mean, got.variance, got.labels, *got.per_expert_means],
                    [want.mean, want.variance, want.labels, *want.per_expert_means]):
        assert_bits(a, b)
    assert_bits(expert_weights(loaded, test.X), expert_weights(model, test.X))
