import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gpde import Hyperparams, InvalidInputError, kernel_matrix
from gpde.kernel import squared_distances

from conftest import random_hyper


def pointwise_kernel(x, z, h):
    """Reference k(x, z) for two single points, straight from the formula."""
    return h.signal_std**2 * np.exp(-0.5 * np.sum((x - z) ** 2) / h.length_scale**2)


def kernel_entry(x, z, h):
    """k(x, z) for two single points, through ``kernel_matrix``."""
    return float(kernel_matrix(np.atleast_1d(x)[None, :], np.atleast_1d(z)[None, :], h=h)[0, 0])


class TestHyperparams:
    @pytest.mark.parametrize("bad", [dict(length_scale=0.0), dict(signal_std=-1.0),
                                     dict(noise_std=float("nan")), dict(length_scale=float("inf"))])
    def test_rejects_nonpositive(self, bad):
        kw = dict(length_scale=1.0, signal_std=1.0, noise_std=0.1)
        kw.update(bad)
        with pytest.raises(InvalidInputError):
            Hyperparams(**kw)

    def test_log_round_trip(self, rng):
        for _ in range(20):
            h = random_hyper(rng)
            back = Hyperparams.from_log(h.to_log())
            assert back.length_scale == pytest.approx(h.length_scale, rel=1e-12)
            assert back.signal_std == pytest.approx(h.signal_std, rel=1e-12)
            assert back.noise_std == pytest.approx(h.noise_std, rel=1e-12)

    def test_from_log_validates(self):
        with pytest.raises(InvalidInputError):
            Hyperparams.from_log([0.0, 0.0])
        with pytest.raises(InvalidInputError):
            Hyperparams.from_log([0.0, 0.0, -800.0])


class TestSquaredDistances:
    def test_matches_brute_force(self, rng):
        X = rng.normal(size=(7, 3))
        Z = rng.normal(size=(4, 3))
        sq = squared_distances(X, Z)
        assert sq.shape == (7, 4)
        for i in range(7):
            for j in range(4):
                assert sq[i, j] == pytest.approx(np.sum((X[i] - Z[j]) ** 2), abs=1e-10)

    def test_self_mode_symmetric_zero_diagonal(self, rng):
        X = rng.normal(size=(9, 4))
        sq = squared_distances(X)
        assert np.array_equal(sq, sq.T)
        assert np.all(np.diagonal(sq) == 0.0)

    @given(arrays(np.float64, st.tuples(st.integers(1, 8), st.integers(1, 4)),
                  elements=st.floats(-100, 100)))
    @settings(max_examples=50, deadline=None)
    def test_nonnegative(self, X):
        assert np.all(squared_distances(X) >= 0.0)
        assert np.all(squared_distances(X, X + 1.0) >= 0.0)

    def test_rejects_dim_mismatch(self, rng):
        with pytest.raises(InvalidInputError):
            squared_distances(rng.normal(size=(3, 2)), rng.normal(size=(3, 5)))


class TestKernelEval:
    def test_identical_points_give_signal_variance(self):
        h = Hyperparams(length_scale=0.7, signal_std=1.3, noise_std=0.1)
        x = np.array([0.2, -0.4])
        assert kernel_entry(x, x, h) == pytest.approx(1.3**2, abs=1e-15)

    def test_known_value(self):
        # ||x - x'||^2 = 4, l = 2, sf = 1 -> exp(-4 / (2*4)) = exp(-0.5)
        h = Hyperparams(length_scale=2.0, signal_std=1.0, noise_std=0.1)
        k = kernel_entry(np.array([0.0]), np.array([2.0]), h)
        assert k == pytest.approx(np.exp(-0.5), abs=1e-12)

    def test_decreases_with_distance(self):
        h = Hyperparams(length_scale=1.0, signal_std=1.0, noise_std=0.1)
        vals = [kernel_entry(np.zeros(1), np.array([d]), h) for d in (0.0, 0.5, 1.0, 2.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestKernelMatrix:
    def test_matches_elementwise_eval(self, rng):
        h = random_hyper(rng)
        X = rng.normal(size=(5, 2))
        Z = rng.normal(size=(3, 2))
        K = kernel_matrix(X, Z, h=h)
        for i in range(5):
            for j in range(3):
                assert K[i, j] == pytest.approx(pointwise_kernel(X[i], Z[j], h), abs=1e-12)

    def test_self_kernel_psd(self, rng):
        for _ in range(10):
            h = random_hyper(rng)
            X = rng.normal(size=(8, 3))
            K = kernel_matrix(X, h=h)
            assert np.array_equal(K, K.T)
            eigs = np.linalg.eigvalsh(K)
            assert eigs.min() >= -1e-10 * eigs.max()

    def test_entries_bounded_by_signal_variance(self, rng):
        h = random_hyper(rng)
        X = rng.normal(size=(6, 2))
        K = kernel_matrix(X, h=h)
        assert np.all(K <= h.signal_std**2 + 1e-12)
        assert np.all(K > 0.0)



def plain_squared_distances(X, Xp=None):
    """``squared_distances`` written as whole-array expressions, each of which
    allocates its result."""
    self_mode = Xp is None
    Xp = X if self_mode else Xp
    sq_x = np.sum(X * X, axis=1)
    sq_xp = sq_x if self_mode else np.sum(Xp * Xp, axis=1)
    sq = sq_x[:, None] + sq_xp[None, :] - 2.0 * (X @ Xp.T)
    np.maximum(sq, 0.0, out=sq)
    if self_mode:
        sq = 0.5 * (sq + sq.T)
        np.fill_diagonal(sq, 0.0)
    return sq


def plain_kernel_matrix(X, Xp=None, *, h):
    sq = plain_squared_distances(X, Xp)
    return h.signal_std**2 * np.exp(-0.5 * sq / h.length_scale**2)


class TestInPlaceEvaluation:
    """The in-place kernels run the plain expressions' operations in the same
    order, so they give the same bits."""

    @pytest.mark.parametrize("n, m, d", [(1, 1, 1), (7, 0, 2), (50, 1, 5), (120, 300, 3)])
    @pytest.mark.parametrize("scale", [0.01, 1.0, 30.0])
    def test_bits_equal_plain_expressions(self, rng, n, m, d, scale):
        X, Z = scale * rng.normal(size=(n, d)), scale * rng.normal(size=(m, d))
        h = random_hyper(rng)
        assert np.array_equal(squared_distances(X), plain_squared_distances(X))
        assert np.array_equal(squared_distances(X, Z), plain_squared_distances(X, Z))
        assert np.array_equal(kernel_matrix(X, h=h), plain_kernel_matrix(X, h=h))
        assert np.array_equal(kernel_matrix(X, Z, h=h), plain_kernel_matrix(X, Z, h=h))
