import numpy as np
import pytest
from scipy.linalg import solve_triangular

from gpde import (
    AdaptedExpert,
    Dataset,
    Hyperparams,
    InvalidInputError,
    adapted_posterior,
    kernel_matrix,
    posterior,
    train_expert,
)
from gpde.gp_core import _solve_lower

from conftest import random_dataset, random_hyper


def rbf(A, B, h):
    """Reference kernel, written independently of the library."""
    sq = ((A[:, None, :] - B[None, :, :]) ** 2).sum(-1)
    return h.signal_std**2 * np.exp(-0.5 * sq / h.length_scale**2)


def joint_conditional(X_obs, Y_obs, X_q, h):
    """Condition the joint Gaussian (noisy observations at X_obs) on Y_obs."""
    K_oo = rbf(X_obs, X_obs, h) + h.noise_std**2 * np.eye(len(X_obs))
    K_oq = rbf(X_obs, X_q, h)
    K_qq = rbf(X_q, X_q, h)
    solve = np.linalg.solve(K_oo, K_oq)
    mean = solve.T @ Y_obs
    cov = K_qq - K_oq.T @ solve
    return mean, cov


class TestAdaptedPosterior:
    def test_equals_conditioning_on_union(self, rng):
        """Sequential conditioning (source then target, shared noise) must
        equal one-shot conditioning on the concatenated data."""
        for _ in range(20):
            h = random_hyper(rng)
            src = random_dataset(rng, n=int(rng.integers(2, 9)), d=2, c=2, domain_id="s")
            tgt = random_dataset(rng, n=int(rng.integers(1, 6)), d=2, c=2, domain_id="t")
            X_q = rng.normal(size=(4, 2))
            e = train_expert(src, h)
            pred = adapted_posterior(e, tgt, X_q)
            X_all = np.concatenate([src.X, tgt.X])
            Y_all = np.concatenate([src.Y, tgt.Y])
            mean, cov = joint_conditional(X_all, Y_all, X_q, h)
            assert np.allclose(pred.mean, mean, atol=1e-8)
            assert np.allclose(pred.variance, np.diagonal(cov), atol=1e-8)

    def test_none_target_is_plain_posterior(self, rng):
        e = train_expert(random_dataset(rng, n=7, d=2, c=2), random_hyper(rng))
        X_q = np.asarray(np.random.default_rng(0).normal(size=(5, 2)))
        plain = posterior(e, X_q)
        adapted = adapted_posterior(e, None, X_q)
        assert np.array_equal(adapted.mean, plain.mean)
        assert np.array_equal(adapted.variance, plain.variance)

    def test_variance_never_exceeds_source(self, rng):
        for _ in range(10):
            h = random_hyper(rng)
            e = train_expert(random_dataset(rng, n=8, d=2), h)
            tgt = random_dataset(rng, n=4, d=2, domain_id="t")
            X_q = rng.normal(size=(10, 2))
            v_src = posterior(e, X_q).variance
            v_adp = adapted_posterior(e, tgt, X_q).variance
            assert np.all(v_adp <= v_src + 1e-8)

    def test_variance_monotone_in_target_count(self, rng):
        h = random_hyper(rng)
        e = train_expert(random_dataset(rng, n=8, d=2), h)
        tgt = random_dataset(rng, n=6, d=2, domain_id="t")
        X_q = rng.normal(size=(12, 2))
        prev = posterior(e, X_q).variance
        for k in range(1, 7):
            sub = Dataset(tgt.X[:k], tgt.Y[:k], "t")
            cur = adapted_posterior(e, sub, X_q).variance
            assert np.all(cur <= prev + 1e-8)
            prev = cur

    def test_adapted_expert_caches_match_function(self, rng):
        h = random_hyper(rng)
        e = train_expert(random_dataset(rng, n=6, d=2, c=2), h)
        tgt = random_dataset(rng, n=3, d=2, c=2, domain_id="t")
        X_q = rng.normal(size=(5, 2))
        ae = AdaptedExpert(e, tgt)
        a = ae.posterior(X_q)
        b = adapted_posterior(e, tgt, X_q)
        assert np.allclose(a.mean, b.mean, atol=1e-12)
        assert np.allclose(a.variance, b.variance, atol=1e-12)

    def test_rejects_mismatched_dims(self, rng):
        e = train_expert(random_dataset(rng, n=5, d=2), random_hyper(rng))
        bad_tgt = random_dataset(rng, n=3, d=3, domain_id="t")
        with pytest.raises(InvalidInputError):
            adapted_posterior(e, bad_tgt, rng.normal(size=(2, 2)))
        good_tgt = random_dataset(rng, n=3, d=2, domain_id="t")
        with pytest.raises(InvalidInputError):
            adapted_posterior(e, good_tgt, rng.normal(size=(2, 4)))

    def test_rejects_output_count_mismatch(self, rng):
        e = train_expert(random_dataset(rng, n=5, d=2, c=2), random_hyper(rng))
        bad_tgt = random_dataset(rng, n=3, d=2, c=1, domain_id="t")
        with pytest.raises(InvalidInputError):
            adapted_posterior(e, bad_tgt, rng.normal(size=(2, 2)))


@pytest.fixture(scope="module")
def wide_expert():
    """A source expert of the benchmark's size: 120 rows, D=3, C=2."""
    rng = np.random.default_rng(7)
    return train_expert(random_dataset(rng, n=120, d=3, c=2), Hyperparams(1.3, 0.9, 0.1))


class TestRowMajorSolve:
    @pytest.mark.parametrize("m", [0, 1, 7, 300, 3000])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_matches_solve_triangular(self, wide_expert, m, order):
        e = wide_expert
        Xq = np.random.default_rng(m).normal(size=(m, 3))
        B = np.asarray(kernel_matrix(e.data.X, Xq, h=e.hyper), order=order)
        ref = solve_triangular(e.chol, B, lower=True, check_finite=False)
        out = _solve_lower(e.chol, B.copy(order="K"))
        assert out.shape == ref.shape == (120, m)
        np.testing.assert_allclose(out, ref, rtol=1e-12, atol=1e-12)

    def test_row_major_block_solved_in_its_own_memory(self, wide_expert):
        e = wide_expert
        B = kernel_matrix(e.data.X, np.zeros((5, 3)), h=e.hyper)
        assert np.shares_memory(_solve_lower(e.chol, B), B)
        F = np.asfortranarray(B)
        saved = F.copy()
        assert not np.shares_memory(_solve_lower(e.chol, F), F)
        assert np.array_equal(F, saved)

    def test_prediction_writes_no_cached_or_caller_array(self, wide_expert, rng):
        e = wide_expert
        target = random_dataset(rng, n=40, d=3, c=2, domain_id="t")
        K_tt = kernel_matrix(target.X, h=e.hyper)
        ae = AdaptedExpert(e, target, K_tt=K_tt)
        X_star = rng.normal(size=(300, 3))
        K_t_star = kernel_matrix(target.X, X_star, h=e.hyper)
        arrays = [e.chol, e.alpha, e.data.X, ae._v_t, ae._chol_t, ae._correction, target.X,
                  X_star, K_tt, K_t_star]
        saved = [a.copy() for a in arrays]
        first = ae.posterior(X_star, K_t_star=K_t_star)
        again = ae.posterior(X_star)
        posterior(e, X_star)
        assert all(np.array_equal(a, b) for a, b in zip(arrays, saved))
        assert np.array_equal(first.mean, again.mean)
        assert np.array_equal(first.variance, again.variance)
