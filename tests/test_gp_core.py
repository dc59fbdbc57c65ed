import numpy as np
import pytest
from scipy.stats import multivariate_normal

from gpde import (
    Dataset,
    Hyperparams,
    InvalidInputError,
    NumericalError,
    OptimizerOptions,
    ShiftConfig,
    default_init,
    fit,
    fit_detailed,
    kernel_matrix,
    log_marginal_likelihood,
    pca_apply,
    pca_fit,
    posterior,
    synth_shift,
    train_expert,
)
import gpde.gp_core as gp_core
from gpde.gp_core import cholesky_with_jitter

from conftest import random_dataset, random_hyper


def lml_oracle(data, h):
    """Independent reference: sum of dense Gaussian log-densities per output."""
    Kn = kernel_matrix(data.X, h=h) + h.noise_std**2 * np.eye(data.n)
    dist = multivariate_normal(mean=np.zeros(data.n), cov=Kn, allow_singular=True)
    return float(sum(dist.logpdf(data.Y[:, j]) for j in range(data.n_outputs)))


class TestDataset:
    def test_properties(self, rng):
        d = random_dataset(rng, n=5, d=3, c=2)
        assert (d.n, d.dim, d.n_outputs) == (5, 3, 2)

    def test_rejects_mismatched_rows(self, rng):
        with pytest.raises(InvalidInputError):
            Dataset(X=rng.normal(size=(4, 2)), Y=np.ones((3, 1)), domain_id="d")

    def test_rejects_empty_and_nan(self, rng):
        with pytest.raises(InvalidInputError):
            Dataset(X=np.empty((0, 2)), Y=np.empty((0, 1)), domain_id="d")
        with pytest.raises(InvalidInputError):
            Dataset(X=np.array([[np.nan, 0.0]]), Y=np.ones((1, 1)), domain_id="d")

    def test_accepts_real_valued_outputs(self, rng):
        d = Dataset(X=rng.normal(size=(3, 2)), Y=rng.normal(size=(3, 2)), domain_id="d")
        assert d.n_outputs == 2


class TestCholeskyJitter:
    def test_clean_matrix_needs_no_jitter(self, rng):
        A = rng.normal(size=(6, 6))
        spd = A @ A.T + 6 * np.eye(6)
        L, jitter = cholesky_with_jitter(spd)
        assert jitter == 0.0
        assert np.allclose(L @ L.T, spd, atol=1e-10)

    def test_singular_matrix_gets_jitter(self):
        ones = np.ones((4, 4))  # rank one, singular
        L, jitter = cholesky_with_jitter(ones)
        assert jitter > 0.0
        assert np.allclose(L @ L.T, ones + jitter * np.eye(4), atol=1e-8)

    def test_indefinite_matrix_raises_with_jitter_info(self):
        bad = np.diag([1.0, -5.0])
        with pytest.raises(NumericalError, match="jitter"):
            cholesky_with_jitter(bad)


class TestLogMarginalLikelihood:
    def test_matches_dense_gaussian_oracle(self, rng):
        for _ in range(20):
            data = random_dataset(rng, n=int(rng.integers(2, 9)),
                                  d=int(rng.integers(1, 4)), c=int(rng.integers(1, 3)))
            h = random_hyper(rng)
            value, _ = log_marginal_likelihood(data, h)
            assert value == pytest.approx(lml_oracle(data, h), abs=1e-8)

    def test_gradient_matches_central_differences(self, rng):
        eps = 1e-5
        for _ in range(10):
            data = random_dataset(rng, n=int(rng.integers(3, 10)), d=2, c=2)
            h = random_hyper(rng)
            _, grad = log_marginal_likelihood(data, h)
            z = h.to_log()
            for k in range(3):
                zp, zm = z.copy(), z.copy()
                zp[k] += eps
                zm[k] -= eps
                fp, _ = log_marginal_likelihood(data, Hyperparams.from_log(zp))
                fm, _ = log_marginal_likelihood(data, Hyperparams.from_log(zm))
                fd = (fp - fm) / (2 * eps)
                assert grad[k] == pytest.approx(fd, rel=1e-5, abs=1e-7)

    def test_single_point_closed_form(self):
        # N=1, C=1: log N(y; 0, sf^2 + sv^2)
        data = Dataset(X=np.zeros((1, 1)), Y=np.array([[1.0]]), domain_id="d")
        h = Hyperparams(length_scale=1.0, signal_std=1.0, noise_std=0.5)
        var = 1.0 + 0.25
        expected = -0.5 * (1.0 / var) - 0.5 * np.log(var) - 0.5 * np.log(2 * np.pi)
        value, _ = log_marginal_likelihood(data, h)
        assert value == pytest.approx(expected, abs=1e-12)


class TestFit:
    def test_objective_never_below_init(self, rng):
        for _ in range(5):
            data = random_dataset(rng, n=12, d=2, c=1)
            init = random_hyper(rng)
            res = fit_detailed([data], init=init)
            f0, _ = log_marginal_likelihood(data, init)
            assert res.objective >= f0 - 1e-12

    def test_trace_non_decreasing(self, rng):
        data = random_dataset(rng, n=15, d=2, c=2)
        res = fit_detailed([data])
        trace = np.array(res.trace)
        assert np.all(np.diff(trace) >= -1e-12)

    def test_converged_flag_and_small_gradient(self, rng):
        rng_local = np.random.default_rng(7)
        X = rng_local.normal(size=(40, 2))
        true = Hyperparams(length_scale=1.0, signal_std=1.0, noise_std=0.3)
        K = kernel_matrix(X, h=true) + true.noise_std**2 * np.eye(40)
        Y = np.linalg.cholesky(K) @ rng_local.normal(size=(40, 1))
        res = fit_detailed([Dataset(X, Y, "sim")])
        assert res.converged
        _, g = log_marginal_likelihood(Dataset(X, Y, "sim"), res.hyper)
        assert np.linalg.norm(g) < 1e-5

    def test_shared_fit_maximizes_summed_objective(self, rng):
        da = random_dataset(rng, n=10, d=2, c=1, domain_id="a")
        db = random_dataset(rng, n=8, d=2, c=1, domain_id="b")
        res = fit_detailed([da, db])
        total = sum(log_marginal_likelihood(d, res.hyper)[0] for d in (da, db))
        assert res.objective == pytest.approx(total, abs=1e-9)
        if res.converged:
            g = sum(log_marginal_likelihood(d, res.hyper)[1] for d in (da, db))
            assert np.linalg.norm(g) < 1e-5

    def test_fit_warns_when_not_converged(self, rng):
        data = random_dataset(rng, n=10, d=2, c=1)
        with pytest.warns(RuntimeWarning):
            fit([data], opts=OptimizerOptions(max_iter=1))

    def test_overflowing_trial_step_is_rejected(self):
        # The shared source fit of fold 0 of the synthetic benchmark with
        # seed 11558348 (fold seed 3040981424), 5 domains x 30 points: one
        # line-search trial overflows signal_std**2 and must be rejected
        # like any other failed step.
        cfg = ShiftConfig(samples_per_domain=30, n_target_test=100, seed=3040981424)
        sources, _, _ = synth_shift(cfg)
        projector = pca_fit(np.concatenate([s.X for s in sources]), 0.99)
        sources = [Dataset(pca_apply(projector, s.X), s.Y, s.domain_id) for s in sources]
        res = fit_detailed(sources)
        assert np.isfinite(res.objective)
        assert np.all(np.diff(res.trace) >= -1e-12)

    def test_no_matrix_factorized_twice(self, rng, monkeypatch):
        # The line search's factors at an accepted trial also give the
        # gradient there, so each point's matrices are factorized once.
        seen, repeats = set(), []
        real = gp_core.cholesky_with_jitter

        def recording(A):
            key = (A.shape, A.tobytes())
            if key in seen:
                repeats.append(A.shape)
            seen.add(key)
            return real(A)

        monkeypatch.setattr(gp_core, "cholesky_with_jitter", recording)
        datasets = [random_dataset(rng, n=12, d=2, c=1, domain_id="a"),
                    random_dataset(rng, n=9, d=2, c=1, domain_id="b")]
        res = fit_detailed(datasets)
        assert res.n_iter > 0
        assert len(seen) >= 2 * len(res.trace)
        assert repeats == []

    def test_rejects_mixed_shapes_and_empty(self, rng):
        with pytest.raises(InvalidInputError):
            fit([])
        with pytest.raises(InvalidInputError):
            fit([random_dataset(rng, d=2), random_dataset(rng, d=3)])

    def test_default_init_is_sane(self, rng):
        data = random_dataset(rng, n=30, d=3, c=2)
        h = default_init([data])
        assert h.length_scale > 0 and h.signal_std > 0 and h.noise_std > 0


class TestPosterior:
    def test_interpolates_with_small_noise(self, rng):
        data = random_dataset(rng, n=8, d=2, c=1)
        h = Hyperparams(length_scale=1.0, signal_std=1.0, noise_std=1e-4)
        e = train_expert(data, h)
        pred = posterior(e, data.X)
        assert np.allclose(pred.mean, data.Y, atol=1e-3)
        assert np.all(pred.variance < 1e-4)

    def test_variance_bounds(self, rng):
        for _ in range(5):
            data = random_dataset(rng, n=10, d=2, c=2)
            h = random_hyper(rng)
            e = train_expert(data, h)
            pred = posterior(e, rng.normal(size=(20, 2)))
            assert np.all(pred.variance >= 0.0)
            assert np.all(pred.variance <= h.signal_std**2 + 1e-10)

    def test_far_points_revert_to_prior(self, rng):
        data = random_dataset(rng, n=6, d=2, c=1)
        h = Hyperparams(length_scale=0.5, signal_std=1.2, noise_std=0.1)
        e = train_expert(data, h)
        pred = posterior(e, data.X + 100.0)
        assert np.allclose(pred.mean, 0.0, atol=1e-10)
        assert np.allclose(pred.variance, h.signal_std**2, atol=1e-10)

    def test_rejects_wrong_dim(self, rng):
        e = train_expert(random_dataset(rng, d=2), random_hyper(rng))
        with pytest.raises(InvalidInputError):
            posterior(e, rng.normal(size=(3, 5)))

    def test_single_test_point_shapes(self, rng):
        e = train_expert(random_dataset(rng, d=2, c=2), random_hyper(rng))
        pred = posterior(e, rng.normal(size=(1, 2)))
        assert pred.mean.shape == (1, 2)
        assert pred.variance.shape == (1,)
