import re
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.linalg import cho_solve
from scipy.linalg.lapack import dpotrf, dpotri, dpotrs
from scipy.stats import multivariate_normal

from gpde import (
    BenchmarkSpec,
    Dataset,
    Hyperparams,
    InvalidInputError,
    NumericalError,
    ShiftConfig,
    fit,
    fit_detailed,
    kernel_matrix,
    log_marginal_likelihood,
    pca_apply,
    pca_fit,
    posterior,
    run_benchmark,
    synth_shift,
    train_expert,
)
import gpde.gp_core as gp_core
from gpde import _blas
from gpde.gp_core import _default_init, _factor
from gpde.kernel import squared_distances

from conftest import protocol_pooled_source, random_dataset, random_hyper


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
    """``_factor``'s jitter ladder, and its solve against the labels."""

    def test_clean_matrix_needs_no_jitter(self, rng):
        A = rng.normal(size=(6, 6))
        spd = A @ A.T + 6 * np.eye(6)
        Y = rng.normal(size=(6, 2))
        L, alpha, jitter = _factor(spd, 0.0, Y)
        assert jitter == 0.0
        assert np.allclose(L @ L.T, spd, atol=1e-10)
        assert np.allclose(spd @ alpha, Y, atol=1e-10)

    def test_singular_matrix_gets_jitter(self):
        ones = np.ones((4, 4))  # rank one, singular
        L, alpha, jitter = _factor(ones, 0.0, np.ones((4, 1)))
        assert jitter > 0.0
        assert np.allclose(L @ L.T, ones + jitter * np.eye(4), atol=1e-8)
        assert np.allclose((ones + jitter * np.eye(4)) @ alpha, 1.0, atol=1e-6)

    def test_indefinite_matrix_raises_with_jitter_info(self):
        bad = np.diag([1.0, -5.0])
        with pytest.raises(NumericalError, match="jitter"):
            _factor(bad, 0.0, np.ones((2, 1)))


class TestLapackBinding:
    """The GIL-free LAPACK calls give the bits of scipy's wrappers."""

    @pytest.mark.parametrize("n", [1, 2, 10, 120])
    def test_same_bits_as_scipy(self, n, rng):
        X = rng.normal(size=(n, n + 3))
        A = X @ X.T + 0.1 * np.eye(n)
        L, info = dpotrf(A, lower=1)  # clean=1: zeros above the diagonal
        ours = np.array(A, order="F")
        assert gp_core._potrf(ours) == info == 0
        assert np.array_equal(ours, L) and not np.any(np.triu(ours, 1))
        for c in (1, 3):
            B = rng.normal(size=(n, c))
            x, info = dpotrs(L, B, lower=1)
            factor, alpha, jitter = _factor(A, 0.0, B)
            assert info == 0 and jitter == 0.0 and np.array_equal(factor, L)
            assert np.array_equal(alpha, x) and alpha.flags.f_contiguous
        inverse, info = dpotri(L, lower=1)
        assert gp_core._potri(ours) == info == 0
        assert np.array_equal(np.tril(ours), np.tril(inverse))

    @pytest.mark.parametrize("n", [1, 2, 10, 120])
    def test_same_info_where_not_positive_definite(self, n):
        A = np.eye(n)
        A[-1, -1] = -1.0
        _, info = dpotrf(A, lower=1)
        assert gp_core._potrf(np.array(A, order="F")) == info == n
        singular = np.eye(n)
        singular[0, 0] = 0.0
        _, info = dpotri(singular, lower=1)
        assert gp_core._potri(np.array(singular, order="F")) == info > 0

    def test_refuses_a_row_major_matrix(self):
        with pytest.raises(ValueError, match="F-ordered"):
            gp_core._potrf(np.eye(3)[:, ::-1].copy())


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

    def test_gradient_matches_dense_inverse_formula(self, rng):
        # The gradient sums over dpotri's lower triangle of Kn^-1; the
        # reference factorizes Kn itself, forms the whole inverse with
        # cho_solve(L, I) and takes 1/2 tr[(alpha alpha^T - C Kn^-1) dK/dtheta]
        # over full matrices.
        shapes = [(1, 1), (1, 3)] + [(int(rng.integers(2, 60)), int(rng.integers(1, 4)))
                                     for _ in range(10)]
        for n, c in shapes:
            data = random_dataset(rng, n=n, d=int(rng.integers(1, 4)), c=c)
            h = random_hyper(rng)
            sq = squared_distances(data.X)
            K = kernel_matrix(data.X, h=h)
            L = np.linalg.cholesky(K + h.noise_std**2 * np.eye(n))
            alpha = cho_solve((L, True), data.Y)
            T = alpha @ alpha.T - c * cho_solve((L, True), np.eye(n))
            dense = [0.5 * np.sum(T * K * sq) / h.length_scale**2, np.sum(T * K),
                     h.noise_std**2 * np.trace(T)]
            grad = gp_core._lml(sq, data.Y, h, np.empty((2, n, n)))[1]
            assert np.allclose(grad, dense, rtol=1e-10, atol=0.0)

    def test_single_point_closed_form(self):
        # N=1, C=1: log N(y; 0, sf^2 + sv^2)
        data = Dataset(X=np.zeros((1, 1)), Y=np.array([[1.0]]), domain_id="d")
        h = Hyperparams(length_scale=1.0, signal_std=1.0, noise_std=0.5)
        var = 1.0 + 0.25
        expected = -0.5 * (1.0 / var) - 0.5 * np.log(var) - 0.5 * np.log(2 * np.pi)
        value, _ = log_marginal_likelihood(data, h)
        assert value == pytest.approx(expected, abs=1e-12)

    def test_underflowed_length_scale_is_a_numerical_error(self, rng):
        # length_scale**2 underflows to 0, where the kernel and d/dlog(ell)
        # divide by zero: a typed error, which a fit's objective backs away from
        h = Hyperparams(length_scale=1e-170, signal_std=1.0, noise_std=0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="underflows to 0"):
                log_marginal_likelihood(random_dataset(rng), h)

    def test_same_bits_where_the_kernel_underflows(self, monkeypatch):
        # The protocol corpus's pooled N=300 data at length-scale 0.1, where
        # K underflows (half its entries are 0, 1400 are subnormal): flushing
        # subnormals to zero, and the fit's reused workspace, change no bit
        # of the value or the gradient.
        pooled = protocol_pooled_source()
        h = Hyperparams(length_scale=0.1, signal_std=0.9, noise_std=0.4)
        K = kernel_matrix(pooled.X, h=h)
        assert np.count_nonzero((K > 0) & (K < np.finfo(float).tiny)) > pooled.n

        seen = []
        real = gp_core._lml

        def probe(*args):
            out = real(*args)
            seen.append((args[2], out))
            return out

        monkeypatch.setattr(gp_core, "_lml", probe)
        monkeypatch.setattr(gp_core, "MAX_ITER", 1)
        monkeypatch.setattr(gp_core, "_default_init", lambda datasets, h=h: h)
        fit_detailed([pooled])  # its first evaluation is at the start h
        h, (in_fit_value, in_fit_grad) = seen[0]  # h after its round trip through log-space
        flushed = log_marginal_likelihood(pooled, h)
        assert flushed[0] == in_fit_value and np.array_equal(flushed[1], in_fit_grad)
        monkeypatch.setattr(_blas, "_fenv", ())  # no MXCSR control found: runs unflushed
        plain = log_marginal_likelihood(pooled, h)
        assert plain[0] == flushed[0] and np.array_equal(plain[1], flushed[1])


class TestFit:
    def test_objective_never_below_init(self, rng, monkeypatch):
        for _ in range(5):
            data = random_dataset(rng, n=12, d=2, c=1)
            init = random_hyper(rng)
            monkeypatch.setattr(gp_core, "_default_init", lambda datasets, h=init: h)
            res = fit_detailed([data])
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

    def test_fit_warns_when_not_converged(self, rng, monkeypatch):
        data = random_dataset(rng, n=10, d=2, c=1)
        monkeypatch.setattr(gp_core, "MAX_ITER", 1)
        with pytest.warns(RuntimeWarning):
            fit([data])

    def test_fit_warning_names_the_fit(self, rng, monkeypatch):
        da = random_dataset(rng, n=10, d=2, c=1, domain_id="dom_a")
        db = random_dataset(rng, n=7, d=2, c=1, domain_id="dom_b")
        monkeypatch.setattr(gp_core, "MAX_ITER", 1)
        message = fit_detailed([da, db]).message
        assert message
        with pytest.warns(RuntimeWarning) as record:
            fit([da, db])
        text = str(record[0].message)
        assert "['dom_a', 'dom_b']" in text and "N=17" in text and message in text

    def test_fit_record_counts_evaluations_and_final_gradient(self, rng, monkeypatch):
        data = random_dataset(rng, n=15, d=2, c=2)
        calls = []
        real = gp_core._lml
        monkeypatch.setattr(gp_core, "_lml", lambda *args: calls.append(1) or real(*args))
        res = fit_detailed([data])
        assert res.n_eval == len(calls) > res.n_iter
        _, g = log_marginal_likelihood(data, res.hyper)
        assert res.grad_max == pytest.approx(np.max(np.abs(g)), rel=1e-6, abs=1e-12)
        monkeypatch.setattr(gp_core, "MAX_ITER", 1)
        record = fit_detailed([data])
        assert record.start in (0, 1) and record.seconds > 0
        with pytest.warns(RuntimeWarning, match=f"{record.n_eval} evaluations") as warned:
            fit([data])
        text = str(warned[0].message)
        assert f"max |gradient| {record.grad_max:.3g}" in text
        assert f"start {record.start}" in text and "evaluations without" in text
        assert not re.search(r"\d s\b", text)  # no wall time, which differs run to run
        with warnings.catch_warnings(record=True) as again:
            warnings.simplefilter("always")
            fit([data])
            fit([data])
        assert [str(w.message) for w in again] == [text, text]

    def test_line_search_past_an_underflowing_length_scale(self):
        # The protocol corpus at split seed 1836746045: a target fit's line
        # search reaches a length-scale whose square underflows to 0, which
        # used to end the whole run with a ZeroDivisionError.
        sources, train, test = synth_shift(ShiftConfig(samples_per_domain=60))
        pool = Dataset(np.vstack([train.X, test.X]), np.vstack([train.Y, test.Y]), "target_pool")
        spec = BenchmarkSpec(folds=2, seed=1836746045, schedule=(10, 30, 50, 100))
        result = run_benchmark(spec, source_datasets=sources, target_pool=pool)
        assert len(result.rows) == len(spec.methods) * 4 * len(spec.metric_names) * 2
        assert all(0.0 <= r.value <= 1.0 for r in result.rows)

    def test_optimizer_converged_fit_does_not_warn(self):
        # Fold 0's 10-row target fit on the benchmark's protocol corpus
        # (objective -20.787, 64 iterations) stops on L-BFGS-B's test
        # max|grad| <= GRAD_TOL with a 2-norm just above it; that is convergence.
        sources, train, test = synth_shift(ShiftConfig(samples_per_domain=60))
        pool = Dataset(np.vstack([train.X, test.X]), np.vstack([train.Y, test.Y]), "pool")
        spec = BenchmarkSpec(folds=2, seed=998266396, schedule=(10, 30, 50, 100))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            run_benchmark(spec, source_datasets=sources, target_pool=pool)

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

    def test_pooled_fit_avoids_signal_plateau(self):
        # The pooled source corpus of the protocol benchmark workload.  From
        # the default start alone L-BFGS-B slides onto the signal_std -> 0,
        # noise_std ~ 1 plateau (objective -851.2, signal_std 0.051); the
        # quarter-length-scale start reaches -842.8 with signal_std 0.46.
        res = fit_detailed([protocol_pooled_source()])
        assert res.objective > -845
        assert res.hyper.signal_std > 0.1
        assert res.start == 1

    def test_no_matrix_factorized_twice(self, rng, monkeypatch):
        # Each evaluation takes the value and the gradient from one
        # factorization, and no point is evaluated twice.
        seen, repeats = set(), []
        real = gp_core._factor

        def recording(K, noise_var, Y, out=None):
            key = (K.shape, K.tobytes(), noise_var)  # the matrix K + noise_var I
            if key in seen:
                repeats.append(K.shape)
            seen.add(key)
            return real(K, noise_var, Y, out)

        monkeypatch.setattr(gp_core, "_factor", recording)
        datasets = [random_dataset(rng, n=12, d=2, c=1, domain_id="a"),
                    random_dataset(rng, n=9, d=2, c=1, domain_id="b")]
        res = fit_detailed(datasets)
        assert res.n_iter > 0
        assert len(seen) >= 2 * len(res.trace)
        assert repeats == []

    def test_evaluation_allocates_no_matrix(self, rng, monkeypatch):
        # Each evaluation inside a fit works in the fit's workspace, so
        # none allocates an N x N array (8 N^2 bytes).
        data = random_dataset(rng, n=200, d=3, c=2)
        peaks = []
        real = gp_core._lml

        def probe(*args):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            out = real(*args)
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
            return out

        monkeypatch.setattr(gp_core, "_lml", probe)
        monkeypatch.setattr(gp_core, "MAX_ITER", 3)
        tracemalloc.start()
        try:
            fit_detailed([data])
        finally:
            tracemalloc.stop()
        assert len(peaks) > 3 and max(peaks) < data.n**2 * 8

    def test_rejects_mixed_shapes_and_empty(self, rng):
        with pytest.raises(InvalidInputError):
            fit([])
        with pytest.raises(InvalidInputError):
            fit([random_dataset(rng, d=2), random_dataset(rng, d=3)])

    def test_default_init_is_sane(self, rng):
        data = random_dataset(rng, n=30, d=3, c=2)
        h = _default_init([data])
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
