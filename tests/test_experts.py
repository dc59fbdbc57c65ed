import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gpde.adaptation as adaptation
import gpde.experts as experts
import gpde.gp_core as gp_core
from gpde import (
    AdaptedExpert,
    Dataset,
    GpdeModel,
    InvalidInputError,
    adapted_posterior,
    expert_weights,
    fit,
    fuse,
    hard_labels,
    pca_apply,
    pca_fit,
    posterior,
    predict,
    train_expert,
    train_gpde,
    train_source_experts,
    train_target_expert,
)
from gpde._blas import blas_threads
from gpde.experts import BETA_SUM_TOL, VARIANCE_FLOOR

from conftest import random_dataset, random_hyper


def make_model(rng, n_sources=2, c=2, with_target=True, n_t=4):
    sources = [random_dataset(rng, n=6, d=2, c=c, domain_id=f"s{k}") for k in range(n_sources)]
    target = random_dataset(rng, n=n_t, d=2, c=c, domain_id="t") if with_target else None
    return train_gpde(sources, target)


def uniform(m: int) -> np.ndarray:
    """The betas a model of ``m`` experts takes by default."""
    return np.full(m, 1.0 / m)


class TestUniformBetas:
    """A model without given betas weighs its experts equally."""

    def test_values(self, rng):
        b = make_model(rng, n_sources=3).betas
        assert np.allclose(b, 0.25)
        assert b.sum() == pytest.approx(1.0, abs=1e-15)

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidInputError):
            GpdeModel(sources=[], target=None)


class TestFuse:
    def test_precision_identity(self, rng):
        for _ in range(50):
            m = int(rng.integers(1, 6))
            means = [rng.normal(size=(4, 3)) for _ in range(m)]
            variances = [rng.uniform(0.01, 2.0, size=4) for _ in range(m)]
            betas = uniform(m)
            mean, var = fuse(means, variances, betas)
            expected = sum(b / v for b, v in zip(betas, variances))
            assert np.allclose(1.0 / var, expected, rtol=1e-12)

    def test_mean_in_hull(self, rng):
        for _ in range(50):
            m = int(rng.integers(2, 6))
            means = [rng.normal(size=(4, 2)) for _ in range(m)]
            variances = [rng.uniform(0.01, 2.0, size=4) for _ in range(m)]
            mean, _ = fuse(means, variances, uniform(m))
            stacked = np.stack(means)
            assert np.all(mean >= stacked.min(0) - 1e-12)
            assert np.all(mean <= stacked.max(0) + 1e-12)

    def test_single_expert_exact(self, rng):
        means = [rng.normal(size=(5, 4))]
        variances = [rng.uniform(0.01, 2.0, size=5)]
        mean, var = fuse(means, variances, uniform(1))
        assert np.array_equal(mean, means[0])
        assert np.array_equal(var, variances[0])

    def test_zero_beta_expert_excluded_exactly(self, rng):
        means = [rng.normal(size=(3, 2)) for _ in range(2)]
        variances = [rng.uniform(0.01, 2.0, size=3) for _ in range(2)]
        mean, var = fuse(means, variances, np.array([1.0, 0.0]))
        assert np.array_equal(mean, means[0])
        assert np.array_equal(var, variances[0])

    def test_variance_floor_applied(self):
        means = [np.array([[1.0]]), np.array([[-1.0]])]
        variances = [np.array([0.0]), np.array([1e-30])]
        mean, var = fuse(means, variances, uniform(2))
        assert np.all(np.isfinite(mean)) and np.all(np.isfinite(var))
        assert np.all(var > 0)

    def test_confident_expert_dominates(self):
        means = [np.array([[1.0]]), np.array([[-1.0]])]
        variances = [np.array([1e-4]), np.array([1.0])]
        mean, _ = fuse(means, variances, uniform(2))
        assert mean[0, 0] > 0.99

    @given(st.integers(2, 5), st.integers(1, 4))
    @settings(max_examples=30, deadline=None)
    def test_identical_experts_fixed_point(self, m, c):
        rng = np.random.default_rng(m * 10 + c)
        mu = rng.normal(size=(4, c))
        v = rng.uniform(0.1, 2.0, size=4)
        mean, var = fuse([mu] * m, [v] * m, uniform(m))
        assert np.allclose(mean, mu, rtol=1e-10)
        assert np.allclose(var, v, rtol=1e-10)

    def test_rejects_bad_shapes(self, rng):
        means = [rng.normal(size=(3, 2)) for _ in range(2)]
        variances = [rng.uniform(0.1, 1, size=3) for _ in range(2)]
        with pytest.raises(InvalidInputError):
            fuse([], [], uniform(1))
        with pytest.raises(InvalidInputError):
            fuse(means, variances[:1], uniform(2))
        with pytest.raises(InvalidInputError):
            fuse(means, variances, uniform(3))
        with pytest.raises(InvalidInputError):
            fuse(means, variances, np.array([0.9, 0.9]))
        # misaligned arrays: every mean one shared (M, C), every variance M values
        for bad_means, bad_variances in [
            ([means[0], means[1][:2]], variances),
            ([means[0], means[1][:, :1]], variances),
            (means, [variances[0], variances[1][:2]]),
            (means, [v[:2] for v in variances]),
            ([m[:, 0] for m in means], variances),
            ([means[0][:, 0]], variances[:1]),  # one active expert: was returned as (1, M)
        ]:
            with pytest.raises(InvalidInputError, match=r"one \(M, C\) shape"):
                fuse(bad_means, bad_variances, uniform(len(bad_means)))


class TestBetaValidation:
    """GpdeModel and fuse accept and reject the same combination weights."""

    @pytest.mark.parametrize("betas", [
        [0.5, 0.5 + 2 * BETA_SUM_TOL],
        [1.2, -0.2],
        [float("nan"), 1.0],
        [1.0],
    ])
    def test_rejected_by_model_and_fuse(self, rng, betas):
        model = make_model(rng, n_sources=1)
        with pytest.raises(InvalidInputError):
            GpdeModel(model.sources, model.target, betas)
        with pytest.raises(InvalidInputError):
            fuse([rng.normal(size=(3, 2))] * 2, [rng.uniform(0.1, 1.0, size=3)] * 2, betas)

    def test_sum_within_tolerance_accepted(self, rng):
        model = make_model(rng, n_sources=1)
        betas = [0.5, 0.5 + 0.5 * BETA_SUM_TOL]
        GpdeModel(model.sources, model.target, betas)
        fuse([rng.normal(size=(3, 2))] * 2, [rng.uniform(0.1, 1.0, size=3)] * 2, betas)


class TestHardLabels:
    def test_multilabel_sign_with_zero_positive(self):
        mean = np.array([[0.5, -0.2], [0.0, -0.0]])
        labels = hard_labels(mean, "multilabel")
        assert np.array_equal(labels, np.array([[1.0, -1.0], [1.0, 1.0]]))

    def test_multiclass_one_hot(self):
        mean = np.array([[0.1, 0.9, -0.5], [-2.0, -3.0, -1.0]])
        labels = hard_labels(mean, "multiclass")
        assert np.array_equal(labels, np.array([[-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]]))
        assert np.all(labels.sum(axis=1) == 3 - 2 * labels.shape[1] + 2)  # exactly one +1

    def test_rejects_unknown_mode(self):
        with pytest.raises(InvalidInputError):
            hard_labels(np.zeros((1, 2)), "other")


class TestGpdeModel:
    def test_betas_must_sum_to_one(self, rng):
        sources = train_source_experts([random_dataset(rng, n=5, d=2, domain_id="s")])
        with pytest.raises(InvalidInputError):
            GpdeModel(sources=sources, target=None, betas=np.array([0.5]), mode="multilabel")

    def test_needs_at_least_one_expert(self):
        with pytest.raises(InvalidInputError):
            GpdeModel(sources=[], target=None, betas=uniform(1), mode="multilabel")

    def test_source_experts_share_hyperparams(self, rng):
        a = random_dataset(rng, n=5, d=2, domain_id="a")
        b = random_dataset(rng, n=5, d=2, domain_id="b")
        from gpde import train_expert
        ea = train_expert(a, random_hyper(rng))
        eb = train_expert(b, random_hyper(rng))
        with pytest.raises(InvalidInputError):
            GpdeModel(sources=[ea, eb], target=None, betas=uniform(2), mode="multilabel")

    def test_train_gpde_shapes(self, rng):
        model = make_model(rng, n_sources=3)
        assert model.n_experts == 4
        assert len(model.betas) == 4
        h = {id(e.hyper) for e in model.sources}
        assert len({(e.hyper.length_scale, e.hyper.signal_std) for e in model.sources}) == 1

    def test_retarget_reuses_source_experts(self, rng, monkeypatch):
        """Re-targeting is composition: only the new target is fit."""
        model = make_model(rng)
        fitted, real = [], gp_core.fit_detailed
        monkeypatch.setattr(gp_core, "fit_detailed", lambda datasets, **kwargs: (
            fitted.append([d.domain_id for d in datasets]) or real(datasets, **kwargs)))
        new_target = random_dataset(rng, n=6, d=2, c=2, domain_id="t2")
        remodel = GpdeModel(model.sources, train_target_expert(new_target))
        assert fitted == [["t2"]]
        assert all(a is b for a, b in zip(model.sources, remodel.sources))
        assert remodel.target is not model.target
        assert remodel.target.data.n == 6


class TestDomainShapes:
    """Every place that combines domains checks one rule, with one message
    that names both shapes."""

    @pytest.fixture(params=[(3, 2), (2, 1)], ids=["D", "C"])
    def mismatch(self, request, rng):
        d, c = request.param
        a = random_dataset(rng, n=5, d=2, c=2, domain_id="a")
        b = random_dataset(rng, n=5, d=d, c=c, domain_id="b")
        h = random_hyper(rng)
        message = re.escape(f"domains must share D and C: 'a' has (D, C) = (2, 2), "
                            f"'b' has ({d}, {c})")
        return a, b, train_expert(a, h), train_expert(b, h), message

    def test_adapted_expert(self, mismatch):
        _, b, ea, _, message = mismatch
        with pytest.raises(InvalidInputError, match=message):
            AdaptedExpert(ea, b)

    def test_model(self, mismatch):
        _, _, ea, eb, message = mismatch
        with pytest.raises(InvalidInputError, match=message):
            GpdeModel([ea], eb)

    def test_shared_fit(self, mismatch):
        a, b, _, _, message = mismatch
        with pytest.raises(InvalidInputError, match=message):
            fit([a, b])


class TestPredict:
    def test_fusion_matches_manual_recombination(self, rng):
        model = make_model(rng, n_sources=2)
        X_q = rng.normal(size=(5, 2))
        fused = predict(model, X_q)
        parts = [adapted_posterior(e, model.target.data, X_q) for e in model.sources]
        parts.append(posterior(model.target, X_q))
        variances = [np.maximum(p.variance, VARIANCE_FLOOR) for p in parts]
        prec = sum(b / v for b, v in zip(model.betas, variances))
        mean = sum(b / v[:, None] * p.mean
                   for b, v, p in zip(model.betas, variances, parts)) / prec[:, None]
        assert np.allclose(fused.mean, mean, atol=1e-12)
        assert np.allclose(fused.variance, 1.0 / prec, atol=1e-12)

    def test_labels_consistent_with_mean(self, rng):
        model = make_model(rng)
        fused = predict(model, rng.normal(size=(8, 2)))
        assert np.array_equal(fused.labels, hard_labels(fused.mean, "multilabel"))

    def test_source_only_model_predicts(self, rng):
        model = make_model(rng, with_target=False)
        fused = predict(model, rng.normal(size=(4, 2)))
        assert fused.mean.shape == (4, 2)

    def test_multiclass_labels_one_hot(self, rng):
        sources = [random_dataset(rng, n=6, d=2, c=3, domain_id="s")]
        target = random_dataset(rng, n=4, d=2, c=3, domain_id="t")
        model = replace(train_gpde(sources, target), mode="multiclass")
        fused = predict(model, rng.normal(size=(6, 2)))
        assert np.all((fused.labels == 1.0).sum(axis=1) == 1)

    def test_rejects_wrong_dim(self, rng):
        model = make_model(rng)
        with pytest.raises(InvalidInputError):
            predict(model, rng.normal(size=(3, 5)))


class TestSharedTargetBlocks:
    """``predict`` forms ``K(X_t, X_t)`` and ``K(X_t, X_star)`` once for all
    sources, which share hyperparameters."""

    def test_predict_equals_per_source_adaptation(self, serve_model):
        model, X = serve_model
        fused = predict(model, X)
        for e, mean, variance in zip(model.sources, fused.per_expert_means,
                                     fused.per_expert_variances):
            with blas_threads(1):  # predict's setting; sums can group by thread count
                ref = AdaptedExpert(e, model.target.data).posterior(X)
            assert np.array_equal(mean, ref.mean)
            assert np.array_equal(variance, ref.variance)

    def test_kernel_blocks_per_call(self, serve_model, monkeypatch):
        model, X = serve_model
        calls = []
        original = gp_core.kernel_matrix

        def counted(*args, **kwargs):
            calls.append(None)
            return original(*args, **kwargs)

        for module in (gp_core, adaptation, experts):
            monkeypatch.setattr(module, "kernel_matrix", counted)
        predict(model, X[:3])
        # shared K(X_t, X_t) and K(X_t, X_star); K(X_s, X_t) and K(X_s, X_star)
        # per source; K(X_t, X_star) at the target's own hyperparameters
        assert len(calls) == 2 + 2 * len(model.sources) + 1


class TestMethodConfigurations:
    """The benchmark's single-expert methods are exact GpdeModel configurations."""

    def test_zero_target_beta_is_adapted_source(self, rng):
        model = make_model(rng, n_sources=1)
        e, t = model.sources[0], model.target
        X_q = rng.normal(size=(7, 2))
        fused = predict(GpdeModel([e], t, [1.0, 0.0]), X_q)
        ref = adapted_posterior(e, t.data, X_q)
        assert np.array_equal(fused.mean, ref.mean)
        assert np.array_equal(fused.labels, hard_labels(ref.mean, "multilabel"))

    def test_target_only_model_is_target_posterior(self, rng):
        t = make_model(rng).target
        X_q = rng.normal(size=(7, 2))
        fused = predict(GpdeModel([], t, [1.0]), X_q)
        ref = posterior(t, X_q)
        assert np.array_equal(fused.mean, ref.mean)
        assert np.array_equal(fused.labels, hard_labels(ref.mean, "multilabel"))


class TestQueryShape:
    """A query is one point or an M x D matrix; a scalar or a 3-d array is
    an InvalidInputError, not an IndexError or a silent broadcast."""

    CALLS = {
        "posterior": lambda model, q: posterior(model.sources[0], q),
        "predict": predict,
        "expert_weights": expert_weights,
        "adapted_posterior": lambda model, q: adapted_posterior(model.sources[0],
                                                                model.target.data, q),
        "pca_apply": lambda model, q: pca_apply(pca_fit(model.target.data.X), q),
    }

    @pytest.mark.parametrize("query", [np.float64(0.5), np.zeros((2, 2, 2))],
                             ids=["scalar", "3-d"])
    @pytest.mark.parametrize("call", CALLS.values(), ids=CALLS.keys())
    def test_rejected(self, rng, call, query):
        model = make_model(rng)
        with pytest.raises(InvalidInputError, match="2-d array"):
            call(model, query)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("call", CALLS.values(), ids=CALLS.keys())
    def test_non_finite_rejected(self, rng, call, value):
        """A NaN or Inf query entry is refused, not predicted as NaN with
        label -1 or projected to a row of NaN."""
        model = make_model(rng)
        query = rng.normal(size=(3, 2))
        query[1, 0] = value
        with pytest.raises(InvalidInputError, match="NaN or Inf"):
            call(model, query)


class TestExpertWeights:
    def test_rows_normalized_nonnegative(self, rng):
        model = make_model(rng, n_sources=3)
        W = expert_weights(model, rng.normal(size=(6, 2)))
        assert W.shape == (6, 4)
        assert np.all(W >= 0.0)
        assert np.allclose(W.sum(axis=1), 1.0, atol=1e-12)

    def test_single_point_returns_one_row(self, rng):
        """A 1-d query is one point, and gets one row, as in ``predict``."""
        model = make_model(rng)
        x = rng.normal(size=2)
        w = expert_weights(model, x)
        assert w.shape == (1, 3) == (predict(model, x).mean.shape[0], model.n_experts)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.array_equal(w, expert_weights(model, x[None, :]))

    def test_target_weight_large_near_target_data(self, rng):
        sources = [Dataset(np.full((5, 1), 10.0) + rng.normal(size=(5, 1)),
                           rng.choice([-1.0, 1.0], size=(5, 1)), "s")]
        target = Dataset(np.zeros((5, 1)) + 0.1 * rng.normal(size=(5, 1)),
                         rng.choice([-1.0, 1.0], size=(5, 1)), "t")
        model = train_gpde(sources, target)
        w = expert_weights(model, np.zeros(1))
        assert w[0, -1] > 0.5
