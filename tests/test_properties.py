"""Properties of trained models on random small problems: a saved and reloaded
model predicts the same bits, a single query point gets the row it gets in a
batch, adaptation is dense conditioning on source and target data and never
raises a variance, the covariance it factorizes is exactly symmetric,
fusion with one active expert returns that expert, and the
marginal-likelihood gradient matches central differences.  Experts are built
from drawn hyperparameters, with no fit.  The conditioning reference uses
numpy alone, never ``gpde.adaptation`` or ``gpde.experts``."""

import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import gpde.adaptation as adaptation
from gpde import (AdaptedExpert, Dataset, GpdeModel, Hyperparams, expert_weights, fuse,
                  load_bundle, log_marginal_likelihood, posterior, predict, save_bundle,
                  train_expert)
from gpde.experts import VARIANCE_FLOOR

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)
# the tolerances of the serve workload's single-row check
RTOL, ATOL = 1e-9, 1e-12
# the acceptance suite's: union conditioning, and central differences
UNION_ATOL = 1e-8
FD_STEP, FD_RTOL, FD_ATOL = 1e-6, 1e-5, 1e-7


def log_uniform(low: float, high: float):
    return st.floats(np.log(low), np.log(high)).map(lambda z: float(np.exp(z)))


# log-box of the drawn hyperparameters
hyper = st.builds(Hyperparams, length_scale=log_uniform(0.2, 5.0),
                  signal_std=log_uniform(0.3, 3.0), noise_std=log_uniform(0.05, 1.0))


@st.composite
def models(draw, min_queries=1, near_duplicates=False):
    """A model of 1-3 source experts of 1-30 rows that share one drawn
    hyperparameter triple, a target expert of 1-15 rows with its own, D in
    1..3 and C in {1, 3} with labels in {-1, +1}; and a query matrix.  With
    ``near_duplicates``, each target row repeats a source row to within 1e-9
    with probability 1/2."""
    dim, n_out = draw(st.integers(1, 3)), draw(st.sampled_from([1, 3]))
    sizes = draw(st.lists(st.integers(1, 30), min_size=1, max_size=3))
    n_target, n_query = draw(st.integers(1, 15)), draw(st.integers(min_queries, 30))
    shared, own = draw(hyper), draw(hyper)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def domain(n, name):
        return Dataset(rng.normal(size=(n, dim)), rng.choice([-1.0, 1.0], size=(n, n_out)), name)

    sources = [train_expert(domain(n, f"s{k}"), shared) for k, n in enumerate(sizes)]
    target = domain(n_target, "t")
    if near_duplicates:
        rows, X = np.vstack([s.data.X for s in sources]), target.X.copy()
        repeat = rng.random(n_target) < 0.5
        X[repeat] = (rows[rng.integers(0, len(rows), repeat.sum())]
                     + 1e-9 * rng.normal(size=(repeat.sum(), dim)))
        target = Dataset(X, target.Y, "t")
    return GpdeModel(sources, train_expert(target, own)), rng.normal(size=(n_query, dim))


def rbf(A: np.ndarray, B: np.ndarray, h: Hyperparams) -> np.ndarray:
    d2 = np.sum((A[:, None, :] - B[None, :, :]) ** 2, axis=2)
    return h.signal_std**2 * np.exp(-0.5 * d2 / h.length_scale**2)


def condition(X: np.ndarray, Y: np.ndarray, Xq: np.ndarray, h: Hyperparams):
    """Dense GP posterior mean and variance at ``Xq`` given ``(X, Y)`` at ``h``."""
    K = rbf(X, X, h) + h.noise_std**2 * np.eye(len(X))
    Ks = rbf(X, Xq, h)
    sol = np.linalg.solve(K, Ks)
    return sol.T @ Y, h.signal_std**2 - np.sum(Ks * sol, axis=0)


@PROPERTY
@given(models())
def test_reloaded_bundle_predicts_the_same_bits(drawn):
    model, X = drawn
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "bundle.json"
        save_bundle(path, model)
        loaded = load_bundle(path)
    k = model.n_experts
    assert np.array_equal(loaded.betas, np.full(k, 1.0 / k))
    before, after = predict(model, X), predict(loaded, X)
    for field in ("mean", "variance", "labels"):
        assert np.array_equal(getattr(before, field), getattr(after, field))
    assert np.array_equal(expert_weights(model, X), expert_weights(loaded, X))


@PROPERTY
@given(models(min_queries=2), st.integers(0, 29))
def test_single_point_matches_its_batch_row(drawn, row):
    model, X = drawn
    j = row % X.shape[0]
    batch, single = predict(model, X), predict(model, X[j])
    assert single.mean.shape == (1, batch.mean.shape[1]) and single.variance.shape == (1,)
    assert np.allclose(single.mean[0], batch.mean[j], rtol=RTOL, atol=ATOL)
    assert np.allclose(single.variance[0], batch.variance[j], rtol=RTOL, atol=ATOL)
    W, w = expert_weights(model, X), expert_weights(model, X[j])
    assert W.shape == (X.shape[0], model.n_experts) and w.shape == (1, model.n_experts)
    assert np.allclose(w[0], W[j], rtol=RTOL, atol=ATOL)


@PROPERTY
@given(models())
def test_adaptation_is_union_conditioning(drawn):
    """Each adapted source expert predicts as one GP conditioned on its source
    rows and the target rows at the source noise, where no jitter was added."""
    model, X = drawn
    target = model.target.data
    for source in model.sources:
        adapted = AdaptedExpert(source, target)
        if source.jitter or adapted.jitter:
            continue
        pred = adapted.posterior(X)
        mean, var = condition(np.vstack([source.data.X, target.X]),
                              np.vstack([source.data.Y, target.Y]), X, source.hyper)
        assert np.max(np.abs(pred.mean - mean)) < UNION_ATOL
        assert np.max(np.abs(pred.variance - var)) < UNION_ATOL


@PROPERTY
@given(models(near_duplicates=True))
def test_adapted_prior_covariance_is_exactly_symmetric(drawn):
    """The source-posterior covariance at the target rows that an adapted
    expert factorizes is symmetric bit for bit, with no symmetrizing step:
    ``K(X_t, X_t)`` is, and numpy forms ``v.T @ v`` by a symmetric rank-k
    update."""
    model, _ = drawn
    factored = []
    real = adaptation._factor

    def spy(K, *args):
        factored.append(K.copy())
        return real(K, *args)

    with mock.patch.object(adaptation, "_factor", spy):
        for source in model.sources:
            AdaptedExpert(source, model.target.data)
    assert len(factored) == len(model.sources)
    assert all(np.array_equal(K, K.T) for K in factored)


@PROPERTY
@given(models(near_duplicates=True))
def test_adaptation_never_raises_a_variance(drawn):
    model, X = drawn
    for source in model.sources:
        adapted = AdaptedExpert(source, model.target.data).posterior(X)
        assert np.all(adapted.variance <= posterior(source, X).variance)


@PROPERTY
@given(models(), st.integers(0, 3))
def test_fuse_with_one_active_expert_returns_it(drawn, pick):
    model, X = drawn
    p = predict(model, X)
    i = pick % model.n_experts
    betas = np.zeros(model.n_experts)
    betas[i] = 1.0
    mean, variance = fuse(p.per_expert_means, p.per_expert_variances, betas)
    assert np.array_equal(mean, p.per_expert_means[i])
    assert np.array_equal(variance, np.maximum(p.per_expert_variances[i], VARIANCE_FLOOR))


@PROPERTY
@given(hyper, st.integers(1, 30), st.integers(1, 3), st.sampled_from([1, 3]),
       st.integers(0, 2**32 - 1))
def test_gradient_matches_central_differences(h, n, dim, n_out, seed):
    rng = np.random.default_rng(seed)
    data = Dataset(rng.normal(size=(n, dim)), rng.choice([-1.0, 1.0], size=(n, n_out)), "d")
    _, grad = log_marginal_likelihood(data, h)
    z = np.array(h.to_log())
    fd = np.empty(3)
    for j in range(3):
        step = np.zeros(3)
        step[j] = FD_STEP
        up, _ = log_marginal_likelihood(data, Hyperparams.from_log(z + step))
        down, _ = log_marginal_likelihood(data, Hyperparams.from_log(z - step))
        fd[j] = (up - down) / (2.0 * FD_STEP)
    assert np.all(np.abs(grad - fd) <= FD_RTOL * np.abs(fd) + FD_ATOL), (grad, fd)
