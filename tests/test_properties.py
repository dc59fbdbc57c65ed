"""Properties of trained models on random small problems: a saved and reloaded
model predicts the same bits, and a single query point gets the row it gets
in a batch.  Experts are built from drawn hyperparameters, with no fit."""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gpde import (Dataset, GpdeModel, Hyperparams, expert_weights, load_bundle, predict,
                  save_bundle, train_expert)

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)
# the tolerances of the serve workload's single-row check
RTOL, ATOL = 1e-9, 1e-12


def log_uniform(low: float, high: float):
    return st.floats(np.log(low), np.log(high)).map(lambda z: float(np.exp(z)))


# log-box of the drawn hyperparameters
hyper = st.builds(Hyperparams, length_scale=log_uniform(0.2, 5.0),
                  signal_std=log_uniform(0.3, 3.0), noise_std=log_uniform(0.05, 1.0))


@st.composite
def models(draw, min_queries=1):
    """A model of 1-3 source experts of 1-30 rows that share one drawn
    hyperparameter triple, a target expert of 1-15 rows with its own, D in
    1..3 and C in {1, 3} with labels in {-1, +1}; and a query matrix."""
    dim, n_out = draw(st.integers(1, 3)), draw(st.sampled_from([1, 3]))
    sizes = draw(st.lists(st.integers(1, 30), min_size=1, max_size=3))
    n_target, n_query = draw(st.integers(1, 15)), draw(st.integers(min_queries, 30))
    shared, own = draw(hyper), draw(hyper)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def domain(n, name):
        return Dataset(rng.normal(size=(n, dim)), rng.choice([-1.0, 1.0], size=(n, n_out)), name)

    sources = [train_expert(domain(n, f"s{k}"), shared) for k, n in enumerate(sizes)]
    target = train_expert(domain(n_target, "t"), own)
    return GpdeModel(sources, target), rng.normal(size=(n_query, dim))


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
