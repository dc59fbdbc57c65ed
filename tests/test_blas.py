import sys
import threading

import numpy as np
import pytest

import gpde.experts as experts
import gpde.gp_core as gp_core
from gpde import (Dataset, ShiftConfig, expert_weights, fit_detailed, pca_apply, pca_fit,
                  predict, synth_shift, train_gpde)
from gpde import _blas

LIBS = _blas._find_libraries()
pytestmark = pytest.mark.skipif(not LIBS, reason="no OpenBLAS thread control found")


def counts():
    return [get() for _, get, _ in LIBS]


@pytest.fixture
def two_threads():
    """Every library at 2 threads for the test, the caller's counts after it."""
    before = counts()
    for _, _, setter in LIBS:
        setter(2)
    yield
    for (_, _, setter), count in zip(LIBS, before):
        setter(count)


@pytest.fixture(scope="module")
def serve_model():
    """The benchmark's serve-sized model: 5 x 120 sources, 100 target rows."""
    sources, pool, test = synth_shift(ShiftConfig(n_target_test=300))
    target = Dataset(pool.X[:100], pool.Y[:100], "target")
    return train_gpde(sources, target), test.X


def test_restores_count_after_return_and_exception(two_threads):
    with _blas.blas_threads(1):
        assert counts() == [1] * len(LIBS)
    assert counts() == [2] * len(LIBS)
    with pytest.raises(RuntimeError):
        with _blas.blas_threads(1):
            raise RuntimeError("inside")
    assert counts() == [2] * len(LIBS)


def test_nested_entry_keeps_one_thread_until_outermost_exit(two_threads):
    with _blas.blas_threads(1):
        with _blas.blas_threads(1):
            assert counts() == [1] * len(LIBS)
        assert counts() == [1] * len(LIBS)
    assert counts() == [2] * len(LIBS)


def test_one_thread_inside_predict_and_fit(two_threads, serve_model, monkeypatch):
    model, X = serve_model
    seen = []
    fuse = experts.fuse

    def probe(*args, **kwargs):
        seen.append(counts())
        return fuse(*args, **kwargs)

    monkeypatch.setattr(experts, "fuse", probe)
    predict(model, X[:3])
    assert seen == [[1] * len(LIBS)]

    seen_fit = []
    lml_value = gp_core._lml_value

    def probe_lml(*args, **kwargs):
        seen_fit.append(counts())
        return lml_value(*args, **kwargs)

    monkeypatch.setattr(gp_core, "_lml_value", probe_lml)
    fit_detailed([model.target.data])
    assert seen_fit and all(c == [1] * len(LIBS) for c in seen_fit)
    assert counts() == [2] * len(LIBS)


def test_concurrent_entries_are_counted(two_threads):
    inside = []

    def worker():
        for _ in range(200):
            with _blas.blas_threads(1):
                inside.append(counts())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(inside) == 6 * 200 and all(c == [1] * len(LIBS) for c in inside)
    assert _blas._depth == 0 and counts() == [2] * len(LIBS)


def test_no_library_is_a_silent_no_op(two_threads, monkeypatch, recwarn):
    monkeypatch.setattr(_blas, "_find_libraries", lambda: [])
    monkeypatch.setattr(_blas, "_libs", None)
    with _blas.blas_threads(1):
        assert counts() == [2] * len(LIBS)
    assert counts() == [2] * len(LIBS)
    assert len(recwarn) == 0


def test_outputs_match_with_policy_off(two_threads, serve_model, monkeypatch):
    """Same labels, and numbers equal up to summation order: two OpenBLAS
    threads may add partial products in another order."""
    model, X = serve_model
    target = model.target.data

    def outputs():
        values = [fit_detailed([target]).hyper.to_log()]
        labels = []
        for m in (1, 300):
            fused = predict(model, X[:m])
            values += [fused.mean, fused.variance, expert_weights(model, X[:m])]
            labels.append(fused.labels)
        return values, labels

    on_values, on_labels = outputs()
    monkeypatch.setattr(_blas, "_libs", [])  # discovery found nothing: the policy is off
    off_values, off_labels = outputs()
    assert all(np.array_equal(a, b) for a, b in zip(on_labels, off_labels))
    assert all(np.allclose(a, b, rtol=1e-9, atol=1e-12) for a, b in zip(on_values, off_values))


def test_fits_agree_across_thread_counts(two_threads, serve_model, monkeypatch):
    """dpotri's last bits depend on the thread count; after the Newton finish
    the fitted hyperparameters do not, beyond rounding."""
    sources, _, _ = synth_shift(ShiftConfig(samples_per_domain=60))
    X = np.concatenate([s.X for s in sources])
    pooled = Dataset(pca_apply(pca_fit(X, 0.99), X), np.concatenate([s.Y for s in sources]),
                     "source_pool")  # the protocol workload's pooled N=300 fit
    # Fold 5's 100-row target of the acceptance benchmark: without the finish,
    # its L-BFGS-B stop moved by 4e-8 between one and two threads.
    seed = int(np.random.SeedSequence(0).generate_state(10)[5])
    sources, pool, _ = synth_shift(ShiftConfig(seed=seed))
    project = pca_fit(np.concatenate([s.X for s in sources]), 0.99)
    fold_target = Dataset(pca_apply(project, pool.X[:100]), pool.Y[:100], "target_train")
    fits = [pooled, serve_model[0].target.data, fold_target]

    on = [fit_detailed([d]).hyper.to_log() for d in fits]
    monkeypatch.setattr(_blas, "_libs", [])  # the policy is off: two threads inside the fit
    off = [fit_detailed([d]).hyper.to_log() for d in fits]
    for a, b in zip(on, off):
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(a))
