import sys
import threading

import numpy as np
import pytest

import gpde.experts as experts
import gpde.gp_core as gp_core
from gpde import (Dataset, Hyperparams, InvalidInputError, ShiftConfig, expert_weights,
                  fit_detailed, kernel_matrix, pca_apply, pca_fit, predict, synth_shift,
                  train_gpde)
from gpde import _blas

from conftest import protocol_pooled_source

LIBS = _blas._find_libraries()
needs_openblas = pytest.mark.skipif(not LIBS, reason="no OpenBLAS thread control found")
FENV = _blas._find_fenv()
needs_flush = pytest.mark.skipif(not FENV, reason="subnormals cannot be flushed here")
HALF_TINY = 1.1125369292536007e-308  # sys.float_info.min * 0.5, a subnormal


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


@needs_openblas
def test_restores_count_after_return_and_exception(two_threads):
    with _blas.blas_threads(1):
        assert counts() == [1] * len(LIBS)
    assert counts() == [2] * len(LIBS)
    with pytest.raises(RuntimeError):
        with _blas.blas_threads(1):
            raise RuntimeError("inside")
    assert counts() == [2] * len(LIBS)


@needs_openblas
def test_nested_entry_keeps_one_thread_until_outermost_exit(two_threads):
    with _blas.blas_threads(1):
        with _blas.blas_threads(1):
            assert counts() == [1] * len(LIBS)
        assert counts() == [1] * len(LIBS)
    assert counts() == [2] * len(LIBS)


@needs_openblas
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
    lml = gp_core._lml

    def probe_lml(*args, **kwargs):
        seen_fit.append(counts())
        return lml(*args, **kwargs)

    monkeypatch.setattr(gp_core, "_lml", probe_lml)
    fit_detailed([model.target.data])
    assert seen_fit and all(c == [1] * len(LIBS) for c in seen_fit)
    assert counts() == [2] * len(LIBS)


@needs_openblas
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


@needs_openblas
def test_no_library_is_a_silent_no_op(two_threads, monkeypatch, recwarn):
    monkeypatch.setattr(_blas, "_find_libraries", lambda: [])
    monkeypatch.setattr(_blas, "_libs", None)
    with _blas.blas_threads(1):
        assert counts() == [2] * len(LIBS)
    assert counts() == [2] * len(LIBS)
    assert len(recwarn) == 0


@needs_openblas
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


@needs_openblas
def test_fits_agree_across_thread_counts(two_threads, serve_model, monkeypatch):
    """dpotri's last bits depend on the thread count; after the Newton finish
    the fitted hyperparameters do not, beyond rounding."""
    pooled = protocol_pooled_source()
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


@needs_openblas
def test_log_marginal_likelihood_is_the_fit_objective(two_threads, monkeypatch):
    """At the pooled N=300 optimum (length-scale 0.21) the public evaluation
    gives the in-fit objective's value and gradient bit for bit, though the
    caller runs two BLAS threads."""
    pooled = protocol_pooled_source()
    seen = []
    lml = gp_core._lml

    def probe(*args):
        out = lml(*args)
        seen.append((args[2], out))
        return out

    monkeypatch.setattr(gp_core, "_lml", probe)
    monkeypatch.setattr(gp_core, "MAX_ITER", 1)
    fit_detailed([pooled], init=Hyperparams(length_scale=0.21, signal_std=0.92, noise_std=0.39))
    h, (value, grad) = seen[0]  # the first evaluation is at init
    assert counts() == [2] * len(LIBS)
    public_value, public_grad = gp_core.log_marginal_likelihood(pooled, h)
    assert public_value == value and np.array_equal(public_grad, grad)


def flush_bits() -> int:
    """The calling thread's MXCSR FTZ|DAZ bits."""
    before = _blas._set_flush_bits(FENV, 0)
    _blas._set_flush_bits(FENV, before)
    return before


@pytest.fixture
def caller_bits():
    """The test may set the thread's FTZ|DAZ bits; they are restored after it."""
    before = flush_bits()
    yield
    _blas._set_flush_bits(FENV, before)


@needs_flush
@pytest.mark.parametrize("bits", [0, _blas.FLUSH_BITS])
def test_fit_restores_caller_flush_bits(caller_bits, bits, serve_model, monkeypatch):
    _blas._set_flush_bits(FENV, bits)
    inside = []
    lml = gp_core._lml

    def probe(*args):
        inside.append((flush_bits(), sys.float_info.min * 0.5))
        return lml(*args)

    monkeypatch.setattr(gp_core, "_lml", probe)
    target = serve_model[0].target.data
    fit_detailed([target])
    assert inside and set(inside) == {(_blas.FLUSH_BITS, 0.0)}
    assert flush_bits() == bits
    overflowing = Hyperparams(length_scale=1.0, signal_std=1e200, noise_std=1.0)
    with pytest.raises(InvalidInputError, match="non-finite at the initial"):
        fit_detailed([target], init=overflowing)
    assert flush_bits() == bits
    # under DAZ a subnormal operand compares as zero, so test against 0.0
    assert (sys.float_info.min * 0.5 != 0.0) == (bits == 0)


@needs_flush
def test_other_threads_keep_subnormals_during_a_fit(serve_model, monkeypatch):
    """MXCSR is per thread: a thread that was running before the fit began
    still computes subnormals while the fit has them flushed."""
    go, done, seen = threading.Event(), threading.Event(), {}

    def other():
        go.wait(timeout=60)
        seen["other"] = sys.float_info.min * 0.5
        done.set()

    worker = threading.Thread(target=other)
    worker.start()
    lml = gp_core._lml

    def probe(*args):
        if not go.is_set():
            seen["fit"] = sys.float_info.min * 0.5
            go.set()
            done.wait(timeout=60)
        return lml(*args)

    monkeypatch.setattr(gp_core, "_lml", probe)
    try:
        fit_detailed([serve_model[0].target.data])
    finally:
        go.set()
        worker.join(timeout=60)
    assert not worker.is_alive()
    assert seen == {"fit": 0.0, "other": HALF_TINY}


@needs_flush
def test_fit_without_flush_control_gives_same_bits(monkeypatch):
    """The protocol corpus's pooled N=300 fit ends at a length-scale where
    its kernel underflows; flushed or not, every result is the same."""
    pooled = protocol_pooled_source()
    flushed = fit_detailed([pooled])
    K = kernel_matrix(pooled.X, h=flushed.hyper)
    assert np.any((K > 0) & (K < np.finfo(float).tiny))
    monkeypatch.setattr(_blas, "_fenv", ())  # no MXCSR control found: the fit runs unflushed
    inside = []
    lml = gp_core._lml

    def probe(*args):
        inside.append(sys.float_info.min * 0.5)
        return lml(*args)

    monkeypatch.setattr(gp_core, "_lml", probe)
    plain = fit_detailed([pooled])
    assert inside and set(inside) == {HALF_TINY}
    for name in ("objective", "converged", "n_iter", "n_eval", "grad_max", "start", "trace",
                 "message"):
        assert getattr(flushed, name) == getattr(plain, name), name
    assert np.array_equal(flushed.hyper.to_log(), plain.hyper.to_log())
