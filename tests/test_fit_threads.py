"""A fit's two L-BFGS-B starts on two Python threads: the bits of a fit on
one thread, subnormals flushed in both, and nothing left behind."""

import logging
import os
import sys
import threading
import warnings
from dataclasses import fields

import numpy as np
import pytest

import gpde.gp_core as gp_core
from gpde import (Dataset, Hyperparams, InvalidInputError, ShiftConfig, fit, fit_detailed,
                  pca_apply, pca_fit, synth_shift)
from gpde import _blas

from conftest import protocol_pooled_source

FENV = _blas._find_fenv()
needs_flush = pytest.mark.skipif(not FENV, reason="subnormals cannot be flushed here")


def shared_sources() -> list[Dataset]:
    """The serve and cli workloads' shared source fit: 5 x 120 rows, projected."""
    sources, _, _ = synth_shift(ShiftConfig())
    project = pca_fit(np.concatenate([s.X for s in sources]), 0.99)
    return [Dataset(pca_apply(project, s.X), s.Y, s.domain_id) for s in sources]


def tiny_target() -> list[Dataset]:
    """A 4-row target whose fit stops ABNORMAL, unconverged, so ``fit`` warns."""
    _, train, _ = synth_shift(ShiftConfig(n_source_domains=1, samples_per_domain=5,
                                          n_target_train=10, n_target_test=5, seed=4))
    return [Dataset(train.X[:4], train.Y[:4], "target_train")]


FITS = {"pooled-300": lambda: [protocol_pooled_source()], "shared-5x120": shared_sources,
        "tiny-target": tiny_target}


def on_cpus(monkeypatch, n: int) -> None:
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def record_lml_threads(monkeypatch) -> list:
    """The Python thread of every objective evaluation from now on."""
    seen = []
    real = gp_core._lml
    monkeypatch.setattr(gp_core, "_lml",
                        lambda *args: seen.append(threading.get_ident()) or real(*args))
    return seen


@pytest.mark.parametrize("name", FITS)
def test_two_threads_give_the_bits_of_one(name, monkeypatch):
    """Every FitResult field but the wall time, and the warning text; the
    tiny target is run on two threads by lowering the row threshold."""
    datasets = FITS[name]()
    monkeypatch.setattr(gp_core, "THREAD_MIN_ROWS", 1)
    real = gp_core.fit_detailed

    def run(cpus: int):
        on_cpus(monkeypatch, cpus)
        results, threads = [], record_lml_threads(monkeypatch)
        monkeypatch.setattr(gp_core, "fit_detailed",
                            lambda ds: results.append(real(ds)) or results[-1])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fit(datasets)
        return results[0], len(set(threads)), [str(w.message) for w in caught]

    two, two_threads, two_warned = run(2)
    one, one_threads, one_warned = run(1)
    assert (two_threads, one_threads) == (2, 1)
    for f in fields(gp_core.FitResult):
        if f.name != "seconds":
            assert getattr(two, f.name) == getattr(one, f.name), f.name
    assert two_warned == one_warned
    assert bool(two_warned) == (name == "tiny-target")


def test_small_fits_stay_on_one_thread(monkeypatch, serve_model):
    on_cpus(monkeypatch, 2)
    threads = record_lml_threads(monkeypatch)
    target, n = serve_model[0].target.data, gp_core.THREAD_MIN_ROWS - 1
    fit_detailed([Dataset(target.X[:n], target.Y[:n])])
    assert len(set(threads)) == 1


def test_fit_record_is_logged(monkeypatch, caplog, serve_model):
    """One DEBUG line per fit, naming the path that ran."""
    target = serve_model[0].target.data  # 100 rows
    caplog.set_level(logging.DEBUG, logger="gpde.gp_core")
    for cpus, path in ((2, "starts on 2 threads"), (1, "starts on 1 thread")):
        on_cpus(monkeypatch, cpus)
        caplog.clear()
        with warnings.catch_warnings(record=True):
            hyper = fit([target])
        lines = [r.getMessage() for r in caplog.records if r.name == "gpde.gp_core"]
        assert len(lines) == 1 and lines[0].endswith(path), lines
        assert lines[0].startswith("fit of domains ['target'] (N=100): ")
        for part in ("iterations", "evaluations", "converged", "max |gradient|", "won"):
            assert part in lines[0]
        assert isinstance(hyper, Hyperparams)


def flush_bits() -> int:
    """The calling thread's MXCSR FTZ|DAZ bits."""
    before = _blas._set_flush_bits(FENV, 0)
    _blas._set_flush_bits(FENV, before)
    return before


def caller_state():
    counts = [get() for _, get, _ in _blas._find_libraries()]
    return flush_bits(), _blas._depth, counts, threading.active_count()


@needs_flush
@pytest.mark.parametrize("bits", [0, _blas.FLUSH_BITS])
def test_both_threads_flush_and_the_caller_gets_its_state_back(bits, monkeypatch, serve_model):
    before_bits = flush_bits()
    _blas._set_flush_bits(FENV, bits)
    try:
        on_cpus(monkeypatch, 2)
        inside = []
        real = gp_core._lml

        def probe(*args):
            inside.append((threading.get_ident(), flush_bits(), sys.float_info.min * 0.5))
            return real(*args)

        monkeypatch.setattr(gp_core, "_lml", probe)
        target = serve_model[0].target.data
        before = caller_state()
        fit_detailed([target])
        assert len({ident for ident, _, _ in inside}) == 2
        assert {(b, half) for _, b, half in inside} == {(_blas.FLUSH_BITS, 0.0)}
        assert caller_state() == before
        inside.clear()
        overflowing = Hyperparams(length_scale=1.0, signal_std=1e200, noise_std=1.0)
        monkeypatch.setattr(gp_core, "_default_init", lambda datasets: overflowing)
        with pytest.raises(InvalidInputError, match="non-finite at the initial"):
            fit_detailed([target])
        assert len({ident for ident, _, _ in inside}) == 2
        assert caller_state() == before
    finally:
        _blas._set_flush_bits(FENV, before_bits)


class StartFailed(Exception):
    """Raised in one start's objective."""


@pytest.mark.parametrize("where", ["worker", "caller"])
def test_an_exception_in_either_start_keeps_its_type(where, monkeypatch, serve_model):
    on_cpus(monkeypatch, 2)
    caller = threading.get_ident()
    real = gp_core._lml

    def failing(*args):
        if (threading.get_ident() == caller) == (where == "caller"):
            raise StartFailed(f"in the {where}")
        return real(*args)

    monkeypatch.setattr(gp_core, "_lml", failing)
    threads = threading.active_count()
    with pytest.raises(StartFailed, match=f"in the {where}$"):
        fit_detailed([serve_model[0].target.data])
    assert threading.active_count() == threads
    assert _blas._depth == 0


def test_concurrent_threaded_fits(monkeypatch, serve_model):
    """Six Python threads fit at once, each starting its own worker, with a
    short switch interval: every fit gives the one-thread bits, and the
    shared BLAS scope and thread count come back as they were."""
    target = serve_model[0].target.data
    on_cpus(monkeypatch, 1)
    expected = fit_detailed([target]).hyper
    on_cpus(monkeypatch, 2)
    threads_before, depth_before = threading.active_count(), _blas._depth
    results = []

    def fitter():
        for _ in range(3):
            results.append(fit_detailed([target]).hyper)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        fitters = [threading.Thread(target=fitter) for _ in range(6)]
        for t in fitters:
            t.start()
        for t in fitters:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in fitters)
    assert len(results) == 6 * 3 and all(h == expected for h in results)
    assert (threading.active_count(), _blas._depth) == (threads_before, depth_before)
