import csv
import io
import json
import logging
import os
import re
import shutil
import subprocess
import sys
import threading
import warnings
from dataclasses import replace

import numpy as np
import pytest

import gpde
import gpde.bench as bench_mod
import gpde.cli as cli
import gpde.experts as experts_mod
import gpde.gp_core as gp_core
from gpde import _blas
from gpde import (
    BenchmarkSpec,
    ConfigError,
    Dataset,
    Hyperparams,
    NumericalError,
    ShiftConfig,
    load_dataset,
    load_shift_config,
    run_benchmark,
    save_dataset,
    save_expert_pool,
    save_shift_config,
    synth_shift,
    write_result_table,
)
from gpde.cli import build_parser, main

from conftest import with_config_hash

# a bundle less its sources section, which each case supplies
BUNDLE = {"kind": "gpde_model_bundle", "target": None, "betas": [1.0], "mode": "multilabel"}
DROP = object()  # in a pool's domain entry: leave this key out
SMALL_CFG = ShiftConfig(n_source_domains=2, samples_per_domain=40,
                        n_target_train=30, n_target_test=40, dims=2, seed=0)


class TestBenchmarkSpec:
    def test_defaults(self):
        spec = BenchmarkSpec()
        assert spec.schedule == (10, 30, 50, 100)
        assert spec.metric_names == ("f1", "auc", "acc")
        assert BenchmarkSpec(mode="multiclass").metric_names == ("cr", "acc")

    @pytest.mark.parametrize("kwargs", [
        dict(methods=("gp_src",)),
        dict(methods=()),
        dict(schedule=(10, 10)),
        dict(schedule=(30, 10)),
        dict(schedule=()),
        dict(schedule=(0, 5)),
        dict(folds=0),
        dict(mode="binary"),
        dict(metrics=("rmse",)),
        dict(energy=0.0),
        dict(energy=1.5),
        dict(seed=-1),
        dict(metrics=()),
    ])
    def test_rejects_bad_config(self, kwargs):
        with pytest.raises(ConfigError):
            BenchmarkSpec(**kwargs)


class TestScheduleValidation:
    def _forbid_training(self, monkeypatch):
        """Patch the only bindings that train: ``train_source_experts``'s."""
        def boom(*a, **k):
            raise AssertionError("training ran before validation")
        monkeypatch.setattr(experts_mod, "fit", boom)
        monkeypatch.setattr(experts_mod, "train_expert", boom)

    def test_synthetic_pool_checked_before_training(self, monkeypatch):
        self._forbid_training(monkeypatch)
        spec = BenchmarkSpec(schedule=(10, 31), folds=2, metrics=("acc",))
        with pytest.raises(ConfigError, match="exceeds"):
            run_benchmark(spec, shift_cfg=SMALL_CFG)

    def test_file_pool_checked_before_training(self, monkeypatch, rng):
        self._forbid_training(monkeypatch)
        # 20 rows, 4 folds -> 15 available for training, so 16 must fail
        pool = Dataset(rng.normal(size=(20, 2)), rng.choice([-1.0, 1.0], size=(20, 1)), "t")
        src = Dataset(rng.normal(size=(10, 2)), rng.choice([-1.0, 1.0], size=(10, 1)), "s")
        spec = BenchmarkSpec(schedule=(16,), folds=4, metrics=("acc",))
        with pytest.raises(ConfigError, match="exceeds"):
            run_benchmark(spec, source_datasets=[src], target_pool=pool)

    @pytest.mark.parametrize("folds", [1, 21])
    def test_file_folds_checked_before_training(self, monkeypatch, rng, folds):
        """File folds partition the target pool: each needs a training and a
        test row, so 2 <= folds <= its 20 rows."""
        self._forbid_training(monkeypatch)
        pool = Dataset(rng.normal(size=(20, 2)), rng.choice([-1.0, 1.0], size=(20, 1)), "t")
        src = Dataset(rng.normal(size=(10, 2)), rng.choice([-1.0, 1.0], size=(10, 1)), "s")
        spec = BenchmarkSpec(methods=("gp_source",), schedule=(1,), folds=folds,
                             metrics=("acc",))
        with pytest.raises(ConfigError, match=f"target pool's 20 rows, got {folds}$"):
            run_benchmark(spec, source_datasets=[src], target_pool=pool)

    def test_multiclass_mode_checked_before_training(self, monkeypatch):
        """The spec's mode is applied to the generator config before any fold
        runs, so a config that cannot take it fails first."""
        self._forbid_training(monkeypatch)
        spec = BenchmarkSpec(schedule=(5,), folds=2, metrics=("acc",), mode="multiclass")
        with pytest.raises(ConfigError, match="n_outputs >= 2"):
            run_benchmark(spec, shift_cfg=replace(SMALL_CFG, n_outputs=1))

    def test_missing_sources_rejected(self):
        spec = BenchmarkSpec(methods=("gp_source",), schedule=(5,), metrics=("acc",))
        with pytest.raises(ConfigError, match="source"):
            run_benchmark(spec, shift_cfg=ShiftConfig(n_source_domains=0, dims=2))

    def test_exactly_one_data_source(self):
        spec = BenchmarkSpec(schedule=(5,), metrics=("acc",))
        with pytest.raises(Exception, match="either"):
            run_benchmark(spec)


class CallLog:
    """Calls recorded as JSON lines appended to a file, so that calls made in
    the forked children of a benchmark run count too; :meth:`read` lists
    them in the order written, which across processes is not defined."""

    def __init__(self, path):
        self.path = path

    def append(self, item) -> None:
        with open(self.path, "a") as fh:
            fh.write(json.dumps(item) + "\n")

    def read(self) -> list:
        if not os.path.exists(self.path):
            return []
        with open(self.path) as fh:
            return [json.loads(line) for line in fh]


def count_source_fits(monkeypatch, path) -> CallLog:
    """The domain ids of each hyperparameter fit on source data from now on,
    one list per fit, counted at ``fit_detailed`` in ``path``."""
    calls = CallLog(path)
    real = gp_core.fit_detailed

    def counting(datasets, *args, **kwargs):
        if datasets[0].domain_id != "target_train":
            calls.append([d.domain_id for d in datasets])
        return real(datasets, *args, **kwargs)

    monkeypatch.setattr(gp_core, "fit_detailed", counting)
    return calls


@pytest.fixture(scope="module")
def gpde_counted_runs(tmp_path_factory):
    """The same gpde-only benchmark at two schedule lengths, each with the
    source fits it ran."""
    base = dict(methods=("gpde",), folds=2, metrics=("acc",), seed=3, energy=None)
    runs = []
    for schedule in ((5, 10), (5, 10, 15)):
        with pytest.MonkeyPatch.context() as mp:
            fits = count_source_fits(mp, tmp_path_factory.mktemp("fits") / "fits.jsonl")
            runs.append((run_benchmark(BenchmarkSpec(schedule=schedule, **base),
                                       shift_cfg=SMALL_CFG), len(fits.read())))
    return runs


@pytest.fixture(scope="module")
def gpde_runs(gpde_counted_runs):
    """The same gpde-only benchmark at two schedule lengths."""
    return tuple(result for result, _ in gpde_counted_runs)


class TestFitBudget:
    def test_source_fits_equal_folds(self, gpde_counted_runs):
        (_, short), (_, longer) = gpde_counted_runs
        assert short == 2
        assert longer == 2

    def test_source_fits_independent_of_schedule(self, gpde_counted_runs):
        (_, short), (_, longer) = gpde_counted_runs
        assert short == longer

    def test_gp_source_constant_across_schedule(self, monkeypatch, tmp_path):
        spec = BenchmarkSpec(methods=("gp_source",), schedule=(5, 10), folds=1,
                             metrics=("acc",), seed=2)
        fits = count_source_fits(monkeypatch, tmp_path / "fits.jsonl")
        result = run_benchmark(spec, shift_cfg=SMALL_CFG)
        assert len(fits.read()) == 1
        assert result.mean("gp_source", 5, "acc") == result.mean("gp_source", 10, "acc")


class TestResultRows:
    def test_row_grid_complete(self, gpde_runs):
        short, _ = gpde_runs
        keys = {(r.method, r.n_t, r.fold, r.metric) for r in short.rows}
        assert keys == {("gpde", n, f, "acc") for n in (5, 10) for f in (0, 1)}
        assert all(0.0 <= r.value <= 1.0 for r in short.rows)

    def test_rerun_is_deterministic(self):
        spec = BenchmarkSpec(methods=("gp_target",), schedule=(6,), folds=2,
                             metrics=("acc",), seed=7)
        a = run_benchmark(spec, shift_cfg=SMALL_CFG)
        b = run_benchmark(spec, shift_cfg=SMALL_CFG)
        assert a.rows == b.rows
        assert a.config_hash == b.config_hash

    def test_config_hash_covers_the_spec(self):
        """Runs on the same data under different specs carry different hashes."""
        spec = BenchmarkSpec(methods=("gp_target",), schedule=(4,), folds=1,
                             metrics=("acc",), seed=7)
        a = run_benchmark(spec, shift_cfg=SMALL_CFG)
        b = run_benchmark(replace(spec, schedule=(4, 8)), shift_cfg=SMALL_CFG)
        assert a.config_hash != b.config_hash

    def test_hash_records_the_mode_that_ran(self):
        """Synthetic folds run the generator in the spec's mode and on the
        spec's seeds, so a config that names another mode or another seed
        gives the same rows and the same hash."""
        spec = BenchmarkSpec(methods=("gp_target",), schedule=(4,), folds=1,
                             metrics=("acc",), mode="multiclass", seed=7)
        a = run_benchmark(spec, shift_cfg=SMALL_CFG)
        b = run_benchmark(spec, shift_cfg=replace(SMALL_CFG, mode="multiclass"))
        c = run_benchmark(spec, shift_cfg=replace(SMALL_CFG, seed=7))
        assert a.rows == b.rows == c.rows
        assert a.config_hash == b.config_hash == c.config_hash == "a0caa83b5aaa"

    def test_default_mode_hash_is_pinned(self):
        """A multilabel spec on a multilabel config hashes as it always has."""
        spec = BenchmarkSpec(methods=("gp_target",), schedule=(4,), folds=1,
                             metrics=("acc",), seed=7)
        assert run_benchmark(spec, shift_cfg=SMALL_CFG).config_hash == "74100b73d6d0"

    def test_summary_means_over_folds(self, gpde_runs):
        short, _ = gpde_runs
        by_key = {}
        for r in short.rows:
            by_key.setdefault((r.method, r.n_t, r.metric), []).append(r.value)
        for method, n_t, metric, value in short.summary():
            assert value == pytest.approx(np.mean(by_key[(method, n_t, metric)]))

    def test_mean_raises_on_unknown_key(self, gpde_runs):
        short, _ = gpde_runs
        with pytest.raises(KeyError):
            short.mean("gpa", 5, "acc")


class TestResultTable:
    def test_format_and_schema(self, gpde_runs):
        short, _ = gpde_runs
        buf = io.StringIO()
        write_result_table(buf, short)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "# seed=3"
        assert lines[1] == f"# config_hash={short.config_hash}"
        assert lines[2] == "method,n_t,fold,metric,value"
        assert len(lines) == 3 + len(short.rows)
        method, n_t, fold, metric, value = lines[3].split(",")
        assert method == "gpde" and metric == "acc"
        assert int(n_t) in (5, 10) and int(fold) in (0, 1)
        assert len(value.split(".")[1]) == 6


class TestFileMode:
    def test_file_benchmark_runs(self, rng, monkeypatch, tmp_path):
        sources, pool, _ = synth_shift(SMALL_CFG)
        spec = BenchmarkSpec(methods=("gp_target", "gpa"), schedule=(5, 10),
                             folds=2, metrics=("acc",), seed=1)
        fits = count_source_fits(monkeypatch, tmp_path / "fits.jsonl")
        result = run_benchmark(spec, source_datasets=sources, target_pool=pool)
        assert len(fits.read()) == 1
        assert len(result.rows) == 2 * 2 * 2
        # folds partition the pool, so fold values differ in general
        assert result.rows == run_benchmark(spec, source_datasets=sources,
                                            target_pool=pool).rows


class TestMethodTable:
    """Running methods together shares their experts and predictions but
    changes no score."""

    @pytest.fixture(scope="class")
    def file_data(self):
        sources, pool, _ = synth_shift(SMALL_CFG)
        return sources, pool

    def test_each_method_alone_gives_its_rows(self, file_data):
        sources, pool = file_data
        spec = BenchmarkSpec(schedule=(5, 10), folds=2, metrics=("acc", "f1"), seed=4)
        together = run_benchmark(spec, source_datasets=sources, target_pool=pool).rows
        for method in bench_mod.METHODS:
            alone = run_benchmark(replace(spec, methods=(method,)), source_datasets=sources,
                                  target_pool=pool).rows
            assert alone == [r for r in together if r.method == method]

    def test_predict_calls_per_fold(self, file_data, monkeypatch, tmp_path):
        """gp_source is predicted once per fold; gpa and gpde_ss share one
        predict per cardinality, and gp_target and gpde take one each."""
        sources, pool = file_data
        calls = CallLog(tmp_path / "predict.jsonl")
        real = bench_mod.predict
        monkeypatch.setattr(bench_mod, "predict",
                            lambda model, X: calls.append(model.n_experts) or real(model, X))
        spec = BenchmarkSpec(schedule=(5, 10, 15), folds=2, metrics=("acc",), seed=4)
        run_benchmark(spec, source_datasets=sources, target_pool=pool)
        assert len(calls.read()) == spec.folds * (1 + 3 * len(spec.schedule))


class TestSourceFitsRun:
    """Hyperparameter fits actually run on source data, counted at ``fit_detailed``."""

    def test_file_folds_share_one_source_training(self, monkeypatch, tmp_path):
        sources, pool, _ = synth_shift(SMALL_CFG)
        calls = count_source_fits(monkeypatch, tmp_path / "fits.jsonl")
        spec = BenchmarkSpec(schedule=(5, 10), folds=3, metrics=("acc",), seed=2)
        result = run_benchmark(spec, source_datasets=sources, target_pool=pool)
        fits = calls.read()
        assert len(fits) == 2  # pooled + shared
        # fits run in several processes, so the order between them is not defined
        assert sorted(fits) == sorted([["source_pool"], [s.domain_id for s in sources]])
        assert {r.fold for r in result.rows} == {0, 1, 2}

    def test_synthetic_folds_train_their_own_sources(self, monkeypatch, tmp_path):
        calls = count_source_fits(monkeypatch, tmp_path / "fits.jsonl")
        spec = BenchmarkSpec(schedule=(5,), folds=2, metrics=("acc",), seed=2)
        run_benchmark(spec, shift_cfg=SMALL_CFG)
        assert len(calls.read()) == 2 * 2


def on_cpus(monkeypatch, n: int) -> list:
    """Make ``n`` CPUs usable to benchmark runs from now on; the returned list
    gets an entry per ``os.fork`` this process makes."""
    forks = []
    real_fork = os.fork
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
    return forks


def float_environment():
    """The OpenBLAS thread counts, open ``blas_threads`` scopes and MXCSR
    FTZ|DAZ bits of this process, as tests/test_blas.py reads them."""
    fenv = _blas._find_fenv()
    bits = None
    if fenv:
        bits = _blas._set_flush_bits(fenv, 0)
        _blas._set_flush_bits(fenv, bits)
    return [get() for _, get, _ in _blas._find_libraries()], _blas._depth, bits


@pytest.fixture
def leaves_no_trace():
    """Fail if the test changes the float environment, or leaves a Python
    thread or a child process."""
    before = float_environment(), threading.active_count()
    yield
    assert (float_environment(), threading.active_count()) == before
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


TINY_CFG = ShiftConfig(n_source_domains=2, samples_per_domain=15, n_target_train=12,
                       n_target_test=12, dims=2, seed=0)
TINY_SOURCES, TINY_TRAIN, TINY_TEST = synth_shift(TINY_CFG)
TINY_POOL = Dataset(np.vstack([TINY_TRAIN.X, TINY_TEST.X]), np.vstack([TINY_TRAIN.Y, TINY_TEST.Y]),
                    "target_pool")


class TestProcesses:
    """A run split over forked children gives the bits of a run in one process."""

    CASES = {
        "synthetic": (BenchmarkSpec(schedule=(6, 12), folds=3, seed=2),
                      dict(shift_cfg=TINY_CFG)),
        "multiclass": (BenchmarkSpec(schedule=(6, 12), folds=3, seed=1, mode="multiclass"),
                       dict(shift_cfg=replace(TINY_CFG, n_outputs=3))),
        "file-101": (BenchmarkSpec(schedule=(6, 12), folds=2, seed=101),
                     dict(source_datasets=TINY_SOURCES, target_pool=TINY_POOL)),
        "file-4103": (BenchmarkSpec(schedule=(6, 12), folds=2, seed=4103),
                      dict(source_datasets=TINY_SOURCES, target_pool=TINY_POOL)),
    }

    # six target fits, two per process on three CPUs
    TARGETS_ONLY = (BenchmarkSpec(methods=("gp_target",), schedule=(6, 12), folds=3, seed=2,
                                  metrics=("acc",)), dict(shift_cfg=TINY_CFG))

    @pytest.mark.parametrize("spec, data", CASES.values(), ids=CASES.keys())
    def test_same_bits_as_one_cpu(self, spec, data, monkeypatch, leaves_no_trace):
        """Rows, summary, hash and warnings; the tiny target fits warn."""
        def run(cpus: int):
            forks = on_cpus(monkeypatch, cpus)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                result = run_benchmark(spec, **data)
            return result, len(forks), sorted((str(w.message), w.lineno) for w in caught)

        split, split_forks, split_warnings = run(3)
        alone, alone_forks, alone_warnings = run(1)
        # two children for the fits, and one per fold after the first, up to two
        assert (split_forks, alone_forks) == (2 + min(spec.folds, 3) - 1, 0)
        assert split.rows == alone.rows
        assert split.summary() == alone.summary()
        assert split.config_hash == alone.config_hash
        assert split_warnings == alone_warnings

    @staticmethod
    def fail_fits_in(monkeypatch, where: str) -> None:
        """Make every fit raise NumericalError in the parent or in the children."""
        parent, real = os.getpid(), experts_mod.fit

        def fit(datasets):
            if (os.getpid() == parent) == (where == "parent"):
                raise NumericalError(f"fit failed in the {where}")
            return real(datasets)

        monkeypatch.setattr(experts_mod, "fit", fit)

    @pytest.mark.parametrize("where", ["child", "parent"])
    def test_fit_error_is_raised_with_its_type(self, where, monkeypatch, leaves_no_trace):
        self.fail_fits_in(monkeypatch, where)
        on_cpus(monkeypatch, 3)
        spec, data = self.CASES["synthetic"]
        with pytest.raises(NumericalError, match=f"in the {where}$") as raised, \
                warnings.catch_warnings(record=True):  # the fits that run may warn
            run_benchmark(spec, **data)
        if where == "child":  # the child's traceback is the cause
            assert "in fit" in str(raised.value.__cause__)

    def test_cli_exits_2_on_a_child_error(self, monkeypatch, tmp_path, capsys,
                                          leaves_no_trace):
        self.fail_fits_in(monkeypatch, "child")
        on_cpus(monkeypatch, 2)
        save_shift_config(tmp_path / "cfg.txt", SMALL_CFG)
        with warnings.catch_warnings(record=True):  # the fits that run may warn
            assert run_cli("bench", "--config", tmp_path / "cfg.txt", "--folds", 2,
                           "--nt", 5, "--methods", "gpde", "--metrics", "acc") == 2
        assert capsys.readouterr().err == "error: fit failed in the child\n"

    def test_child_warnings_reach_the_caller(self, monkeypatch, leaves_no_trace):
        """Every fit is made to miss its tolerance; each process's fits then
        warn in the caller with the text and location of a one-process run,
        and through the caller's once-per-location registry."""
        real = gp_core.fit_detailed
        monkeypatch.setattr(gp_core, "fit_detailed",
                            lambda datasets: replace(real(datasets), converged=False))
        spec, data = self.TARGETS_ONLY

        def warned(cpus: int) -> list:
            on_cpus(monkeypatch, cpus)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                run_benchmark(spec, **data)
            return sorted((w.category.__name__, str(w.message), w.filename, w.lineno)
                          for w in caught)

        split = warned(3)
        assert len(split) == 3 * 2  # a target fit per fold and cardinality
        assert split == warned(1)
        assert {w[2] for w in split} == {experts_mod.__file__}
        # under "default", a second identical run finds every text in the registry
        on_cpus(monkeypatch, 3)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")
            run_benchmark(spec, **data)
            first = len(caught)
            run_benchmark(spec, **data)
        assert 0 < first == len(caught)

    def test_fits_start_no_thread(self, monkeypatch, tmp_path, leaves_no_trace):
        """The run's processes fill every CPU, so no fit, in the caller or in
        a child, runs its starts on two threads; alone, the same fits would."""
        monkeypatch.setattr(gp_core, "THREAD_MIN_ROWS", 1)
        started = CallLog(tmp_path / "threads.jsonl")
        real_start = threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start",
                            lambda thread: started.append(os.getpid()) or real_start(thread))
        forks = on_cpus(monkeypatch, 3)
        spec, data = self.CASES["synthetic"]
        with warnings.catch_warnings(record=True):  # the tiny target fits warn
            run_benchmark(spec, **data)
        assert forks and started.read() == []
        gpde.fit_detailed([TINY_TRAIN])
        assert started.read() == [os.getpid()]

    def test_child_log_records_reach_the_caller(self, monkeypatch, caplog, leaves_no_trace):
        """Each process's records reach the caller's handlers, the same
        records as a one-process run's; the fold lines come from the caller,
        in fold order."""
        real = experts_mod.fit

        def fit(datasets):
            logging.getLogger("gpde.experts").info("fit of N=%d", sum(d.n for d in datasets))
            return real(datasets)

        monkeypatch.setattr(experts_mod, "fit", fit)
        caplog.set_level(logging.INFO)
        spec, data = self.TARGETS_ONLY

        def logged(cpus: int) -> list:
            on_cpus(monkeypatch, cpus)
            caplog.clear()
            with warnings.catch_warnings(record=True):  # the tiny target fits warn
                run_benchmark(spec, **data)
            return [(r.name, r.getMessage(), r.process) for r in caplog.records]

        split, alone = logged(3), logged(1)
        assert len({pid for _, _, pid in split}) == 3
        assert sorted(m for _, m, _ in split) == sorted(m for _, m, _ in alone)
        folds = [(m, pid) for name, m, pid in split if name == "gpde.bench"]
        assert [m[:6] for m, _ in folds] == ["fold 0", "fold 1", "fold 2"]
        assert {pid for _, pid in folds} == {os.getpid()}


def run_cli(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    code = run_cli("synth", "--out", out, "--domains", 2, "--samples", 30,
                   "--target-train", 25, "--target-test", 20, "--dims", 2,
                   "--seed", 4)
    assert code == 0
    return out


class TestCliPipeline:
    def test_synth_writes_corpus(self, corpus):
        names = {p.name for p in corpus.iterdir()}
        assert names == {"source_0.csv", "source_1.csv", "target_train.csv",
                         "target_test.csv", "shift_config.txt"}
        first = (corpus / "source_0.csv").read_text().splitlines()[0]
        assert first.startswith("# seed=4")

    def test_synth_deterministic(self, corpus, tmp_path):
        assert run_cli("synth", "--out", tmp_path, "--domains", 2, "--samples", 30,
                       "--target-train", 25, "--target-test", 20, "--dims", 2,
                       "--seed", 4) == 0
        assert (tmp_path / "source_0.csv").read_text() == \
            (corpus / "source_0.csv").read_text()

    def test_config_file_overrides(self, tmp_path):
        """``synth --config F --seed 11`` keeps the file's values but the seed."""
        cfg = ShiftConfig(n_source_domains=1, samples_per_domain=12, n_target_train=9,
                          n_target_test=7, dims=2, shift_magnitude=1.25, seed=9)
        save_shift_config(tmp_path / "cfg.txt", cfg)
        out = tmp_path / "out"
        assert run_cli("synth", "--out", out, "--config", tmp_path / "cfg.txt", "--seed", 11) == 0
        assert load_shift_config(out / "shift_config.txt") == replace(cfg, seed=11)
        assert (out / "source_0.csv").read_text().startswith("# seed=11")

    def test_train_adapt_predict_weights(self, corpus, tmp_path):
        sources_json = tmp_path / "sources.json"
        target_json = tmp_path / "target.json"
        model_json = tmp_path / "model.json"
        assert run_cli("train-source", "--source", corpus / "source_0.csv",
                       corpus / "source_1.csv", "--out", sources_json) == 0
        assert run_cli("train-target", "--target", corpus / "target_train.csv",
                       "--out", target_json) == 0
        assert run_cli("adapt", "--source", sources_json, "--target", target_json,
                       "--out", model_json) == 0

        pred_csv = tmp_path / "pred.csv"
        assert run_cli("predict", "--model", model_json,
                       "--data", corpus / "target_test.csv", "--out", pred_csv) == 0
        with open(pred_csv) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 20
        assert set(rows[0]) == {"mean0", "mean1", "var0", "var1", "label0", "label1"}
        for row in rows:
            assert row["label0"] in ("-1", "1") and row["label1"] in ("-1", "1")
            assert float(row["var0"]) == float(row["var1"]) > 0.0

        weights_csv = tmp_path / "w.csv"
        assert run_cli("weights", "--model", model_json,
                       "--data", corpus / "target_test.csv", "--out", weights_csv) == 0
        lines = weights_csv.read_text().splitlines()
        assert lines[0] == "source_0,source_1,target_train"  # no field needs quoting
        W = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        assert W.shape == (20, 3)
        assert np.all(W >= 0.0)
        assert np.allclose(W.sum(axis=1), 1.0, atol=1e-8)

    def test_weights_header_reads_back_to_the_domain_ids(self, corpus, tmp_path):
        """Domain ids are CSV file stems, so a header field may hold a comma
        or a quote; it is quoted so that csv.reader reads it back."""
        names = ["src,a", 'src"b']
        for k, name in enumerate(names):
            shutil.copy(corpus / f"source_{k}.csv", tmp_path / f"{name}.csv")
        pool, model, out = tmp_path / "sources.json", tmp_path / "model.json", tmp_path / "w.csv"
        assert run_cli("train-source", "--source", *[tmp_path / f"{n}.csv" for n in names],
                       "--out", pool) == 0
        assert run_cli("adapt", "--source", pool, "--out", model) == 0
        assert run_cli("weights", "--model", model, "--data", corpus / "target_test.csv",
                       "--out", out) == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == names
        assert {len(r) for r in rows[1:]} == {2}

    def test_pool_does_not_read_the_training_csvs(self, corpus, tmp_path):
        """A pool reloads the experts that were trained: editing, then deleting,
        the source CSVs after train-source changes no prediction."""
        csvs = [tmp_path / f"source_{k}.csv" for k in range(2)]
        for path in csvs:
            shutil.copy(corpus / path.name, path)
        pool, model, pred = tmp_path / "sources.json", tmp_path / "model.json", tmp_path / "p.csv"
        assert run_cli("train-source", "--source", *csvs, "--out", pool) == 0
        assert run_cli("adapt", "--source", pool, "--out", model) == 0

        def predicted():
            assert run_cli("predict", "--model", model, "--data", corpus / "target_test.csv",
                           "--out", pred) == 0
            return np.loadtxt(pred, delimiter=",", skiprows=1)

        before = predicted()
        data = load_dataset(csvs[0])
        save_dataset(csvs[0], Dataset(data.X, -data.Y, data.domain_id))
        assert np.array_equal(predicted(), before)
        for path in csvs:
            path.unlink()
        assert np.array_equal(predicted(), before)

    def test_bundle_does_not_read_the_pools(self, corpus, tmp_path):
        """A bundle holds the model that was adapted: retraining its source pool
        on other CSVs and deleting its target pool after adapt changes no byte
        of predict's output."""
        sources, target = tmp_path / "sources.json", tmp_path / "target.json"
        model, pred = tmp_path / "model.json", tmp_path / "pred.csv"
        assert run_cli("train-source", "--source", corpus / "source_0.csv", "--out", sources) == 0
        assert run_cli("train-target", "--target", corpus / "target_train.csv",
                       "--out", target) == 0
        assert run_cli("adapt", "--source", sources, "--target", target, "--out", model) == 0

        def predicted() -> bytes:
            assert run_cli("predict", "--model", model, "--data", corpus / "target_test.csv",
                           "--out", pred) == 0
            return pred.read_bytes()

        before = predicted()
        assert run_cli("train-source", "--source", corpus / "source_0.csv",
                       corpus / "source_1.csv", "--out", sources) == 0
        target.unlink()
        assert predicted() == before

    def test_bench_file_mode(self, corpus, tmp_path):
        out = tmp_path / "res.csv"
        code = run_cli("bench", "--source", corpus / "source_0.csv",
                       corpus / "source_1.csv", "--target", corpus / "target_train.csv",
                       "--nt", "4,8", "--folds", 2, "--methods", "gp_source,gp_target",
                       "--metrics", "acc", "--out", out)
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[2] == "method,n_t,fold,metric,value"
        body = [line.split(",") for line in lines[3:]]
        assert len(body) == 2 * 2 * 2
        assert {r[0] for r in body} == {"gp_source", "gp_target"}
        assert {r[1] for r in body} == {"4", "8"}


def test_parser_built_once():
    assert build_parser() is build_parser()


def test_bench_defaults_are_the_spec_defaults(monkeypatch, tmp_path):
    specs = []

    def capture(spec, **data):
        specs.append(spec)
        return gpde.BenchmarkResult(spec, [], "0")

    monkeypatch.setattr(cli, "run_benchmark", capture)
    assert run_cli("bench", "--synth", "--out", tmp_path / "result.csv") == 0
    assert specs == [BenchmarkSpec()]


def test_verbose_cli_logs_each_csv_read_and_write(corpus, tmp_path):
    """``gpde -v`` shows one DEBUG line per CSV read and written: the path,
    rows x columns and the time."""
    model, data, pred = tmp_path / "model.json", corpus / "target_test.csv", tmp_path / "pred.csv"
    assert run_cli("train-target", "--target", corpus / "target_train.csv",
                   "--out", tmp_path / "t.json") == 0
    assert run_cli("adapt", "--source", tmp_path / "t.json", "--out", model) == 0
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [os.path.dirname(os.path.dirname(gpde.__file__)), os.environ.get("PYTHONPATH", "")])}
    log = subprocess.run([sys.executable, "-m", "gpde.cli", "-v", "predict", "--model", str(model),
                          "--data", str(data), "--out", str(pred)],
                         env=env, capture_output=True, text=True, check=True).stderr
    assert re.search(rf"DEBUG gpde.data: read {re.escape(str(data))}: 20 x 2 in \d+\.\d ms", log)
    assert re.search(rf"DEBUG gpde.data: wrote {re.escape(str(pred))}: 20 x 6 in \d+\.\d ms", log)


class TestCliErrors:
    def test_missing_file_exit_code(self, tmp_path):
        assert run_cli("predict", "--model", tmp_path / "nope.json",
                       "--data", tmp_path / "nope.csv") == 2

    def test_bench_requires_one_data_source(self, corpus, capsys):
        """Every data flag given reaches run_benchmark, whose rule refuses any
        mix of file and synthetic data, and no data, before a fold runs."""
        for data in [("--synth", "--target", "target_train.csv"),
                     ("--synth", "--source", "source_0.csv"),
                     ("--config", "shift_config.txt", "--source", "source_0.csv"),
                     ("--source", "source_0.csv"),
                     ()]:
            argv = [corpus / a if a.endswith((".csv", ".txt")) else a for a in data]
            assert run_cli("bench", *argv, "--folds", 2, "--nt", 5, "--methods", "gp_target",
                           "--metrics", "acc") == 2, data
            assert "either --target" in capsys.readouterr().err

    def test_bench_empty_metrics_is_config_error(self, corpus, capsys):
        code = run_cli("bench", "--source", corpus / "source_0.csv",
                       "--target", corpus / "target_train.csv", "--folds", 2, "--nt", 5,
                       "--methods", "gp_target", "--metrics", "")
        assert code == 2
        assert capsys.readouterr().err.startswith("error: metrics must be a nonempty subset")

    def test_bench_schedule_exceeding_pool_is_config_error(self, corpus):
        code = run_cli("bench", "--config", corpus / "shift_config.txt",
                       "--nt", "30", "--folds", 2, "--methods", "gp_target",
                       "--metrics", "acc")
        assert code == 2

    @pytest.mark.parametrize("folds", [1, 26])
    def test_bench_file_fold_count_is_config_error(self, corpus, capsys, folds):
        code = run_cli("bench", "--source", corpus / "source_0.csv",
                       "--target", corpus / "target_train.csv", "--nt", "1",
                       "--methods", "gp_source", "--folds", folds, "--metrics", "acc")
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: file-mode folds must be from 2 to the target pool's 25 rows, got {folds}\n")

    @pytest.mark.parametrize("nt", ["10,abc", "5.5"])
    def test_bench_schedule_not_integers_is_config_error(self, capsys, nt):
        assert run_cli("bench", "--synth", "--nt", nt, "--folds", 1) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--nt" in err and nt.split(",")[-1] in err

    @pytest.mark.parametrize("command", [
        ("synth", "--out", "corpus"),
        ("bench", "--synth", "--folds", 1, "--nt", 5),
    ], ids=["synth", "bench"])
    def test_negative_seed_is_config_error(self, tmp_path, capsys, command):
        argv = [tmp_path / a if a == "corpus" else a for a in command]
        assert run_cli(*argv, "--seed", -1) == 2
        assert "seed must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, field", [("--shift", "shift_magnitude"),
                                             ("--complexity", "label_complexity")])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_shift_config_is_config_error(self, tmp_path, capsys, flag, field,
                                                     value):
        assert run_cli("synth", "--out", tmp_path / "corpus", flag, value) == 2
        assert capsys.readouterr().err.startswith(f"error: {field} must be finite")

    @pytest.mark.parametrize("flag, field", [("--samples", "samples_per_domain"),
                                             ("--domains", "n_source_domains")])
    def test_count_numpy_cannot_size_is_config_error(self, tmp_path, capsys, flag, field):
        assert run_cli("synth", "--out", tmp_path / "corpus", flag, 99999999999999999999) == 2
        assert capsys.readouterr().err.startswith(f"error: {field} = 99999999999999999999 ")
        assert not (tmp_path / "corpus").exists()

    def test_bench_on_non_finite_data_is_an_error(self, tmp_path, capsys):
        rows = [f"{0.1 * i},{-0.2 * i},{(-1) ** i}" for i in range(12)]
        (tmp_path / "t.csv").write_text("\n".join(["f0,f1,y0", *rows]) + "\n")
        rows[3] = "nan,0.5,1"
        (tmp_path / "s.csv").write_text("\n".join(["f0,f1,y0", *rows]) + "\n")
        assert run_cli("bench", "--source", tmp_path / "s.csv", "--target", tmp_path / "t.csv",
                       "--folds", 2, "--nt", 2, "--methods", "gpde", "--metrics", "acc") == 2
        assert "contains NaN/Inf" in capsys.readouterr().err

    @pytest.mark.parametrize("bundle, domain, length_scale", [
        ([1, 2], {}, 1.0),
        (BUNDLE, {"X": DROP}, 1.0),
        (BUNDLE, {"X": DROP, "Y": DROP, "path": "source_0.csv"}, 1.0),
        ({**BUNDLE, "betas": "x"}, {}, 1.0),
        ({**BUNDLE, "sources": "pool.json", "betas": None}, {}, 1.0),
        ({**BUNDLE, "sources": 5}, {}, 1.0),
        (BUNDLE, {}, "x"),
        (BUNDLE, {"X": [[0.1, 0.2], [0.3]]}, 1.0),
        (BUNDLE, {"X": [[0.1, "0.2"], [0.3, 0.4]]}, 1.0),
        (BUNDLE, {"X": [[0.1, float("nan")], [0.3, 0.4]]}, 1.0),
        (BUNDLE, {"X": [[0.1, float("inf")], [0.3, 0.4]]}, 1.0),
        (BUNDLE, {"X": [[0.1, 10**400], [0.3, 0.4]]}, 1.0),
        (BUNDLE, {"X": [[0.1, 0.2]]}, 1.0),
        (BUNDLE, {"Y": [[0.5, 1.0], [-1.0, 1.0]]}, 1.0),
        (BUNDLE, {"domain_id": 5}, 1.0),
        (BUNDLE, {}, 10**400),
        ({**BUNDLE, "betas": [10**400]}, {}, 1.0),
    ], ids=["json-array", "domain-without-x", "old-format-domain", "string-betas",
            "old-format-bundle", "numeric-sources", "string-hyperparameter", "ragged-x",
            "string-entry", "json-nan", "overflowing-float", "huge-int-entry",
            "x-y-row-mismatch", "fractional-label", "numeric-domain-id",
            "huge-int-hyperparameter", "huge-int-beta"])
    def test_predict_on_malformed_model_file(self, corpus, tmp_path, capsys, bundle,
                                             domain, length_scale):
        """A defect in a domain entry or the hyperparameters is met both in a
        bundle's sources (by ``predict``) and in a pool (by ``adapt``)."""
        domain = {"domain_id": "source_0", "X": [[0.1, 0.2], [0.3, 0.4]],
                  "Y": [[1.0, -1.0], [-1.0, 1.0]], **domain}
        section = {"domains": [{k: v for k, v in domain.items() if v is not DROP}],
                   "hyperparams": {"length_scale": length_scale, "signal_std": 1.0,
                                   "noise_std": 0.5}}
        in_domain = bundle is BUNDLE
        if isinstance(bundle, dict):
            bundle = {"sources": section, **bundle}
        files = {"model.json": bundle, "pool.json": {"kind": "gpde_expert_pool", **section}}
        for name, payload in files.items():
            # each file carries a valid config_hash, so the load reaches the defect;
            # 1e400 parses to the same inf as Infinity, so the hash still holds
            text = json.dumps(with_config_hash(payload) if isinstance(payload, dict) else payload)
            (tmp_path / name).write_text(text.replace("Infinity", "1e400"))
        # name: (command reading the file, what the error says when the defect is in a domain)
        runs = {"model.json": (("predict", "--model", tmp_path / "model.json",
                                "--data", corpus / "target_test.csv"), "malformed sources")}
        if in_domain:
            runs["pool.json"] = (("adapt", "--source", tmp_path / "pool.json",
                                  "--out", tmp_path / "out.json"),
                                 "an old-format pool" if "path" in domain else "malformed pool file")
        for name, (argv, message) in runs.items():
            assert run_cli(*argv) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: {tmp_path / name}: ")
            assert message in err or not in_domain

    @pytest.mark.parametrize("kind", ["pool", "bundle"])
    def test_old_format_file_names_the_command_to_rerun(self, corpus, tmp_path, capsys, kind):
        """Pools named CSV files, and bundles pool files, before each held its arrays."""
        old = tmp_path / "old.json"
        if kind == "pool":
            payload = {"kind": "gpde_expert_pool", "seed": 0,
                       "hyperparams": {"log_length_scale": 0.0, "log_signal_std": 0.0,
                                       "log_noise_std": -1.0},
                       "domains": [{"domain_id": "source_0", "path": "source_0.csv"}]}
            argv, rerun = ("adapt", "--source", old, "--out", tmp_path / "m.json"), \
                "train-source/train-target"
        else:
            payload = {"kind": "gpde_model_bundle", "sources": "sources.json",
                       "target": "target.json", "betas": None, "mode": "multilabel", "seed": 0}
            argv, rerun = ("predict", "--model", old, "--data", corpus / "target_test.csv"), \
                "adapt"
        old.write_text(json.dumps(with_config_hash(payload)))
        assert run_cli(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {old}: an old-format {kind}")
        assert err.rstrip().endswith(f"run {rerun} again")

    @pytest.mark.parametrize("kind", ["pool", "bundle"])
    def test_log_space_hyperparameters_name_the_command_to_rerun(self, corpus, tmp_path,
                                                                 capsys, kind):
        """Pools and bundles stored log-space hyperparameters before they
        stored the exact values."""
        old = tmp_path / "old.json"
        section = {"hyperparams": {"log_length_scale": 0.0, "log_signal_std": 0.0,
                                   "log_noise_std": -1.0},
                   "domains": [{"domain_id": "source_0", "X": [[0.1, 0.2], [0.3, 0.4]],
                                "Y": [[1.0, -1.0], [-1.0, 1.0]]}]}
        if kind == "pool":
            payload = {"kind": "gpde_expert_pool", "seed": 0, **section}
            argv, rerun = ("adapt", "--source", old, "--out", tmp_path / "m.json"), \
                "train-source/train-target"
        else:
            payload = {**BUNDLE, "sources": section, "seed": 0}
            argv, rerun = ("predict", "--model", old, "--data", corpus / "target_test.csv"), \
                "train-source/train-target and adapt"
        old.write_text(json.dumps(with_config_hash(payload)))
        assert run_cli(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {old}: old-format log-space hyperparameters")
        assert err.rstrip().endswith(f"run {rerun} again")

    def test_adapt_on_empty_source_pool_names_the_file(self, tmp_path, capsys):
        pool = tmp_path / "empty.json"
        save_expert_pool(pool, Hyperparams(1.0, 1.0, 0.1), [])
        assert run_cli("adapt", "--source", pool, "--out", tmp_path / "model.json") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {pool}: ") and "--source" in err
        assert not (tmp_path / "model.json").exists()

    def test_predict_on_edited_bundle_file(self, corpus, tmp_path, capsys):
        pool, model = tmp_path / "sources.json", tmp_path / "model.json"
        assert run_cli("train-source", "--source", corpus / "source_0.csv",
                       "--out", pool) == 0
        assert run_cli("adapt", "--source", pool, "--out", model) == 0
        payload = json.loads(model.read_text())
        payload["sources"]["hyperparams"]["length_scale"] += 0.1
        model.write_text(json.dumps(payload))
        capsys.readouterr()
        code = run_cli("predict", "--model", model, "--data", corpus / "target_test.csv")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {model}: config_hash")

    def test_adapt_on_edited_pool_file(self, corpus, tmp_path, capsys):
        pool = tmp_path / "sources.json"
        assert run_cli("train-source", "--source", corpus / "source_0.csv",
                       "--out", pool) == 0
        payload = json.loads(pool.read_text())
        payload["hyperparams"]["length_scale"] += 0.1
        pool.write_text(json.dumps(payload))
        capsys.readouterr()
        assert run_cli("adapt", "--source", pool, "--out", tmp_path / "model.json") == 2
        assert capsys.readouterr().err.startswith(f"error: {pool}: config_hash")
        assert not (tmp_path / "model.json").exists()

    def test_adapt_refuses_multi_domain_target(self, corpus, tmp_path, capsys):
        pool = tmp_path / "sources.json"
        assert run_cli("train-source", "--source", corpus / "source_0.csv",
                       corpus / "source_1.csv", "--out", pool) == 0
        capsys.readouterr()
        assert run_cli("adapt", "--source", pool, "--target", pool,
                       "--out", tmp_path / "model.json") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {pool}: ") and "exactly one domain" in err

    @pytest.mark.parametrize("command, name, content", [
        ("train-target", "bad.csv", b"f0,y0\n\xff\xfe,1\n"),
        ("train-target", "bad.csv", b"f0,y0\n" + b"1" * 131073 + b",1\n"),
        ("predict", "bad.json", b'{"kind": "\xff\xfe"}\n'),
        ("predict", "deep.json", b"[" * 100000 + b"]" * 100000),
        ("synth", "bad.txt", b"seed = \xff\xfe\n"),
    ], ids=["csv-invalid-utf8", "csv-oversized-field", "json-invalid-utf8",
            "json-too-deep", "config-invalid-utf8"])
    def test_unreadable_input_is_an_error_not_a_crash(self, corpus, tmp_path, capsys,
                                                       command, name, content):
        bad = tmp_path / name
        bad.write_bytes(content)
        argv = {
            "train-target": ("--target", bad, "--out", tmp_path / "t.json"),
            "predict": ("--model", bad, "--data", corpus / "target_test.csv"),
            "synth": ("--config", bad, "--out", tmp_path / "corpus"),
        }[command]
        assert run_cli(command, *argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and name in err

    def test_train_source_on_bad_csv(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("f0,y0\n0.1,0.5\n")
        assert run_cli("train-source", "--source", bad,
                       "--out", tmp_path / "p.json") == 2
