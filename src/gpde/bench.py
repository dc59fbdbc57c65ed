"""Benchmark protocol: train on sources, adapt to a growing target set, score.

A run has two phases.  **Train** lists every expert fit the run needs: per
set of sources, the pooled and the per-domain fit the methods ask for, and
per fold and target cardinality, the target fit on that fold's first n_t
training rows.  Synthetic folds regenerate their sources, so each has its
own source set; file-mode folds share one.  Growing the target schedule
never retrains the sources.  **Score** then predicts and scores every fold
with its trained experts.  Every method is a :class:`GpdeModel`
configuration, stated once in ``_METHODS``: its kind of source experts
(``pooled``, one expert on all source data; ``domains``, one expert per
source domain; or none), whether it has the expert fit on the target subset,
and its betas, where ``None`` is the model's default, uniform over the
experts present.

The fits are independent, and so are the folds once the experts exist, so
each phase is split over this process and children forked with
``os.fork``, one per usable CPU (:func:`_in_processes`).  Fits are shared
out longest first by the cube of their row counts, folds evenly.  Each
child inherits its inputs and pickles back its results; its warnings and
log records are issued in the caller and its exception is raised there.
Every process runs the same code on one BLAS thread, held once across
both phases, and fits each hyperparameter fit's two starts in turn on one
Python thread (:func:`gpde._blas.one_cpu`), as its processes already fill
every CPU; so the rows come out with the bits of a run in one process.
Where ``os.fork`` is missing or one CPU is usable, everything runs in the
calling process.

A source expert is conditioned on the target subset whenever the model has a
target expert, so ``gpa`` is the adapted pooled expert alone: its zero beta
switches the target expert's own prediction off exactly.  Methods over the
same experts (``gpa`` and ``gpde_ss``) share one :func:`predict` per
cardinality, and each fuses its per-expert predictions with its own betas.
A method without a target expert is scored once per fold.

Results are per-(method, cardinality, fold, metric) rows; aggregation is a
plain mean over folds.  Synthetic folds are independent regenerations of the
configured generator; file-based folds partition the target pool.
"""

from __future__ import annotations

import logging
import logging.handlers
import os
import pickle
import queue
import signal
import sys
import traceback
import warnings
from dataclasses import asdict, dataclass, replace
from typing import NamedTuple, NoReturn

import numpy as np

from ._blas import blas_threads, one_cpu, usable_cpus
from .data import ShiftConfig, _write_csv, config_hash, pca_apply, pca_fit, synth_shift
from .exceptions import ConfigError, InvalidInputError
from .experts import MODES, GpdeModel, fuse, hard_labels, predict, train_source_experts
from .gp_core import Dataset
from .metrics import classification_rate, multilabel_report

__all__ = ["METHODS", "BenchmarkSpec", "BenchRow", "BenchmarkResult", "run_benchmark",
           "write_result_table"]

logger = logging.getLogger(__name__)

# method: (source-expert kind, has a target expert, betas or None for uniform)
_METHODS = {
    "gp_source": ("pooled", False, None),
    "gp_target": (None, True, None),
    "gpa": ("pooled", True, (1.0, 0.0)),
    "gpde_ss": ("pooled", True, None),
    "gpde": ("domains", True, None),
}
METHODS = tuple(_METHODS)
METRICS = ("acc", "cr", "f1", "auc")


@dataclass(frozen=True)
class BenchmarkSpec:
    """What to run: methods, target-cardinality schedule, folds, metrics, mode."""

    methods: tuple[str, ...] = METHODS
    schedule: tuple[int, ...] = (10, 30, 50, 100)
    folds: int = 5
    metrics: tuple[str, ...] | None = None
    mode: str = "multilabel"
    seed: int = 0
    energy: float | None = 0.99

    def __post_init__(self):
        unknown = [m for m in self.methods if m not in METHODS]
        if unknown or not self.methods:
            raise ConfigError(f"methods must be a nonempty subset of {METHODS}, got {self.methods}")
        if not self.schedule or any(b <= a for a, b in zip(self.schedule, self.schedule[1:])):
            raise ConfigError(f"schedule must be strictly increasing, got {self.schedule}")
        if min(self.schedule) < 1:
            raise ConfigError("schedule entries must be >= 1")
        if self.folds < 1:
            raise ConfigError("folds must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be multilabel or multiclass, got {self.mode!r}")
        if self.metrics is not None:
            bad = [m for m in self.metrics if m not in METRICS]
            if bad or not self.metrics:
                raise ConfigError(f"metrics must be a nonempty subset of {METRICS}, "
                                  f"got {self.metrics}")
        if self.energy is not None and not 0.0 < self.energy <= 1.0:
            raise ConfigError("energy must be in (0, 1]")

    @property
    def metric_names(self) -> tuple[str, ...]:
        if self.metrics is not None:
            return self.metrics
        return ("cr", "acc") if self.mode == "multiclass" else ("f1", "auc", "acc")


class BenchRow(NamedTuple):
    method: str
    n_t: int
    fold: int
    metric: str
    value: float


@dataclass
class BenchmarkResult:
    spec: BenchmarkSpec
    rows: list[BenchRow]
    config_hash: str

    def summary(self) -> list[tuple[str, int, str, float]]:
        """Mean value over folds per (method, n_t, metric), in row order."""
        keyed: dict[tuple[str, int, str], list[float]] = {}
        for r in self.rows:
            keyed.setdefault((r.method, r.n_t, r.metric), []).append(r.value)
        return [(*key, float(np.mean(values))) for key, values in keyed.items()]

    def mean(self, method: str, n_t: int, metric: str) -> float:
        """The :meth:`summary` value of one (method, n_t, metric)."""
        value = {(m, n, k): v for m, n, k, v in self.summary()}.get((method, n_t, metric))
        if value is None:
            raise KeyError(f"no rows for ({method}, {n_t}, {metric})")
        return value


def _score(mean: np.ndarray, labels: np.ndarray, test: Dataset, spec: BenchmarkSpec) -> dict:
    values: dict[str, float] = {}
    need_report = any(m in spec.metric_names for m in ("f1", "auc"))
    report = multilabel_report(test.Y, labels, mean) if need_report else None
    for name in spec.metric_names:
        if name == "acc":
            values[name] = float(np.mean(labels == test.Y))
        elif name == "cr":
            if spec.mode == "multiclass":
                values[name] = classification_rate(np.argmax(mean, axis=1),
                                                   np.argmax(test.Y, axis=1))
            else:  # exact row match generalizes CR to multi-label
                values[name] = float(np.mean(np.all(labels == test.Y, axis=1)))
        elif name == "f1":
            values[name] = report.macro_f1
        elif name == "auc":
            values[name] = report.macro_auc
    return values


def _project(spec: BenchmarkSpec, sources: list[Dataset]):
    """``(projected sources, project)``: ``project`` applies the PCA projection
    fit on ``sources``, or is the identity without one."""
    projector = None
    if spec.energy is not None and sources:
        projector = pca_fit(np.concatenate([s.X for s in sources]), spec.energy)

    def project(d: Dataset) -> Dataset:
        return d if projector is None else Dataset(pca_apply(projector, d.X), d.Y, d.domain_id)

    return [project(s) for s in sources], project


def _corpora(spec: BenchmarkSpec, sources: list[Dataset], target_pool: Dataset | None,
             shift_cfg: ShiftConfig | None):
    """``(source sets, folds)``: the projected source sets, and per fold the
    index of its source set, its target training pool and its target test
    set, projected like that source set.  Synthetic folds each regenerate a
    corpus with its own source set; file folds share ``sources`` and
    partition ``target_pool``, fold i testing on slice i."""
    if shift_cfg is not None:
        seeds = np.random.SeedSequence(spec.seed).generate_state(spec.folds)
        corpora = [synth_shift(replace(shift_cfg, seed=int(s))) for s in seeds]
        raw_sets = [fold_sources for fold_sources, _, _ in corpora]
        splits = [(f, pool, test) for f, (_, pool, test) in enumerate(corpora)]
    else:
        perm = np.random.default_rng(np.random.SeedSequence([spec.seed, 1])).permutation(
            target_pool.n)
        parts = [perm[f::spec.folds] for f in range(spec.folds)]

        def rows(idx: np.ndarray, name: str) -> Dataset:
            return Dataset(target_pool.X[idx], target_pool.Y[idx], name)

        raw_sets = [sources]
        splits = [(0, rows(np.concatenate(parts[:f] + parts[f + 1:]), "target_train"),
                   rows(parts[f], "target_test")) for f in range(spec.folds)]
    source_sets, projections = zip(*(_project(spec, s) for s in raw_sets))
    return list(source_sets), [(s, projections[s](pool), projections[s](test))
                               for s, pool, test in splits]


class _ChildTraceback(Exception):
    """The traceback of an exception raised in a child, set as its cause."""

    def __str__(self) -> str:
        return self.args[0]


def _shares(costs: list[float], n: int) -> list[list[int]]:
    """Item indices per process, longest processing time first: each item in
    decreasing cost goes to the share with the least cost so far, the
    lowest-numbered on ties, so share 0 holds the costliest item.  Each share
    lists its items in item order."""
    shares: list[list[int]] = [[] for _ in range(n)]
    loads = [0.0] * n
    for i in sorted(range(len(costs)), key=lambda i: -costs[i]):
        least = loads.index(min(loads))
        shares[least].append(i)
        loads[least] += costs[i]
    return [sorted(share) for share in shares]


def _run_child(fn, items: list, read_fd: int, write_fd: int) -> NoReturn:
    """Run ``fn`` on ``items`` in a forked child and write ``(exception,
    traceback, results, warnings, log records)`` to ``write_fd``, the first
    two None unless ``fn`` raised.  Warnings are all recorded, for the
    parent's filters to judge; log records reaching the root logger are
    kept for the parent's handlers.  Never returns, so no exception reaches
    the parent's code in the child."""
    status = 1
    try:
        os.close(read_fd)
        records: queue.SimpleQueue = queue.SimpleQueue()
        logging.root.handlers = [logging.handlers.QueueHandler(records)]
        error, tb, results = None, None, []
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                results = [fn(item) for item in items]
            except BaseException as exc:  # noqa: BLE001  (handed to the parent)
                error, tb = exc, traceback.format_exc()
        logs = []
        while not records.empty():
            logs.append(records.get_nowait())
        with os.fdopen(write_fd, "wb") as out:
            pickle.dump((error, tb, results,
                         [(w.message, w.category, w.filename, w.lineno) for w in caught], logs),
                        out)
        status = 0
    finally:
        os._exit(status)


def _warn_again(message, category, filename: str, lineno: int) -> None:
    """Issue a warning caught in a child as :func:`warnings.warn` would have
    here: through this process's filters and the once-per-location registry
    of the module at ``filename``."""
    module = next((vars(m) for m in list(sys.modules.values())
                   if getattr(m, "__file__", None) == filename), {})
    warnings.warn_explicit(message, category, filename, lineno, module=module.get("__name__"),
                           registry=module.setdefault("__warningregistry__", {}),
                           module_globals=module or None)


def _in_processes(fn, items: list, costs: list[float]) -> list:
    """``[fn(item) for item in items]``, the items split by :func:`_shares`
    over this process and forked children, one per usable CPU.

    This process runs share 0, the costliest item among it; each other share
    runs in a child forked with ``os.fork``, which inherits ``fn`` and the
    items and pickles back its results over a pipe.  The children's warnings
    and log records are issued here, child by child, after this process's
    share; a child's exception is raised here with its own type, its
    traceback as its cause.  Every child is reaped before this returns or
    raises, and killed first if its result is no longer wanted.  Everything
    runs on one BLAS thread per process, and inside
    :func:`gpde._blas.one_cpu`, so no fit in it starts a thread.
    """
    processes = 1  # where this platform cannot fork
    if hasattr(os, "fork"):
        processes = max(1, min(len(items), usable_cpus()))
    shares = _shares(costs, processes)
    results = [None] * len(items)
    children = []  # (pid, read end, share)
    try:
        with blas_threads(1), one_cpu():
            for share in shares[1:]:
                read_fd, write_fd = os.pipe()
                pid = os.fork()
                if pid == 0:
                    _run_child(fn, [items[i] for i in share], read_fd, write_fd)
                os.close(write_fd)
                children.append((pid, os.fdopen(read_fd, "rb"), share))
            for i in shares[0]:
                results[i] = fn(items[i])
            for pid, reader, share in children:
                payload = reader.read()
                if not payload:
                    raise ChildProcessError(f"benchmark child {pid} ended without a result")
                error, tb, values, caught, logs = pickle.loads(payload)
                for record in logs:
                    logging.getLogger(record.name).handle(record)
                for warning in caught:
                    _warn_again(*warning)
                if error is not None:
                    raise error from _ChildTraceback(tb)
                for i, value in zip(share, values):
                    results[i] = value
    except BaseException:
        for pid, _, _ in children:  # their results are no longer wanted
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, reader, _ in children:
            reader.close()
            os.waitpid(pid, 0)
    return results


def run_benchmark(
    spec: BenchmarkSpec,
    source_datasets: list[Dataset] | None = None,
    target_pool: Dataset | None = None,
    shift_cfg: ShiftConfig | None = None,
) -> BenchmarkResult:
    """Run the protocol on file data (``target_pool``, and ``source_datasets``
    if a method needs them) or on regenerated synthetic folds (``shift_cfg``,
    whose mode and seed ``spec`` sets before it is hashed or run), not both.

    The schedule is validated against the available target training pool,
    and file-mode folds against the target pool's rows, before any training
    starts.
    """
    synthetic = shift_cfg is not None
    if synthetic == (target_pool is not None) or (synthetic and source_datasets is not None):
        raise InvalidInputError("pass either --target (target_pool) and any --source "
                                "(source_datasets), or --synth/--config (shift_cfg), not both")
    needs_target = any(_METHODS[m][1] for m in spec.methods)
    needs_sources = any(_METHODS[m][0] for m in spec.methods)

    # schedule-vs-pool validation, before any training
    if synthetic:
        shift_cfg = replace(shift_cfg, mode=spec.mode, seed=ShiftConfig.seed)
        pool_size = shift_cfg.n_target_train
        if needs_sources and shift_cfg.n_source_domains < 1:
            raise ConfigError("requested methods need at least one source domain")
    else:
        if needs_sources and not source_datasets:
            raise ConfigError("requested methods need source datasets")
        if not 2 <= spec.folds <= target_pool.n:  # each fold trains and tests on rows
            raise ConfigError(f"file-mode folds must be from 2 to the target pool's "
                              f"{target_pool.n} rows, got {spec.folds}")
        pool_size = target_pool.n - int(np.ceil(target_pool.n / spec.folds))
    if needs_target and max(spec.schedule) > pool_size:
        raise ConfigError(
            f"schedule max {max(spec.schedule)} exceeds the target training pool ({pool_size})"
        )

    data = asdict(shift_cfg) if synthetic else {
        "sources": [d.domain_id for d in (source_datasets or [])],
        "target": target_pool.domain_id, "n": target_pool.n}
    hashed = config_hash({"spec": asdict(spec), "data": data})
    source_sets, folds = _corpora(spec, list(source_datasets or []), target_pool, shift_cfg)

    # train: every train_source_experts call of the run, as one list of jobs
    kinds = [k for k in ("pooled", "domains") if any(_METHODS[m][0] == k for m in spec.methods)]
    jobs = []
    for sources in source_sets:
        if "pooled" in kinds:
            jobs.append([Dataset(X=np.concatenate([s.X for s in sources]),
                                 Y=np.concatenate([s.Y for s in sources]),
                                 domain_id="source_pool")])
        if "domains" in kinds:
            jobs.append(sources)
    if needs_target:
        jobs.extend([Dataset(pool.X[:n_t], pool.Y[:n_t], domain_id="target_train")]
                    for _, pool, _ in folds for n_t in spec.schedule)
    # one BLAS thread from the first fork to the last reap: restoring the
    # caller's count between the phases would restart OpenBLAS's threads
    with blas_threads(1):
        trained = iter(_in_processes(train_source_experts, jobs,
                                     [sum(d.n ** 3 for d in job) for job in jobs]))
        source_experts = [{None: [], **{kind: next(trained) for kind in kinds}}
                          for _ in source_sets]
        target_experts = [{n_t: next(trained)[0] if needs_target else None for n_t in spec.schedule}
                          for _ in folds]

        # score: one item per fold
        def score_fold(fold: int) -> list[BenchRow]:
            source_set, _, test = folds[fold]
            experts, rows, scores = source_experts[source_set], [], {}
            for n_t in spec.schedule:
                target_expert = target_experts[fold][n_t]
                predictions = {}  # (kind, has target): one predict, fused per method's betas
                for method in spec.methods:
                    kind, has_target, betas = _METHODS[method]
                    if method in scores and not has_target:  # ignores the target set
                        continue
                    model = GpdeModel(experts[kind], target_expert if has_target else None,
                                      betas, spec.mode)
                    if (kind, has_target) not in predictions:
                        predictions[kind, has_target] = predict(model, test.X)
                    p = predictions[kind, has_target]
                    mean, _ = fuse(p.per_expert_means, p.per_expert_variances, model.betas)
                    scores[method] = _score(mean, hard_labels(mean, spec.mode), test, spec)
                for method in spec.methods:
                    rows.extend(
                        BenchRow(method, n_t, fold, metric, value)
                        for metric, value in scores[method].items()
                    )
            return rows

        for fold, (source_set, pool, test) in enumerate(folds):
            logger.info("fold %d: %d source domains, pool %d, test %d",
                        fold, len(source_sets[source_set]), pool.n, test.n)
        rows = [row for fold_rows in _in_processes(score_fold, list(range(spec.folds)),
                                                    [1] * spec.folds)
                for row in fold_rows]
    return BenchmarkResult(spec=spec, rows=rows, config_hash=hashed)


def write_result_table(fh, result: BenchmarkResult) -> None:
    """Write the per-fold result rows as delimited text with embedded
    seed/config-hash comments."""
    _write_csv(fh, list(BenchRow._fields), ["%s"] * 4 + ["%.6f"], result.rows,
               [f"seed={result.spec.seed}", f"config_hash={result.config_hash}"])
