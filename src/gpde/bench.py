"""Benchmark protocol: train on sources, adapt to a growing target set, score.

The source models are trained once per set of sources: once per fold for
synthetic folds, which regenerate their sources, and once per run for
file-mode folds, which share them.  The target training set is then grown
through the requested cardinality schedule and every method is scored on the
held-out target test set.  Every method is a :class:`GpdeModel`
configuration (``pooled`` is one expert on all source data, ``target`` the
expert fit on the target subset, ``sources`` the per-domain experts):

    method     experts (sources; target)    betas
    gp_source  [pooled]; none               [1]
    gp_target  []; target                   [1]
    gpa        [pooled]; target             [1, 0]
    gpde_ss    [pooled]; target             [1/2, 1/2]
    gpde       sources; target              uniform 1/(S+1)

A source expert is conditioned on the target subset whenever the model has a
target expert, so ``gpa`` is the adapted pooled expert alone: its zero beta
switches the target expert's own prediction off exactly.  Methods over the
same experts (``gpa`` and ``gpde_ss``) share one :func:`predict` per
cardinality, and each fuses its per-expert predictions with its own betas.

Results are per-(method, cardinality, fold, metric) rows; aggregation is a
plain mean over folds.  Synthetic folds are independent regenerations of the
configured generator; file-based folds partition the target pool.
"""

from __future__ import annotations

import logging
from dataclasses import asdict, dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from .data import ShiftConfig, config_hash, pca_apply, pca_fit, synth_shift
from .exceptions import ConfigError, InvalidInputError
from .experts import (MODES, GpdeModel, fuse, hard_labels, predict, train_source_experts,
                      uniform_betas)
from .gp_core import Dataset, Expert, fit, train_expert
from .metrics import classification_rate, multilabel_report

__all__ = ["METHODS", "BenchmarkSpec", "BenchRow", "BenchmarkResult", "run_benchmark",
           "write_result_table"]

logger = logging.getLogger(__name__)

METHODS = ("gp_source", "gp_target", "gpa", "gpde_ss", "gpde")
METRICS = ("acc", "cr", "f1", "auc")

_TARGET_METHODS = {"gp_target", "gpa", "gpde_ss", "gpde"}
_POOLED_METHODS = {"gp_source", "gpa", "gpde_ss"}


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
            if bad:
                raise ConfigError(f"unknown metrics {bad}; choose from {METRICS}")
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
        order = []
        for r in self.rows:
            key = (r.method, r.n_t, r.metric)
            if key not in keyed:
                keyed[key] = []
                order.append(key)
            keyed[key].append(r.value)
        return [(m, n, met, float(np.mean(keyed[(m, n, met)]))) for m, n, met in order]

    def mean(self, method: str, n_t: int, metric: str) -> float:
        values = [r.value for r in self.rows
                  if r.method == method and r.n_t == n_t and r.metric == metric]
        if not values:
            raise KeyError(f"no rows for ({method}, {n_t}, {metric})")
        return float(np.mean(values))


def _to_classes(Y: np.ndarray) -> np.ndarray:
    return np.argmax(Y, axis=1)


def _score(mean: np.ndarray, labels: np.ndarray, test: Dataset, spec: BenchmarkSpec) -> dict:
    values: dict[str, float] = {}
    need_report = any(m in spec.metric_names for m in ("f1", "auc"))
    report = multilabel_report(test.Y, labels, mean) if need_report else None
    for name in spec.metric_names:
        if name == "acc":
            values[name] = float(np.mean(labels == test.Y))
        elif name == "cr":
            if spec.mode == "multiclass":
                values[name] = classification_rate(_to_classes(mean), _to_classes(test.Y))
            else:  # exact row match generalizes CR to multi-label
                values[name] = float(np.mean(np.all(labels == test.Y, axis=1)))
        elif name == "f1":
            values[name] = report.macro_f1
        elif name == "auc":
            values[name] = report.macro_auc
    return values


class _SourceSide(NamedTuple):
    """The PCA projection fit on the sources, and the source experts the
    methods need."""

    project: Callable[[Dataset], Dataset]
    pooled: Expert | None
    experts: list[Expert]


def _train_sources(spec: BenchmarkSpec, sources: list[Dataset]) -> _SourceSide:
    projector = None
    if spec.energy is not None and sources:
        projector = pca_fit(np.concatenate([s.X for s in sources]), spec.energy)

    def project(d: Dataset) -> Dataset:
        if projector is None:
            return d
        return Dataset(X=pca_apply(projector, d.X), Y=d.Y, domain_id=d.domain_id)

    sources = [project(s) for s in sources]
    pooled, experts = None, []
    if _POOLED_METHODS & set(spec.methods):
        data = Dataset(
            X=np.concatenate([s.X for s in sources]),
            Y=np.concatenate([s.Y for s in sources]),
            domain_id="source_pool",
        )
        pooled = train_expert(data, fit([data]))
    if "gpde" in spec.methods:
        experts = train_source_experts(sources)
    return _SourceSide(project, pooled, experts)


def _score_methods(models: dict, test: Dataset, spec: BenchmarkSpec) -> dict:
    """Scores per method of ``models`` {method: (source experts, target expert,
    betas)}.  Methods over the same experts share one :func:`predict` and
    differ only in the betas that fuse its per-expert predictions."""
    predictions = {}
    scores = {}
    for method, (experts, target, betas) in models.items():
        key = (tuple(map(id, experts)), id(target))
        if key not in predictions:
            predictions[key] = predict(GpdeModel(experts, target, betas, mode=spec.mode), test.X)
        p = predictions[key]
        mean, _ = fuse(p.per_expert_means, p.per_expert_variances, betas)
        scores[method] = _score(mean, hard_labels(mean, spec.mode), test, spec)
    return scores


def _folds(spec: BenchmarkSpec, sources: list[Dataset], target_pool: Dataset | None,
           shift_cfg: ShiftConfig | None):
    """``(source side, target training pool, target test set)`` per fold, the
    target sets projected by the side.  Synthetic folds regenerate the whole
    corpus from one seed each; file folds share ``sources`` and partition
    ``target_pool``, fold i testing on slice i and training on the rest."""
    if shift_cfg is not None:
        seeds = np.random.SeedSequence(spec.seed).generate_state(spec.folds)
        splits = (synth_shift(replace(shift_cfg, seed=int(s), mode=spec.mode)) for s in seeds)
    else:
        perm = np.random.default_rng(np.random.SeedSequence([spec.seed, 1])).permutation(
            target_pool.n)
        parts = [perm[f::spec.folds] for f in range(spec.folds)]

        def rows(idx: np.ndarray, name: str) -> Dataset:
            return Dataset(target_pool.X[idx], target_pool.Y[idx], name)

        splits = ((sources, rows(np.concatenate(parts[:f] + parts[f + 1:]), "target_train"),
                   rows(parts[f], "target_test")) for f in range(spec.folds))
    trained_on = side = None
    for fold, (fold_sources, pool, test) in enumerate(splits):
        if fold_sources is not trained_on:  # file folds share one list: trained once
            trained_on, side = fold_sources, _train_sources(spec, fold_sources)
        logger.info("fold %d: %d source domains, pool %d, test %d",
                    fold, len(fold_sources), pool.n, test.n)
        yield side, side.project(pool), side.project(test)


def run_benchmark(
    spec: BenchmarkSpec,
    source_datasets: list[Dataset] | None = None,
    target_pool: Dataset | None = None,
    shift_cfg: ShiftConfig | None = None,
) -> BenchmarkResult:
    """Run the protocol on file data (``source_datasets`` + ``target_pool``)
    or on independently regenerated synthetic folds (``shift_cfg``).

    The schedule is validated against the available target training pool
    before any training starts.
    """
    synthetic = shift_cfg is not None
    if synthetic == (source_datasets is not None or target_pool is not None):
        raise InvalidInputError("pass either source_datasets+target_pool or shift_cfg")
    needs_target = bool(_TARGET_METHODS & set(spec.methods))
    needs_sources = bool(_POOLED_METHODS & set(spec.methods)) or "gpde" in spec.methods

    # schedule-vs-pool validation, before any training
    if synthetic:
        pool_size = shift_cfg.n_target_train
        if needs_sources and shift_cfg.n_source_domains < 1:
            raise ConfigError("requested methods need at least one source domain")
    else:
        if target_pool is None:
            raise InvalidInputError("file mode needs a target pool")
        if needs_sources and not source_datasets:
            raise ConfigError("requested methods need source datasets")
        pool_size = target_pool.n - int(np.ceil(target_pool.n / spec.folds))
    if needs_target and max(spec.schedule) > pool_size:
        raise ConfigError(
            f"schedule max {max(spec.schedule)} exceeds the target training pool ({pool_size})"
        )

    data = asdict(shift_cfg) if synthetic else {
        "sources": [d.domain_id for d in (source_datasets or [])],
        "target": target_pool.domain_id, "n": target_pool.n}
    hashed = config_hash({"spec": asdict(spec), "data": data})
    rows: list[BenchRow] = []
    folds = _folds(spec, list(source_datasets or []), target_pool, shift_cfg)
    for fold, (side, pool, test) in enumerate(folds):
        scores = {}
        if "gp_source" in spec.methods:  # ignores the target set: scored once per fold
            scores = _score_methods({"gp_source": ([side.pooled], None, [1.0])}, test, spec)
        for n_t in spec.schedule:
            target = Dataset(pool.X[:n_t], pool.Y[:n_t], domain_id="target_train")
            target_expert = train_expert(target, fit([target])) if needs_target else None
            models = {  # method: (source experts, target expert, betas)
                "gp_target": ([], target_expert, [1.0]),
                "gpa": ([side.pooled], target_expert, [1.0, 0.0]),
                "gpde_ss": ([side.pooled], target_expert, uniform_betas(2)),
                "gpde": (side.experts, target_expert, uniform_betas(len(side.experts) + 1)),
            }
            scores.update(_score_methods({m: models[m] for m in spec.methods if m in models},
                                         test, spec))
            for method in spec.methods:
                rows.extend(
                    BenchRow(method, n_t, fold, metric, value)
                    for metric, value in scores[method].items()
                )
    return BenchmarkResult(spec=spec, rows=rows, config_hash=hashed)


def write_result_table(fh, result: BenchmarkResult) -> None:
    """Write the per-fold result rows as delimited text with embedded
    seed/config-hash comments."""
    fh.write(f"# seed={result.spec.seed}\n")
    fh.write(f"# config_hash={result.config_hash}\n")
    fh.write("method,n_t,fold,metric,value\n")
    for r in result.rows:
        fh.write(f"{r.method},{r.n_t},{r.fold},{r.metric},{r.value:.6f}\n")
