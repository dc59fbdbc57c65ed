"""Benchmark protocol: train on sources, adapt to a growing target set, score.

The source models are trained once per set of sources: inside the fold loop
for synthetic folds, which regenerate their sources, and once before it for
file-mode folds, which share them.  The target training set is then grown
through the requested cardinality schedule and every method is scored on the
held-out target test set.  Every method is a :class:`GpdeModel`
configuration, stated once in ``_METHODS``: its kind of source experts
(``pooled``, one expert on all source data; ``domains``, one expert per
source domain; or none), whether it has the expert fit on the target subset,
and its betas, where ``None`` is the model's default, uniform over the
experts present.

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
from dataclasses import asdict, dataclass, replace
from typing import NamedTuple

import numpy as np

from .data import ShiftConfig, _write_csv, config_hash, pca_apply, pca_fit, synth_shift
from .exceptions import ConfigError, InvalidInputError
from .experts import (MODES, GpdeModel, fuse, hard_labels, predict, train_source_experts,
                      train_target_expert)
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


def _train_sources(spec: BenchmarkSpec, sources: list[Dataset]):
    """``(project, experts)``: the PCA projection fit on ``sources`` and the
    source experts the methods need, by kind (``_METHODS``)."""
    projector = None
    if spec.energy is not None and sources:
        projector = pca_fit(np.concatenate([s.X for s in sources]), spec.energy)

    def project(d: Dataset) -> Dataset:
        return d if projector is None else Dataset(pca_apply(projector, d.X), d.Y, d.domain_id)

    sources = [project(s) for s in sources]
    kinds = {_METHODS[m][0] for m in spec.methods}
    experts = {None: []}
    if "pooled" in kinds:
        data = Dataset(
            X=np.concatenate([s.X for s in sources]),
            Y=np.concatenate([s.Y for s in sources]),
            domain_id="source_pool",
        )
        experts["pooled"] = train_source_experts([data])
    if "domains" in kinds:
        experts["domains"] = train_source_experts(sources)
    return project, experts


def _folds(spec: BenchmarkSpec, sources: list[Dataset], target_pool: Dataset | None,
           shift_cfg: ShiftConfig | None):
    """``(source experts by kind, target training pool, target test set)`` per
    fold, the target sets projected like the sources.  Synthetic folds each
    regenerate and train a corpus; file folds share ``sources``, trained once,
    and partition ``target_pool``, fold i testing on slice i."""
    if shift_cfg is not None:
        seeds = np.random.SeedSequence(spec.seed).generate_state(spec.folds)
        corpora = (synth_shift(replace(shift_cfg, seed=int(s))) for s in seeds)
        splits = ((fold_sources, *_train_sources(spec, fold_sources), pool, test)
                  for fold_sources, pool, test in corpora)
    else:
        trained = _train_sources(spec, sources)
        perm = np.random.default_rng(np.random.SeedSequence([spec.seed, 1])).permutation(
            target_pool.n)
        parts = [perm[f::spec.folds] for f in range(spec.folds)]

        def rows(idx: np.ndarray, name: str) -> Dataset:
            return Dataset(target_pool.X[idx], target_pool.Y[idx], name)

        splits = ((sources, *trained,
                   rows(np.concatenate(parts[:f] + parts[f + 1:]), "target_train"),
                   rows(parts[f], "target_test")) for f in range(spec.folds))
    for fold, (fold_sources, project, experts, pool, test) in enumerate(splits):
        logger.info("fold %d: %d source domains, pool %d, test %d",
                    fold, len(fold_sources), pool.n, test.n)
        yield experts, project(pool), project(test)


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
    rows: list[BenchRow] = []
    folds = _folds(spec, list(source_datasets or []), target_pool, shift_cfg)
    for fold, (experts, pool, test) in enumerate(folds):
        scores = {}
        for n_t in spec.schedule:
            target = Dataset(pool.X[:n_t], pool.Y[:n_t], domain_id="target_train")
            target_expert = train_target_expert(target) if needs_target else None
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
    return BenchmarkResult(spec=spec, rows=rows, config_hash=hashed)


def write_result_table(fh, result: BenchmarkResult) -> None:
    """Write the per-fold result rows as delimited text with embedded
    seed/config-hash comments."""
    _write_csv(fh, list(BenchRow._fields), ["%s"] * 4 + ["%.6f"], result.rows,
               [f"seed={result.spec.seed}", f"config_hash={result.config_hash}"])
