"""The benchmark's workloads and the closed loop that measures them.

Each workload is one client in one process that issues its next operation
only after the previous one returns.  Each isolates one cost of the method:

protocol  two folds of ``run_benchmark`` per operation, all five methods,
          schedule 10/30/50/100.  Hyperparameter fitting is most of it, and
          every adapted expert is built and used exactly once.
serve     ``train_gpde`` in set-up (5 x 120 source points, 100 target
          points), then a seeded mix of ``predict`` at M = 1, 300 and 3000
          and ``expert_weights`` at M = 300 against the one trained model.
          No fit runs; rebuilding the adapted experts on every call is most
          of a single-point request.
cli       ``gpde synth`` in set-up, then per operation the round trip
          ``train-source``, ``train-target`` (50 rows), ``adapt``,
          ``predict`` and ``weights`` (3000 rows) in-process through
          ``gpde.cli.main``.  The only workload where CSV parsing and the
          rebuild of experts on load carry real weight.

The source domains are a fixed corpus, ``ShiftConfig``'s seed 0; the
workload seed draws the target side: training rows, fold partitions and
query points.  The time of a fit follows its iteration count, which the
data moves by up to 4x (52 to 196 iterations for the pooled fit at the
default size), so sources drawn per seed would make run-to-run spread
reflect the data rather than the code.

Outputs are checked outside the timed region; a failed check counts the
operation as failed.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import os
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import gpde
import gpde.cli
from oracle import Oracle
from tracing import CLI_COMMANDS, Tracer

# Set-up is repeated at least this often, and until it has taken this long
# in total, so that short set-ups are timed over many repeats.
SETUP_REPEATS, SETUP_MIN_S, SETUP_MAX_REPEATS = 3, 1.0, 25


def _target_sample(pool, n: int, seed: int):
    """``n`` target training rows drawn from ``pool`` by ``seed``."""
    pick = np.random.default_rng(np.random.SeedSequence([seed, 1])).choice(pool.n, n, replace=False)
    return gpde.Dataset(pool.X[pick], pool.Y[pick], "target_train")


class Protocol:
    """Folds of the benchmark protocol on a fixed source corpus.

    ``run_benchmark`` in file mode: the seed partitions the target pool into
    the folds' training and test sets.  Sources have 60 points per domain
    rather than 120 so that a run holds several operations.
    """

    name = "protocol"
    primary = "folds"  # operation kind behind op_p50_ms and the tracing overhead
    window = 1  # operations whose counts are reported
    expected = ["run_benchmark", "pca_fit", "fit", "fit_detailed", "train_expert", "posterior",
                "kernel_matrix", "adapt.build", "adapt.posterior", "predict", "fuse",
                "hard_labels", "multilabel_report"]
    folds = 2  # per operation; the fewest file mode allows

    def __init__(self, seed: int, workdir: str, tiny: bool = False):
        self.seed = seed
        if tiny:
            self.cfg = gpde.ShiftConfig(n_source_domains=2, samples_per_domain=15,
                                        n_target_train=20, n_target_test=20)
            self.schedule = (4, 8)
        else:
            self.cfg = gpde.ShiftConfig(samples_per_domain=60)
            self.schedule = (10, 30, 50, 100)

    def setup(self) -> None:
        sources, train, test = gpde.synth_shift(self.cfg)
        self.sources = sources
        self.pool = gpde.Dataset(np.vstack([train.X, test.X]), np.vstack([train.Y, test.Y]),
                                 "target_pool")

    def ops(self):
        for i in itertools.count():
            yield int(np.random.SeedSequence([self.seed, 2, i]).generate_state(1)[0])

    def run(self, split_seed):
        spec = gpde.BenchmarkSpec(folds=self.folds, seed=split_seed, schedule=self.schedule)
        t0 = perf_counter()
        result = gpde.run_benchmark(spec, source_datasets=self.sources, target_pool=self.pool)
        return "folds", {"folds": perf_counter() - t0}, result

    def check(self, split_seed, result):
        spec = result.spec
        problems = []
        expected_rows = (len(spec.methods) * len(spec.schedule) * len(spec.metric_names)
                         * spec.folds)
        if len(result.rows) != expected_rows:
            problems.append(f"{len(result.rows)} result rows, expected {expected_rows}")
        values = np.array([r.value for r in result.rows])
        if not np.all((values >= 0.0) & (values <= 1.0)):
            problems.append("a score lies outside [0, 1]")
        acc = np.mean([r.value for r in result.rows if r.method == "gpde" and r.metric == "acc"])
        return problems, float(acc), 1


SERVE_KINDS = {  # name: (call, query points)
    "predict1": ("predict", 1),
    "predict300": ("predict", 300),
    "predict3000": ("predict", 3000),
    "weights300": ("weights", 300),
}
# One shuffled deck of 25 requests: single points are the majority, so the
# median request is a single-point predict and the rest set the throughput.
SERVE_DECK = ["predict1"] * 17 + ["predict300"] * 3 + ["weights300"] * 3 + ["predict3000"] * 2
ORACLE_SHARE = 0.1  # share of responses checked against the dense oracle
ORACLE_ROWS = 16
ORACLE_RTOL, ORACLE_ATOL = 1e-6, 1e-8


@dataclass
class Request:
    kind: str
    idx: np.ndarray
    oracle: bool


class Serve:
    """Requests against one model trained in set-up."""

    name = "serve"
    primary = "predict1"
    window = len(SERVE_DECK)  # counts are per request over the first deck
    expected = ["predict", "fuse", "hard_labels", "expert_weights", "posterior",
                "kernel_matrix", "adapt.build", "adapt.posterior"]

    def __init__(self, seed: int, workdir: str, tiny: bool = False):
        self.seed = seed
        if tiny:
            cfg = gpde.ShiftConfig(n_source_domains=2, samples_per_domain=20, n_target_test=60)
            n_t, self.sizes = 10, {"predict1": 1, "predict300": 5, "predict3000": 60,
                                    "weights300": 5}
        else:
            cfg = gpde.ShiftConfig(n_target_test=3000)
            n_t, self.sizes = 100, {k: m for k, (_, m) in SERVE_KINDS.items()}
        self.sources, pool, self.test = gpde.synth_shift(cfg)
        self.target = _target_sample(pool, n_t, seed)
        self._oracle = None

    def setup(self) -> None:
        self.model = gpde.train_gpde(self.sources, self.target)

    def ops(self):
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, 7]))
        n = self.test.n
        while True:
            for kind in rng.permutation(SERVE_DECK):
                idx = rng.choice(n, size=self.sizes[kind], replace=False)
                yield Request(str(kind), idx, bool(rng.random() < ORACLE_SHARE))

    def run(self, req: Request):
        X = self.test.X[req.idx]
        call = SERVE_KINDS[req.kind][0]
        t0 = perf_counter()
        out = gpde.predict(self.model, X) if call == "predict" else gpde.expert_weights(self.model, X)
        return req.kind, {req.kind: perf_counter() - t0}, out

    def check(self, req: Request, out):
        X, Y = self.test.X[req.idx], self.test.Y[req.idx]
        m = len(req.idx)
        rows = slice(0, min(ORACLE_ROWS, m))
        if req.oracle and self._oracle is None:
            self._oracle = Oracle(self.model)
        if SERVE_KINDS[req.kind][0] == "weights":
            problems = _weight_problems(out, (m, self.model.n_experts))
            if req.oracle and not problems and not np.allclose(
                    out[rows], self._oracle.weights(X[rows]), rtol=ORACLE_RTOL, atol=ORACLE_ATOL):
                problems.append("weights differ from the dense oracle")
            return problems, 0, 0
        problems = []
        if out.mean.shape != Y.shape or out.variance.shape != (m,) or out.labels.shape != Y.shape:
            return [f"{req.kind}: output shapes do not match {m} queries"], 0, 0
        if not (np.all(np.isfinite(out.mean)) and np.all(np.isfinite(out.variance))):
            problems.append(f"{req.kind}: non-finite mean or variance")
        if not np.all(out.variance > 0.0):
            problems.append(f"{req.kind}: non-positive variance")
        if not np.all(np.abs(out.labels) == 1.0):
            problems.append(f"{req.kind}: labels outside {{-1, +1}}")
        if req.oracle:
            mean, var, labels = self._oracle.predict(X[rows])
            decided = np.abs(mean) > 1e-6
            if not (np.allclose(out.mean[rows], mean, rtol=ORACLE_RTOL, atol=ORACLE_ATOL)
                    and np.allclose(out.variance[rows], var, rtol=ORACLE_RTOL, atol=ORACLE_ATOL)
                    and np.array_equal(out.labels[rows][decided], labels[decided])):
                problems.append(f"{req.kind}: differs from the dense oracle")
            if m > 1:
                j = int(req.idx[0] % m)
                single = gpde.predict(self.model, X[j:j + 1])
                if not (np.allclose(single.mean[0], out.mean[j], rtol=1e-9, atol=1e-12)
                        and np.allclose(single.variance[0], out.variance[j], rtol=1e-9, atol=1e-12)):
                    problems.append(f"{req.kind}: single-row predict differs from its batch row")
        return problems, int(np.sum(out.labels == Y)), Y.size


def _weight_problems(W, shape) -> list[str]:
    W = np.asarray(W)
    if W.shape != shape:
        return [f"weights have shape {W.shape}, expected {shape}"]
    if not np.all(np.isfinite(W)) or np.any(W < 0.0):
        return ["weights are negative or non-finite"]
    if not np.allclose(W.sum(axis=1), 1.0, rtol=0.0, atol=1e-6):
        return ["a weights row does not sum to 1"]
    return []


class Cli:
    """The command-line round trip on a corpus written in set-up."""

    name = "cli"
    primary = "round_trip"
    window = 1  # counts are per round trip
    expected = [f"cli.{c}" for c in CLI_COMMANDS] + [
        "fit", "fit_detailed", "train_expert", "posterior", "kernel_matrix", "adapt.build",
        "adapt.posterior", "predict", "fuse", "hard_labels", "expert_weights", "load_dataset",
        "load_features", "load_bundle", "load_experts", "save_expert_pool", "save_bundle"]

    def __init__(self, seed: int, workdir: str, tiny: bool = False):
        if tiny:
            cfg = gpde.ShiftConfig(n_source_domains=2, samples_per_domain=20, n_target_train=30,
                                   n_target_test=40)
            n_t = 10
        else:
            cfg = gpde.ShiftConfig(n_target_test=3000)
            n_t = 50
        corpus = os.path.join(workdir, "corpus")
        self.synth = ["synth", "--out", corpus, "--seed", str(cfg.seed),
                      "--domains", str(cfg.n_source_domains),
                      "--samples", str(cfg.samples_per_domain),
                      "--target-train", str(cfg.n_target_train),
                      "--target-test", str(cfg.n_target_test)]
        self.target = _target_sample(gpde.synth_shift(cfg)[1], n_t, seed)
        self.target_csv = os.path.join(corpus, "target.csv")
        self.test_csv = os.path.join(corpus, "target_test.csv")
        sources = [os.path.join(corpus, f"source_{k}.csv") for k in range(cfg.n_source_domains)]
        p = {k: os.path.join(workdir, k) for k in
             ("sources.json", "target.json", "model.json", "pred.csv", "weights.csv")}
        self.out = p
        self.commands = [
            ["train-source", "--source", *sources, "--out", p["sources.json"]],
            ["train-target", "--target", self.target_csv, "--out", p["target.json"]],
            ["adapt", "--source", p["sources.json"], "--target", p["target.json"],
             "--out", p["model.json"]],
            ["predict", "--model", p["model.json"], "--data", self.test_csv, "--out", p["pred.csv"]],
            ["weights", "--model", p["model.json"], "--data", self.test_csv,
             "--out", p["weights.csv"]],
        ]
        self.n_experts = cfg.n_source_domains + 1
        self.labels = None

    def setup(self) -> None:
        if _main(self.synth) != 0:
            raise RuntimeError("gpde synth failed")
        gpde.save_dataset(self.target_csv, self.target)

    def ops(self):
        return itertools.repeat(None)

    def run(self, _):
        parts = {}
        for argv in self.commands:
            t0 = perf_counter()
            rc = _main(argv)
            parts[argv[0]] = perf_counter() - t0
            if rc != 0:
                raise RuntimeError(f"gpde {argv[0]} exited with {rc}")
        return "round_trip", parts, None

    def check(self, _, __):
        if self.labels is None:
            self.labels = _read_csv(self.test_csv, lambda h: h.startswith("y"))
        Y = self.labels
        n, c = Y.shape
        pred = _read_csv(self.out["pred.csv"], lambda h: True)
        if pred.shape != (n, 3 * c):
            return [f"pred.csv has shape {pred.shape}, expected {(n, 3 * c)}"], 0, 0
        mean, var, labels = pred[:, :c], pred[:, c:2 * c], pred[:, 2 * c:]
        problems = []
        if not (np.all(np.isfinite(mean)) and np.all(var > 0.0)):
            problems.append("pred.csv has a non-finite mean or non-positive variance")
        if not np.all(np.abs(labels) == 1.0):
            problems.append("pred.csv has labels outside {-1, +1}")
        problems += _weight_problems(_read_csv(self.out["weights.csv"], lambda h: True),
                                     (n, self.n_experts))
        return problems, int(np.sum(labels == Y)), Y.size


def _main(argv) -> int:
    # stdout carries the benchmark's own report; the CLI's echo of --out goes nowhere
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            return gpde.cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            return exc.code if isinstance(exc.code, int) else 1


def _read_csv(path, keep) -> np.ndarray:
    """Columns whose header passes ``keep``, parsed without gpde's loaders."""
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    cols = [i for i, h in enumerate(rows[0]) if keep(h)]
    return np.array([[float(r[i]) for i in cols] for r in rows[1:]])


WORKLOADS = {w.name: w for w in (Protocol, Serve, Cli)}


@dataclass
class Outcome:
    """What one run measured.  ``ops`` holds (kind, seconds) per operation,
    split by whether it was traced; ``pairs`` holds (untraced, traced)
    seconds of the same operation for the tracing overhead."""

    setup_s: list[float] = field(default_factory=list)
    ops: dict[bool, list[tuple[str, float]]] = field(default_factory=lambda: {False: [], True: []})
    kinds: dict[str, list[float]] = field(default_factory=dict)
    pairs: dict[str, list[tuple[float, float]]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    hits: float = 0.0
    total: float = 0.0
    problems: list[str] = field(default_factory=list)
    tracer: Tracer | None = None


def measure(workload, seconds: float, trace: bool) -> Outcome:
    """Set up, then run operations until ``seconds`` have passed.

    With ``trace`` every operation runs twice, untraced and traced in
    alternating order, so the traced run also yields untraced latencies and
    the overhead.
    """
    out = Outcome(tracer=Tracer() if trace else None)
    while len(out.setup_s) < SETUP_REPEATS or (
            sum(out.setup_s) < SETUP_MIN_S and len(out.setup_s) < SETUP_MAX_REPEATS):
        t0 = perf_counter()
        workload.setup()
        out.setup_s.append(perf_counter() - t0)
    ops = workload.ops()
    deadline = perf_counter() + seconds
    for i, op in enumerate(ops):
        if perf_counter() >= deadline and not (trace and len(out.tracer.ops) < workload.window):
            break
        done = {}
        modes = ([False, True] if i % 2 == 0 else [True, False]) if trace else [False]
        for traced in modes:
            out.attempted += 1
            if traced:
                out.tracer.begin_op()
                out.tracer.install()
            try:
                try:
                    kind, parts, result = workload.run(op)
                finally:
                    if traced:
                        out.tracer.uninstall()
                problems, hits, total = workload.check(op, result)
            except Exception as exc:  # a failed operation is counted, not fatal
                out.failed += 1
                out.problems.append(f"{type(exc).__name__}: {exc}")
                continue
            if problems:
                out.failed += 1
                out.problems.extend(problems)
            dt = sum(parts.values())
            out.ops[traced].append((kind, dt))
            if not traced:
                out.hits += hits
                out.total += total
                for k, v in parts.items():
                    out.kinds.setdefault(k, []).append(v)
            done[traced] = dt
        if len(done) == 2:
            out.pairs.setdefault(kind, []).append((done[False], done[True]))
    return out
