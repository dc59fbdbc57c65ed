"""Layer tracing from outside the library.

A :class:`Tracer` wraps public ``gpde`` functions and records, per layer,
call counts, inclusive time and self time (inclusive time minus the time of
traced calls made inside it), plus a few counters read from arguments and
results.  Every module binding of a wrapped function is patched, not just
the defining module: ``bench`` and ``experts`` import ``fit`` by name, and
``experts``, ``bench`` and ``cli`` import ``predict``, so patching only
``gpde.gp_core.fit`` would miss most calls.

Statistics are kept per operation (one fold, request or CLI round trip), so
counts can be read from a fixed prefix of operations, where they repeat
exactly for a fixed seed and BLAS thread setting, while times are averaged
over every traced operation.
"""

from __future__ import annotations

import os
import sys
from collections import defaultdict
from time import perf_counter

import gpde.cli  # noqa: F401  (loads every module the targets name)


class LayerStats:
    __slots__ = ("calls", "s", "self_s")

    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0


class OpStats:
    """Everything recorded while one traced operation ran."""

    def __init__(self):
        self.layers: dict[str, LayerStats] = defaultdict(LayerStats)
        self.counters: dict[str, float] = defaultdict(float)


# Probes turn a call's arguments and result into counters.

def _kernel_probe(counters, args, kwargs, out):
    X_prime = args[1] if len(args) > 1 else kwargs.get("X_prime")
    counters["kernel.entries"] += out.size
    counters["kernel.bytes"] += out.nbytes + _nbytes(args[0]) + _nbytes(X_prime)


def _nbytes(X) -> int:
    return int(getattr(X, "nbytes", 0))


def _fit_probe(counters, args, kwargs, out):
    counters["fit.iters"] += out.n_iter
    counters["fit.converged"] += bool(out.converged)
    counters["fit.results"] += 1


def _expert_probe(counters, args, kwargs, out):
    counters["train_expert.jittered"] += out.jitter > 0.0


def _dataset_probe(counters, args, kwargs, out):
    counters["data.rows"] += out.X.shape[0] if hasattr(out, "X") else out.shape[0]
    counters["data.bytes"] += os.path.getsize(args[0])


# (module, attribute, layer name, probe).  A method is named Class.method and
# patched on its class; a function is patched wherever a gpde module binds it.
TARGETS = [
    ("gpde.kernel", "kernel_matrix", "kernel_matrix", _kernel_probe),
    ("gpde.gp_core", "fit", "fit", None),
    ("gpde.gp_core", "fit_detailed", "fit_detailed", _fit_probe),
    ("gpde.gp_core", "train_expert", "train_expert", _expert_probe),
    ("gpde.gp_core", "posterior", "posterior", None),
    ("gpde.adaptation", "AdaptedExpert.__init__", "adapt.build", None),
    ("gpde.adaptation", "AdaptedExpert.posterior", "adapt.posterior", None),
    ("gpde.experts", "predict", "predict", None),
    ("gpde.experts", "fuse", "fuse", None),
    ("gpde.experts", "expert_weights", "expert_weights", None),
    ("gpde.experts", "hard_labels", "hard_labels", None),
    ("gpde.metrics", "multilabel_report", "multilabel_report", None),
    ("gpde.data", "synth_shift", "synth_shift", None),
    ("gpde.data", "pca_fit", "pca_fit", None),
    ("gpde.data", "load_dataset", "load_dataset", _dataset_probe),
    ("gpde.data", "load_features", "load_features", _dataset_probe),
    ("gpde.model_io", "load_bundle", "load_bundle", None),
    ("gpde.model_io", "load_experts", "load_experts", None),
    ("gpde.model_io", "save_expert_pool", "save_expert_pool", None),
    ("gpde.model_io", "save_bundle", "save_bundle", None),
    ("gpde.bench", "run_benchmark", "run_benchmark", None),
    ("gpde.cli", "main", "cli", None),
]

# fit_detailed is wrapped for its FitResult; its time is fit's, so it is not reported
LAYERS = [layer for _, _, layer, _ in TARGETS if layer not in ("cli", "fit_detailed")]
CLI_COMMANDS = ["train-source", "train-target", "adapt", "predict", "weights"]
# Counters reported per operation.  kernel.bytes is computed from array sizes
# (inputs read plus matrix written), not measured traffic.
COUNTERS = {"kernel.entries": "count", "kernel.bytes": "B", "fit.iters": "count",
            "data.rows": "count", "data.bytes": "B"}


def _cli_layer(args, kwargs) -> str:
    argv = args[0] if args else kwargs.get("argv")
    return f"cli.{argv[0]}" if argv else "cli"


class Tracer:
    """Install with :meth:`install`, call :meth:`begin_op` before each traced
    operation, and always :meth:`uninstall` (it restores every binding)."""

    def __init__(self):
        self.ops: list[OpStats] = []
        self._stack: list[list[float]] = []
        self._restore: list[tuple[object, str, object]] = []

    def begin_op(self) -> None:
        self.ops.append(OpStats())

    def _wrap(self, layer, fn, probe):
        stack = self._stack

        def traced(*args, **kwargs):
            name = _cli_layer(args, kwargs) if layer == "cli" else layer
            child = [0.0]
            stack.append(child)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                op = self.ops[-1]
                st = op.layers[name]
                st.calls += 1
                st.s += dur
                st.self_s += dur - child[0]
            if probe is not None:
                probe(op.counters, args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "gpde" or name.startswith("gpde."))]
        for module, attr, layer, probe in TARGETS:
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(sys.modules[module], cls_name)
                orig = cls.__dict__[method]
                self._restore.append((cls, method, orig))
                setattr(cls, method, self._wrap(layer, orig, probe))
                continue
            orig = getattr(sys.modules[module], attr)
            wrapped = self._wrap(layer, orig, probe)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._restore.append((mod, key, orig))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()


def layer_metrics(ops: list[OpStats], window: int, op_seconds: list[float]) -> dict:
    """Per-layer metrics as ``{name: (value, unit)}``.

    ``.calls`` and the other counts are per operation over the first
    ``window`` traced operations; ``.s`` and ``.self_s`` are mean seconds per
    operation over all of them.  ``op_seconds`` are the traced operations'
    own latencies, for the share of time spent fitting.
    """
    counted = ops[:window]

    def count(get):
        return sum(get(o) for o in counted) / len(counted)

    def seconds(get):
        return sum(get(o) for o in ops) / len(ops)

    def layer(o, name):
        return o.layers.get(name) or LayerStats()

    out = {}
    for name in LAYERS + [f"cli.{c}" for c in CLI_COMMANDS]:
        calls_name = "adapt.builds_per_request" if name == "adapt.build" else f"{name}.calls"
        out[calls_name] = (count(lambda o: layer(o, name).calls), "count")
        out[f"{name}.s"] = (seconds(lambda o: layer(o, name).s), "s")
        out[f"{name}.self_s"] = (seconds(lambda o: layer(o, name).self_s), "s")
    for key, unit in COUNTERS.items():
        out[key] = (count(lambda o: o.counters[key]), unit)
    fits = count(lambda o: o.counters["fit.results"])
    out["fit.converged_frac"] = (count(lambda o: o.counters["fit.converged"]) / fits if fits else 0.0,
                                 "frac")
    trained = count(lambda o: layer(o, "train_expert").calls)
    out["train_expert.jitter_frac"] = (
        count(lambda o: o.counters["train_expert.jittered"]) / trained if trained else 0.0, "frac")
    out["fit.share"] = (sum(layer(o, "fit").s for o in ops) / sum(op_seconds), "frac")
    return out


def missing_layers(ops: list[OpStats], expected: list[str]) -> list[str]:
    """Layers in ``expected`` that no traced operation reached."""
    return [name for name in expected if not any(name in o.layers for o in ops)]
