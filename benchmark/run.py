"""Benchmark of the gpde library, driven only through its public functions.

Run from the repository root:

    python3 benchmark/run.py --workload protocol|serve|cli --seed N --seconds S --trace 0|1

The library is imported from ``src/`` of the checkout the script sits in.
Inputs are generated from ``--seed``; the workload then runs in a closed loop
for ``--seconds`` (see ``workloads.py``).  Every output is checked outside the
timed region.

Standard output carries the environment, every metric by name with its unit,
the workload's own breakdown and, as its last line, one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones, measured untraced:

    setup_s      median set-up time, over at least three set-ups (protocol:
                 the corpus, serve: train_gpde, cli: gpde synth)
    op_p50_ms    median latency of the workload's main operation (protocol:
                 two folds, serve: a single-point predict, cli: a round trip)
    ops_per_s    operations of any kind per second of latency, 1 / mean latency
    label_acc    share of predicted labels that match the held-out labels
    peak_mem_mb  peak resident memory of the process

With ``--trace 1`` every operation runs untraced and then traced, and the
metrics are the per-layer ones (see ``tracing.py``), the tracing overhead
(traced minus untraced latency of the same operation: two folds, a single-point
predict or a round trip) and the breakdown.  The traced run fails if a layer
the workload must reach records no call.

``error_frac`` (failed over attempted operations) is printed; the driver
reads it as ``failed`` / ``attempted``.  Exit code 0 means every check
passed, 1 that one failed and 2 that the library could not be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def import_library():
    sys.path.insert(0, SRC)
    try:
        import gpde
    except ImportError as exc:
        print(f"error: cannot import gpde from {SRC}: {exc}", file=sys.stderr)
        sys.exit(2)
    if not os.path.abspath(gpde.__file__).startswith(SRC + os.sep):
        print(f"error: gpde was imported from {gpde.__file__}, not from {SRC}", file=sys.stderr)
        sys.exit(2)


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def _p50(xs) -> float:
    return statistics.median(xs) if xs else 0.0


def tail(xs) -> tuple[float, str]:
    """The highest percentile with at least ten samples beyond it."""
    n = len(xs)
    if n <= 10:
        return 0.0, f"needs more than 10 samples, have {n}"
    return sorted(xs)[n - 11], f"p{100.0 * (n - 10) / n:.1f}, 10 of {n} samples beyond"


def end_to_end(workload, out) -> dict:
    lat = [dt for _, dt in out.ops[False]]
    return {
        "setup_s": (_p50(out.setup_s), "s"),
        "op_p50_ms": (_p50([dt for k, dt in out.ops[False] if k == workload.primary]) * 1e3, "ms"),
        "ops_per_s": (len(lat) / sum(lat) if lat else 0.0, "1/s"),
        "label_acc": (out.hits / out.total if out.total else 0.0, "frac"),
        "peak_mem_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def breakdown(workload, out) -> tuple[dict, dict]:
    """The workload's own metrics, zero where another workload owns them,
    plus notes on how the tail was taken."""
    name, k = workload.name, out.kinds
    n_train = min((len(k.get(c, [])) for c in ("train-source", "train-target", "adapt")), default=0)
    train = [sum(k[c][i] for c in ("train-source", "train-target", "adapt")) for i in range(n_train)]
    tail_ms, tail_note = tail(k.get("predict1", []))
    acc = out.hits / out.total if out.total else 0.0
    metrics = {
        "fold_s": (_p50(k.get("folds")) / getattr(workload, "folds", 1), "s"),
        "gpde_acc": (acc if name == "protocol" else 0.0, "frac"),
        "predict1_p50_ms": (_p50(k.get("predict1")) * 1e3, "ms"),
        "predict1_tail_ms": (tail_ms * 1e3, "ms"),
        "predict300_p50_ms": (_p50(k.get("predict300")) * 1e3, "ms"),
        "predict3000_p50_ms": (_p50(k.get("predict3000")) * 1e3, "ms"),
        "weights300_p50_ms": (_p50(k.get("weights300")) * 1e3, "ms"),
        "cli_train_s": (_p50(train), "s"),
        "cli_predict_s": (_p50(k.get("predict")), "s"),
    }
    return metrics, ({"predict1_tail_ms": tail_note} if name == "serve" else {})


def overhead(workload, out) -> dict:
    pairs = out.pairs.get(workload.primary, [])
    diff = _p50([t - u for u, t in pairs])
    base = _p50([u for u, _ in pairs])
    return {"trace.overhead_ms": (diff * 1e3, "ms"),
            "trace.overhead_frac": (diff / base if base else 0.0, "frac")}


def report(metrics: dict, notes: dict | None = None) -> None:
    for key, (value, unit) in metrics.items():
        note = f"  ({notes[key]})" if notes and key in notes else ""
        print(f"{key} {value:.6g} {unit}{note}")


def main(argv=None, tiny: bool = False) -> int:
    """Run one workload and print its report; ``tiny`` shrinks the inputs
    for the benchmark's self-test."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=["protocol", "serve", "cli"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    import_library()
    import tracing
    import workloads

    env = environment()
    base = os.path.join(ROOT, ".bench_work")
    os.makedirs(base, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=base)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir, tiny=tiny)
        out = workloads.measure(workload, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(base)
        except OSError:  # another run still uses it
            pass

    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("# env " + json.dumps(env, sort_keys=True))
    problems = list(out.problems)
    own, notes = breakdown(workload, out)
    if args.trace:
        ops = out.tracer.ops
        missing = tracing.missing_layers(ops, workload.expected)
        problems += [f"traced run reached no call of layer {name}" for name in missing]
        layers = (tracing.layer_metrics(ops, workload.window, [dt for _, dt in out.ops[True]])
                  if ops else {})
        metrics = {**layers, **overhead(workload, out), **own}
        counts = {k: v for k, v in metrics.items() if v[1] in ("count", "B")}
        print("# counts per operation over the first "
              f"{workload.window}; they repeat exactly for a fixed seed and thread setting")
        report(counts)
        print("# times and ratios")
        report({k: v for k, v in metrics.items() if k not in counts}, notes)
    else:
        metrics = end_to_end(workload, out)
        print("# end to end")
        report(metrics)
        print(f"# {args.workload} breakdown")
        report({k: v for k, v in own.items() if v[0]}, notes)
    print(f"error_frac {out.failed / out.attempted if out.attempted else 1.0:.6g} "
          f"({out.failed} of {out.attempted} operations)")
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    correct = not problems and out.failed == 0 and bool(out.ops[False])
    print(json.dumps({
        "correct": correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
