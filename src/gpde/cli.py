"""Command-line front end.

Subcommands mirror the workflow phases: ``train-source`` and ``train-target``
fit hyperparameters and write expert-pool files, ``adapt`` composes a source
pool and an optional one-domain target pool into a model bundle that holds
their experts, ``predict`` and ``weights`` apply a bundle to new feature rows
and read no other file, ``bench`` runs the full evaluation protocol, and
``synth`` writes a seeded synthetic covariate-shift corpus.

Progress and warnings go to stderr; results go to stdout or ``--out``.
Every artifact embeds the seed and a config hash.  Exit code is nonzero on
any error.
"""

from __future__ import annotations

import argparse
import contextlib
import logging
import os
import sys
from dataclasses import fields, replace

import numpy as np

from . import __version__
from .bench import METHODS, METRICS, BenchmarkSpec, run_benchmark, write_result_table
from .data import (ShiftConfig, config_hash, load_dataset, load_features,
                   load_shift_config, save_dataset, save_shift_config, synth_shift)
from .exceptions import ConfigError, DataLoadError, GpdeError
from .experts import MODES, GpdeModel, expert_weights, predict, uniform_betas
from .gp_core import fit
from .model_io import load_bundle, load_experts, save_bundle, save_expert_pool

logger = logging.getLogger(__name__)


def _domain_id(path: str) -> str:
    return os.path.splitext(os.path.basename(path))[0]


@contextlib.contextmanager
def _out_stream(path: str | None):
    if path is None:
        yield sys.stdout
    else:
        with open(path, "w") as fh:
            yield fh


def _split_list(tokens: list[str]) -> list[str]:
    out = []
    for tok in tokens:
        out.extend(t for t in tok.split(",") if t)
    return out


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _train_pool(args, paths: list[str]) -> int:
    """Fit one hyperparameter triple over the CSVs at ``paths`` and write
    their pool."""
    datasets = [load_dataset(p, domain_id=_domain_id(p)) for p in paths]
    hyper = fit(datasets)
    logger.info("hyperparameters of %s: %s", ",".join(d.domain_id for d in datasets), hyper)
    save_expert_pool(args.out, hyper, datasets, seed=args.seed)
    print(args.out)
    return 0


def _cmd_adapt(args) -> int:
    sources, target = load_experts(args.source), None
    if not sources:
        raise DataLoadError(f"{args.source}: the --source pool holds no domain; "
                            "run train-source with at least one --source CSV")
    if args.target:
        targets = load_experts(args.target)
        if len(targets) != 1:
            raise DataLoadError(f"{args.target}: a target pool must hold exactly one domain, "
                                f"not {len(targets)}")
        target = targets[0]
    model = GpdeModel(sources, target, uniform_betas(len(sources) + (target is not None)),
                      args.mode)
    save_bundle(args.out, model, seed=args.seed)
    print(args.out)
    return 0


def _cmd_predict(args) -> int:
    model = load_bundle(args.model)
    X = load_features(args.data)
    fused = predict(model, X)
    C = fused.mean.shape[1]
    with _out_stream(args.out) as fh:
        header = [f"mean{j}" for j in range(C)] + [f"var{j}" for j in range(C)] \
            + [f"label{j}" for j in range(C)]
        fh.write(",".join(header) + "\n")
        for m, v, lab in zip(fused.mean, fused.variance, fused.labels):
            # one variance per point, shared by all outputs
            fields = [f"{x:.8g}" for x in m] + [f"{v:.8g}"] * C \
                + [f"{int(x):d}" for x in lab]
            fh.write(",".join(fields) + "\n")
    return 0


def _cmd_weights(args) -> int:
    model = load_bundle(args.model)
    X = load_features(args.data)
    W = np.atleast_2d(expert_weights(model, X))
    names = [e.data.domain_id for e in model.sources]
    if model.target is not None:
        names.append(model.target.data.domain_id)
    with _out_stream(args.out) as fh:
        fh.write(",".join(names) + "\n")
        for row in W:
            fh.write(",".join(f"{x:.8g}" for x in row) + "\n")
    return 0


def _cmd_bench(args) -> int:
    try:
        schedule = tuple(int(v) for v in _split_list(args.nt))
    except ValueError as exc:
        raise ConfigError(f"--nt entries must be integers: {exc}") from None
    spec = BenchmarkSpec(
        methods=tuple(_split_list(args.methods)),
        schedule=schedule,
        folds=args.folds,
        metrics=tuple(_split_list(args.metrics)) if args.metrics else None,
        mode=args.mode,
        seed=args.seed,
        energy=args.energy,
    )
    synthetic = args.config is not None or args.synth
    if synthetic == bool(args.target):
        raise GpdeError("pass either --target (+ --source) or --config/--synth, not both")
    if synthetic:
        cfg = load_shift_config(args.config) if args.config else ShiftConfig()
        result = run_benchmark(spec, shift_cfg=cfg)
    else:
        sources = [load_dataset(p, domain_id=_domain_id(p)) for p in args.source or []]
        target = load_dataset(args.target, domain_id=_domain_id(args.target))
        result = run_benchmark(spec, source_datasets=sources, target_pool=target)
    with _out_stream(args.out) as fh:
        write_result_table(fh, result)
    for method, n_t, metric, value in result.summary():
        logger.info("mean %-9s n_t=%-4d %-4s %.4f", method, n_t, metric, value)
    return 0


def _cmd_synth(args) -> int:
    overrides = {f.name: getattr(args, f.name) for f in fields(ShiftConfig)
                 if getattr(args, f.name) is not None}
    if args.config:
        cfg = load_shift_config(args.config, **overrides)
    else:
        cfg = replace(ShiftConfig(), **overrides)
    sources, target_train, target_test = synth_shift(cfg)
    os.makedirs(args.out, exist_ok=True)
    tag = [f"seed={cfg.seed}", f"config_hash={config_hash(cfg)}"]
    for d in sources + [target_train, target_test]:
        path = os.path.join(args.out, f"{d.domain_id}.csv")
        save_dataset(path, d, comments=tag)
        logger.info("wrote %s (%d rows)", path, d.n)
    save_shift_config(os.path.join(args.out, "shift_config.txt"), cfg)
    print(args.out)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gpde",
        description="Gaussian-process domain experts: train, adapt, fuse, benchmark.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="log debug detail to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train-source", help="fit shared hyperparameters over source CSVs")
    p.add_argument("--source", nargs="+", required=True, metavar="CSV")
    p.add_argument("--out", required=True, help="expert-pool JSON to write")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=lambda args: _train_pool(args, args.source))

    p = sub.add_parser("train-target", help="fit hyperparameters on one target CSV")
    p.add_argument("--target", required=True, metavar="CSV")
    p.add_argument("--out", required=True, help="expert-pool JSON to write")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=lambda args: _train_pool(args, [args.target]))

    p = sub.add_parser("adapt", help="compose source and target pools into a model bundle")
    p.add_argument("--source", required=True, help="source expert-pool JSON")
    p.add_argument("--target", default=None, help="target expert-pool JSON (optional)")
    p.add_argument("--mode", choices=MODES, default="multilabel")
    p.add_argument("--out", required=True, help="bundle JSON to write")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_adapt)

    p = sub.add_parser("predict", help="fused predictions for feature rows")
    p.add_argument("--model", required=True, help="bundle JSON")
    p.add_argument("--data", required=True, help="CSV of feature rows (labels ignored)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("weights", help="normalized per-expert precision weights")
    p.add_argument("--model", required=True, help="bundle JSON")
    p.add_argument("--data", required=True, help="CSV of feature rows (labels ignored)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_weights)

    p = sub.add_parser("bench", help="run the evaluation protocol")
    p.add_argument("--source", nargs="+", default=None, metavar="CSV")
    p.add_argument("--target", default=None, metavar="CSV")
    p.add_argument("--config", default=None, help="shift-config file for synthetic folds")
    p.add_argument("--synth", action="store_true", help="use the default synthetic config")
    p.add_argument("--nt", nargs="+", default=["10,30,50,100"],
                   help="target cardinality schedule, e.g. 10,30,50,100")
    p.add_argument("--methods", nargs="+", default=[",".join(METHODS)],
                   help=f"subset of {','.join(METHODS)}")
    p.add_argument("--metrics", nargs="+", default=None,
                   help=f"subset of {','.join(METRICS)} (default per mode)")
    p.add_argument("--mode", choices=MODES, default="multilabel")
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--energy", type=float, default=0.99,
                   help="PCA energy fraction; 1.0 keeps full rank")
    p.add_argument("--out", default=None, help="result table path (default stdout)")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("synth", help="write a synthetic covariate-shift corpus")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--config", default=None, help="shift-config file to start from")
    # each override's dest is the ShiftConfig field it sets; unset ones are None
    p.add_argument("--domains", dest="n_source_domains", metavar="DOMAINS", type=int)
    p.add_argument("--samples", dest="samples_per_domain", metavar="SAMPLES", type=int)
    p.add_argument("--target-train", dest="n_target_train", metavar="TARGET_TRAIN", type=int)
    p.add_argument("--target-test", dest="n_target_test", metavar="TARGET_TEST", type=int)
    p.add_argument("--dims", type=int)
    p.add_argument("--outputs", dest="n_outputs", metavar="OUTPUTS", type=int)
    p.add_argument("--shift", dest="shift_magnitude", metavar="SHIFT", type=float)
    p.add_argument("--complexity", dest="label_complexity", metavar="COMPLEXITY", type=float)
    p.add_argument("--mode", choices=MODES)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=_cmd_synth)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except GpdeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
