"""Self-describing JSON serialization for expert pools and model bundles.

An *expert pool* file stores one shared hyperparameter triple (in log-space)
plus references to the dataset CSVs it was trained on; features are reloaded
from those files rather than embedded, and the cached factorizations are
rebuilt deterministically on load.  A *model bundle* references a source pool
and a target pool together with the combination weights and the decision
mode.  Dataset paths are stored relative to the JSON file so a pool directory
can be moved as a unit.  Every file carries a ``config_hash`` of its own
canonical JSON, checked on load.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

from .data import load_dataset
from .exceptions import DataLoadError
from .experts import GpdeModel, uniform_betas
from .gp_core import Expert, train_expert
from .kernel import Hyperparams

__all__ = [
    "save_expert_pool",
    "load_experts",
    "save_bundle",
    "load_bundle",
]

POOL_KIND = "gpde_expert_pool"
BUNDLE_KIND = "gpde_model_bundle"


def _payload_hash(payload: dict) -> str:
    """Short sha256 of the payload's canonical JSON (sorted keys), its own
    ``config_hash`` left out, so it can be recomputed from the file."""
    body = {k: v for k, v in payload.items() if k != "config_hash"}
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()[:12]


def _write_json(path, payload: dict) -> None:
    payload = dict(payload)
    payload["config_hash"] = _payload_hash(payload)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _read_json(path, kind: str) -> dict:
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: bad UTF-8/JSON, NUL in path
        raise DataLoadError(f"{path}: {exc}") from None
    if not isinstance(payload, dict):
        raise DataLoadError(f"{path}: expected a JSON object, got {type(payload).__name__}")
    if payload.get("kind") != kind:
        raise DataLoadError(f"{path}: expected kind {kind!r}, got {payload.get('kind')!r}")
    if "config_hash" not in payload:
        raise DataLoadError(f"{path}: malformed {kind} file: no config_hash")
    stored, actual = payload["config_hash"], _payload_hash(payload)
    if stored != actual:
        raise DataLoadError(f"{path}: config_hash {stored!r} does not match the contents "
                            f"({actual!r}); the file was changed after it was written")
    return payload


def save_expert_pool(path, hyper: Hyperparams, dataset_paths: list[tuple[str, str]],
                     seed: int | None = None) -> None:
    """Write a pool file for ``hyper`` over ``dataset_paths`` [(domain_id, csv_path)]."""
    base = os.path.dirname(os.path.abspath(path))
    log_ell, log_sf, log_sv = hyper.to_log()
    _write_json(path, {
        "kind": POOL_KIND,
        "hyperparams": {
            "log_length_scale": log_ell,
            "log_signal_std": log_sf,
            "log_noise_std": log_sv,
        },
        "domains": [
            {"domain_id": domain_id, "path": os.path.relpath(os.path.abspath(p), base)}
            for domain_id, p in dataset_paths
        ],
        "seed": seed,
    })


def load_experts(path) -> list[Expert]:
    """Read a pool file, reload its referenced datasets and rebuild their
    experts (deterministic refactorization)."""
    payload = _read_json(path, POOL_KIND)
    try:
        hp = payload["hyperparams"]
        hyper = Hyperparams.from_log(
            [hp["log_length_scale"], hp["log_signal_std"], hp["log_noise_std"]]
        )
        domains = [(d["domain_id"], d["path"]) for d in payload["domains"]]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DataLoadError(f"{path}: malformed pool file ({exc})") from None
    if not all(isinstance(v, str) for domain in domains for v in domain):
        raise DataLoadError(f"{path}: malformed pool file: domain ids and paths must be strings")
    base = os.path.dirname(os.path.abspath(path))
    datasets = [
        load_dataset(os.path.join(base, p), domain_id=domain_id) for domain_id, p in domains
    ]
    return [train_expert(d, hyper) for d in datasets]


def save_bundle(path, sources_pool: str | None, target_pool: str | None,
                betas=None, mode: str = "multilabel", seed: int | None = None) -> None:
    """Write a bundle referencing a source pool and/or a target pool."""
    base = os.path.dirname(os.path.abspath(path))
    rel = lambda p: os.path.relpath(os.path.abspath(p), base) if p else None
    _write_json(path, {
        "kind": BUNDLE_KIND,
        "sources": rel(sources_pool),
        "target": rel(target_pool),
        "betas": None if betas is None else [float(b) for b in np.asarray(betas).ravel()],
        "mode": mode,
        "seed": seed,
    })


def load_bundle(path) -> GpdeModel:
    """Reassemble a :class:`GpdeModel` from a bundle file."""
    payload = _read_json(path, BUNDLE_KIND)
    base = os.path.dirname(os.path.abspath(path))

    def pool_path(key: str) -> str | None:
        ref = payload.get(key)
        if ref is not None and not isinstance(ref, str):
            raise DataLoadError(f"{path}: {key} must be a pool path or null, got {ref!r}")
        return os.path.join(base, ref) if ref else None

    sources_pool, target_pool = pool_path("sources"), pool_path("target")
    sources: list[Expert] = load_experts(sources_pool) if sources_pool else []
    target = None
    if target_pool:
        target_experts = load_experts(target_pool)
        if len(target_experts) != 1:
            raise DataLoadError(f"{path}: target pool must contain exactly one domain")
        target = target_experts[0]
    betas = payload.get("betas")
    if betas is None:
        betas = uniform_betas(len(sources) + (1 if target else 0))
    try:
        betas = np.asarray(betas, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DataLoadError(f"{path}: malformed betas ({exc})") from None
    return GpdeModel(sources=sources, target=target, betas=betas,
                     mode=payload.get("mode", "multilabel"))
