"""Self-describing JSON serialization for expert pools and model bundles.

An *expert pool* file stores one shared hyperparameter triple (in log-space)
plus the features and labels of every dataset it was trained on, so it
reloads the experts that were trained whatever later happens to their CSVs.
Floats are written in ``repr`` form and round-trip exactly; the cached
factorizations are rebuilt deterministically on load.  A *model bundle*
references a source pool and a target pool by paths relative to the bundle
file, together with the combination weights and the decision mode.  Every
file carries a ``config_hash`` of its own canonical JSON, checked on load.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

from .exceptions import DataLoadError, InvalidInputError
from .experts import GpdeModel, uniform_betas
from .gp_core import Dataset, Expert, train_expert
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


def _check_labels(data: Dataset) -> Dataset:
    """``data``, checked to have labels in {-1, +1}, the only labels a pool holds."""
    if not np.all(np.abs(data.Y) == 1.0):
        raise InvalidInputError(f"domain {data.domain_id!r}: labels must be -1 or +1")
    return data


def save_expert_pool(path, hyper: Hyperparams, datasets: list[Dataset],
                     seed: int | None = None) -> None:
    """Write a pool file for ``hyper`` holding the arrays of ``datasets``."""
    log_ell, log_sf, log_sv = hyper.to_log()
    _write_json(path, {
        "kind": POOL_KIND,
        "hyperparams": {
            "log_length_scale": log_ell,
            "log_signal_std": log_sf,
            "log_noise_std": log_sv,
        },
        "domains": [
            {"domain_id": d.domain_id, "X": d.X.tolist(), "Y": _check_labels(d).Y.tolist()}
            for d in datasets
        ],
        "seed": seed,
    })


def _dataset(domain: dict) -> Dataset:
    """A pool's domain entry as a :class:`Dataset`.  Strings, nulls and
    integers too large for a float are refused, not converted."""
    X, Y = np.asarray(domain["X"]), np.asarray(domain["Y"])
    if not isinstance(domain["domain_id"], str) or {X.dtype.kind, Y.dtype.kind} - set("iuf"):
        raise InvalidInputError("a domain needs a string domain_id and numeric X and Y")
    return _check_labels(Dataset(X, Y, domain["domain_id"]))


def load_experts(path) -> list[Expert]:
    """Read a pool file, rebuild its datasets from the stored arrays and
    their experts (deterministic refactorization)."""
    payload = _read_json(path, POOL_KIND)
    try:
        hp = payload["hyperparams"]
        hyper = Hyperparams.from_log([hp["log_length_scale"], hp["log_signal_std"],
                                      hp["log_noise_std"]])
        datasets = [_dataset(d) for d in payload["domains"]]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DataLoadError(f"{path}: malformed pool file ({exc})") from None
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
