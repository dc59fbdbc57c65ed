"""Self-describing JSON serialization for expert pools and model bundles.

An *expert pool* file stores one shared hyperparameter triple plus the
features and labels of every dataset it was trained on, so it reloads the
experts that were trained whatever later happens to their CSVs.
A *model bundle* stores the model itself: a ``sources`` and a ``target``
section, each laid out like a pool, plus the combination weights and the
decision mode, so it needs no other file.  Floats are written in ``repr``
form and round-trip exactly; the cached factorizations are rebuilt
deterministically on load.  Every file carries a ``config_hash`` of its own
canonical JSON (:func:`gpde.data.config_hash`), checked on load.
"""

from __future__ import annotations

import json

import numpy as np

from .data import _rewrite, config_hash
from .exceptions import DataLoadError, InvalidInputError
from .experts import GpdeModel
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
# Stored as ``repr`` floats, which round-trip exactly; log-space values do not.
HYPER_FIELDS = ("length_scale", "signal_std", "noise_std")


def _write_json(path, payload: dict) -> None:
    # json.dumps runs the C encoder; json.dump always runs the Python one
    text = json.dumps({**payload, "config_hash": config_hash(payload)}, sort_keys=True)
    with _rewrite(path) as fh:
        fh.write(text + "\n")


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
    stored, actual = payload.pop("config_hash"), config_hash(payload)
    if stored != actual:
        raise DataLoadError(f"{path}: config_hash {stored!r} does not match the contents "
                            f"({actual!r}); the file was changed after it was written")
    return payload


def _check_labels(data: Dataset) -> Dataset:
    """``data``, checked to have labels in {-1, +1}, the only labels a pool holds."""
    if not np.all(np.abs(data.Y) == 1.0):
        raise InvalidInputError(f"domain {data.domain_id!r}: labels must be -1 or +1")
    return data


def _experts_section(hyper: Hyperparams, datasets: list[Dataset]) -> dict:
    """The ``{"hyperparams", "domains"}`` of a pool, or of a bundle's sources or target."""
    return {
        "hyperparams": {name: getattr(hyper, name) for name in HYPER_FIELDS},
        "domains": [
            {"domain_id": d.domain_id, "X": d.X.tolist(), "Y": _check_labels(d).Y.tolist()}
            for d in datasets
        ],
    }


def _dataset(domain: dict) -> Dataset:
    """A domain entry as a :class:`Dataset`.  Strings, nulls and integers too
    large for a float are refused, not converted."""
    X, Y = np.asarray(domain["X"]), np.asarray(domain["Y"])
    if not isinstance(domain["domain_id"], str) or {X.dtype.kind, Y.dtype.kind} - set("iuf"):
        raise InvalidInputError("a domain needs a string domain_id and numeric X and Y")
    return _check_labels(Dataset(X, Y, domain["domain_id"]))


def _hyperparams(hp: dict) -> Hyperparams:
    """A section's stored hyperparameters; only JSON numbers are accepted."""
    values = [hp[name] for name in HYPER_FIELDS]
    if not all(type(v) in (int, float) for v in values):
        raise TypeError(f"hyperparameters must be numbers, got {values!r}")
    return Hyperparams(*map(float, values))


def _read_experts(path, section, name: str, rerun: str) -> list[Expert]:
    """Rebuild the experts of an experts section from its stored arrays
    (deterministic refactorization); ``name`` says where it sits in ``path``,
    and ``rerun`` names the commands that write the file again."""
    hp = section.get("hyperparams") if isinstance(section, dict) else None
    if isinstance(hp, dict) and "log_length_scale" in hp:
        raise DataLoadError(f"{path}: old-format log-space hyperparameters in the {name}, "
                            f"which do not round-trip exactly; run {rerun} again")
    try:
        hyper = _hyperparams(section["hyperparams"])
        datasets = [_dataset(d) for d in section["domains"]]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DataLoadError(f"{path}: malformed {name} ({exc})") from None
    return [train_expert(d, hyper) for d in datasets]


def save_expert_pool(path, hyper: Hyperparams, datasets: list[Dataset],
                     seed: int | None = None) -> None:
    """Write a pool file for ``hyper`` holding the arrays of ``datasets``."""
    _write_json(path, {"kind": POOL_KIND, **_experts_section(hyper, datasets), "seed": seed})


def load_experts(path) -> list[Expert]:
    """Read a pool file and rebuild the experts it holds."""
    payload = _read_json(path, POOL_KIND)
    domains = payload.get("domains")
    if isinstance(domains, list) and any(isinstance(d, dict) and "path" in d for d in domains):
        raise DataLoadError(f"{path}: an old-format pool that names CSV files instead of "
                            "holding their arrays; run train-source/train-target again")
    return _read_experts(path, payload, "pool file", "train-source/train-target")


def save_bundle(path, model: GpdeModel, seed: int | None = None) -> None:
    """Write ``model`` itself: its experts' hyperparameters and arrays, its
    combination weights and its decision mode."""
    def section(experts: list[Expert]) -> dict | None:
        return _experts_section(experts[0].hyper, [e.data for e in experts]) if experts else None

    _write_json(path, {
        "kind": BUNDLE_KIND,
        "sources": section(model.sources),
        "target": section([model.target] if model.target is not None else []),
        "betas": model.betas.tolist(),
        "mode": model.mode,
        "seed": seed,
    })


def load_bundle(path) -> GpdeModel:
    """Rebuild the :class:`GpdeModel` a bundle file holds."""
    payload = _read_json(path, BUNDLE_KIND)
    if any(isinstance(payload.get(k), str) for k in ("sources", "target")):
        raise DataLoadError(f"{path}: an old-format bundle that names pool files instead of "
                            "holding their experts; run adapt again")
    sources, target = (None if payload.get(k) is None
                       else _read_experts(path, payload[k], k,
                                          "train-source/train-target and adapt")
                       for k in ("sources", "target"))
    if target is not None and len(target) != 1:
        raise DataLoadError(f"{path}: the target must hold exactly one domain, not {len(target)}")
    try:  # GpdeModel's own checks raise InvalidInputError, a ValueError
        return GpdeModel(sources=sources or [], target=target[0] if target else None,
                         betas=np.asarray(payload["betas"], dtype=float), mode=payload["mode"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DataLoadError(f"{path}: malformed bundle file ({exc})") from None
