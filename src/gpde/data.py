"""Dataset ingestion, PCA preprocessing, and a seeded covariate-shift generator.

CSV schema: one header row ``f0,...,f{D-1},y0,...,y{C-1}``, then one row per
sample.  Labels must be -1/+1 (or 0/1, which are mapped to -1/+1 with a
logged notice).  Lines starting with ``#`` are metadata comments and are
skipped.

The synthetic generator builds one smooth latent label function (a random
Fourier-feature approximation of an RBF-kernel GP draw, thresholded at zero)
shared by every domain, then gives each source domain its own rotation plus
translation of the standard-normal feature distribution.  Labels depend on
features only through the shared function, so the conditional p(Y|X) is
identical across domains while p(X) shifts - covariate shift by construction.
Everything is deterministic given the seed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import logging
from dataclasses import asdict, dataclass, fields, is_dataclass, replace
from typing import get_type_hints

import numpy as np
from scipy.linalg import expm

from .exceptions import ConfigError, DataLoadError, InvalidInputError
from .experts import MODES, hard_labels
from .gp_core import Dataset

__all__ = [
    "load_dataset",
    "load_features",
    "save_dataset",
    "PcaProjector",
    "pca_fit",
    "pca_apply",
    "ShiftConfig",
    "synth_shift",
    "load_shift_config",
    "save_shift_config",
    "config_hash",
]

logger = logging.getLogger(__name__)

_ALLOWED_LABELS = (-1.0, 0.0, 1.0)
_N_FOURIER_FEATURES = 128
_MAX_REGEN_ATTEMPTS = 50
_WARP_RATE = 0.45  # roughness growth of the latent label function beyond the core
_WARP_RADIUS = 2.5  # radius of the stationary core (covers the target region)


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------

def _read_csv(path) -> tuple[list[str], list[tuple[int, list[str]]]]:
    """Stripped header and numbered data rows of a schema CSV, ``#`` comment
    lines skipped."""
    try:
        with open(path, newline="") as fh:
            rows = [
                (lineno, row)
                for lineno, row in enumerate(csv.reader(fh), start=1)
                if row and not row[0].lstrip().startswith("#")
            ]
    except (ValueError, csv.Error) as exc:  # ValueError: bad UTF-8, NUL in path
        raise DataLoadError(f"{path}: not a readable CSV file ({exc})") from None
    if not rows:
        raise DataLoadError(f"{path}: empty file")
    return [c.strip() for c in rows[0][1]], rows[1:]


def _parse_row(path, lineno: int, fields: list[str]) -> list[float]:
    """A row's fields as finite floats, or a :class:`DataLoadError` naming the row."""
    try:
        values = [float(v) for v in fields]
    except ValueError as exc:
        raise DataLoadError(f"{path}: row {lineno}: {exc}") from None
    if not np.all(np.isfinite(values)):
        raise DataLoadError(f"{path}: row {lineno} contains NaN/Inf")
    return values


def load_dataset(path, domain_id: str | None = None) -> Dataset:
    """Load a feature/label CSV into a validated :class:`Dataset`.

    Raises :class:`DataLoadError` naming the offending row for malformed
    values, NaN/Inf entries, or labels outside {-1, 0, 1}.
    """
    header, rows = _read_csv(path)
    n_feat = sum(1 for c in header if c.startswith("f"))
    n_lab = sum(1 for c in header if c.startswith("y"))
    expected = [f"f{i}" for i in range(n_feat)] + [f"y{i}" for i in range(n_lab)]
    if n_feat < 1 or n_lab < 1 or header != expected:
        raise DataLoadError(f"{path}: header must be f0..f{{D-1}},y0..y{{C-1}}, got {header}")
    X_rows, Y_rows = [], []
    for lineno, row in rows:
        if len(row) != n_feat + n_lab:
            raise DataLoadError(
                f"{path}: row {lineno} has {len(row)} fields, expected {n_feat + n_lab}"
            )
        values = _parse_row(path, lineno, row)
        labels = values[n_feat:]
        bad = [v for v in labels if v not in _ALLOWED_LABELS]
        if bad:
            raise DataLoadError(f"{path}: row {lineno} has label {bad[0]!r} outside {{-1, 0, 1}}")
        X_rows.append(values[:n_feat])
        Y_rows.append(labels)
    if not X_rows:
        raise DataLoadError(f"{path}: no data rows")
    X = np.array(X_rows)
    Y = np.array(Y_rows)
    if np.any(Y == 0.0):
        if np.any(Y == -1.0):
            raise DataLoadError(f"{path}: mixes 0/1 and -1/+1 label conventions")
        logger.info("%s: labels in {0,1}; mapping 0 -> -1", path)
        Y = np.where(Y == 0.0, -1.0, Y)
    return Dataset(X=X, Y=Y, domain_id=domain_id if domain_id is not None else str(path))


def load_features(path) -> np.ndarray:
    """Load only the feature columns of a CSV; label columns, if present, are
    ignored so prediction inputs can omit them."""
    header, rows = _read_csv(path)
    n_feat = sum(1 for c in header if c.startswith("f"))
    if n_feat < 1 or header[:n_feat] != [f"f{i}" for i in range(n_feat)]:
        raise DataLoadError(f"{path}: header must start with f0..f{{D-1}}, got {header}")
    X_rows = []
    for lineno, row in rows:
        if len(row) < n_feat:
            raise DataLoadError(f"{path}: row {lineno} has {len(row)} fields, expected >= {n_feat}")
        X_rows.append(_parse_row(path, lineno, [c.strip() for c in row[:n_feat]]))
    if not X_rows:
        raise DataLoadError(f"{path}: no data rows")
    return np.array(X_rows)


def save_dataset(path, data: Dataset, comments: list[str] | None = None) -> None:
    """Write a :class:`Dataset` using the CSV schema; ``repr`` floats round-trip exactly."""
    with open(path, "w", newline="") as fh:
        for line in comments or []:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh)
        writer.writerow([f"f{i}" for i in range(data.dim)] + [f"y{i}" for i in range(data.n_outputs)])
        for x, y in zip(data.X, data.Y):
            writer.writerow([repr(float(v)) for v in x] + [repr(float(v)) for v in y])


# ---------------------------------------------------------------------------
# PCA
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PcaProjector:
    """Centering vector plus an orthonormal basis retaining ``energy`` of the spectrum."""

    mean: np.ndarray
    basis: np.ndarray  # D x d, orthonormal columns
    energy: float


def pca_fit(X, energy: float = 0.99) -> PcaProjector:
    """Fit a projector onto the smallest leading eigenbasis of the centered
    covariance whose cumulative eigenvalue fraction reaches ``energy``.

    Directions with numerically zero variance are truncated rather than
    failing, so ``d`` never exceeds the effective rank.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] < 2:
        raise InvalidInputError("pca_fit needs an N x D matrix with N >= 2")
    if not 0.0 < energy <= 1.0:
        raise InvalidInputError(f"energy must be in (0, 1], got {energy}")
    mean = X.mean(axis=0)
    _, s, Vt = np.linalg.svd(X - mean, full_matrices=False)
    eigs = s**2
    total = float(eigs.sum())
    if total == 0.0:  # constant data: nothing to retain
        return PcaProjector(mean=mean, basis=np.zeros((X.shape[1], 0)), energy=energy)
    rank = int(np.sum(eigs > eigs[0] * 1e-12))
    cum = np.cumsum(eigs) / total
    reaching = np.nonzero(cum >= energy - 1e-12)[0]
    d = int(reaching[0]) + 1 if reaching.size else rank
    d = min(d, rank)
    return PcaProjector(mean=mean, basis=Vt[:d].T.copy(), energy=energy)


def pca_apply(p: PcaProjector, X) -> np.ndarray:
    """Center by the fitted mean and project onto the retained basis."""
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[None, :]
    if X.shape[1] != p.basis.shape[0]:
        raise InvalidInputError(
            f"X has D={X.shape[1]}, projector was fit with D={p.basis.shape[0]}"
        )
    return (X - p.mean) @ p.basis


# ---------------------------------------------------------------------------
# Synthetic covariate-shift generator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ShiftConfig:
    """Configuration of the synthetic multi-domain generator.

    ``shift_magnitude`` scales both the rotation angle and the translation
    length applied to each source domain's feature distribution.
    ``label_complexity`` is the length-scale of the shared latent label
    function (smaller = wigglier decision boundaries).
    """

    n_source_domains: int = 5
    samples_per_domain: int = 120
    n_target_train: int = 500
    n_target_test: int = 300
    dims: int = 3
    n_outputs: int = 2
    shift_magnitude: float = 4.5
    label_complexity: float = 1.6
    mode: str = "multilabel"
    seed: int = 0

    def __post_init__(self):
        if self.n_source_domains < 0:
            raise ConfigError("n_source_domains must be >= 0")
        for name in ("samples_per_domain", "n_target_train", "n_target_test", "dims", "n_outputs"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if not 0 <= self.shift_magnitude < np.inf:  # also false for NaN
            raise ConfigError("shift_magnitude must be finite and >= 0")
        if not 0 < self.label_complexity < np.inf:
            raise ConfigError("label_complexity must be finite and > 0")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be multilabel or multiclass, got {self.mode!r}")
        if self.mode == "multiclass" and self.n_outputs < 2:
            raise ConfigError("multiclass mode needs n_outputs >= 2")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


def _latent_label_fn(cfg: ShiftConfig):
    """The latent score function shared by every domain of ``cfg``.

    Returns a callable mapping (N x dims) features to (N x n_outputs) real
    scores: a random Fourier-feature draw approximating a unit-variance
    RBF-kernel GP draw with length-scale ``label_complexity`` inside the
    core radius that covers the (unshifted) target region.  Beyond that
    radius a smooth radial warp shortens the effective length-scale, so the
    shifted source regions carry a rougher version of the shared boundary.
    Without that roughness gradient a single pooled source GP is already
    near-optimal after adaptation and the documented multi-expert gains
    cannot show up.
    """
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0]))
    W = rng.normal(0.0, 1.0, size=(_N_FOURIER_FEATURES, cfg.dims))
    phase = rng.uniform(0.0, 2.0 * np.pi, size=_N_FOURIER_FEATURES)
    amp = rng.normal(size=(_N_FOURIER_FEATURES, cfg.n_outputs))
    scale = np.sqrt(2.0 / _N_FOURIER_FEATURES)

    def score(X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        radius = np.linalg.norm(X, axis=1, keepdims=True)
        excess = np.maximum(0.0, radius - _WARP_RADIUS)
        Z = X * (1.0 + _WARP_RATE * excess**2) / cfg.label_complexity
        return scale * np.cos(Z @ W.T + phase) @ amp

    return score


def _domain_transform(cfg: ShiftConfig, domain_index: int) -> tuple[np.ndarray, np.ndarray]:
    """Rotation matrix and translation vector for one source domain."""
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 1, domain_index]))
    d = cfg.dims
    G = rng.normal(size=(d, d))
    A = 0.5 * (G - G.T)
    norm = np.linalg.norm(A, 2)
    rotation = expm(cfg.shift_magnitude * A / norm) if norm > 0 else np.eye(d)
    direction = rng.normal(size=d)
    direction /= np.linalg.norm(direction)
    return rotation, cfg.shift_magnitude * direction


def _sample_domain(cfg: ShiftConfig, stream: int, n: int, rotation, translation,
                   score_fn, domain_id: str) -> Dataset:
    """Draw one domain, re-drawing with an incremented sub-seed until every
    label column contains both classes."""
    for attempt in range(_MAX_REGEN_ATTEMPTS):
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 2, stream, attempt]))
        X = rng.standard_normal((n, cfg.dims))
        if rotation is not None:
            X = X @ rotation.T + translation
        Y = hard_labels(score_fn(X), cfg.mode)
        if np.all(np.any(Y > 0, axis=0) & np.any(Y < 0, axis=0)):
            if attempt:
                logger.info("domain %s: regenerated %d time(s) to get both classes",
                            domain_id, attempt)
            return Dataset(X=X, Y=Y, domain_id=domain_id)
    raise ConfigError(
        f"domain {domain_id}: could not produce both classes in every output after "
        f"{_MAX_REGEN_ATTEMPTS} attempts; adjust label_complexity or sample counts"
    )


def synth_shift(cfg: ShiftConfig) -> tuple[list[Dataset], Dataset, Dataset]:
    """Generate ``(source_datasets, target_train, target_test)`` for ``cfg``.

    Target domains use the untransformed base distribution; each source
    domain is rotated and translated by ``shift_magnitude``.  All labels come
    from one shared latent function, evaluated at the sampled points.
    """
    score_fn = _latent_label_fn(cfg)
    sources = []
    for k in range(cfg.n_source_domains):
        rotation, translation = _domain_transform(cfg, k)
        sources.append(
            _sample_domain(cfg, k, cfg.samples_per_domain, rotation, translation,
                           score_fn, f"source_{k}")
        )
    target_train = _sample_domain(cfg, cfg.n_source_domains, cfg.n_target_train,
                                  None, None, score_fn, "target_train")
    target_test = _sample_domain(cfg, cfg.n_source_domains + 1, cfg.n_target_test,
                                 None, None, score_fn, "target_test")
    return sources, target_train, target_test


# ---------------------------------------------------------------------------
# Flat key=value config files and artifact hashing
# ---------------------------------------------------------------------------

def save_shift_config(path, cfg: ShiftConfig) -> None:
    with open(path, "w") as fh:
        for f in fields(cfg):
            fh.write(f"{f.name} = {getattr(cfg, f.name)}\n")


def load_shift_config(path, **overrides) -> ShiftConfig:
    """Parse a flat ``key = value`` file into a :class:`ShiftConfig`."""
    known = get_type_hints(ShiftConfig)  # field name: declared type
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not a readable config file ({exc})") from None
    values: dict = {}
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}: line {lineno}: expected key = value")
        key, _, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in known:
            raise ConfigError(f"{path}: line {lineno}: unknown key {key!r}")
        try:
            values[key] = known[key](raw)
        except ValueError:
            raise ConfigError(f"{path}: line {lineno}: bad value {raw!r} for {key}") from None
    cfg = ShiftConfig(**values)
    return replace(cfg, **overrides) if overrides else cfg


def config_hash(obj) -> str:
    """Short sha256 of the sorted-key JSON of a dict or of a dataclass's fields.
    Values JSON has no type for, such as numpy integers, enter as their ``str``."""
    canon = json.dumps(asdict(obj) if is_dataclass(obj) else obj, sort_keys=True, default=str)
    return hashlib.sha256(canon.encode()).hexdigest()[:12]
