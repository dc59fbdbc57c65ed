"""Dataset ingestion, PCA preprocessing, and a seeded covariate-shift generator.

CSV schema: one header row ``f0,...,f{D-1},y0,...,y{C-1}``, then one row per
sample.  Labels must be -1/+1 (or 0/1, which are mapped to -1/+1 with a
logged notice).  Lines starting with ``#`` are metadata comments and are
skipped.  One parse rule serves both loaders: a field is a number exactly when
``float()`` takes it as it stands, so whitespace around a number is accepted
and the ASCII separators \\x1c-\\x1f are not.  A file's fields are parsed in
one pass and checked as arrays.  Every CSV gpde writes goes through one
writer, with ``\\n`` line ends.

The synthetic generator builds one smooth latent label function (a random
Fourier-feature approximation of an RBF-kernel GP draw, thresholded at zero)
shared by every domain, then gives each source domain its own rotation plus
translation of the standard-normal feature distribution.  Labels depend on
features only through the shared function, so the conditional p(Y|X) is
identical across domains while p(X) shifts - covariate shift by construction.
Everything is deterministic given the seed.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import logging
import os
import stat
from dataclasses import asdict, dataclass, fields, is_dataclass
from time import perf_counter
from typing import NoReturn, get_type_hints

import numpy as np
from scipy.linalg import expm

from .exceptions import ConfigError, DataLoadError, InvalidInputError
from .experts import MODES, hard_labels
from .gp_core import Dataset
from .kernel import _as_matrix

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
# ShiftConfig's counts, and the float64 entries numpy can size in one array
_COUNTS = ("n_source_domains", "samples_per_domain", "n_target_train", "n_target_test",
           "dims", "n_outputs")
_MAX_ENTRIES = np.iinfo(np.intp).max // 8
_MAX_REGEN_ATTEMPTS = 50
_WARP_RATE = 0.45  # roughness growth of the latent label function beyond the core
_WARP_RADIUS = 2.5  # radius of the stationary core (covers the target region)


# ---------------------------------------------------------------------------
# CSV reading and writing
# ---------------------------------------------------------------------------

def _read_table(path, labeled: bool) -> tuple[np.ndarray, int]:
    """The values of a schema CSV, ``#`` comment lines skipped, as an N x
    width float array, and its feature count D.

    A ``labeled`` read (a dataset) takes the whole f0..f{D-1},y0..y{C-1}
    table, any other only the leading f0..f{D-1} columns.  Every field is
    parsed in one flat ``float()`` pass and checked as an array; only if a
    check fails does :func:`_walk_rows` find the first bad row and raise its
    error.
    """
    t0 = perf_counter()
    try:
        with open(path, newline="") as fh:  # a row's number is the line it ends on
            reader = csv.reader(fh)
            rows = [(reader.line_num, row) for row in reader
                    if row and not row[0].lstrip().startswith("#")]
    except (ValueError, csv.Error) as exc:  # ValueError: bad UTF-8, NUL in path
        raise DataLoadError(f"{path}: not a readable CSV file ({exc})") from None
    if not rows:
        raise DataLoadError(f"{path}: empty file")
    header = [c.strip() for c in rows.pop(0)[1]]
    n_feat = sum(1 for c in header if c.startswith("f"))
    n_lab = sum(1 for c in header if c.startswith("y")) if labeled else 0
    features = [f"f{i}" for i in range(n_feat)]
    if labeled:
        if n_feat < 1 or n_lab < 1 or header != features + [f"y{i}" for i in range(n_lab)]:
            raise DataLoadError(f"{path}: header must be f0..f{{D-1}},y0..y{{C-1}}, got {header}")
    elif n_feat < 1 or header[:n_feat] != features:
        raise DataLoadError(f"{path}: header must start with f0..f{{D-1}}, got {header}")
    if not rows:
        raise DataLoadError(f"{path}: no data rows")
    width, lengths, values = n_feat + n_lab, {len(row) for _, row in rows}, None
    if lengths == {width} or not labeled and min(lengths) >= width:
        with contextlib.suppress(ValueError):
            values = np.array([float(v) for _, row in rows for v in row[:width]]).reshape(-1, width)
    if values is None or not (np.isfinite(values).all()
                              and np.isin(values[:, n_feat:], _ALLOWED_LABELS).all()):
        _walk_rows(path, rows, n_feat, width, labeled)
    logger.debug("read %s: %d x %d in %.1f ms", path, *values.shape, 1e3 * (perf_counter() - t0))
    return values, n_feat


def _walk_rows(path, rows, n_feat: int, width: int, labeled: bool) -> NoReturn:
    """Raise the :class:`DataLoadError` of the first of :func:`_read_table`'s
    rows that fails one of its checks, made one row at a time; the read
    calls it only after a check has failed."""
    for lineno, row in rows:
        if len(row) != width if labeled else len(row) < width:
            expected = width if labeled else f">= {width}"
            raise DataLoadError(f"{path}: row {lineno} has {len(row)} fields, expected {expected}")
        try:
            values = [float(v) for v in row[:width]]
        except ValueError as exc:
            raise DataLoadError(f"{path}: row {lineno}: {exc}") from None
        if not np.all(np.isfinite(values)):
            raise DataLoadError(f"{path}: row {lineno} contains NaN/Inf")
        bad = [v for v in values[n_feat:] if v not in _ALLOWED_LABELS]
        if bad:
            raise DataLoadError(f"{path}: row {lineno} has label {bad[0]!r} outside {{-1, 0, 1}}")


def load_dataset(path, domain_id: str | None = None) -> Dataset:
    """Load a feature/label CSV into a validated :class:`Dataset`.

    Raises :class:`DataLoadError` naming the offending row for malformed
    values, NaN/Inf entries, or labels outside {-1, 0, 1}.
    """
    values, n_feat = _read_table(path, labeled=True)
    X, Y = values[:, :n_feat].copy(), values[:, n_feat:].copy()  # C-ordered, not strided views
    if np.any(Y == 0.0):
        if np.any(Y == -1.0):
            raise DataLoadError(f"{path}: mixes 0/1 and -1/+1 label conventions")
        logger.info("%s: labels in {0,1}; mapping 0 -> -1", path)
        Y = np.where(Y == 0.0, -1.0, Y)
    return Dataset(X=X, Y=Y, domain_id=domain_id if domain_id is not None else str(path))


def load_features(path) -> np.ndarray:
    """Load only the feature columns of a CSV; label columns, if present, are
    ignored so prediction inputs can omit them."""
    return _read_table(path, labeled=False)[0]


@contextlib.contextmanager
def _rewrite(path):
    """Open ``path`` to write text with ``\\n`` line ends, as ``open(path, "w",
    newline="")`` does but without truncating it to zero, and on leaving cut a
    regular file at the position written to, also when the write raised.

    The new bytes go over the old ones in place, so the file keeps its inode,
    its mode and its links, and a device or FIFO is written as ``open`` writes
    it.  Truncating a non-empty file to zero can block for tens of
    milliseconds on ext4; overwriting in place does not.  Every file gpde
    writes is written here.
    """
    with open(path, "w", newline="",
              opener=lambda p, flags: os.open(p, flags & ~os.O_TRUNC, 0o666)) as fh:
        try:
            yield fh
        finally:
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                fh.truncate()


def _write_csv(fh, header: list[str], formats: list[str], rows, comments=()) -> None:
    """Write ``# `` comment lines, the header (quoted as ``csv.writer`` quotes)
    and each row, its columns %-formatted by ``formats``, to ``fh`` in one
    string; every line ends in ``\\n``."""
    t0 = perf_counter()
    fmt = ",".join(formats)
    head = io.StringIO()  # so that csv.reader reads the header back to its fields
    csv.writer(head).writerow(header)
    lines = ([f"# {c}" for c in comments] + [head.getvalue().removesuffix("\r\n")]
             + [fmt % tuple(r) for r in rows])
    fh.write("\n".join(lines) + "\n")
    logger.debug("wrote %s: %d x %d in %.1f ms", getattr(fh, "name", "<stream>"), len(rows),
                 len(header), 1e3 * (perf_counter() - t0))


def save_dataset(path, data: Dataset, comments: list[str] | None = None) -> None:
    """Write a :class:`Dataset` using the CSV schema; ``repr`` floats round-trip exactly."""
    header = [f"f{i}" for i in range(data.dim)] + [f"y{i}" for i in range(data.n_outputs)]
    with _rewrite(path) as fh:
        _write_csv(fh, header, ["%r"] * len(header), np.hstack([data.X, data.Y]).tolist(),
                   comments or ())


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
    if not np.isfinite(X).all():
        raise InvalidInputError("pca_fit input contains NaN or Inf")
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
    X = _as_matrix(X, "X")
    if X.shape[1] != p.basis.shape[0]:
        raise InvalidInputError(
            f"X has D={X.shape[1]}, projector was fit with D={p.basis.shape[0]}"
        )
    if not np.isfinite(X).all():
        raise InvalidInputError("pca_apply input contains NaN or Inf")
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
        for name in _COUNTS[1:]:
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
        # every count, and the largest float64 array synth_shift draws from
        # it (rows x dims, n_outputs or Fourier features, Fourier features x
        # dims or n_outputs, dims x dims), must be one numpy can size
        width = max(self.dims, self.n_outputs, _N_FOURIER_FEATURES)
        entries = {"n_source_domains": self.n_source_domains,
                   "dims": self.dims * max(self.dims, _N_FOURIER_FEATURES),
                   "n_outputs": self.n_outputs * _N_FOURIER_FEATURES,
                   **{name: getattr(self, name) * width for name in _COUNTS[1:4]}}
        for name, size in entries.items():
            if size > _MAX_ENTRIES:
                raise ConfigError(f"{name} = {getattr(self, name)} is too large: numpy cannot size "
                                  f"an array of {size} float64 entries (at most {_MAX_ENTRIES})")


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
    with _rewrite(path) as fh:
        for f in fields(cfg):
            fh.write(f"{f.name} = {getattr(cfg, f.name)}\n")


def load_shift_config(path) -> ShiftConfig:
    """Parse a flat ``key = value`` file into a :class:`ShiftConfig`; a
    caller changes fields of the result with :func:`dataclasses.replace`."""
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
    return ShiftConfig(**values)


def config_hash(obj) -> str:
    """Short sha256 of the sorted-key JSON of a dict or of a dataclass's fields.
    Values JSON has no type for, such as numpy integers, enter as their ``str``."""
    canon = json.dumps(asdict(obj) if is_dataclass(obj) else obj, sort_keys=True, default=str)
    return hashlib.sha256(canon.encode()).hexdigest()[:12]
