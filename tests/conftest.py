import hashlib
import json

import numpy as np
import pytest

from gpde import Dataset, Hyperparams, ShiftConfig, pca_apply, pca_fit, synth_shift, train_gpde


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def serve_model():
    """The benchmark's serve-sized model: 5 x 120 sources, 100 target rows,
    and 300 test rows."""
    sources, pool, test = synth_shift(ShiftConfig(n_target_test=300))
    return train_gpde(sources, Dataset(pool.X[:100], pool.Y[:100], "target")), test.X


def random_dataset(rng, n=6, d=2, c=1, domain_id="dom"):
    X = rng.normal(size=(n, d))
    Y = rng.choice([-1.0, 1.0], size=(n, c))
    return Dataset(X=X, Y=Y, domain_id=domain_id)


def random_hyper(rng):
    return Hyperparams(
        length_scale=float(rng.uniform(0.5, 2.0)),
        signal_std=float(rng.uniform(0.5, 1.5)),
        noise_std=float(rng.uniform(0.05, 0.5)),
    )


def protocol_pooled_source() -> Dataset:
    """The benchmark's protocol corpus, pooled and PCA-projected as the
    GP-source baseline fits it: N=300."""
    sources, _, _ = synth_shift(ShiftConfig(samples_per_domain=60))
    X = np.concatenate([s.X for s in sources])
    return Dataset(pca_apply(pca_fit(X, 0.99), X), np.concatenate([s.Y for s in sources]),
                   "source_pool")


def with_config_hash(payload: dict) -> dict:
    """``payload`` with the ``config_hash`` a saved model file carries: the
    first 12 hex digits of the sha256 of its sorted-key JSON, less that key."""
    body = {k: v for k, v in payload.items() if k != "config_hash"}
    canon = json.dumps(body, sort_keys=True).encode()
    return {**body, "config_hash": hashlib.sha256(canon).hexdigest()[:12]}
