import hashlib
import json

import numpy as np
import pytest

from gpde import Dataset, Hyperparams


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


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


def with_config_hash(payload: dict) -> dict:
    """``payload`` with the ``config_hash`` a saved model file carries: the
    first 12 hex digits of the sha256 of its sorted-key JSON, less that key."""
    body = {k: v for k, v in payload.items() if k != "config_hash"}
    canon = json.dumps(body, sort_keys=True).encode()
    return {**body, "config_hash": hashlib.sha256(canon).hexdigest()[:12]}
