import json
import shutil

import numpy as np
import pytest

from gpde import (
    DataLoadError,
    GpdeModel,
    Hyperparams,
    load_bundle,
    load_experts,
    posterior,
    predict,
    save_bundle,
    save_dataset,
    save_expert_pool,
    uniform_betas,
)
from conftest import random_dataset, with_config_hash


@pytest.fixture
def pool_dir(tmp_path, rng):
    """A directory holding two source CSVs, one target CSV, and both pool files."""
    d = tmp_path / "pools"
    d.mkdir()
    paths = []
    for k in range(2):
        data = random_dataset(rng, n=12, d=2, c=1, domain_id=f"source_{k}")
        p = d / f"source_{k}.csv"
        save_dataset(p, data)
        paths.append((data.domain_id, str(p)))
    target = random_dataset(rng, n=8, d=2, c=1, domain_id="target")
    tp = d / "target.csv"
    save_dataset(tp, target)
    hyper = Hyperparams(length_scale=1.3, signal_std=0.9, noise_std=0.2)
    save_expert_pool(d / "sources.json", hyper, paths, seed=7)
    save_expert_pool(d / "targetpool.json", hyper, [("target", str(tp))], seed=7)
    return d


class TestExpertPool:
    def test_hyperparams_round_trip(self, pool_dir):
        experts = load_experts(pool_dir / "sources.json")
        hyper = experts[0].hyper
        assert all(e.hyper == hyper for e in experts)
        assert abs(hyper.length_scale - 1.3) < 1e-12
        assert abs(hyper.signal_std - 0.9) < 1e-12
        assert abs(hyper.noise_std - 0.2) < 1e-12
        assert [e.data.domain_id for e in experts] == ["source_0", "source_1"]

    def test_relative_paths_survive_directory_move(self, pool_dir, tmp_path):
        moved = tmp_path / "elsewhere"
        shutil.move(str(pool_dir), str(moved))
        assert len(load_experts(moved / "sources.json")) == 2

    def test_experts_rebuilt_deterministically(self, pool_dir, rng):
        e1 = load_experts(pool_dir / "sources.json")
        e2 = load_experts(pool_dir / "sources.json")
        Xs = rng.normal(size=(5, 2))
        for a, b in zip(e1, e2):
            pa, pb = posterior(a, Xs), posterior(b, Xs)
            assert np.array_equal(pa.mean, pb.mean)
            assert np.array_equal(pa.variance, pb.variance)

    def test_wrong_kind_rejected(self, pool_dir):
        with pytest.raises(DataLoadError, match="kind"):
            load_experts(pool_dir / "targetpool.json")
            load_bundle(pool_dir / "sources.json")
        with pytest.raises(DataLoadError, match="kind"):
            load_bundle(pool_dir / "sources.json")

    def test_malformed_file_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(DataLoadError):
            load_experts(bad)
        bad.write_text(json.dumps(with_config_hash({"kind": "gpde_expert_pool"})))
        with pytest.raises(DataLoadError, match="malformed"):
            load_experts(bad)

    def test_config_hash_embedded(self, pool_dir):
        payload = json.loads((pool_dir / "sources.json").read_text())
        assert len(payload["config_hash"]) == 12

    def test_config_hash_recomputes_from_the_file(self, pool_dir):
        payload = json.loads((pool_dir / "sources.json").read_text())
        assert with_config_hash(payload) == payload

    def test_edited_hyperparameter_rejected(self, pool_dir):
        path = pool_dir / "sources.json"
        payload = json.loads(path.read_text())
        payload["hyperparams"]["log_noise_std"] += 0.5
        path.write_text(json.dumps(payload))
        with pytest.raises(DataLoadError, match="config_hash") as err:
            load_experts(path)
        assert str(path) in str(err.value)

    def test_missing_config_hash_rejected(self, pool_dir):
        path = pool_dir / "sources.json"
        payload = json.loads(path.read_text())
        del payload["config_hash"]
        path.write_text(json.dumps(payload))
        with pytest.raises(DataLoadError, match="config_hash"):
            load_experts(path)


class TestBundle:
    def test_round_trip_predictions_identical(self, pool_dir, rng):
        sources = load_experts(pool_dir / "sources.json")
        (target,) = load_experts(pool_dir / "targetpool.json")
        direct = GpdeModel(sources=sources, target=target, betas=uniform_betas(3))
        save_bundle(pool_dir / "bundle.json", pool_dir / "sources.json",
                    pool_dir / "targetpool.json", betas=direct.betas, seed=7)
        loaded = load_bundle(pool_dir / "bundle.json")
        Xs = rng.normal(size=(6, 2))
        a, b = predict(direct, Xs), predict(loaded, Xs)
        assert np.array_equal(a.mean, b.mean)
        assert np.array_equal(a.variance, b.variance)

    def test_default_betas_uniform(self, pool_dir):
        save_bundle(pool_dir / "bundle.json", pool_dir / "sources.json",
                    pool_dir / "targetpool.json")
        model = load_bundle(pool_dir / "bundle.json")
        assert np.allclose(model.betas, 1.0 / 3.0)

    def test_source_only_bundle(self, pool_dir):
        save_bundle(pool_dir / "bundle.json", pool_dir / "sources.json", None)
        model = load_bundle(pool_dir / "bundle.json")
        assert model.target is None
        assert len(model.betas) == 2

    def test_multi_domain_target_pool_rejected(self, pool_dir):
        save_bundle(pool_dir / "bundle.json", pool_dir / "targetpool.json",
                    pool_dir / "sources.json")
        with pytest.raises(DataLoadError, match="exactly one"):
            load_bundle(pool_dir / "bundle.json")

    def test_mode_preserved(self, pool_dir):
        save_bundle(pool_dir / "bundle.json", pool_dir / "sources.json",
                    pool_dir / "targetpool.json", mode="multiclass")
        assert load_bundle(pool_dir / "bundle.json").mode == "multiclass"
