import contextlib
import io
import json

import numpy as np
import pytest

from gpde import (
    DataLoadError,
    Dataset,
    GpdeModel,
    Hyperparams,
    InvalidInputError,
    load_bundle,
    load_experts,
    posterior,
    predict,
    save_bundle,
    save_expert_pool,
    train_expert,
    train_gpde,
)
from gpde.cli import main
from conftest import random_dataset, with_config_hash


@pytest.fixture
def pool_dir(tmp_path, rng):
    """A directory holding a two-domain source pool and a one-domain target pool."""
    d = tmp_path / "pools"
    d.mkdir()
    sources = [random_dataset(rng, n=12, d=2, c=1, domain_id=f"source_{k}") for k in range(2)]
    target = random_dataset(rng, n=8, d=2, c=1, domain_id="target")
    hyper = Hyperparams(length_scale=1.3, signal_std=0.9, noise_std=0.2)
    save_expert_pool(d / "sources.json", hyper, sources, seed=7)
    save_expert_pool(d / "targetpool.json", hyper, [target], seed=7)
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

    def test_pool_holds_the_trained_arrays(self, tmp_path, rng):
        data = random_dataset(rng, n=9, d=3, c=2, domain_id="source_0")
        save_expert_pool(tmp_path / "pool.json", Hyperparams(1.0, 1.0, 0.3), [data])
        (loaded,) = load_experts(tmp_path / "pool.json")
        assert loaded.data.domain_id == "source_0"
        assert np.array_equal(loaded.data.X, data.X)
        assert np.array_equal(loaded.data.Y, data.Y)

    def test_labels_other_than_plus_minus_one_rejected_on_save(self, tmp_path, rng):
        data = Dataset(rng.normal(size=(4, 2)), rng.normal(size=(4, 1)), "real")
        with pytest.raises(InvalidInputError, match="labels"):
            save_expert_pool(tmp_path / "pool.json", Hyperparams(1.0, 1.0, 0.3), [data])
        assert not (tmp_path / "pool.json").exists()

    def test_experts_rebuilt_deterministically(self, pool_dir, rng):
        e1 = load_experts(pool_dir / "sources.json")
        e2 = load_experts(pool_dir / "sources.json")
        Xs = rng.normal(size=(5, 2))
        for a, b in zip(e1, e2):
            pa, pb = posterior(a, Xs), posterior(b, Xs)
            assert np.array_equal(pa.mean, pb.mean)
            assert np.array_equal(pa.variance, pb.variance)

    def test_wrong_kind_rejected(self, pool_dir):
        sources = load_experts(pool_dir / "sources.json")
        save_bundle(pool_dir / "bundle.json", GpdeModel(sources, None, [0.5, 0.5]))
        with pytest.raises(DataLoadError, match="kind"):
            load_experts(pool_dir / "bundle.json")
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
        payload["hyperparams"]["noise_std"] += 0.5
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


def _one_hot(rng, n, c, domain_id):
    """A multiclass dataset: one +1 per row, -1 elsewhere."""
    Y = -np.ones((n, c))
    Y[np.arange(n), rng.integers(0, c, size=n)] = 1.0
    return Dataset(rng.normal(size=(n, 2)), Y, domain_id)


def _assert_same_model(a: GpdeModel, b: GpdeModel, Xs):
    assert np.array_equal(a.betas, b.betas) and a.mode == b.mode
    pa, pb = predict(a, Xs), predict(b, Xs)
    assert np.array_equal(pa.mean, pb.mean)
    assert np.array_equal(pa.variance, pb.variance)
    assert np.array_equal(pa.labels, pb.labels)


class TestBundle:
    def test_round_trip_predictions_identical(self, tmp_path, rng):
        sources = [_one_hot(rng, 10, 3, f"source_{k}") for k in range(2)]
        trained = train_gpde(sources, _one_hot(rng, 6, 3, "target"))
        model = GpdeModel(trained.sources, trained.target, [0.5, 0.2, 0.3], "multiclass")
        save_bundle(tmp_path / "bundle.json", model, seed=7)
        _assert_same_model(model, load_bundle(tmp_path / "bundle.json"),
                           rng.normal(size=(6, 2)))

    def test_default_betas_uniform(self, pool_dir):
        """The betas ``adapt`` writes are uniform over the experts present."""
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["adapt", "--source", str(pool_dir / "sources.json"),
                         "--target", str(pool_dir / "targetpool.json"),
                         "--out", str(pool_dir / "bundle.json")]) == 0
        assert np.array_equal(load_bundle(pool_dir / "bundle.json").betas, np.full(3, 1.0 / 3))

    def test_betas_default_to_uniform(self, pool_dir):
        sources = load_experts(pool_dir / "sources.json")
        (target,) = load_experts(pool_dir / "targetpool.json")
        implicit = GpdeModel(sources, target)
        assert np.array_equal(implicit.betas, np.full(3, 1.0 / 3))
        save_bundle(pool_dir / "implicit.json", implicit, seed=0)
        save_bundle(pool_dir / "explicit.json", GpdeModel(sources, target, np.full(3, 1.0 / 3)),
                    seed=0)
        assert (pool_dir / "implicit.json").read_bytes() == \
            (pool_dir / "explicit.json").read_bytes()

    def test_source_only_bundle(self, tmp_path, rng):
        model = train_gpde([random_dataset(rng, n=9, d=2, c=2, domain_id=f"s{k}")
                            for k in range(2)], None)
        save_bundle(tmp_path / "bundle.json", model)
        loaded = load_bundle(tmp_path / "bundle.json")
        assert loaded.target is None and len(loaded.sources) == 2
        _assert_same_model(model, loaded, rng.normal(size=(5, 2)))

    def test_target_only_bundle(self, tmp_path, rng):
        model = train_gpde([], random_dataset(rng, n=9, d=2, c=2, domain_id="t"))
        save_bundle(tmp_path / "bundle.json", model)
        loaded = load_bundle(tmp_path / "bundle.json")
        assert loaded.sources == [] and loaded.target.data.domain_id == "t"
        _assert_same_model(model, loaded, rng.normal(size=(5, 2)))

    def test_multi_domain_target_pool_rejected(self, pool_dir):
        sources = load_experts(pool_dir / "sources.json")
        save_bundle(pool_dir / "bundle.json", GpdeModel(sources[:1], sources[1], [0.5, 0.5]))
        path = pool_dir / "bundle.json"
        payload = json.loads(path.read_text())
        payload["target"]["domains"] *= 2
        path.write_text(json.dumps(with_config_hash(payload)))
        with pytest.raises(DataLoadError, match="exactly one domain") as err:
            load_bundle(path)
        assert str(path) in str(err.value)

    def test_mode_preserved(self, pool_dir):
        sources = load_experts(pool_dir / "sources.json")
        save_bundle(pool_dir / "bundle.json", GpdeModel(sources, None, [0.5, 0.5], "multiclass"))
        assert load_bundle(pool_dir / "bundle.json").mode == "multiclass"


class TestExactHyperparameters:
    # a triple in the form fit returns, which exp(log(h)) misses by one ulp
    HYPER = Hyperparams(length_scale=5.422563343957166, signal_std=1.8628828768463397,
                        noise_std=0.21673218136665054)

    def test_reloaded_bundle_predicts_the_same_bits(self, tmp_path, rng):
        h = self.HYPER
        assert Hyperparams.from_log(h.to_log()) != h  # log-space storage changed it
        sources = [train_expert(random_dataset(rng, n=12, d=2, c=2, domain_id=f"s{k}"), h)
                   for k in range(2)]
        target = train_expert(random_dataset(rng, n=8, d=2, c=2, domain_id="t"), h)
        model = GpdeModel(sources, target, np.full(3, 1.0 / 3))
        save_bundle(tmp_path / "bundle.json", model)
        loaded = load_bundle(tmp_path / "bundle.json")
        _assert_same_model(model, loaded, rng.normal(size=(20, 2)))
        assert all(e.hyper == h for e in loaded.sources + [loaded.target])

    def test_reloaded_pool_keeps_the_hyperparameters(self, tmp_path, rng):
        save_expert_pool(tmp_path / "pool.json", self.HYPER, [random_dataset(rng)])
        (loaded,) = load_experts(tmp_path / "pool.json")
        assert loaded.hyper == self.HYPER
