import logging

import numpy as np
import pytest

from gpde import (
    ConfigError,
    DataLoadError,
    Dataset,
    ShiftConfig,
    config_hash,
    load_dataset,
    load_features,
    load_shift_config,
    pca_apply,
    pca_fit,
    save_dataset,
    save_shift_config,
    synth_shift,
)
from gpde.data import _latent_label_fn


class TestCsvRoundTrip:
    def test_two_row_file_round_trips_bit_identically(self, tmp_path):
        data = Dataset(X=np.array([[0.125, -3.5], [1e-17, 2.0]]),
                       Y=np.array([[1.0], [-1.0]]), domain_id="d")
        path = tmp_path / "d.csv"
        save_dataset(path, data)
        back = load_dataset(path, domain_id="d")
        assert np.array_equal(back.X, data.X)
        assert np.array_equal(back.Y, data.Y)

    def test_label_half_names_offending_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,y0\n0.0,1\n0.5,0.5\n")
        with pytest.raises(DataLoadError, match="row 3"):
            load_dataset(path)

    def test_zero_one_labels_mapped_with_notice(self, tmp_path, caplog):
        path = tmp_path / "zo.csv"
        path.write_text("f0,y0\n0.1,0\n0.2,1\n")
        with caplog.at_level(logging.INFO, logger="gpde.data"):
            data = load_dataset(path)
        assert np.array_equal(data.Y.ravel(), [-1.0, 1.0])
        assert any("mapping" in r.message for r in caplog.records)

    def test_mixed_label_conventions_rejected(self, tmp_path):
        path = tmp_path / "mix.csv"
        path.write_text("f0,y0\n0.1,0\n0.2,-1\n")
        with pytest.raises(DataLoadError, match="convention"):
            load_dataset(path)

    def test_comment_lines_skipped(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("# seed=3\nf0,y0\n# mid comment\n0.5,1\n")
        assert load_dataset(path).n == 1

    def test_malformed_row_named(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("f0,f1,y0\n0.1,0.2,1\n0.3,1\n")
        with pytest.raises(DataLoadError, match="row 3"):
            load_dataset(path)

    def test_nan_rejected(self, tmp_path):
        path = tmp_path / "n.csv"
        path.write_text("f0,y0\nnan,1\n")
        with pytest.raises(DataLoadError, match="row 2"):
            load_dataset(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("a,b\n0.1,1\n")
        with pytest.raises(DataLoadError, match="header"):
            load_dataset(path)

    def test_load_features_ignores_labels(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("f0,f1,y0\n0.1,0.2,1\n0.3,0.4,-1\n")
        X = load_features(path)
        assert np.array_equal(X, [[0.1, 0.2], [0.3, 0.4]])

    def test_load_features_without_labels(self, tmp_path):
        path = tmp_path / "fo.csv"
        path.write_text("f0,f1\n0.1,0.2\n")
        assert load_features(path).shape == (1, 2)


class TestPca:
    def test_full_energy_full_rank(self, rng):
        X = rng.normal(size=(20, 4))
        p = pca_fit(X, energy=1.0)
        assert p.basis.shape == (4, min(19, 4))

    def test_planar_data_gives_two_components(self, rng):
        basis = np.linalg.qr(rng.normal(size=(5, 2)))[0]
        X = rng.normal(size=(40, 2)) @ basis.T + rng.normal(size=5)
        p = pca_fit(X, energy=0.99)
        assert p.basis.shape[1] == 2
        Z = pca_apply(p, X)
        recon = Z @ p.basis.T + p.mean
        assert np.max(np.abs(recon - X)) < 1e-10

    def test_retained_variance_meets_energy(self, rng):
        X = rng.normal(size=(50, 6)) * np.array([3.0, 2.0, 1.5, 1.0, 0.5, 0.1])
        p = pca_fit(X, energy=0.99)
        Z = pca_apply(p, X)
        total = np.var(X - X.mean(0), axis=0).sum()
        assert Z.var(axis=0).sum() / total >= 0.99 - 1e-9

    def test_distances_preserved_in_subspace(self, rng):
        basis = np.linalg.qr(rng.normal(size=(6, 3)))[0]
        X = rng.normal(size=(25, 3)) @ basis.T
        p = pca_fit(X, energy=0.999)
        Z = pca_apply(p, X)
        orig = np.linalg.norm(X[:, None] - X[None, :], axis=-1)
        proj = np.linalg.norm(Z[:, None] - Z[None, :], axis=-1)
        assert np.allclose(orig, proj, atol=1e-8)

    def test_rejects_single_sample_and_bad_energy(self, rng):
        with pytest.raises(Exception):
            pca_fit(rng.normal(size=(1, 3)))
        with pytest.raises(Exception):
            pca_fit(rng.normal(size=(5, 3)), energy=0.0)


class TestShiftConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            ShiftConfig(n_source_domains=-1)
        with pytest.raises(ConfigError):
            ShiftConfig(samples_per_domain=0)
        with pytest.raises(ConfigError):
            ShiftConfig(shift_magnitude=-0.1)
        for name in ("shift_magnitude", "label_complexity"):
            for value in (float("nan"), float("inf"), float("-inf")):
                with pytest.raises(ConfigError, match=name):
                    ShiftConfig(**{name: value})
        with pytest.raises(ConfigError):
            ShiftConfig(mode="other")
        with pytest.raises(ConfigError):
            ShiftConfig(mode="multiclass", n_outputs=1)
        with pytest.raises(ConfigError, match="seed"):
            ShiftConfig(seed=-1)

    def test_config_file_round_trip(self, tmp_path):
        cfg = ShiftConfig(n_source_domains=2, seed=9, shift_magnitude=1.25)
        path = tmp_path / "cfg.txt"
        save_shift_config(path, cfg)
        assert load_shift_config(path) == cfg

    def test_config_file_overrides(self, tmp_path):
        cfg = ShiftConfig(seed=9)
        path = tmp_path / "cfg.txt"
        save_shift_config(path, cfg)
        assert load_shift_config(path, seed=11).seed == 11

    def test_config_hash_stable_and_sensitive(self):
        a = config_hash(ShiftConfig(seed=1))
        b = config_hash(ShiftConfig(seed=1))
        c = config_hash(ShiftConfig(seed=2))
        assert a == b and a != c and len(a) == 12

    def test_config_hash_takes_numpy_scalars(self):
        assert len(config_hash({"schedule": (np.int64(4),), "energy": np.float32(0.5)})) == 12


SMALL = dict(n_source_domains=2, samples_per_domain=40, n_target_train=60,
             n_target_test=50, dims=2)


class TestSynthShift:
    def test_same_seed_bit_identical(self):
        cfg = ShiftConfig(seed=5, **SMALL)
        s1, tr1, te1 = synth_shift(cfg)
        s2, tr2, te2 = synth_shift(cfg)
        for a, b in zip(s1 + [tr1, te1], s2 + [tr2, te2]):
            assert np.array_equal(a.X, b.X)
            assert np.array_equal(a.Y, b.Y)

    def test_different_seed_differs(self):
        a = synth_shift(ShiftConfig(seed=5, **SMALL))[1]
        b = synth_shift(ShiftConfig(seed=6, **SMALL))[1]
        assert not np.array_equal(a.X, b.X)

    def test_zero_shift_matches_target_law(self):
        cfg = ShiftConfig(seed=3, shift_magnitude=0.0, n_source_domains=3,
                          samples_per_domain=400, n_target_train=400,
                          n_target_test=50, dims=3)
        sources, target_train, _ = synth_shift(cfg)
        pooled = np.concatenate([s.X for s in sources])
        for j in range(cfg.dims):
            gap = abs(pooled[:, j].mean() - target_train.X[:, j].mean())
            se = np.sqrt(pooled[:, j].var() / len(pooled)
                         + target_train.X[:, j].var() / len(target_train.X))
            assert gap < 3.0 * se

    def test_labels_follow_shared_latent_function(self):
        cfg = ShiftConfig(seed=7, **SMALL)
        score = _latent_label_fn(cfg)
        for d in [*synth_shift(cfg)[0], synth_shift(cfg)[1]]:
            expected = np.where(score(d.X) >= 0.0, 1.0, -1.0)
            assert np.array_equal(d.Y, expected)

    def test_every_output_has_both_classes(self):
        for seed in range(5):
            cfg = ShiftConfig(seed=seed, **SMALL)
            for d in [*synth_shift(cfg)[0], synth_shift(cfg)[1], synth_shift(cfg)[2]]:
                assert np.all(np.any(d.Y > 0, axis=0))
                assert np.all(np.any(d.Y < 0, axis=0))

    def test_multiclass_mode_one_hot(self):
        cfg = ShiftConfig(seed=2, mode="multiclass", n_outputs=3, **SMALL)
        _, train, _ = synth_shift(cfg)
        assert np.all((train.Y == 1.0).sum(axis=1) == 1)

    def test_domain_ids(self):
        sources, train, test = synth_shift(ShiftConfig(seed=1, **SMALL))
        assert [s.domain_id for s in sources] == ["source_0", "source_1"]
        assert train.domain_id == "target_train"
        assert test.domain_id == "target_test"
