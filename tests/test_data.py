import csv
import io
import logging
from types import SimpleNamespace

import numpy as np
import pytest

import gpde.cli as cli
from gpde import (
    BenchmarkSpec,
    ConfigError,
    DataLoadError,
    InvalidInputError,
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
    write_result_table,
)
from gpde.bench import BenchmarkResult, BenchRow
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
        assert b"\r" not in path.read_bytes()

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

    @pytest.mark.parametrize("load", [load_dataset, load_features])
    def test_row_named_by_the_line_it_ends_on(self, tmp_path, load):
        """A quoted field spans lines 2 and 3, so the bad record is the file's
        third but sits on line 4."""
        path = tmp_path / "q.csv"
        path.write_text('f0,y0\n"1\n",1\nx,1\n')
        with pytest.raises(DataLoadError, match="row 4: could not convert"):
            load(path)

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


# Rows 0..2999 of a 3-feature, 2-label file: three comment lines, the header,
# then data, with one more comment line after data row 1000.  So data row i is
# on line i + 5 up to there and on line i + 6 after it.  The fault goes into
# data row BAD_ROW.
BAD_ROW = 2495
BAD_LINE = BAD_ROW + 6


def _deep_file(path, bad_row: str):
    rng = np.random.default_rng(7)
    rows = [",".join(map(repr, x)) + f",{y0:.1f},{y1:.1f}"
            for x, (y0, y1) in zip(rng.normal(size=(3000, 3)).tolist(),
                                   rng.choice([-1.0, 1.0], size=(3000, 2)).tolist())]
    rows[BAD_ROW] = bad_row
    lines = ["# seed=7", "# config_hash=abc", "# note", "f0,f1,f2,y0,y1",
             *rows[:1001], "# mid-file comment", *rows[1001:]]
    path.write_text("\n".join(lines) + "\n")
    return path


# fault: (bad row, load_dataset's message, load_features' message or None if it loads)
DEEP_FAULTS = {
    "unparsable": ("0.1, abc,0.3,1,-1", "row {line}: could not convert string to float: ' abc'",
                   "row {line}: could not convert string to float: ' abc'"),
    "nan": ("0.1,nan,0.3,1,-1", "row {line} contains NaN/Inf", "row {line} contains NaN/Inf"),
    "inf": ("0.1,0.2,-inf,1,-1", "row {line} contains NaN/Inf", "row {line} contains NaN/Inf"),
    "label": ("0.1,0.2,0.3,1,0.5", "row {line} has label 0.5 outside {{-1, 0, 1}}", None),
    "short": ("0.1,0.2", "row {line} has 2 fields, expected 5",
              "row {line} has 2 fields, expected >= 3"),
}


class TestDeepBadRow:
    """A fault deep in a large file is named by its line number, which differs
    from its data-row index, with the loaders' full message text."""

    @pytest.mark.parametrize("fault", DEEP_FAULTS)
    def test_load_dataset(self, tmp_path, fault):
        row, message, _ = DEEP_FAULTS[fault]
        path = _deep_file(tmp_path / "deep.csv", row)
        with pytest.raises(DataLoadError) as err:
            load_dataset(path)
        assert str(err.value) == f"{path}: " + message.format(line=BAD_LINE)

    @pytest.mark.parametrize("fault", DEEP_FAULTS)
    def test_load_features(self, tmp_path, fault):
        row, _, message = DEEP_FAULTS[fault]
        path = _deep_file(tmp_path / "deep.csv", row)
        if message is None:  # labels are not read
            assert load_features(path).shape == (3000, 3)
            return
        with pytest.raises(DataLoadError) as err:
            load_features(path)
        assert str(err.value) == f"{path}: " + message.format(line=BAD_LINE)

    def test_first_bad_row_wins(self, tmp_path):
        """A short row after an unparsable one: the unparsable one is named."""
        path = _deep_file(tmp_path / "deep.csv", "0.1,x,0.3,1,-1")
        lines = path.read_text().splitlines()
        lines[BAD_LINE + 10 - 1] = "0.1"
        path.write_text("\n".join(lines) + "\n")
        for load in (load_dataset, load_features):
            with pytest.raises(DataLoadError, match=f"row {BAD_LINE}: could not convert"):
                load(path)


# the edge values every writer must format as the per-field code before it did
EDGES = [-0.0, 0.0, 5e-324, -5e-324, 1e-10, 1e300, -1e300, 1.0, -1.0, 0.1, 123456789.123]


def _edge_matrix(rng, n, c):
    values = np.concatenate([EDGES, rng.normal(size=n * c - len(EDGES)) * 10.0 ** rng.integers(
        -12, 12, size=n * c - len(EDGES))])
    return rng.permutation(values).reshape(n, c)


def _oracle_dataset_text(data: Dataset, comments) -> str:
    """``save_dataset``'s text as it was written one field at a time, with
    ``\\n`` line ends."""
    out = io.StringIO()
    for line in comments:
        out.write(f"# {line}\n")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow([f"f{i}" for i in range(data.dim)] + [f"y{i}" for i in range(data.n_outputs)])
    for x, y in zip(data.X, data.Y):
        writer.writerow([repr(float(v)) for v in x] + [repr(float(v)) for v in y])
    return out.getvalue()


class TestCsvOracles:
    """The array writer and reader against the per-field code they replaced."""

    @pytest.mark.parametrize("c", [1, 3])
    def test_save_dataset_text(self, tmp_path, rng, c):
        data = Dataset(X=_edge_matrix(rng, 40, 2), Y=rng.choice([-1.0, 1.0], size=(40, c)))
        path = tmp_path / "d.csv"
        save_dataset(path, data, comments=["seed=1", "config_hash=x"])
        assert path.read_bytes() == _oracle_dataset_text(data, ["seed=1", "config_hash=x"]).encode()
        back = load_dataset(path)
        assert np.array_equal(back.X.view(np.int64), data.X.view(np.int64))
        assert np.array_equal(back.Y.view(np.int64), data.Y.view(np.int64))

    @pytest.mark.parametrize("c", [1, 3])
    def test_predict_text(self, tmp_path, rng, monkeypatch, c):
        mean = _edge_matrix(rng, 30, c)
        variance = np.abs(_edge_matrix(rng, 30, 1)[:, 0]) + np.r_[1e-10, np.zeros(29)]
        labels = np.where(mean >= 0.0, 1.0, -1.0)
        monkeypatch.setattr(cli, "load_bundle", lambda path: None)
        monkeypatch.setattr(cli, "load_features", lambda path: None)
        monkeypatch.setattr(cli, "predict", lambda model, X: SimpleNamespace(
            mean=mean, variance=variance, labels=labels))
        out = tmp_path / "pred.csv"
        assert cli.main(["predict", "--model", "m", "--data", "d", "--out", str(out)]) == 0
        expected = ",".join([f"mean{j}" for j in range(c)] + [f"var{j}" for j in range(c)]
                            + [f"label{j}" for j in range(c)]) + "\n"
        for m, v, lab in zip(mean, variance, labels):
            expected += ",".join([f"{x:.8g}" for x in m] + [f"{v:.8g}"] * c
                                 + [f"{int(x):d}" for x in lab]) + "\n"
        assert out.read_bytes() == expected.encode()

    @pytest.mark.parametrize("target", [None, "target_train"])
    def test_weights_text(self, tmp_path, rng, monkeypatch, target):
        names = ["source_0", "source_1"] + ([target] if target else [])
        W = np.abs(_edge_matrix(rng, 30, len(names)))
        expert = lambda name: SimpleNamespace(data=SimpleNamespace(domain_id=name))  # noqa: E731
        model = SimpleNamespace(sources=[expert(n) for n in names[:2]],
                                target=expert(target) if target else None)
        monkeypatch.setattr(cli, "load_bundle", lambda path: model)
        monkeypatch.setattr(cli, "load_features", lambda path: None)
        monkeypatch.setattr(cli, "expert_weights", lambda model, X: W)
        out = tmp_path / "w.csv"
        assert cli.main(["weights", "--model", "m", "--data", "d", "--out", str(out)]) == 0
        expected = ",".join(names) + "\n" + "".join(
            ",".join(f"{x:.8g}" for x in row) + "\n" for row in W)
        assert out.read_bytes() == expected.encode()

    def test_result_table_text(self, rng):
        rows = [BenchRow("gpde", 10, 0, "acc", v) for v in EDGES + [0.5 + 1e-7, 2 / 3]]
        result = BenchmarkResult(BenchmarkSpec(seed=9), rows, "abc123")
        out = io.StringIO()
        write_result_table(out, result)
        expected = "# seed=9\n# config_hash=abc123\nmethod,n_t,fold,metric,value\n" + "".join(
            f"{r.method},{r.n_t},{r.fold},{r.metric},{r.value:.6f}\n" for r in rows)
        assert out.getvalue() == expected

    def test_loaders_return_what_float_returns(self, tmp_path, rng):
        fields = [[repr(v), repr(-v), " 1.5 ", "1_0", "+1", "-0", ".5e-3", "1E+300", "\t2 ",
                   "5e-324", "\u20007"] for v in rng.normal(size=12).tolist()]
        labels = [["+1", " -1", "1.0", "-1e0"][i % 4] for i in range(12)]
        path = tmp_path / "f.csv"
        header = ",".join([f"f{i}" for i in range(11)] + ["y0"])
        path.write_text(header + "\n" + "".join(",".join(r + [y]) + "\n"
                                                for r, y in zip(fields, labels)))
        X = np.array([[float(v) for v in r] for r in fields])
        Y = np.array([[float(y)] for y in labels])
        data = load_dataset(path)
        assert np.array_equal(data.X.view(np.int64), X.view(np.int64))
        assert np.array_equal(data.Y.view(np.int64), Y.view(np.int64))
        assert data.X.flags.c_contiguous and data.Y.flags.c_contiguous
        assert np.array_equal(load_features(path).view(np.int64), X.view(np.int64))

    def test_features_refuse_separator_characters(self, tmp_path):
        """Both loaders take a field as ``float()`` takes it, so a number
        padded with a separator \\x1c-\\x1f, which ``str.strip`` would drop,
        is refused by ``load_features`` as by ``load_dataset``."""
        path = tmp_path / "s.csv"
        for sep in "\x1c\x1d\x1e\x1f":
            path.write_text(f"f0,f1,y0\n0.5,{sep}1.5{sep},1\n2.5,3.5,-1\n")
            for load in (load_features, load_dataset):
                with pytest.raises(DataLoadError, match="row 2: could not convert string to float"):
                    load(path)


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

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_fit_rejects_non_finite(self, rng, value):
        """A NaN or Inf entry is refused, not a raw LinAlgError from the SVD."""
        X = rng.normal(size=(10, 3))
        X[4, 1] = value
        with pytest.raises(InvalidInputError, match="NaN or Inf"):
            pca_fit(X)


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

    @pytest.mark.parametrize("field", ["n_source_domains", "samples_per_domain", "n_target_train",
                                       "n_target_test", "dims", "n_outputs"])
    def test_count_numpy_cannot_size_is_refused(self, field):
        with pytest.raises(ConfigError, match=f"^{field} = 99999999999999999999 is too large: "
                                              "numpy cannot size"):
            ShiftConfig(**{field: 99999999999999999999})

    @pytest.mark.parametrize("values, field", [
        # each count fits, but one array synth_shift draws from them does not
        (dict(samples_per_domain=2**41, dims=2**20), "samples_per_domain"),
        (dict(n_target_train=2**40, n_outputs=2**30), "n_target_train"),
        (dict(n_target_test=2**58), "n_target_test"),  # n_target_test x 128 Fourier features
        (dict(samples_per_domain=1, n_target_train=1, n_target_test=1, n_outputs=2**57),
         "n_outputs"),  # 128 Fourier features x n_outputs
        (dict(samples_per_domain=1, n_target_train=1, n_target_test=1, dims=2**31), "dims"),
    ])
    def test_array_numpy_cannot_size_is_refused(self, values, field):
        with pytest.raises(ConfigError, match=f"^{field} = {values[field]} is too large"):
            ShiftConfig(**values)

    def test_largest_sizable_arrays_are_accepted(self):
        most = np.iinfo(np.intp).max // 8  # float64 entries in one array
        ShiftConfig(n_source_domains=most)
        ShiftConfig(samples_per_domain=most // 128)
        ShiftConfig(samples_per_domain=1, n_target_train=1, n_target_test=1, dims=2**29)
        ShiftConfig(samples_per_domain=1, n_target_train=1, n_target_test=1,
                    n_outputs=most // 128)

    def test_config_file_round_trip(self, tmp_path):
        cfg = ShiftConfig(n_source_domains=2, seed=9, shift_magnitude=1.25)
        path = tmp_path / "cfg.txt"
        save_shift_config(path, cfg)
        assert load_shift_config(path) == cfg

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
