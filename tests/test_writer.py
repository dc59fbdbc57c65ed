"""Every file gpde writes goes through ``gpde.data._rewrite``: the new bytes
go over the old ones in place and a regular file is then cut to their
length, so an output keeps its inode, mode and links and never holds a
stale tail, and its bytes are those a truncating ``open`` writes."""

import os
import threading

import numpy as np
import pytest

import gpde.cli as cli
import gpde.data as data_mod
import gpde.model_io as model_io
from gpde import (
    Hyperparams,
    ShiftConfig,
    save_bundle,
    save_dataset,
    save_expert_pool,
    save_shift_config,
    train_gpde,
)
from gpde.cli import main
from gpde.data import _rewrite

from conftest import random_dataset

OLD = "a stale line, longer than what replaces it\n" * 100


def rewrite(path, text: str) -> None:
    with _rewrite(path) as fh:
        fh.write(text)


class TestRewrite:
    @pytest.mark.parametrize("old", [OLD, "", "x"], ids=["longer", "empty", "shorter"])
    def test_leaves_exactly_the_new_bytes(self, tmp_path, old):
        path = tmp_path / "out.txt"
        path.write_text(old)
        rewrite(path, "new\nlines\n")
        assert path.read_bytes() == b"new\nlines\n"

    def test_keeps_the_inode_the_mode_and_hard_links(self, tmp_path):
        path, link = tmp_path / "out.txt", tmp_path / "link.txt"
        path.write_text(OLD)
        os.chmod(path, 0o640)
        os.link(path, link)
        before = os.stat(path)
        rewrite(path, "new\n")
        after = os.stat(path)
        assert (after.st_ino, after.st_mode, after.st_nlink) == \
            (before.st_ino, before.st_mode, before.st_nlink)
        assert link.read_bytes() == b"new\n"

    def test_a_write_that_raises_leaves_only_what_it_wrote(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text(OLD)
        with pytest.raises(RuntimeError, match="midway"):
            with _rewrite(path) as fh:
                fh.write("partial")
                raise RuntimeError("midway")
        assert path.read_bytes() == b"partial"

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs on this platform")
    def test_a_fifo_is_written_as_a_stream(self, tmp_path):
        fifo, seen = tmp_path / "fifo", []
        os.mkfifo(fifo)
        reader = threading.Thread(target=lambda: seen.append(fifo.read_bytes()), daemon=True)
        reader.start()
        rewrite(fifo, "through a pipe\n")
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert seen == [b"through a pipe\n"]


@pytest.fixture(scope="module")
def model_dir(tmp_path_factory):
    """A bundle of two source experts and a target expert, and 10 rows to
    predict."""
    rng = np.random.default_rng(5)
    d = tmp_path_factory.mktemp("model")
    sources = [random_dataset(rng, n=12, d=2, c=1, domain_id=f"source_{k}") for k in range(2)]
    save_bundle(d / "model.json", train_gpde(sources, random_dataset(rng, n=8, d=2, c=1)))
    save_dataset(d / "test.csv", random_dataset(rng, n=10, d=2, c=1))
    return d


def cli_writer(command: str, model_dir):
    def write(path):
        assert main([command, "--model", str(model_dir / "model.json"),
                     "--data", str(model_dir / "test.csv"), "--out", str(path)]) == 0
    return write


def writers(model_dir) -> dict:
    """One call per write site: pools and bundles (``model_io._write_json``),
    ``synth`` corpora, shift configs, and ``--out`` of the CLI."""
    rng = np.random.default_rng(6)
    datasets = [random_dataset(rng, n=5, d=2, c=2, domain_id=f"d{k}") for k in range(2)]
    hyper = Hyperparams(length_scale=1.3, signal_std=0.9, noise_std=0.2)
    return {
        "pool": lambda path: save_expert_pool(path, hyper, datasets, seed=3),
        "bundle": lambda path: save_bundle(path, train_gpde(datasets[:1], datasets[1]), seed=3),
        "dataset": lambda path: save_dataset(path, datasets[0], comments=["seed=4"]),
        "shift_config": lambda path: save_shift_config(path, ShiftConfig(seed=4)),
        "predict": cli_writer("predict", model_dir),
        "weights": cli_writer("weights", model_dir),
    }


@pytest.mark.parametrize("site", ["pool", "bundle", "dataset", "shift_config", "predict",
                                  "weights"])
def test_each_write_site_writes_the_bytes_of_a_truncating_open(site, model_dir, tmp_path,
                                                                monkeypatch):
    write = writers(model_dir)[site]
    for module in (data_mod, model_io, cli):
        monkeypatch.setattr(module, "_rewrite", lambda path: open(path, "w"))
    write(tmp_path / "plain")
    monkeypatch.undo()
    expected = (tmp_path / "plain").read_bytes()
    paths = {"fresh": None, "longer": expected * 2 + b"tail", "shorter": b"x\n"}
    for name, old in paths.items():
        if old is not None:
            (tmp_path / name).write_bytes(old)
        write(tmp_path / name)
        assert (tmp_path / name).read_bytes() == expected, name
    assert os.stat(tmp_path / "fresh").st_mode == os.stat(tmp_path / "plain").st_mode


def test_out_through_a_symlink_writes_its_target(model_dir, tmp_path):
    target, link = tmp_path / "target.csv", tmp_path / "link.csv"
    target.write_text(OLD)
    link.symlink_to(target)
    predict = cli_writer("predict", model_dir)
    predict(link)
    predict(tmp_path / "fresh.csv")
    assert link.is_symlink()
    assert target.read_bytes() == (tmp_path / "fresh.csv").read_bytes()


@pytest.mark.skipif(not os.path.exists("/dev/null"), reason="no /dev/null on this platform")
def test_predict_out_dev_null_exits_0(model_dir):
    cli_writer("predict", model_dir)("/dev/null")
