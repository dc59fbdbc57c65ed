"""Random bytes and single-byte mutations of valid files, fed to the four file
loaders (CSV, expert pool, model bundle, shift config) and to the CLI command
that reads each one.  A loader either loads or raises a ``GpdeError``; the CLI
exits with 0, or with 2 whenever the loader refused the file."""

import contextlib
import io

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gpde import (
    GpdeError,
    GpdeModel,
    Hyperparams,
    ShiftConfig,
    load_bundle,
    load_dataset,
    load_experts,
    load_features,
    load_shift_config,
    save_bundle,
    save_dataset,
    save_expert_pool,
    save_shift_config,
)
from gpde.cli import main

from conftest import random_dataset

FUZZ = settings(max_examples=50, deadline=None, derandomize=True, database=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])
# Bytes that keep a mutated file close to the format, so that more mutants
# parse and reach the checks behind the parser.
STRUCTURAL = list(b"0123456789-+.,eE_ \t\n#=:\"{}[]")


def _load_csv(path):
    load_features(path)
    return load_dataset(path)


# name: (valid file, library loader, CLI argv reading the file, given the directory)
LOADERS = {
    "csv": ("source.csv", _load_csv,
            lambda f, d: ["train-target", "--target", f, "--out", d / "out_pool.json"]),
    "pool": ("pool.json", load_experts,
             lambda f, d: ["adapt", "--source", f, "--out", d / "out_bundle.json"]),
    "bundle": ("bundle.json", load_bundle,
               lambda f, d: ["predict", "--model", f, "--data", d / "source.csv",
                             "--out", d / "pred.csv"]),
    "shift-config": ("shift.txt", load_shift_config,
                     lambda f, d: ["synth", "--config", f, "--out", d / "corpus"]),
}


@pytest.fixture(scope="module")
def valid_dir(tmp_path_factory):
    """One valid file per loader; the pool holds the arrays of the CSV, and
    the bundle a model of the pool's expert."""
    d = tmp_path_factory.mktemp("valid")
    data = random_dataset(np.random.default_rng(3), n=8, d=2, c=1, domain_id="source")
    save_dataset(d / "source.csv", data)
    save_expert_pool(d / "pool.json", Hyperparams(1.0, 1.0, 0.3), [data], seed=0)
    save_bundle(d / "bundle.json", GpdeModel(load_experts(d / "pool.json"), None, [1.0]), seed=0)
    save_shift_config(d / "shift.txt", ShiftConfig(n_source_domains=1, samples_per_domain=20,
                                                   n_target_train=10, n_target_test=10,
                                                   dims=2))
    return d


def _check(valid_dir, kind: str, content: bytes):
    name, loader, argv = LOADERS[kind]
    path = valid_dir / f"fuzzed_{name}"
    path.write_bytes(content)
    try:
        loader(path)
        refused = False
    except GpdeError:
        refused = True
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main([str(a) for a in argv(path, valid_dir)])
    assert code == 2 if refused else code in (0, 2)


@pytest.mark.parametrize("kind", LOADERS)
def test_valid_files_load(valid_dir, kind):
    name, loader, argv = LOADERS[kind]
    loader(valid_dir / name)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([str(a) for a in argv(valid_dir / name, valid_dir)]) == 0


@pytest.mark.parametrize("kind", LOADERS)
@FUZZ
@given(content=st.binary(max_size=400))
def test_random_bytes(valid_dir, kind, content):
    _check(valid_dir, kind, content)


@pytest.mark.parametrize("kind", LOADERS)
@FUZZ
@given(position=st.integers(0, 2**16),
       byte=st.one_of(st.integers(0, 255), st.sampled_from(STRUCTURAL)))
def test_single_byte_mutation(valid_dir, kind, position, byte):
    content = bytearray((valid_dir / LOADERS[kind][0]).read_bytes())
    content[position % len(content)] = byte
    _check(valid_dir, kind, bytes(content))
