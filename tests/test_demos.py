"""The narrative demos the README points to run to completion.  ``04`` runs
on one fold of a small corpus: its full protocol is the acceptance suite's."""

import contextlib
import io
import os
import runpy
from dataclasses import replace

import pytest

import gpde

DEMOS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "demos")


@pytest.mark.parametrize("name", ["01_gp_regression.py", "02_adaptation.py",
                                  "03_expert_fusion.py"])
def test_demo_runs(name):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(os.path.join(DEMOS, name), run_name="__main__")
    assert out.getvalue()


def test_benchmark_demo_runs(monkeypatch):
    real = gpde.run_benchmark

    def one_small_fold(spec, shift_cfg):
        return real(replace(spec, folds=1), shift_cfg=replace(
            shift_cfg, samples_per_domain=15, n_target_train=100))

    monkeypatch.setattr(gpde, "run_benchmark", one_small_fold)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(os.path.join(DEMOS, "04_benchmark.py"), run_name="__main__")
    lines = out.getvalue().splitlines()
    assert lines[0].endswith(", 1 folds")
    assert "method,n_t,fold,metric,value" in lines
