"""The narrative demos the README points to run to completion.  ``04`` is left
out: it runs the full benchmark protocol, which the acceptance suite covers."""

import contextlib
import io
import os
import runpy

import pytest

DEMOS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "demos")


@pytest.mark.parametrize("name", ["01_gp_regression.py", "02_adaptation.py",
                                  "03_expert_fusion.py"])
def test_demo_runs(name):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(os.path.join(DEMOS, name), run_name="__main__")
    assert out.getvalue()
