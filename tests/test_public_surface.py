"""The public surface: every exported name resolves, and removed names stay gone."""

import dataclasses
import importlib
import inspect
import pkgutil

import pytest

import gpde

MODULES = ["gpde"] + [m.name for m in pkgutil.iter_modules(gpde.__path__, "gpde.")]

REMOVED = {
    "gpde": ["kernel_eval", "retarget", "load_expert_pool", "default_init", "latent_label_fn"],
    "gpde.kernel": ["kernel_eval"],
    "gpde.experts": ["retarget"],
    "gpde.model_io": ["load_expert_pool"],
    "gpde.gp_core": ["default_init", "_lml_value", "_lml_grad"],
    "gpde.data": ["latent_label_fn"],
}


@pytest.mark.parametrize("module", MODULES)
def test_exported_names_resolve(module):
    mod = importlib.import_module(module)
    exported = getattr(mod, "__all__", [])
    assert len(set(exported)) == len(exported), "duplicate names in __all__"
    assert [n for n in exported if not hasattr(mod, n)] == []


@pytest.mark.parametrize("module", REMOVED)
def test_removed_names_are_gone(module):
    mod = importlib.import_module(module)
    for name in REMOVED[module]:
        assert not hasattr(mod, name)
        assert name not in getattr(mod, "__all__", [])


def test_removed_members_are_gone():
    assert not hasattr(gpde.GpdeModel, "dim")
    assert not hasattr(gpde.GpdeModel, "n_outputs")
    assert not hasattr(gpde.MetricReport, "as_dict")
    assert "classification_rate" not in {f.name for f in dataclasses.fields(gpde.MetricReport)}
    assert "source_fit_count" not in {f.name for f in dataclasses.fields(gpde.BenchmarkResult)}
    params = inspect.signature(gpde.multilabel_report).parameters
    assert "classes_true" not in params and "classes_pred" not in params
