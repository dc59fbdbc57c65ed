"""The public surface: every exported name resolves, every exported function
is documented in the README, the README's method table names the benchmark
methods, removed names stay gone, and one writer writes every file."""

import ast
import dataclasses
import importlib
import inspect
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import gpde

MODULES = ["gpde"] + [m.name for m in pkgutil.iter_modules(gpde.__path__, "gpde.")]

REMOVED = {
    "gpde": ["kernel_eval", "retarget", "load_expert_pool", "default_init", "latent_label_fn",
             "uniform_betas", "squared_distances"],
    "gpde.kernel": ["kernel_eval"],
    "gpde.experts": ["retarget", "uniform_betas"],
    "gpde.model_io": ["load_expert_pool"],
    "gpde.gp_core": ["default_init", "_lml_value", "_lml_grad"],
    "gpde.data": ["latent_label_fn"],
    "gpde.bench": ["_TARGET_METHODS", "_POOLED_METHODS", "_score_methods", "_SourceSide",
                   "_to_classes"],
}


@pytest.mark.parametrize("module", MODULES)
def test_exported_names_resolve(module):
    mod = importlib.import_module(module)
    exported = getattr(mod, "__all__", [])
    assert len(set(exported)) == len(exported), "duplicate names in __all__"
    assert [n for n in exported if not hasattr(mod, n)] == []


README = Path(__file__).resolve().parents[1] / "README.md"


def test_exported_functions_are_in_the_readme():
    readme = README.read_text()
    functions = [n for n in gpde.__all__ if inspect.isfunction(getattr(gpde, n))]
    assert functions
    assert [n for n in functions if not re.search(rf"`{n}`", readme)] == []


def test_readme_method_table_names_the_benchmark_methods():
    section = README.read_text().split("### Benchmark methods", 1)[1].split("\n#", 1)[0]
    named = re.findall(r"^\| `(\w+)` ", section, flags=re.MULTILINE)
    assert named == list(gpde.bench.METHODS)


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
    assert list(inspect.signature(gpde.train_gpde).parameters) == ["source_datasets",
                                                                     "target_dataset"]
    assert list(inspect.signature(gpde.fit).parameters) == ["datasets"]
    assert list(inspect.signature(gpde.fit_detailed).parameters) == ["datasets"]
    kinds = {p.kind for p in inspect.signature(gpde.load_shift_config).parameters.values()}
    assert inspect.Parameter.VAR_KEYWORD not in kinds


def test_cli_import_leaves_out_scipy_stats():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [os.path.dirname(os.path.dirname(gpde.__file__)), os.environ.get("PYTHONPATH", "")])}
    loaded = subprocess.run(
        [sys.executable, "-c", "import sys, gpde.cli; print('scipy.stats' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert loaded.strip() == "False"


class _OpenCalls(ast.NodeVisitor):
    """The enclosing function of every call named ``open`` that may write: its
    mode, the second argument or ``mode=``, is not a string literal free of
    ``w``, ``a``, ``x`` and ``+``.  The flags of ``os.open`` are no literal
    mode, so every ``os.open`` counts."""

    def __init__(self):
        self.scope, self.found = ["<module>"], []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node):
        func = node.func
        if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) == "open":
            mode = node.args[1] if len(node.args) > 1 else next(
                (k.value for k in node.keywords if k.arg == "mode"), ast.Constant("r"))
            if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                    and not set(mode.value) & set("wax+")):
                self.found.append(self.scope[-1])
        self.generic_visit(node)


def test_every_file_is_written_by_one_writer():
    """Only ``gpde.data._rewrite`` opens a file to write, so no second write
    path, say one that truncates first, comes back."""
    writers = set()
    for path in sorted(Path(gpde.__file__).parent.glob("*.py")):
        calls = _OpenCalls()
        calls.visit(ast.parse(path.read_text(), filename=str(path)))
        writers |= {(path.name, scope) for scope in calls.found}
    assert writers == {("data.py", "_rewrite")}
