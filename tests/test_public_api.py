"""`import binarx` exports what its workflows take from it, and nothing else.

The workflows are README's quick start, the benchmark's child process
(`perfbench/child.py`: its API_NAMES and every `binarx.<Name>`), the
golden-digest tool and the layer bench.  They are read with `ast`, so a
trim of the export list that would break one of them fails here first.  The
exception classes are exported too.  The module attributes that the
benchmark's traced run patches must exist, and a size study and a monitor
must call them.
"""

import ast
import importlib
import importlib.util
import types
from pathlib import Path

import binarx
from binarx import exceptions
from binarx.calibration import ThresholdTable

ROOT = Path(__file__).resolve().parents[1]


def _from_binarx(tree) -> set:
    return {alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "binarx" and not node.level
            for alias in node.names}


def _quick_start() -> set:
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    return _from_binarx(ast.parse(section.split("```python\n", 1)[1].split("```", 1)[0]))


def _perfbench() -> set:
    tree = ast.parse((ROOT / "perfbench" / "child.py").read_text())
    names = _from_binarx(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "API_NAMES" for t in node.targets):
            names |= set(ast.literal_eval(node.value))
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "binarx"):
            names.add(node.attr)
    return names


def _tool(name: str) -> set:
    return _from_binarx(ast.parse((ROOT / "tools" / name).read_text()))


def _is_submodule(name: str) -> bool:
    return importlib.util.find_spec(f"binarx.{name}") is not None


def test_every_name_the_workflows_take_from_binarx_resolves():
    for workflow, names in [("README quick start", _quick_start()),
                            ("perfbench/child.py", _perfbench()),
                            ("tools/golden_digests.py", _tool("golden_digests.py")),
                            ("tools/bench.py", _tool("bench.py"))]:
        assert names, workflow
        missing = sorted(n for n in names if not hasattr(binarx, n) and not _is_submodule(n))
        assert not missing, f"{workflow} takes {missing} from binarx"


def test_exports_are_the_workflow_names_and_the_exceptions():
    used = {n for n in _quick_start() | _perfbench() | _tool("golden_digests.py")
            | _tool("bench.py") if not _is_submodule(n)}
    errors = {n for n, v in vars(exceptions).items()
              if isinstance(v, type) and issubclass(v, Exception)}
    exported = {n for n, v in vars(binarx).items()
                if not n.startswith("_") and not isinstance(v, types.ModuleType)}
    assert exported == used | errors


def _patched_names() -> set:
    """(module, name) of every `tracer.patch(<binarx module>, "<name>", ...)`
    in perfbench/child.py."""
    tree = ast.parse((ROOT / "perfbench" / "child.py").read_text())
    return {(node.args[0].id, node.args[1].value) for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "patch" and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "tracer"}


def test_every_attribute_the_traced_benchmark_patches_exists():
    # A missing name would fail only the traced benchmark run.
    targets = _patched_names()
    assert ("experiments", "simulate_chain") in targets
    missing = sorted(f"binarx.{module}.{name}" for module, name in targets
                     if not hasattr(importlib.import_module(f"binarx.{module}"), name))
    assert not missing, f"perfbench/child.py patches {missing}"


def test_a_size_study_and_a_monitor_reach_every_name_the_traced_benchmark_patches(monkeypatch):
    # The traced size-study run sees the model and estimation layers only
    # through these module names; a study that stops calling one of them
    # drops that layer from the traced metrics, and the run ends on a
    # MISSING line instead of a result (the refusal of a size-study change
    # whose traced run printed no result line).  Existing names are not
    # enough: each must be called.  The calibration layer's name is reached
    # by the calibrate workload's calls, which the traced size-study run
    # makes separately.
    targets = {t for t in _patched_names() if t[0] != "calibration"}
    assert targets == {("experiments", "simulate_chain"), ("experiments", "fit_mple"),
                       ("experiments", "map_over_reps"), ("monitoring", "fit_mple")}
    calls = {target: 0 for target in targets}

    def counted(target, original):
        def call(*args, **kwargs):
            calls[target] += 1
            return original(*args, **kwargs)
        return call

    for module, name in targets:
        module_object = importlib.import_module(f"binarx.{module}")
        monkeypatch.setattr(module_object, name,
                            counted((module, name), getattr(module_object, name)))
    table = ThresholdTable(entries={(0.0, 0.05): 7.0}, reps=1, grid_m=1, horizon=1.0,
                           master_seed=0)
    binarx.run_size(binarx.ExperimentConfig(m_list=(40,), reps=3, gammas=(0.0,), alphas=(0.05,),
                                            horizon=1.0, thresholds=table))
    training = binarx.simulate_series(binarx.default_model_spec(), 100, seed=1)
    binarx.monitor_init(training, 10, horizon=1.0, gamma=0.0, alpha=0.05, threshold_source=7.0)
    assert all(calls.values()), calls
