"""`import binarx` exports what its workflows take from it, and nothing else.

The workflows are README's quick start, the benchmark's child process
(`perfbench/child.py`: its API_NAMES and every `binarx.<Name>`), the
golden-digest tool and the layer bench.  They are read with `ast`, so a
trim of the export list that would break one of them fails here first.  The
exception classes are exported too.  The module attributes that the benchmark's traced run patches
must exist as well.
"""

import ast
import importlib
import importlib.util
import types
from pathlib import Path

import binarx
from binarx import exceptions

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


def test_every_attribute_the_traced_benchmark_patches_exists():
    # child.py patches `tracer.patch(<binarx module>, "<name>", ...)`; a
    # missing name would fail only the traced benchmark run.
    tree = ast.parse((ROOT / "perfbench" / "child.py").read_text())
    targets = {(node.args[0].id, node.args[1].value) for node in ast.walk(tree)
               if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
               and node.func.attr == "patch" and isinstance(node.func.value, ast.Name)
               and node.func.value.id == "tracer"}
    assert ("experiments", "simulate_chain") in targets
    missing = sorted(f"binarx.{module}.{name}" for module, name in targets
                     if not hasattr(importlib.import_module(f"binarx.{module}"), name))
    assert not missing, f"perfbench/child.py patches {missing}"
