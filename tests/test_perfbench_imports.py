"""The benchmark under ``perfbench/`` reads eplab names that no other test
imports: each ``from eplab... import`` name there must resolve, and each
attribute read off such a name must exist, so a change that renames or
deletes one fails here and not first in the benchmark.  The first op of
each workload also runs through the benchmark's own output check."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SOURCES = sorted(PERFBENCH.glob("*.py"))


def _resolve(module: str, name: str):
    """The object ``from module import name`` binds, as the import statement
    finds it: an attribute of the module, else its submodule."""
    try:
        return getattr(importlib.import_module(module), name)
    except AttributeError:
        return importlib.import_module(f"{module}.{name}")


def _eplab_imports(tree: ast.AST) -> dict:
    """Local name -> object for every ``from eplab... import`` of ``tree``."""
    return {alias.asname or alias.name: _resolve(node.module, alias.name)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 0
            and node.module.split(".")[0] == "eplab"
            for alias in node.names}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_perfbench_eplab_names_resolve(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    names = _eplab_imports(tree)
    missing = [f"{node.value.id}.{node.attr} (line {node.lineno})"
               for node in ast.walk(tree)
               if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
               and node.value.id in names and not hasattr(names[node.value.id], node.attr)]
    assert not missing


def test_workloads_reads_the_four_modules():
    # Also fails when perfbench/ is missing, where the test above has no cases.
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    assert {"cli", "matio", "reports", "zoo"} <= set(_eplab_imports(tree))


def _workloads():
    """``perfbench/workloads.py``, loaded by path."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["propsuite_corpus", "classify_large", "pair_json_io"])
def test_workload_checker_passes_its_first_op(workload, tmp_path):
    # The benchmark's gate reads the documents eplab writes; a report field
    # it reads that is renamed or gone fails here, not as failed ops.
    workloads = _workloads()
    ops = workloads.build(workload, 0, tmp_path)
    assert workloads.Checker(ops).check(0, *workloads.execute(ops[0])) is None
