"""The benchmark under ``perfbench/`` reads eplab names that no other test
imports: each ``from eplab... import`` name there must resolve, and each
attribute read off such a name must exist, so a change that renames or
deletes one fails here and not first in the benchmark."""

import ast
import importlib
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
