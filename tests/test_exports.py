"""Every name a module exports through ``__all__`` exists in it, and every
name it imports is used."""

import ast
import importlib
from pathlib import Path

import pytest

import pma_lab

_MODULES = sorted(p for p in Path(pma_lab.__file__).parent.glob("*.py")
                  if p.name != "__init__.py")    # the package re-exports


@pytest.mark.parametrize("module", ["analysis", "config", "experiments",
                                    "geometry", "cli"])
def test_all_names_exist(module):
    mod = importlib.import_module(f"pma_lab.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"pma_lab.{module}.__all__ names missing: {missing}"


def _unused_imports(source: str) -> list[str]:
    """Names bound by an import and never read: a name counts as read when
    it appears in the code, in ``__all__`` or in a string annotation."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used.update(c.value for c in ast.walk(node.value)
                        if isinstance(c, ast.Constant))
        if isinstance(node, ast.arg | ast.AnnAssign) and node.annotation:
            annotations.append(node.annotation)
        elif isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef) \
                and node.returns:
            annotations.append(node.returns)
    for ann in annotations:
        for c in ast.walk(ann):
            if isinstance(c, ast.Constant) and isinstance(c.value, str):
                used.update(n.id for n in ast.walk(ast.parse(c.value,
                                                             mode="eval"))
                            if isinstance(n, ast.Name))
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.stem)
def test_no_module_imports_a_name_it_never_uses(path):
    unused = _unused_imports(path.read_text())
    assert not unused, f"pma_lab.{path.stem} imports unused names: {unused}"


def test_unused_import_check_counts_all_and_string_annotations():
    src = ('import os\nfrom math import inf, sqrt\nfrom .grid import Domain\n'
           '__all__ = ["inf"]\ndef f(d: "Domain") -> None:\n    os.sep\n')
    assert _unused_imports(src) == ["sqrt (line 2)"]
