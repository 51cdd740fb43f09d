"""The benchmark under ``bench/`` reaches into the program by name: the
tracer wraps the functions its ``LAYERS`` table names, and the workloads
call ``module.attr`` on ``pma_lab`` modules and read registry entries by
name.  A rename or a deletion in ``src/`` breaks a traced run without any
other test noticing, so these checks read ``bench/`` (as text, without
importing it) and look every such name up in the program."""

import ast
import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
_SOURCES = sorted(BENCH.glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _layers() -> dict:
    for node in _tree(BENCH / "tracing.py").body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "LAYERS"
                for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracing.py defines no LAYERS table")


def _program_names(tree: ast.Module):
    """(module, attribute, line) for every program name a bench file
    imports or reads as ``module.attr`` on an imported pma_lab module."""
    modules = {}                  # local name -> pma_lab module path
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "pma_lab":
            for a in node.names:
                modules[a.asname or a.name] = f"pma_lab.{a.name}"
        elif isinstance(node, ast.ImportFrom) and node.module \
                and node.module.startswith("pma_lab."):
            for a in node.names:
                yield node.module, a.name, node.lineno
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.startswith("pma_lab.") and a.asname:
                    modules[a.asname] = a.name
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value,
                                                          ast.Name) \
                and node.value.id in modules:
            yield modules[node.value.id], node.attr, node.lineno


@pytest.mark.parametrize("layer", sorted(_layers()))
def test_every_traced_function_exists(layer):
    mod = importlib.import_module(f"pma_lab.{layer}")
    missing = [name for name in _layers()[layer]
               if not callable(getattr(mod, name, None))]
    assert not missing, f"bench/tracing.py wraps missing pma_lab.{layer}" \
        f" functions {missing}"


@pytest.mark.parametrize("path", _SOURCES, ids=lambda p: p.name)
def test_every_program_name_the_bench_reads_exists(path):
    missing = [f"{mod}.{attr} (line {line})"
               for mod, attr, line in _program_names(_tree(path))
               if not hasattr(importlib.import_module(mod), attr)]
    assert not missing, f"bench/{path.name} reads {missing}"


def test_every_registry_entry_the_bench_reads_exists():
    from pma_lab.experiments import REGISTRY
    names = {node.slice.value
             for path in _SOURCES for node in ast.walk(_tree(path))
             if isinstance(node, ast.Subscript)
             and isinstance(node.value, ast.Name)
             and node.value.id == "REGISTRY"
             and isinstance(node.slice, ast.Constant)}
    assert names, "the bench reads no registry entry by name"
    assert names <= set(REGISTRY), sorted(names - set(REGISTRY))


def test_the_scan_sees_the_workloads_calls():
    # the scan must resolve the workloads' module aliases, or the test
    # above would pass on an empty list
    found = {(m, a) for m, a, _ in _program_names(_tree(BENCH
                                                        / "workloads.py"))}
    assert ("pma_lab.grid", "build_domain") in found
    assert ("pma_lab.experiments", "REGISTRY") in found
    planted = ast.parse("from pma_lab import grid\ngrid.no_such_name\n")
    assert ("pma_lab.grid", "no_such_name", 2) in set(_program_names(planted))
