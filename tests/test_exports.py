"""Every name a module exports through ``__all__`` exists in it, every
name it imports is used, every private helper is called from somewhere,
every keyword default of a private function is overridden somewhere, and
every registered probe is run by a registry entry or ``pma-lab analyze``,
the CLI imports from the package only what runs flows and probes, and
every claim of the claims document is cited by a registry entry."""

import argparse
import ast
import importlib
import math
from pathlib import Path

import pytest

import pma_lab
from pma_lab.cli import _build_parser
from pma_lab.experiments import _PROBES, REGISTRY, claims_text

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


def _package_imports(source: str) -> set[str]:
    """The package modules a module imports from, by relative import."""
    modules = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level:
            modules.update([node.module.split(".")[0]] if node.module
                           else [a.name for a in node.names])
    return modules


def test_cli_imports_only_config_experiments_and_grid():
    # the CLI parses flags, runs flows and registry probes and prints what
    # they measured: it holds no analysis code of its own
    source = (Path(pma_lab.__file__).parent / "cli.py").read_text()
    assert _package_imports(source) == {"config", "experiments", "grid"}


def test_package_import_check_reads_every_relative_form():
    src = ("import os\nfrom math import inf\nfrom .grid import fmt17\n"
           "from . import geometry\nfrom .analysis.sub import x\n")
    assert _package_imports(src) == {"grid", "geometry", "analysis"}


def _named(node: ast.AST) -> set[str]:
    """Every name that code under ``node`` reads, as a bare name, as an
    attribute or through an import."""
    names = set()
    for c in ast.walk(node):
        if isinstance(c, ast.Name):
            names.add(c.id)
        elif isinstance(c, ast.Attribute):
            names.add(c.attr)
        elif isinstance(c, ast.alias):
            names.add(c.asname or c.name)
    return names


def _registered(node: ast.AST) -> bool:
    """True for a definition under one of the package's own (private)
    decorators, such as ``@_probe(name)``: its registry reaches it."""
    for deco in node.decorator_list:
        head = deco.func if isinstance(deco, ast.Call) else deco
        if isinstance(head, ast.Name) and head.id.startswith("_"):
            return True
    return False


def _dead_helpers(sources: dict[str, str]) -> list[str]:
    """Module-level private functions and classes of ``sources`` (module
    name -> source) that no statement names outside their own definition
    and no private decorator registers."""
    defs, statements = [], []
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            if isinstance(stmt, ast.FunctionDef | ast.AsyncFunctionDef
                          | ast.ClassDef) and stmt.name.startswith("_") \
                    and not stmt.name.startswith("__") \
                    and not _registered(stmt):
                defs.append((module, stmt))
            statements.append(stmt)
    return [f"{module}.{d.name} (line {d.lineno})" for module, d in defs
            if not any(d.name in _named(s) for s in statements if s is not d)]


def test_every_private_helper_is_called():
    sources = {p.stem: p.read_text()
               for p in Path(pma_lab.__file__).parent.glob("*.py")}
    dead = _dead_helpers(sources)
    assert not dead, f"private helpers nothing in pma_lab names: {dead}"


def test_dead_helper_check_counts_other_modules_and_skips_self_calls():
    a = ("def _called():\n    pass\n"
         "def _recursive(n):\n    return _recursive(n - 1)\n"
         "class _Plan:\n    pass\n"
         "def _by_attribute():\n    pass\n"
         "def _imported():\n    pass\n"
         "def __getattr__(name):\n    pass\n"
         "@_register('x')\ndef _reached_by_registry():\n    pass\n"
         "@lru_cache\ndef _cached():\n    pass\n"
         "def public():\n    return _called()\n")
    b = "from .a import _imported\nfrom . import a\nx = a._by_attribute\n"
    assert _dead_helpers({"a": a, "b": b}) == ["a._recursive (line 3)",
                                              "a._Plan (line 5)",
                                              "a._cached (line 17)"]


def _unused_defaults(sources: dict[str, str]) -> list[str]:
    """Keyword defaults of the module-level private functions of
    ``sources`` (module name -> source) that no call in ``sources``
    overrides, by position or by name; a call that unpacks ``*args`` or
    ``**kwargs`` counts as overriding every parameter it could reach."""
    defs, passed = [], {}
    for module, source in sources.items():
        tree = ast.parse(source)
        for stmt in tree.body:
            if isinstance(stmt, ast.FunctionDef | ast.AsyncFunctionDef) \
                    and stmt.name.startswith("_") \
                    and not stmt.name.startswith("__") \
                    and not _registered(stmt):
                defs.append((module, stmt))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            given = passed.setdefault(name, [])
            star = any(isinstance(a, ast.Starred) for a in node.args)
            given.append((math.inf if star else len(node.args),
                          {k.arg for k in node.keywords}))
    unused = []
    for module, d in defs:
        a = d.args
        positional = a.posonlyargs + a.args
        params = [(i, arg.arg) for i, arg in enumerate(positional)
                  if i >= len(positional) - len(a.defaults)]
        params += [(math.inf, arg.arg) for arg, default
                   in zip(a.kwonlyargs, a.kw_defaults) if default is not None]
        for i, param in params:
            if not any(i < count or param in keys or None in keys
                       for count, keys in passed.get(d.name, [])):
                unused.append(f"{module}.{d.name}({param}) (line {d.lineno})")
    return unused


def test_every_private_default_is_overridden():
    # a keyword default that no call overrides is a constant in disguise
    sources = {p.stem: p.read_text()
               for p in Path(pma_lab.__file__).parent.glob("*.py")}
    unused = _unused_defaults(sources)
    assert not unused, f"private defaults no call in pma_lab overrides: " \
        f"{unused}"


def test_unused_default_check_counts_positions_names_and_unpacking():
    a = ("def _f(x, tol=1e-9, cap=3, *, deep=False, wide=1):\n    pass\n"
         "def _g(y=0):\n    pass\n"
         "def _h(z=1):\n    pass\n"
         "def _k(v=1):\n    pass\n"
         "@_register('x')\ndef _reached_by_registry(w=2):\n    pass\n"
         "def public(v=2):\n    pass\n"
         "def run():\n    _f(1, 2e-9)\n    _f(1, deep=True)\n"
         "    _h(**{'z': 2})\n    _k(*[3])\n")
    b = "from . import a\na._g(5)\n"
    assert _unused_defaults({"a": a, "b": b}) == ["a._f(cap) (line 1)",
                                                 "a._f(wide) (line 1)"]


def _analyze_probes() -> set[str]:
    """The probes ``pma-lab analyze`` offers, ``-`` read as ``_``."""
    sub = next(a for a in _build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    probe = next(a for a in sub.choices["analyze"]._actions
                 if a.dest == "probe")
    return {choice.replace("-", "_") for choice in probe.choices}


def test_every_probe_is_reachable():
    # a probe that no entry names and the CLI does not offer runs nowhere
    analyze = _analyze_probes()
    named = {probe for spec in REGISTRY.values() for probe in spec.probes}
    assert analyze <= set(_PROBES), \
        f"analyze offers unregistered probes: {sorted(analyze - set(_PROBES))}"
    unreached = set(_PROBES) - named - analyze
    assert not unreached, f"probes nothing runs: {sorted(unreached)}"


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "claims 6, 7, 9 and 16 are cited by no registry entry (ROADMAP item 4's "
    "claim coverage)"))
def test_every_claim_is_cited_by_an_entry():
    # a claim that no entry cites is checked by nothing the registry runs
    claims = {int(head) for head, sep, _ in
              (line.partition("|") for line in claims_text().splitlines())
              if sep and head.strip().isdigit()}
    cited = {spec.claim_id for spec in REGISTRY.values()}
    assert cited <= claims
    assert not claims - cited, \
        f"claims no entry cites: {sorted(claims - cited)}"
