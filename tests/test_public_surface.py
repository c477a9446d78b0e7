"""The public surface: every name the package and its modules export
resolves, every private module-level helper is still in use, and every
public one is read by the package or exported by its root."""
from __future__ import annotations

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import stackmf

MODULES = ["stackmf"] + sorted(f"stackmf.{m.name}" for m in pkgutil.iter_modules(stackmf.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(set(exported)) == len(exported), name
    assert [n for n in exported if not hasattr(module, n)] == [], name
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    assert set(exported) <= set(namespace), name


def _names_used(node: ast.AST) -> set:
    """Every name a piece of code reads: bare names, attributes and imported names."""
    used = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            used.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            used.add(sub.attr)
        elif isinstance(sub, ast.alias):
            used.add(sub.name)
    return used


def _package_trees() -> dict:
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(Path(stackmf.__file__).parent.glob("*.py"))}


def _is_all(stmt: ast.stmt) -> bool:
    return isinstance(stmt, ast.Assign) and any(
        isinstance(target, ast.Name) and target.id == "__all__" for target in stmt.targets)


def test_every_private_helper_is_referenced():
    # A module-level private function or class that nothing in the package
    # reads, outside its own definition, is dead code a refactor left behind.
    helpers, used = [], set()
    for fname, tree in _package_trees().items():
        for stmt in tree.body:
            names = _names_used(stmt)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                if stmt.name.startswith("_") and not stmt.name.startswith("__"):
                    helpers.append((fname, stmt.name))
                names.discard(stmt.name)
            used |= names
    assert helpers
    assert [(fname, name) for fname, name in helpers if name not in used] == []


def test_every_public_definition_is_read_or_exported_by_the_root():
    # A public function or class that no package code reads, outside its own
    # definition and the `__all__` lists, serves the package only if the
    # package root exports it; otherwise it is a route kept for the tests,
    # and those live in tests/conftest.py.  The root's own imports re-export
    # and so do not count as reads.
    public, used = [], set()
    for fname, tree in _package_trees().items():
        for stmt in tree.body:
            if fname == "__init__.py" or _is_all(stmt):
                continue
            names = _names_used(stmt)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                if not stmt.name.startswith("_"):
                    public.append((fname, stmt.name))
                names.discard(stmt.name)
            used |= names
    assert public
    assert [(fname, name) for fname, name in public
            if name not in used and name not in stackmf.__all__] == []


def _opens_for_writing(call: ast.Call) -> bool:
    """`open(path, mode)` or `path.open(mode)` whose mode may write: one that
    writes, appends, creates or updates, or one that is not a literal."""
    position = 1 if isinstance(call.func, ast.Name) else 0
    modes = call.args[position:position + 1] + [k.value for k in call.keywords if k.arg == "mode"]
    return any(not (isinstance(mode, ast.Constant) and isinstance(mode.value, str))
               or set(mode.value) & set("wax+") for mode in modes)


def test_only_the_cli_writes_files():
    # The library computes and returns values; `cli.py` is the one module
    # that writes files, so every artifact goes through its writers.
    writes = []
    for fname, tree in _package_trees().items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if name in ("write_text", "write_bytes") or (name == "open" and _opens_for_writing(node)):
                writes.append((fname, node.lineno, name))
    assert any(fname == "cli.py" for fname, _, _ in writes)
    assert [w for w in writes if w[0] != "cli.py"] == []
