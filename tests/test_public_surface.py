"""The public surface: every name the package and its modules export
resolves, and every private module-level helper is still in use."""
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


def test_every_private_helper_is_referenced():
    # A module-level private function or class that nothing in the package
    # reads, outside its own definition, is dead code a refactor left behind.
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(Path(stackmf.__file__).parent.glob("*.py"))}
    helpers, used = [], set()
    for fname, tree in trees.items():
        for stmt in tree.body:
            names = _names_used(stmt)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                if stmt.name.startswith("_") and not stmt.name.startswith("__"):
                    helpers.append((fname, stmt.name))
                names.discard(stmt.name)
            used |= names
    assert helpers
    assert [(fname, name) for fname, name in helpers if name not in used] == []
