"""The public surface: every name the package and its modules export resolves."""
from __future__ import annotations

import importlib
import pkgutil

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
