"""The public surface: every name the package and its modules export
resolves, every private module-level helper is still in use, and every
public one is read by the package or exported by its root."""
from __future__ import annotations

import ast
import dataclasses
import importlib
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import stackmf
from stackmf.equilibrium import dp_gain_oracle
from stackmf.integrators import STEP_BLOCK
from stackmf.model import TimeGrid
from conftest import uncontrolled_leader_mean

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


def test_only_the_commands_solve_gains():
    # The library checks, simulates and sweeps the gains it is handed; the
    # commands in `cli.py` solve them, so no lower layer re-solves behind a
    # caller's back.  Besides their definitions and the root's re-exports,
    # no module names either solver.
    solvers = {"solve_follower_gains", "solve_leader_gains"}
    named = {fname for fname, tree in _package_trees().items() if _names_used(tree) & solvers}
    assert "cli.py" in named
    assert named - {"cli.py", "follower.py", "leader.py", "__init__.py"} == set()


def _module_statements(body):
    """The statements a module runs at import, inside `if`, `try` and `with`
    blocks too, but not the bodies of its functions and classes."""
    for stmt in body:
        yield stmt
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            for field in ("body", "orelse", "finalbody", "handlers"):
                yield from _module_statements(getattr(stmt, field, []))


def _immutable(node: ast.expr, module) -> bool:
    """A number or string literal, a tuple of such values or of classes, or
    a compiled regular expression."""
    if isinstance(node, ast.Constant):
        return isinstance(node.value, (int, float, str))
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        return _immutable(node.operand, module)
    if isinstance(node, ast.Tuple):
        return all(_immutable(e, module) or (isinstance(e, ast.Name) and isinstance(getattr(module, e.id, None), type))
                   for e in node.elts)
    return isinstance(node, ast.Call) and ast.unparse(node.func) == "re.compile"


def test_no_module_level_mutable_state():
    # Derived state lives on objects: a module binds only constants, keeps no
    # `global` rebinding and no functools cache.
    found = []
    for fname, tree in _package_trees().items():
        module = importlib.import_module("stackmf" if fname == "__init__.py" else f"stackmf.{fname[:-3]}")
        for stmt in _module_statements(tree.body):
            if isinstance(stmt, ast.AugAssign) or (
                    isinstance(stmt, (ast.Assign, ast.AnnAssign)) and not _is_all(stmt)
                    and not (stmt.value is not None and _immutable(stmt.value, module))):
                found.append((fname, stmt.lineno, ast.unparse(stmt)[:60]))
        for node in ast.walk(tree):
            if isinstance(node, ast.Global):
                found.append((fname, node.lineno, "global"))
            for deco in getattr(node, "decorator_list", []):
                target = deco.func if isinstance(deco, ast.Call) else deco
                if (getattr(target, "attr", None) or getattr(target, "id", None)) in ("cache", "lru_cache"):
                    found.append((fname, deco.lineno, ast.unparse(deco)))
    assert found == []


def test_dp_oracle_names_no_solver_route():
    # The oracle checks the solver, so it owns its block loop: its body
    # reads none of the solver's Riccati marches or step maps.
    tree = _package_trees()["equilibrium.py"]
    oracle = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "dp_gain_oracle")
    assert _names_used(oracle) & {"riccati_march", "_block_maps", "rk4_increments", "riccati_flow"} == set()


def test_dp_oracle_solves_once_per_block(fast_gains, team_gains, monkeypatch):
    # The curvature is solved once per block of steps, not once per step:
    # doubling the steps adds one np.linalg.solve per added block.  On the
    # baseline at 40 steps the condition bound ends the blocks at 18.
    solve = np.linalg.solve

    def solves(s, steps):
        """The shapes of the matrices the oracle solves with, on `steps` steps."""
        s = dataclasses.replace(s, grid=TimeGrid(s.grid.horizon, steps))
        fg, mean_leader = stackmf.solve_follower_gains(s), uncontrolled_leader_mean(s)
        shapes = []
        with monkeypatch.context() as mp:
            mp.setattr(np.linalg, "solve", lambda a, b: shapes.append(np.shape(a)) or solve(a, b))
            dp_gain_oracle(s, fg, mean_leader)
        return shapes

    coarse, fine = (solves(fast_gains[0], steps) for steps in (500, 1000))
    assert len(fine) - len(coarse) == -(-1000 // STEP_BLOCK) - -(-500 // STEP_BLOCK)
    batched = [shape[0] for shape in solves(team_gains[0], 40) if len(shape) == 3]
    assert batched == [18, 18, 4, 40]     # three blocks, then the slope's maps at every step
