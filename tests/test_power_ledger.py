"""The power ledger of `verify`: the smallest planted fault it catches.

Weight faults are gains solved on the fast config with one cost weight
scaled by 1 + delta; table faults are the solved gains with a P block
shifted by delta max|P| I and K shifted back, so P + K is kept (follower
P, and leader P00, the block on x0).  Either is checked by
`run_verification` against the true scenario (128 paths, seed 0, three
directions).  Each (mode, fault) pair pins the first delta of the ladder
1e-12, 1e-11, ..., 1e-1, 0.3, 1 at which the battery fails, and the rows
that fail there; the battery must pass at delta / 10, so a pin stays
tight.  A fault that nothing catches up to delta = 1 pins a pass at 1.  A
change that catches a fault earlier lowers its pin; raising a pin weakens
`verify`.
"""
from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from stackmf.equilibrium import run_verification
from stackmf.integrators import GridFunction
from stackmf.model import load_scenario
from conftest import FAST_CFG_TEXT, solve_both

# Weight name -> (Scenario field, cost field).
WEIGHTS = {
    "Q": ("follower_cost", "Q"),
    "R": ("follower_cost", "R"),
    "Gamma": ("follower_cost", "Gamma"),
    "Gamma1": ("follower_cost", "Gamma1"),
    "Q0": ("leader_cost", "Q"),
    "R0": ("leader_cost", "R"),
    "Gamma0": ("leader_cost", "Gamma"),
}

# (mode, fault) -> (first delta caught, the rows failing there); None when
# nothing fails up to delta = 1.
LEDGER = {
    ("team", "Q"): (1e-8, ["offset_consistency"]),
    ("team", "R"): (1e-9, ["stationarity_residual"]),
    ("team", "Gamma"): (1e-8, ["offset_consistency"]),
    ("team", "Gamma1"): (1e-8, ["offset_consistency"]),
    ("team", "Q0"): None,
    ("team", "R0"): None,
    ("team", "Gamma0"): (0.1, ["deviation:leader/const", "deviation:leader/halfsine"]),
    ("game", "Q"): (1e-8, ["offset_consistency"]),
    ("game", "R"): (1e-9, ["stationarity_residual"]),
    ("game", "Gamma"): (1e-7, ["offset_consistency"]),
    ("game", "Gamma1"): (1e-8, ["offset_consistency"]),
    ("game", "Q0"): (1.0, ["deviation:leader/cosine"]),
    ("game", "R0"): (1.0, ["deviation:leader/cosine"]),
    ("game", "Gamma0"): (0.1, ["deviation:leader/const", "deviation:leader/halfsine"]),
    ("team", "P"): (0.1, ["dp_oracle_curvature", "dp_oracle_offset"]),
    ("team", "P00"): None,
    ("game", "P"): (0.1, ["dp_oracle_curvature", "dp_oracle_offset"]),
    ("game", "P00"): None,
}


def shifted_block(P: GridFunction, K: GridFunction, n: int, delta: float):
    """P + c I and K - c I on the leading n x n block, c = delta max|P| there."""
    c = delta * np.max(np.abs(P.values[:, :n, :n])) * np.eye(n)
    Pv, Kv = P.values.copy(), K.values.copy()
    Pv[:, :n, :n] += c
    Kv[:, :n, :n] -= c
    return GridFunction(P.grid, Pv), GridFunction(K.grid, Kv)


def faulty_gains(s, fault: str, delta: float):
    """Gains with `fault` planted at size `delta`: a weight of `WEIGHTS`
    scaled before the solve, or follower P or leader P00 shifted after it."""
    if fault in WEIGHTS:
        part, field = WEIGHTS[fault]
        cost = getattr(s, part)
        scaled = dataclasses.replace(cost, **{field: getattr(cost, field) * (1 + delta)})
        return solve_both(dataclasses.replace(s, **{part: scaled}))[1:]
    _, fg, lg = solve_both(s)
    if fault == "P":
        P, K = shifted_block(fg.P, fg.K, s.dims.n, delta)
        return dataclasses.replace(fg, P=P, K=K), lg
    P, K = shifted_block(lg.P, lg.K, s.dims.n, delta)
    return fg, dataclasses.replace(lg, P=P, K=K)


def failing_rows(s, fault: str, delta: float) -> list:
    """The rows that fail when the gains of `faulty_gains` are verified
    against the true scenario `s`."""
    fg, lg = faulty_gains(s, fault, delta)
    rep = run_verification(s, fg, lg, n_paths=128, seed=0, directions=3)
    return ([c.name for c in rep.checks if not c.passed]
            + [f"deviation:{d.target}/{d.label}" for d in rep.deviations if not d.passed])


@pytest.fixture(scope="module")
def scenarios():
    return {mode: load_scenario(FAST_CFG_TEXT.replace('mode = "team"', f'mode = "{mode}"'))
            for mode in ("team", "game")}


@pytest.mark.parametrize("mode, fault", sorted(LEDGER))
def test_first_caught_fault_is_pinned(mode, fault, scenarios):
    s = scenarios[mode]
    if LEDGER[mode, fault] is None:
        assert failing_rows(s, fault, 1.0) == []
        return
    delta, rows = LEDGER[mode, fault]
    assert failing_rows(s, fault, delta) == rows
    assert failing_rows(s, fault, delta / 10) == []
