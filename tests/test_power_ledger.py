"""The power ledger of `verify`: the smallest planted weight fault it catches.

Gains are solved on the fast config with one cost weight scaled by 1 + delta
and checked by `run_verification` against the true scenario (128 paths,
seed 0, three directions).  Each (mode, weight) pair pins the first delta of
the ladder 1e-12, 1e-11, ..., 1e-1, 0.3, 1 at which the battery fails, and
the rows that fail there; the battery must pass at delta / 10, so a pin
stays tight.  A weight that nothing catches up to delta = 1 pins a pass at
1.  A change that catches a fault earlier lowers its pin; raising a pin
weakens `verify`.
"""
from __future__ import annotations

import dataclasses

import pytest

from stackmf.equilibrium import run_verification
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

# (mode, weight) -> (first delta caught, the rows failing there); None when
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
}


def failing_rows(s, weight: str, delta: float) -> list:
    """The rows that fail when gains solved with `weight` scaled by
    1 + delta are verified against the true scenario `s`."""
    part, field = WEIGHTS[weight]
    cost = getattr(s, part)
    faulty = dataclasses.replace(s, **{part: dataclasses.replace(cost, **{field: getattr(cost, field) * (1 + delta)})})
    _, fg, lg = solve_both(faulty)
    rep = run_verification(s, fg, lg, n_paths=128, seed=0, directions=3)
    return ([c.name for c in rep.checks if not c.passed]
            + [f"deviation:{d.target}/{d.label}" for d in rep.deviations if not d.passed])


@pytest.fixture(scope="module")
def scenarios():
    return {mode: load_scenario(FAST_CFG_TEXT.replace('mode = "team"', f'mode = "{mode}"'))
            for mode in ("team", "game")}


@pytest.mark.parametrize("mode, weight", sorted(LEDGER))
def test_first_caught_fault_is_pinned(mode, weight, scenarios):
    s = scenarios[mode]
    if LEDGER[mode, weight] is None:
        assert failing_rows(s, weight, 1.0) == []
        return
    delta, rows = LEDGER[mode, weight]
    assert failing_rows(s, weight, delta) == rows
    assert failing_rows(s, weight, delta / 10) == []
