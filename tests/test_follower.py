"""Follower-stage gain equations: identities, structure, oracles."""
from __future__ import annotations

import dataclasses
import inspect
import math

import numpy as np
import pytest

from stackmf import follower
from stackmf.follower import FollowerGains, solve_follower_gains, sources
from stackmf.integrators import BlowUpError, stage_table
from stackmf.model import Dims, Mode, TimeGrid, load_scenario
from stackmf.simulation import simulate
from conftest import follower_offset, integrate_backward, replace_mode

TANH_CFG = """\
mode = "team"

[dims]
n = 1
m = 1
N = 2

[leader]
A = 0.0
B = 1.0
D = 1.0

[follower]
A = 0.0
B = 1.0
D = 1.0

[cost.leader]
Q = 1.0
R = 1.0
Gamma = 0.0

[cost.follower]
Q = 1.0
R = 1.0
Gamma = 0.0
Gamma1 = 0.0

[init]
leader = "constant(1.0)"
follower = "constant(1.0)"

[grid]
T = 1.0
steps = 1000
"""


def max_abs(gf) -> float:
    return float(np.max(np.abs(gf.values)))


# ---------------------------------------------------------------------------
# Closed-form and convergence oracles
# ---------------------------------------------------------------------------


def test_scalar_instance_matches_tanh_closed_form():
    # With A=0, B=1, Q=1, R=1 and no couplings, the own-state gain solves
    # p' = p^2 - 1, p(T)=0, whose solution is tanh(T - t).
    s = load_scenario(TANH_CFG)
    P = solve_follower_gains(s).P
    assert abs(P.values[0, 0, 0] - math.tanh(1.0)) <= 1e-6
    nodes = s.grid.nodes
    exact = np.tanh(1.0 - nodes)
    assert np.max(np.abs(P.values[:, 0, 0] - exact)) <= 1e-14


def test_gain_is_exact_at_any_step_count():
    # The Hamiltonian flow steps a constant-coefficient Riccati equation
    # exactly: no discretization error, however coarse the grid.
    for steps in (5, 10, 1000):
        s = load_scenario(TANH_CFG.replace("steps = 1000", f"steps = {steps}"))
        P = solve_follower_gains(s).P.values[:, 0, 0]
        assert np.max(np.abs(P - np.tanh(1.0 - s.grid.nodes))) <= 1e-14, steps


def test_tables_match_a_finer_grid_to_rounding(team_gains, team_gains_fine, game_n4_gains):
    # P, K and Pi at t = 0 on the benchmark grid against a 16x-finer solve:
    # the flow leaves rounding error only (RK4 left about 1e-13 relative on
    # the baseline and 2.5e-12 on game-n4).
    n4, n4_fg, _ = game_n4_gains
    n4_fine = dataclasses.replace(n4, grid=TimeGrid(n4.grid.horizon, 16 * n4.grid.steps))
    for fg, ref in [(team_gains[1], team_gains_fine[1]), (n4_fg, solve_follower_gains(n4_fine))]:
        for name in ("P", "K", "Pi"):
            got, want = getattr(fg, name), getattr(ref, name)
            assert np.max(np.abs(got.values[0] - want.values[0])) <= 1e-14 * (1.0 + max_abs(want)), name


def test_conjugate_point_raises_within_one_step():
    # Q = -1 turns the equation into p' = p^2 + 1, p(T) = 0, solved by
    # -tan(T - t): a pole at T - pi/2.  The flow is finite on both sides of
    # it, so only the sign of the flow factor shows the crossing.
    s = load_scenario(TANH_CFG.replace("[cost.follower]\nQ = 1.0", "[cost.follower]\nQ = -1.0")
                      .replace("T = 1.0", "T = 2.0"))
    assert s.follower_cost.Q[0, 0] == -1.0
    with pytest.raises(BlowUpError) as exc:
        solve_follower_gains(s)
    assert abs(exc.value.time - (2.0 - math.pi / 2)) <= s.grid.dt


def test_coupled_pair_sees_a_pole_that_both_blocks_cross():
    # With Gamma = 0 the mean-coupling source vanishes, so K = 0 and P and
    # P + K cross the pole of -tan(T - t) in the same step: the determinant
    # of the pair's whole flow factor stays positive there, and only its
    # diagonal blocks show the crossing.
    s = load_scenario(TANH_CFG.replace("[cost.follower]\nQ = 1.0", "[cost.follower]\nQ = -1.0")
                      .replace("T = 1.0", "T = 2.0"))
    with pytest.raises(BlowUpError) as exc:
        follower._solve_coupled(s)
    assert abs(exc.value.time - (2.0 - math.pi / 2)) <= s.grid.dt
    assert "crosses a pole" in str(exc.value)


# ---------------------------------------------------------------------------
# Structural identities (benchmark scenario, both modes)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("which", ["team", "game"])
def test_terminal_conditions_exact(which, team_gains, game_gains):
    s, fg, _ = team_gains if which == "team" else game_gains
    K = s.grid.steps
    phi = follower_offset(s, fg.Pi, stage_table(s.grid, np.tile(s.leader_mean0, (K + 1, 1))))
    for table in (fg.P.values, fg.K.values, fg.Pi.values, phi.nodes):
        assert np.all(table[K] == 0.0)


@pytest.mark.parametrize("which", ["team", "game"])
def test_sum_identity_against_independent_solve(which, team_gains, game_gains):
    # Pi solves its own equation, apart from the (P, K) pair.
    s, fg, _ = team_gains if which == "team" else game_gains
    gap = np.max(np.abs(fg.P.values + fg.K.values - fg.Pi.values))
    assert gap <= 1e-12 * (1.0 + max_abs(fg.Pi))


def asymmetry(gf) -> np.ndarray:
    return gf.values - np.swapaxes(gf.values, 1, 2)


@pytest.mark.parametrize("which", ["team", "game"])
def test_symmetric_gains_stay_symmetric(which, team_gains, game_gains):
    # P is symmetric in both modes and Pi in team mode.  A game-mode Pi need
    # not be symmetric, but P + K = Pi with P symmetric fixes its skew part.
    # P is stored as (P + P')/2, exactly symmetric; the drift its march had
    # before that is rounding (worst measured 4.4e-16), far inside the
    # solver's own rejection limit SYMMETRY_TOL.
    s, fg, _ = team_gains if which == "team" else game_gains
    assert np.max(np.abs(asymmetry(fg.P))) == 0.0
    skew_gap = asymmetry(fg.Pi) if s.mode is Mode.TEAM else asymmetry(fg.Pi) - asymmetry(fg.K)
    assert np.max(np.abs(skew_gap)) <= 1e-8
    assert fg.sym_drift <= 1e-14 * (1.0 + max_abs(fg.P))


def _pair_by_blocks(s):
    """The (P, K) pair as its two block equations on one flat state, stepped
    by RK4 with P read symmetrized: the reference for the block form of the
    coupled solve."""
    n = s.dims.n
    A, B = s.follower_dyn.A, s.follower_dyn.B
    G = B @ np.linalg.solve(s.follower_cost.R, B.T)
    src = sources(s)
    S, S1 = src.S, src.S1

    def rhs(t, y):
        P, K = y[:n * n].reshape(n, n), y[n * n:].reshape(n, n)
        P = 0.5 * (P + P.T)
        dP = -(A.T @ P + P @ A - P @ G @ P + S)
        dK = -(A.T @ K + K @ A - P @ G @ K - K @ G @ (P + K) - S1)
        return np.concatenate([dP.ravel(), dK.ravel()])

    vals = integrate_backward(rhs, np.zeros(2 * n * n), s.grid).values
    P = vals[:, :n * n].reshape(-1, n, n)
    return 0.5 * (P + np.swapaxes(P, 1, 2)), vals[:, n * n:].reshape(-1, n, n)


def test_rectangular_pair_matches_the_block_equations(team_gains, game_gains, game_n4_gains, fast_gains,
                                                      fast_game_gains, random_battery):
    # The coupled solve steps [[P, K], [0, P + K]] as one square equation by
    # its exact flow; it must reproduce the two block equations stepped by
    # RK4 on a 16x-finer grid (where RK4's error is below rounding).
    for s, fg, _ in [team_gains, game_gains, game_n4_gains, fast_gains, fast_game_gains, *random_battery]:
        fine = dataclasses.replace(s, grid=TimeGrid(s.grid.horizon, 16 * s.grid.steps))
        P_ref, K_ref = (table[::16] for table in _pair_by_blocks(fine))
        scale = 1.0 + max_abs(fg.P) + max_abs(fg.K)
        assert np.max(np.abs(fg.P.values - P_ref)) <= 1e-13 * scale
        assert np.max(np.abs(fg.K.values - K_ref)) <= 1e-13 * scale


# ---------------------------------------------------------------------------
# Mode coincidence and N-dependence
# ---------------------------------------------------------------------------


def test_modes_coincide_without_population_coupling(make_random_scenario):
    # With no population weight in the cost, the competitive and cooperative
    # solutions are the same object.
    for seed in range(3):
        s_game = make_random_scenario(7000 + seed, mode="game", gamma_zero=True)
        s_team = replace_mode(s_game, Mode.TEAM)
        fg_g = solve_follower_gains(s_game)
        fg_t = solve_follower_gains(s_team)
        for name in ("P", "K", "Pi"):
            a, b = getattr(fg_g, name), getattr(fg_t, name)
            assert np.max(np.abs(a.values - b.values)) <= 1e-9, (seed, name)
        mean_leader = stage_table(s_game.grid, np.tile(s_game.leader_mean0, (s_game.grid.steps + 1, 1)))
        phi_g = follower_offset(s_game, fg_g.Pi, mean_leader)
        phi_t = follower_offset(s_team, fg_t.Pi, mean_leader)
        assert np.max(np.abs(phi_g.values - phi_t.values)) <= 1e-9


def test_team_aggregate_gain_is_population_size_free(fast_scenario):
    # The cooperative aggregate equation has no N in its sources.
    s = fast_scenario
    small = dataclasses.replace(s, dims=Dims(s.dims.n, s.dims.m, 2))
    large = dataclasses.replace(s, dims=Dims(s.dims.n, s.dims.m, 1000))
    gap = np.max(np.abs(solve_follower_gains(small).Pi.values - solve_follower_gains(large).Pi.values))
    assert gap <= 1e-12


def test_game_aggregate_gain_depends_on_population_size(fast_scenario):
    s = replace_mode(fast_scenario, Mode.GAME)
    small = dataclasses.replace(s, dims=Dims(s.dims.n, s.dims.m, 2))
    large = dataclasses.replace(s, dims=Dims(s.dims.n, s.dims.m, 1000))
    gap = np.max(np.abs(solve_follower_gains(small).Pi.values - solve_follower_gains(large).Pi.values))
    assert gap > 1e-4


# ---------------------------------------------------------------------------
# Trivial cases
# ---------------------------------------------------------------------------


def test_zero_state_weight_zeroes_everything(baseline_text):
    # Q = 0 kills every source; all gains and the offset are exactly zero.
    text = baseline_text.replace("Q = 1.0\nR = 0.1", "Q = 0.0\nR = 0.1")
    for mode_text in (text, text.replace('mode = "team"', 'mode = "game"')):
        s = load_scenario(mode_text)
        mean_leader = stage_table(s.grid, np.tile(s.leader_mean0, (s.grid.steps + 1, 1)))
        fg = solve_follower_gains(s)
        assert max_abs(fg.P) == 0.0
        assert max_abs(fg.K) == 0.0
        assert max_abs(fg.Pi) == 0.0
        assert max_abs(follower_offset(s, fg.Pi, mean_leader)) == 0.0


def test_single_follower_game_has_no_mean_coupling(make_random_scenario):
    # With one follower the population average is the follower itself, so the
    # mean-coupling gain vanishes.
    s = make_random_scenario(8100, mode="game", N=1)
    fg = solve_follower_gains(s)
    assert max_abs(fg.K) <= 1e-12 * (1.0 + max_abs(fg.P))


# ---------------------------------------------------------------------------
# Feedback law and API shape
# ---------------------------------------------------------------------------


def test_feedback_law_arithmetic(fast_gains):
    # Every simulated follower control is -R^-1 B'(P x + K E[x] + phi).
    s, fg, lg = fast_gains
    assert np.array_equal(fg.control_map, np.linalg.solve(s.follower_cost.R, s.follower_dyn.B.T))
    er = simulate(s, fg, lg, 2, seed=1, store_paths=2)
    mean_term = np.einsum("kij,kj->ki", fg.K.values, lg.mean.nodes[:, s.dims.n:2 * s.dims.n])
    for path in er.paths:
        costate = np.einsum("kij,akj->aki", fg.P.values, path.followers) + mean_term + lg.offset.values
        expected = -costate @ fg.control_map.T
        assert np.max(np.abs(path.controls - expected)) <= 1e-12


def test_gains_are_shared_by_all_followers():
    # One gain set serves the whole exchangeable population: no solver or
    # accessor takes a follower index.
    assert "agent" not in inspect.signature(solve_follower_gains).parameters
    assert "i" not in inspect.signature(solve_follower_gains).parameters
    field_names = set(FollowerGains.__dataclass_fields__)
    assert field_names == {"P", "K", "Pi", "control_map", "sym_drift", "health"}


def test_drift_guard_reports_through_failure_channel(make_random_scenario, monkeypatch):
    # When symmetrization drift says the integrator lost accuracy, the solve
    # must fail with the same exception type as a norm escape, carrying the
    # node time where the worst drift occurred, so callers (CLI, retry loops)
    # handle both failure modes identically.
    import stackmf.follower as fol

    s = make_random_scenario(9200, n=3)
    monkeypatch.setattr(fol, "SYMMETRY_TOL", 1e-18)
    with pytest.raises(BlowUpError) as exc:
        solve_follower_gains(s)
    assert 0.0 <= exc.value.time <= s.grid.horizon
    assert exc.value.norm > 0.0
    assert "drift" in str(exc.value)
