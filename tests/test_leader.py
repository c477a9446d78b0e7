"""Leader-stage block system, nonsymmetric Riccati solves, the flow representation."""
from __future__ import annotations

import dataclasses

import numpy as np
import pytest
import scipy.linalg

from stackmf.follower import solve_follower_gains
from stackmf.integrators import BlowUpError, GridFunction, StageTable
from stackmf.leader import (
    ExtendedSystem,
    assemble_extended,
    leader_gains,
    solve_leader_V,
    solve_leader_gains,
    solve_leader_pair,
)
from stackmf.model import Mode, TimeGrid, load_scenario
from stackmf.simulation import simulate, solve_mean_state
from conftest import (REPO, follower_offset, midpoint_flow, replace_mode, solve_both, solve_leader_K, solve_leader_M,
                      solve_leader_P)

GAME_N4_CFG = REPO / "perfbench" / "game_n4.cfg"


def constant_system(n=1, *, T=1.0, steps=400, A=None, B=None, A1=None, B1=None,
                    A2=None, B2=None, f_state=None, f_costate=None) -> ExtendedSystem:
    """Synthetic constant-coefficient block system for oracle tests."""
    d = 3 * n
    grid = TimeGrid(T, steps)
    K = grid.steps

    def blk(M):
        return np.zeros((d, d)) if M is None else np.asarray(M, dtype=float)

    def tab(M):
        return StageTable(grid, np.tile(blk(M), (2 * K + 1, 1, 1)))

    def vec(v):
        arr = np.zeros(d) if v is None else np.asarray(v, dtype=float)
        return StageTable(grid, np.tile(arr, (2 * K + 1, 1)))

    return ExtendedSystem(
        n=n, grid=grid, A=tab(A), B=blk(B), A1=blk(A1), B1=tab(B1),
        A2=blk(A2), B2=tab(B2), f_state=vec(f_state), f_costate=vec(f_costate),
    )


def max_abs(gf) -> float:
    return float(np.max(np.abs(gf.values)))


# ---------------------------------------------------------------------------
# Block assembly
# ---------------------------------------------------------------------------


def test_benchmark_terminal_drift_blocks(team_gains):
    # At the horizon the follower gains vanish, so the extended drift is the
    # bare diagonal (leader drift, follower drift twice).
    s, fg, _ = team_gains
    es = assemble_extended(s, fg)
    A_T = es.A.nodes[s.grid.steps]
    assert np.allclose(A_T, np.diag([0.05, -0.05, -0.05]), atol=1e-14)


def test_benchmark_costate_feedback_block(team_gains):
    # Block (1,1) of the costate feedback is -B0 R0^-1 B0' = -0.01.
    s, fg, _ = team_gains
    es = assemble_extended(s, fg)
    assert es.B[0, 0] == pytest.approx(-0.01, abs=1e-15)


def test_zero_scenario_assembles_zero_blocks(baseline_text):
    text = baseline_text
    for old, new in (
        ("A = 0.05", "A = 0.0"), ("B = 0.1", "B = 0.0"), ("A = -0.05", "A = 0.0"),
        ("B = 0.05", "B = 0.0"), ("f = 1.0", "f = 0.0"), ("D = 1.0", "D = 0.0"),
        ("Q = 1.0\nR = 1.0", "Q = 0.0\nR = 1.0"), ("Q = 1.0\nR = 0.1", "Q = 0.0\nR = 0.1"),
        ("Gamma = 1.0", "Gamma = 0.0"), ("Gamma = 0.8", "Gamma = 0.0"),
        ("Gamma1 = 1.0", "Gamma1 = 0.0"), ("eta = 1.0", "eta = 0.0"), ("eta = 0.05", "eta = 0.0"),
    ):
        text = text.replace(old, new)
    s = load_scenario(text)
    es = assemble_extended(s, solve_follower_gains(s))
    for name in ("A", "B1", "B2", "f_state", "f_costate"):
        assert max_abs(getattr(es, name)) == 0.0, name
    for name in ("B", "A1", "A2"):
        assert np.max(np.abs(getattr(es, name))) == 0.0, name


# Vector game whose follower control gain G = B R^-1 B' does not commute with
# the aggregate gain Pi, so the order of the closed-loop product matters.
GAME_N2_CFG = """\
mode = "game"

[dims]
n = 2
m = 2
N = 10

[leader]
A = [[0.1, 0.3], [-0.3, 0.1]]
B = [[0.5, 0.0], [0.2, 0.5]]
f = [0.5, -0.2]
D = [0.3, 0.3]

[follower]
A = [[-0.1, 0.4], [-0.2, 0.0]]
B = [[1.0, 0.0], [0.5, 0.3]]
f = [0.2, 0.4]
D = [0.4, 0.4]

[cost.leader]
Q = [[1.0, 0.2], [0.2, 0.5]]
R = [[1.0, 0.0], [0.0, 1.0]]
Gamma = [[0.8, 0.0], [0.0, 0.5]]
eta = [0.5, 0.0]

[cost.follower]
Q = [[2.0, 0.5], [0.5, 0.3]]
R = [[0.3, 0.0], [0.0, 0.6]]
Gamma = [[0.6, 0.0], [0.0, 0.6]]
Gamma1 = [[0.8, 0.2], [0.0, 0.5]]
eta = [0.1, 0.0]

[init]
leader = "gaussian([2.0, -1.0], [0.25, 0.25])"
follower = "uniform([3, -2], [5, 0])"

[grid]
T = 3.0
steps = 300
"""


def test_follower_closed_loop_drift_is_A_minus_G_Pi():
    # The mean follower state moves under the feedback u = -R^-1 B' (Pi m + phi),
    # so its drift is A - G Pi; with G and Pi not commuting, A - Pi G would
    # send the extended mean (and the population average it predicts) astray.
    s, fg, lg = solve_both(load_scenario(GAME_N2_CFG))
    es = assemble_extended(s, fg)
    n = s.dims.n
    A, B, R = s.follower_dyn.A, s.follower_dyn.B, s.follower_cost.R
    G = B @ np.linalg.solve(R, B.T)
    Pi = fg.Pi.values
    assert np.max(np.abs(G @ Pi - Pi @ G)) > 1e-2
    expected = A - G @ Pi
    np.testing.assert_allclose(es.A.nodes[:, n:2 * n, n:2 * n], expected, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(es.A.nodes[:, 2 * n:, 2 * n:], expected, rtol=0.0, atol=1e-12)

    paths = 256
    er = simulate(s, fg, lg, paths, seed=3, store_paths=0)
    mean = solve_mean_state(s, es, lg).values[:, n:2 * n]
    se = er.node_summary["xbar_std"] / np.sqrt(paths)
    tol = 5.0 * se + 0.5 * s.grid.dt * (1.0 + np.max(np.abs(mean)))
    assert np.all(np.abs(er.node_summary["xbar_mean"] - mean) <= tol)


def test_mode_difference_is_localized(team_gains):
    # Assembling the two modes over the same follower gains must agree on
    # every block except the mean-state source and the offset forcing.
    s, fg, _ = team_gains
    es_t = assemble_extended(s, fg)
    es_g = assemble_extended(replace_mode(s, Mode.GAME), fg)
    for name in ("B", "A1"):
        assert np.array_equal(getattr(es_t, name), getattr(es_g, name)), name
    for name in ("A", "B1", "B2", "f_state"):
        assert np.array_equal(getattr(es_t, name).values, getattr(es_g, name).values), name
    n = s.dims.n
    assert not np.array_equal(es_t.A2, es_g.A2)
    ft, fgm = es_t.f_costate.values, es_g.f_costate.values
    assert np.array_equal(ft[:, : 2 * n], fgm[:, : 2 * n])
    assert not np.array_equal(ft[:, 2 * n:], fgm[:, 2 * n:])


# ---------------------------------------------------------------------------
# Solve invariants (benchmark scenario, both modes)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("which", ["team", "game"])
def test_terminal_conditions_exact(which, team_gains, game_gains):
    s, _, lg = team_gains if which == "team" else game_gains
    K = s.grid.steps
    for table in (lg.P, lg.K, lg.M, lg.V):
        assert np.all(table.values[K] == 0.0)


@pytest.mark.parametrize("which", ["team", "game"])
def test_sum_identity_against_independent_solve(which, team_gains, game_gains):
    s, fg, lg = team_gains if which == "team" else game_gains
    M_direct = solve_leader_M(assemble_extended(s, fg))
    gap = np.max(np.abs(lg.P.values + lg.K.values - M_direct.values))
    assert gap <= 1e-8 * (1.0 + max_abs(M_direct))


@pytest.mark.parametrize("which", ["team", "game"])
def test_third_block_row_annihilates(which, team_gains, game_gains):
    # The third block row and column of the state source vanish, so that
    # row and column of the costate gain solve a homogeneous equation from a
    # zero terminal value; the path kernel reads neither.
    s, fg, lg = team_gains if which == "team" else game_gains
    n = s.dims.n
    assert np.max(np.abs(lg.P.values[:, 2 * n:, :])) <= 1e-8
    assert np.max(np.abs(lg.P.values[:, :, 2 * n:])) <= 1e-8
    # The costate's noise loading P @ noise, noise the leader's D on block 1,
    # therefore has a zero third block everywhere.
    loading = lg.P.values @ np.pad(s.leader_dyn.D, (0, 2 * n))
    assert np.max(np.abs(loading[:, 2 * n:])) <= 1e-12


def test_standalone_gain_solvers_are_consistent(fast_gains):
    s, fg, lg = fast_gains
    es = assemble_extended(s, fg)
    # The closures step the Riccati equations themselves by RK4, and K and V
    # read their partner tables through Hermite stage tables, so they agree
    # with the marches to the 4th-order integration error.
    P = solve_leader_P(es)
    assert np.max(np.abs(P.values - lg.P.values)) <= 1e-9 * (1.0 + max_abs(P))
    K = solve_leader_K(es, P)
    assert np.max(np.abs(K.values - lg.K.values)) <= 1e-9 * (1.0 + max_abs(K))
    V = solve_leader_V(es, solve_leader_M(es))
    assert np.max(np.abs(V.values - lg.V.values)) <= 1e-9 * (1.0 + max_abs(V))


def test_pair_march_sum_matches_the_mean_gain(team_gains, game_gains, game_n4_gains, fast_gains,
                                                 fast_game_gains, random_battery):
    # P + K of the pair march [[P, K], [0, M]] against the M that marches as
    # its own block: the K and M equations of one discretization agree to
    # rounding.
    for s, fg, lg in [team_gains, game_gains, game_n4_gains, fast_gains, fast_game_gains, *random_battery]:
        assert np.max(np.abs(lg.P.values + lg.K.values - lg.M.values)) <= 1e-12 * (1.0 + max_abs(lg.M))
        assert np.all(lg.V.values[s.grid.steps] == 0.0)


@pytest.mark.parametrize("config", ["baseline", "game_n4"])
def test_offset_routes_agree(config, team_gains):
    # The third block of the costate reconstruction along the deterministic
    # mean path equals the follower-stage offset driven by the leader mean
    # (given with the mean path's own Hermite midpoints).
    s, fg, lg = team_gains if config == "baseline" else solve_both(load_scenario(GAME_N4_CFG.read_text()))
    es = assemble_extended(s, fg)
    mean = solve_mean_state(s, es, lg)
    n = s.dims.n
    Kn = s.grid.steps
    costate = (
        np.einsum("kij,kj->ki", lg.P.values + lg.K.values, mean.values)
        + lg.V.values
    )
    offset_leader_route = costate[:, 2 * n:]
    assert lg.mean.nodes.tobytes() == mean.values.tobytes()
    lead = StageTable(s.grid, lg.mean.values[:, :n])
    phi = follower_offset(s, fg.Pi, lead).nodes
    gap = np.max(np.abs(offset_leader_route - phi))
    assert gap <= 1e-9 * (1.0 + np.max(np.abs(phi)))
    assert np.all(phi[Kn] == 0.0)


def test_zero_tracking_weight_zeroes_costate_gain(baseline_text):
    # Without a leader tracking weight the state source vanishes and the
    # per-path costate gain is identically zero.
    text = baseline_text.replace("Q = 1.0\nR = 1.0", "Q = 0.0\nR = 1.0")
    s = load_scenario(text)
    _, fg, lg = solve_both(s)
    assert max_abs(lg.P) == 0.0
    es = assemble_extended(s, fg)
    assert np.max(np.abs(es.A1)) == 0.0
    assert np.max(np.abs(midpoint_flow(es, es.B1))) == 0.0


# ---------------------------------------------------------------------------
# Flow representation P = V U^-1
# ---------------------------------------------------------------------------


def test_flow_oracle_on_synthetic_constant_instance():
    rng = np.random.default_rng(21)
    es = constant_system(
        A=0.3 * rng.standard_normal((3, 3)),
        B=0.3 * rng.standard_normal((3, 3)),
        A1=0.3 * rng.standard_normal((3, 3)),
        B1=0.3 * rng.standard_normal((3, 3)),
    )
    P_ode = solve_leader_P(es)
    assert np.max(np.abs(P_ode.values - midpoint_flow(es, es.B1))) <= 1e-8


def test_flow_oracle_on_constant_coefficient_scenario(baseline_text):
    # Zero follower state weight freezes the follower gains at zero, so the
    # leader-stage blocks are constant and the flow formula is exact.
    text = baseline_text.replace("Q = 1.0\nR = 0.1", "Q = 0.0\nR = 0.1")
    s = load_scenario(text)
    fg = solve_follower_gains(s)
    es = assemble_extended(s, fg)
    gap = np.max(np.abs(solve_leader_P(es).values - midpoint_flow(es, es.B1)))
    assert gap <= 1e-8


@pytest.mark.parametrize("which", ["team", "game"])
def test_flow_oracle_tracks_time_varying_blocks(which, team_gains, game_gains):
    # Per-step midpoint freezing reproduces the production route within 1e-6
    # even though the benchmark blocks move with the follower gains.
    s, fg, lg = team_gains if which == "team" else game_gains
    es = assemble_extended(s, fg)
    assert np.max(np.abs(lg.P.values - midpoint_flow(es, es.B1))) <= 1e-6


def test_flow_oracle_variant_is_distinguishable(team_gains):
    # B2 in place of B1 in the generator's lower right corner misses the
    # production P by orders of magnitude on the benchmark, which pins the
    # choice; the same construction with B1 is the flow representation.
    s, fg, lg = team_gains
    es = assemble_extended(s, fg)
    assert np.max(np.abs(lg.P.values - midpoint_flow(es, es.B2))) > 1.0


def tan_instance(T: float, steps: int) -> ExtendedSystem:
    # P' = -(P B P - A1) with B = I, A1 = -I gives P(t) = tan(T - t) I,
    # which escapes at t = T - pi/2.
    return constant_system(T=T, steps=steps, B=np.eye(3), A1=-np.eye(3))


def test_closure_route_raises_at_the_conjugate_point():
    es = tan_instance(2.0, 400)
    with pytest.raises(BlowUpError) as exc:
        solve_leader_P(es)
    assert abs(exc.value.time - (2.0 - np.pi / 2.0)) <= 0.02


def test_pair_march_raises_at_the_conjugate_point():
    # P and M = P + K (K = 0 here) reach the pole in the same step; each
    # diagonal block of the pair equation's flow factor shows it.
    es = tan_instance(2.0, 400)
    with pytest.raises(BlowUpError) as exc:
        solve_leader_pair(es)
    assert abs(exc.value.time - (2.0 - np.pi / 2.0)) <= 0.02


def test_tan_instance_regular_below_conjugate_horizon():
    es = tan_instance(1.0, 400)
    P = solve_leader_P(es)
    assert abs(P.values[0, 0, 0] - np.tan(1.0)) <= 1e-9
    assert np.max(np.abs(P.values - midpoint_flow(es, es.B1))) <= 1e-10


# ---------------------------------------------------------------------------
# Offset equation closed form
# ---------------------------------------------------------------------------


def test_offset_equation_matches_variation_of_constants():
    # With zero sources the combined gain vanishes identically, leaving a
    # linear constant-coefficient terminal-value problem for the offset.
    rng = np.random.default_rng(33)
    B1 = 0.4 * rng.standard_normal((3, 3))
    B2 = 0.4 * rng.standard_normal((3, 3))
    c = rng.standard_normal(3)
    es = constant_system(B=0.3 * rng.standard_normal((3, 3)), B1=B1, B2=B2,
                         f_state=rng.standard_normal(3), f_costate=c)
    M = solve_leader_M(es)
    assert max_abs(M) == 0.0
    V = solve_leader_V(es, M)
    L = B1 + B2
    Linv = np.linalg.inv(L)
    T = es.grid.horizon
    for k in (0, 57, 201, 400):
        t = es.grid.nodes[k]
        exact = -Linv @ (np.eye(3) - scipy.linalg.expm(-L * (T - t))) @ c
        assert np.max(np.abs(V.values[k] - exact)) <= 1e-9, k


def test_offset_richardson_reference(team_gains, team_gains_fine):
    # The benchmark offset at the initial node agrees with a 16x-finer
    # reference within 1e-8.  (The follower tables feeding the blocks have
    # Hermite midpoints, so the leader stage converges at fourth order; at
    # the benchmark grid that term is ~1e-12.)
    _, _, lg = team_gains
    _, _, lg_f = team_gains_fine
    assert np.max(np.abs(lg.V.values[0] - lg_f.V.values[0])) <= 1e-8


def test_leader_tables_converge_at_fourth_order(team_scenario, team_gains_fine):
    # Error of leader P, K, V at t = 0 against the 16x-finer solve falls at
    # least 12-fold per halving of dt over 250 -> 500 -> 1000 steps (4th
    # order gives 16-fold; linear stage midpoints would give 4-fold).
    _, _, ref = team_gains_fine
    errors = []
    for steps in (250, 500, 1000):
        grid = TimeGrid(team_scenario.grid.horizon, steps)
        _, _, lg = solve_both(dataclasses.replace(team_scenario, grid=grid))
        errors.append(max(float(np.max(np.abs(getattr(lg, k).values[0] - getattr(ref, k).values[0])))
                          for k in ("P", "K", "V")))
    assert errors[0] >= 12.0 * errors[1] and errors[1] >= 12.0 * errors[2], errors


def test_zero_forcing_zeroes_offset():
    rng = np.random.default_rng(8)
    es = constant_system(A=0.2 * rng.standard_normal((3, 3)),
                         B=0.2 * rng.standard_normal((3, 3)),
                         A1=0.2 * rng.standard_normal((3, 3)))
    V = solve_leader_V(es, solve_leader_M(es))
    assert max_abs(V) == 0.0


# ---------------------------------------------------------------------------
# Feedback law
# ---------------------------------------------------------------------------


def test_leader_feedback_arithmetic(fast_scenario):
    # First gain row (1, 0, 0), state (2, 0, 0), B0 = 0.5, R0 = 1 -> control -1.
    s = fast_scenario
    rows = s.grid.steps + 1
    P_vals = np.zeros((rows, 3, 3))
    P_vals[:, 0, 0] = 1.0
    P = GridFunction(s.grid, P_vals)
    es = assemble_extended(s, solve_follower_gains(s))
    lg = leader_gains(s, es, P, GridFunction(s.grid, np.zeros((rows, 3, 3))), P,
                      GridFunction(s.grid, np.zeros((rows, 3))))
    u = -lg.control_map @ (lg.P.values[1] @ np.array([2.0, 0.0, 0.0]))[:1]
    assert u.shape == (1,)
    assert u[0] == pytest.approx(-1.0, abs=1e-15)


def test_solved_feedback_composes_gain_tables(team_gains):
    # control_map = R0^-1 B0', m x n: it maps the leader block of the
    # costate, and no other, to the leader control.
    s, _, lg = team_gains
    assert lg.control_map.shape == (s.dims.m, s.dims.n)
    np.testing.assert_array_equal(lg.control_map, np.linalg.solve(s.leader_cost.R, s.leader_dyn.B.T))
