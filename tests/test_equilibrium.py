"""Optimality verification: deviation tests, residuals, the DP oracle."""
from __future__ import annotations

import csv
import dataclasses

import numpy as np
import pytest

import stackmf.equilibrium as equilibrium
from stackmf.cli import _write_verification
from stackmf.follower import solve_follower_gains
from stackmf.integrators import GridFunction, StageTable
from stackmf.model import Distribution, InitialLaw, Mode, TimeGrid, load_scenario
from stackmf.simulation import simulate
from stackmf.equilibrium import (
    PASS_FLOOR,
    deviation_battery,
    direction_library,
    dp_gain_oracle,
    run_verification,
    stationarity_residuals,
)
from conftest import FAST_CFG_TEXT, dp_recursion_reference, random_scenario, solve_both, uncontrolled_leader_mean

def one_direction(target, s, fg, lg, direction, n_paths, seed, label="d"):
    """The battery's result for a single follower or leader direction."""
    dirs = [(label, direction)]
    if target == "follower":
        return deviation_battery(s, fg, lg, dirs, [], n_paths, seed)[0]
    return deviation_battery(s, fg, lg, [], dirs, n_paths, seed)[0]


# ---------------------------------------------------------------------------
# Direction library
# ---------------------------------------------------------------------------


def test_direction_library_shapes_and_labels():
    grid = TimeGrid(2.0, 50)
    lib = direction_library(grid, 2, 6, seed=42)
    assert [label for label, _ in lib] == ["const", "halfsine", "cosine", "ramp", "mix1", "mix2"]
    for _, v in lib:
        assert v.shape == (51, 2)
        assert np.array_equal(v[:, 0], v[:, 1])
    again = direction_library(grid, 2, 6, seed=42)
    for (la, va), (lb, vb) in zip(lib, again):
        assert la == lb and np.array_equal(va, vb)
    assert direction_library(grid, 1, 6, seed=1)[4][1].shape == (51, 1)


def test_direction_shape_is_validated(fast_gains):
    s, fg, lg = fast_gains
    with pytest.raises(ValueError):
        one_direction("follower", s, fg, lg, np.ones((7, 1)), 4, seed=0)


def test_zero_direction_is_vacuous(fast_gains):
    s, fg, lg = fast_gains
    r = one_direction("follower", s, fg, lg, np.zeros(1), 4, seed=0)
    assert r.vacuous and r.passed
    assert r.c1 == 0.0 and r.c2 == 0.0
    r = one_direction("leader", s, fg, lg, np.zeros(1), 4, seed=0)
    assert r.vacuous and r.passed


# ---------------------------------------------------------------------------
# First-order conditions
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("fixture", ["fast_gains", "fast_game_gains"])
@pytest.mark.parametrize("target", ["follower", "leader"])
def test_solved_feedback_is_stationary(fixture, target, request):
    s, fg, lg = request.getfixturevalue(fixture)
    _, v = direction_library(s.grid, s.dims.m, 2, seed=123)[1]
    r = one_direction(target, s, fg, lg, v, 128, seed=5)
    assert r.passed
    assert abs(r.c1) <= 3.0 * r.c1_se + PASS_FLOOR * 100
    assert r.c2 > 0.0


def test_mirrored_deviations_satisfy_convexity(fast_gains):
    # With common random numbers, dJ(+v) + dJ(-v) = 2 c2 > 0 on every path:
    # the mirrored direction negates each path's slope and keeps the
    # curvature, bit for bit (negation is exact).
    s, fg, lg = fast_gains
    _, v = direction_library(s.grid, s.dims.m, 2, seed=8)[1]
    dirs = [("plus", v), ("minus", -v)]
    f_plus, f_minus, l_plus, l_minus = deviation_battery(s, fg, lg, dirs, dirs, 96, seed=8)
    for plus, minus in ((f_plus, f_minus), (l_plus, l_minus)):
        assert minus.c1 == -plus.c1 and minus.c1_se == plus.c1_se
        assert minus.c2 == plus.c2 > 0.0


def test_perturbed_gain_fails_the_first_order_test(fast_gains):
    # Inflating the follower feedback by 20% must produce a detected slope.
    s, fg, lg = fast_gains
    bad = dataclasses.replace(fg, P=GridFunction(s.grid, fg.P.values * 1.2))
    r = one_direction("follower", s, bad, lg, np.ones(1), 256, seed=3)
    assert not r.passed or abs(r.c1) > 10.0 * r.c1_se


def test_zero_leader_weight_makes_deviations_exact():
    # Without a leader state weight the solved leader control is identically
    # zero, so the cost change is (1/2) e^2 int v'R0 v with no noise at all.
    text = FAST_CFG_TEXT.replace("Q = 1.0\nR = 1.0", "Q = 0.0\nR = 1.0")
    s, fg, lg = solve_both(load_scenario(text))
    r = one_direction("leader", s, fg, lg, np.ones(1), 16, seed=4)
    w = np.full(s.grid.steps + 1, s.grid.dt)
    w[0] = w[-1] = 0.5 * s.grid.dt
    exact_c2 = 0.5 * float(np.sum(w))      # R0 = 1 and v = 1
    assert abs(r.c1) <= 1e-12
    assert r.c1_se <= 1e-12
    assert abs(r.c2 - exact_c2) <= 1e-10
    assert r.passed


def test_uncoupled_social_delta_is_own_delta_over_population():
    # With no population coupling in the follower cost, a single deviation
    # moves every path's social cost by exactly 1/N of its own-cost change;
    # running the two cost functionals over identical trajectories must
    # agree to roundoff, standard error included.
    s_team = random_scenario(77, gamma_zero=True, mode="team", N=4)
    _, fg, lg = solve_both(s_team)
    s_game = dataclasses.replace(s_team, mode=Mode.GAME)
    _, v = direction_library(s_team.grid, s_team.dims.m, 2, seed=9)[1]
    rt = one_direction("follower", s_team, fg, lg, v, 32, seed=6)
    rg = one_direction("follower", s_game, fg, lg, v, 32, seed=6)
    N = s_team.dims.N
    assert abs(N * rt.c1 - rg.c1) <= 1e-10 * (1.0 + abs(rg.c1))
    assert abs(N * rt.c1_se - rg.c1_se) <= 1e-10 * (1.0 + abs(rg.c1_se))
    assert abs(N * rt.c2 - rg.c2) <= 1e-10 * (1.0 + abs(rg.c2))


# ---------------------------------------------------------------------------
# Stationarity residuals
# ---------------------------------------------------------------------------


def test_residuals_vanish_on_solved_paths(fast_gains):
    s, fg, lg = fast_gains
    er = simulate(s, fg, lg, 8, seed=3, store_paths=4)
    u_scale = 1.0 + float(np.max(np.abs(er.node_summary["u0_mean"])))
    assert stationarity_residuals(s, er, fg, lg)[0] <= 1e-12 * u_scale


def test_residuals_scale_with_a_control_offset(fast_gains):
    # Shifting every stored control by delta adds exactly R * delta to the
    # residual (scalar control, R = 0.5 in the fast scenario).
    s, fg, lg = fast_gains
    er = simulate(s, fg, lg, 4, seed=3, store_paths=2)
    shifted = tuple(dataclasses.replace(p, controls=p.controls + 0.1) for p in er.paths)
    r, _ = stationarity_residuals(s, dataclasses.replace(er, paths=shifted), fg, lg)
    assert r == pytest.approx(0.05, abs=1e-8)


def test_residuals_detect_a_corrupted_gain(fast_gains):
    s, fg, lg = fast_gains
    er = simulate(s, fg, lg, 4, seed=3, store_paths=2)
    bump = 0.01 * (1.0 + np.max(np.abs(fg.P.values)))
    bad = dataclasses.replace(fg, P=GridFunction(s.grid, fg.P.values + bump))
    assert stationarity_residuals(s, er, bad, lg)[0] > 1e-3


def test_residuals_require_stored_paths(fast_gains):
    s, fg, lg = fast_gains
    er = simulate(s, fg, lg, 4, seed=3, store_paths=0)
    with pytest.raises(ValueError):
        stationarity_residuals(s, er, fg, lg)


def test_stationarity_gate_reads_the_follower_scale():
    # A leader control near 8e4 (leader eta = 1e5, no leader term in the
    # follower target) must not widen the follower's gate: a control map off
    # by 1 + 1e-7 leaves a residual of 1.1e-7 against |B'p| near 1.
    text = FAST_CFG_TEXT.replace("Gamma1 = 0.8", "Gamma1 = 0.0").replace("eta = 0.5", "eta = 1e5")
    s, fg, lg = solve_both(load_scenario(text))
    bad = dataclasses.replace(fg, control_map=fg.control_map * (1.0 + 1e-7))
    rows = {c.name: c for c in run_verification(s, bad, lg, n_paths=8, seed=0, directions=1).checks}
    assert not rows["stationarity_residual"].passed
    assert rows["stationarity_residual"].threshold <= 1e-9


def test_generic_vector_game_has_a_nonsymmetric_aggregate_gain_and_verifies():
    # With its own random Gamma the game-mode aggregate source, and so Pi, is
    # not symmetric; both sum identities still hold and the battery passes.
    s, fg, lg = solve_both(random_scenario(3, n=2, m=2, N=4, mode="game"))
    skew = fg.Pi.values - np.swapaxes(fg.Pi.values, 1, 2)
    assert np.max(np.abs(skew)) > 1e-3
    Pi = solve_follower_gains(s).Pi
    assert np.max(np.abs(fg.P.values + fg.K.values - Pi.values)) <= 1e-8 * (1.0 + np.max(np.abs(Pi.values)))
    assert np.max(np.abs(lg.P.values + lg.K.values - lg.M.values)) <= 1e-12 * (1.0 + np.max(np.abs(lg.M.values)))
    rep = run_verification(s, fg, lg, n_paths=128, seed=0, directions=2)
    assert rep.passed, rep.summary_lines()


def test_noiseless_vector_game_leader_is_first_order_optimal():
    # Without noise and with a constant initial law every path is the same,
    # so the leader's first-order coefficient is exact up to the O(dt) error
    # of the simulation's one-step scheme.  Richardson-extrapolated over two
    # grids it must vanish; a leader system that takes the nonsymmetric game
    # Pi for its transpose in the offset multiplier or the population costate
    # leaves a bias of a few percent of the coarse value here.
    base = random_scenario(4, n=2, m=2, N=4, mode="game")
    zero, lead, foll = np.zeros(base.dims.n), base.init.leader.mean, base.init.follower.mean

    def leader_c1(steps):
        s = dataclasses.replace(
            base,
            grid=TimeGrid(base.grid.horizon, steps),
            leader_dyn=dataclasses.replace(base.leader_dyn, D=zero),
            follower_dyn=dataclasses.replace(base.follower_dyn, D=zero),
            init=InitialLaw(Distribution("constant", lead, lead), Distribution("constant", foll, foll)),
        )
        s, fg, lg = solve_both(s)
        dirs = direction_library(s.grid, s.dims.m, 3, seed=0)
        return np.array([r.c1 for r in deviation_battery(s, fg, lg, [], dirs, 2, seed=0)])

    coarse, fine = leader_c1(320), leader_c1(640)
    assert np.all(np.abs(coarse) > 1e-6)
    assert np.all(np.abs(2.0 * fine - coarse) <= 1e-2 * np.abs(coarse))


# ---------------------------------------------------------------------------
# Dynamic-programming oracle
# ---------------------------------------------------------------------------


def test_dp_oracle_converges_first_order(fast_scenario):
    s = fast_scenario
    s2 = dataclasses.replace(s, grid=TimeGrid(s.grid.horizon, 2 * s.grid.steps))
    d1 = dp_gain_oracle(s, solve_follower_gains(s), uncontrolled_leader_mean(s))
    d2 = dp_gain_oracle(s2, solve_follower_gains(s2), uncontrolled_leader_mean(s2))
    assert d1.delta_P / d2.delta_P == pytest.approx(2.0, abs=0.3)
    assert d1.delta_offset / d2.delta_offset == pytest.approx(2.0, abs=0.3)
    assert d1.delta_P <= 4.0 * s.grid.dt * (1.0 + np.max(np.abs(d1.P)))


def test_dp_oracle_shapes_and_terminal(fast_scenario):
    s = fast_scenario
    d = dp_gain_oracle(s, solve_follower_gains(s), uncontrolled_leader_mean(s))
    K, n = s.grid.steps, s.dims.n
    assert d.P.shape == (K + 1, n, n)
    assert d.offset.shape == (K + 1, n)
    assert np.all(d.P[K] == 0.0) and np.all(d.offset[K] == 0.0)


def test_dp_oracle_accepts_an_external_mean_path(fast_gains):
    s, fg, lg = fast_gains
    d = dp_gain_oracle(s, fg, mean_leader=StageTable(s.grid, lg.mean.values[:, : s.dims.n]))
    assert d.delta_P <= 4.0 * s.grid.dt * (1.0 + np.max(np.abs(d.P)))
    assert d.delta_offset <= 4.0 * s.grid.dt * (1.0 + np.max(np.abs(d.offset)))


def test_dp_oracle_matches_the_per_step_recursion(recursion_cases):
    # The curvature in closed form per block and the slope by one scan
    # evaluate the recursion that solves one feedback gain per step.
    for name, (s, fg, lg) in recursion_cases:
        mean_leader = StageTable(s.grid, lg.mean.values[:, : s.dims.n])
        d = dp_gain_oracle(s, fg, mean_leader)
        P, h = dp_recursion_reference(s, fg, mean_leader)
        assert np.max(np.abs(d.P - P)) <= 1e-13 * np.max(np.abs(P)), name
        assert np.max(np.abs(d.offset - h)) <= 1e-13 * np.max(np.abs(h)), name


# ---------------------------------------------------------------------------
# Full battery
# ---------------------------------------------------------------------------

CHECK_NAMES = {
    "follower_sum_identity",
    "follower_symmetry_drift",
    "leader_sum_identity",
    "leader_offset_block",
    "offset_consistency",
    "stationarity_residual",
    "exchangeability",
    "dp_oracle_curvature",
    "dp_oracle_offset",
}


@pytest.fixture(scope="module")
def fast_report(fast_gains):
    s, fg, lg = fast_gains
    return run_verification(s, fg, lg, n_paths=128, seed=0, directions=3)


def test_verification_passes_on_solved_gains(fast_report):
    assert fast_report.passed
    assert {c.name for c in fast_report.checks} == CHECK_NAMES
    assert len(fast_report.deviations) == 6
    assert {d.target for d in fast_report.deviations} == {"leader", "follower"}


def test_verification_summary_lines(fast_report):
    lines = fast_report.summary_lines()
    assert lines[-1] == "overall: PASS"
    assert len(lines) == len(fast_report.checks) + len(fast_report.deviations) + 1
    assert all(line.startswith("[PASS]") for line in lines[:-1])


def test_verification_csv_schema(fast_report, tmp_path):
    out = tmp_path / "report.csv"
    _write_verification(out, fast_report)
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == [
        "kind", "name", "value", "threshold",
        "c1", "c1_se", "c2", "passed",
    ]
    assert len(rows) == 1 + len(fast_report.checks) + len(fast_report.deviations)
    for row in rows[1:]:
        assert row[0] in {"check", "deviation"}
        assert row[7] in {"0", "1"}
    # Floats are written with repr, so the report round-trips losslessly.
    c0 = fast_report.checks[0]
    assert float(rows[1][2]) == c0.value


def test_verification_flags_a_leader_K_off_its_mean_gain(fast_gains):
    # The sum identity reads the tables it is handed: a leader K whose first
    # block row is off by 1e-10 (1 + max |M|) breaks P + K = M past its gate.
    s, fg, lg = fast_gains
    n = s.dims.n
    bump = 1e-10 * (1.0 + np.max(np.abs(lg.M.values)))
    K = lg.K.values.copy()
    K[:, :n, :] += bump
    rep = run_verification(s, fg, dataclasses.replace(lg, K=GridFunction(s.grid, K)),
                           n_paths=32, seed=0, directions=1)
    row, = (c for c in rep.checks if c.name == "leader_sum_identity")
    assert not row.passed and not rep.passed
    assert row.value == pytest.approx(bump, rel=1e-3)


def test_verification_reads_the_symmetry_of_the_P_it_is_given(game_n4_gains):
    # A skew fault in P that K absorbs keeps P + K = Pi; the symmetry row
    # must read the P it is handed, not the drift stored with the gains.
    s, fg, lg = game_n4_gains
    P, K = fg.P.values.copy(), fg.K.values.copy()
    P[:, 0, 1] += 1e-3
    K[:, 0, 1] -= 1e-3
    bad = dataclasses.replace(fg, P=GridFunction(s.grid, P), K=GridFunction(s.grid, K))
    rep = run_verification(s, bad, lg, n_paths=256, seed=0, directions=3)
    assert [c.name for c in rep.checks if not c.passed] == ["follower_symmetry_drift"]
    assert all(d.passed for d in rep.deviations)


@pytest.mark.parametrize("directions", [0, -2])
def test_verification_rejects_too_few_directions(directions, fast_gains, monkeypatch):
    # With no direction no deviation test runs, so a pass would rest on
    # nothing; the count is rejected before any ensemble is drawn.
    def no_work(*args, **kw):
        raise AssertionError("work started before the arguments were checked")

    s, fg, lg = fast_gains
    monkeypatch.setattr(equilibrium, "_battery", no_work)
    with pytest.raises(ValueError, match="directions"):
        run_verification(s, fg, lg, n_paths=8, seed=0, directions=directions)


# Deviation fields of run_verification(fast, n_paths=128, seed=0, directions=3)
# on SFC64 noise streams keyed by (seed, path, purpose) with one row per
# agent.  Re-pinned when the streams moved from Philox to SFC64: c2 is the
# same to 2.1e-14 relative (it does not depend on the draws); c1 and c1_se
# are new draws.  Pinned while c1 and c2 were fitted over an epsilon grid;
# the pathwise slope and the exact curvature match them at rtol 1e-10.
# Re-pinned when the follower Riccati equations moved from RK4 to their exact
# Hamiltonian flow: the c1 values moved by at most 1.1e-12 absolute
# (follower/const), c1_se by at most 4e-13 and c2 by at most 5.5e-13.
# Re-pinned when the leader stage moved from closure RK4 to linear-fractional
# steps by the RK4 maps of its linear systems: the leader tables at t = 0
# moved 3x closer to a 16x-finer solve; c1 moved by at most 6.6e-12 absolute
# (leader/const), c1_se by at most 5.7e-14, and c2 not at all.
# Re-pinned when the path kernel's leader control moved to the mean costate
# M E[X] + V and its own block P00 (the block-2 Euler march of the
# follower mean went): c1 moved by at most 2.9e-4 absolute (leader/const,
# 1.4 % of its standard error), c1_se by at most 1e-17, and c2 not at all.
# Rows: (target/label, c1, c1_se, c2).
PINNED_DEVIATIONS = (
    ("follower/const", 0.00394096983877742, 0.007330354169284466, 0.17231601907813895),
    ("follower/halfsine", 0.003291725500228824, 0.004783760139382102, 0.08329609771337577),
    ("follower/cosine", 4.9580977448429944e-05, 0.003115346173157064, 0.06111586893940402),
    ("leader/const", 0.011895089209138713, 0.02071582643538693, 1.2068053003352068),
    ("leader/halfsine", 0.011301727873044044, 0.013232980936434184, 0.5944732698464014),
    ("leader/cosine", -0.0006226463420691275, 0.012032733313742045, 0.536263046952708),
)


def test_verification_deviations_match_pinned_values(fast_report):
    got = [(f"{d.target}/{d.label}", d.c1, d.c1_se, d.c2) for d in fast_report.deviations]
    assert [g[0] for g in got] == [p[0] for p in PINNED_DEVIATIONS]
    for g, p in zip(got, PINNED_DEVIATIONS):
        np.testing.assert_allclose(g[1:], p[1:], rtol=1e-10, atol=0.0, err_msg=p[0])


def test_verification_draws_each_stream_once(fast_gains, monkeypatch):
    # One ensemble pass serves the deviations, the stored paths and the
    # exchangeability row: one simulate call, two generators per path.
    import stackmf.equilibrium as equilibrium
    from stackmf.simulation import NoiseModel

    s, fg, lg = fast_gains
    calls = {"simulate": 0, "generator": 0}

    def counted(fn, key):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(equilibrium, "simulate", counted(equilibrium.simulate, "simulate"))
    monkeypatch.setattr(NoiseModel, "generator", counted(NoiseModel.generator, "generator"))
    rep = run_verification(s, fg, lg, n_paths=24, seed=0, directions=1)
    assert rep.passed
    assert calls == {"simulate": 1, "generator": 2 * 24}


def test_verification_csv_is_worker_invariant(fast_gains, tmp_path):
    # 1030 paths make two chunks, so two workers really split the pass.
    s, fg, lg = fast_gains
    for workers in (1, 2):
        rep = run_verification(s, fg, lg, n_paths=1030, seed=4, directions=1, workers=workers)
        _write_verification(tmp_path / f"w{workers}.csv", rep)
    assert (tmp_path / "w1.csv").read_bytes() == (tmp_path / "w2.csv").read_bytes()


def test_battery_equals_one_direction_at_a_time(fast_gains):
    s, fg, lg = fast_gains
    f_dirs = direction_library(s.grid, s.dims.m, 2, seed=5)
    l_dirs = direction_library(s.grid, s.dims.m, 2, seed=6) + [("zero", np.zeros(1))]
    batch = deviation_battery(s, fg, lg, f_dirs, l_dirs, 24, seed=9)
    single = [one_direction("follower", s, fg, lg, v, 24, seed=9, label=lab) for lab, v in f_dirs]
    single += [one_direction("leader", s, fg, lg, v, 24, seed=9, label=lab) for lab, v in l_dirs]
    assert batch == single
    assert batch[-1].vacuous
