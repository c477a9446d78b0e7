"""Acceptance battery: ten release gates, one verdict line each.

Run with ``pytest -v -rA tests/test_acceptance.py`` to see every printed
``ACCEPT-k`` line.  Each test states its gate, prints PASS or FAIL with the
measured numbers, and then asserts, so a red test always carries its
measurement in the captured output.
"""
from __future__ import annotations

import dataclasses
import hashlib
import time

import numpy as np
import pytest

from stackmf.cli import main as cli_main
from stackmf.equilibrium import FOLLOWER_SUM_TOL, deviation_battery, direction_library, dp_gain_oracle
from stackmf.follower import solve_follower_gains
from stackmf.leader import assemble_extended
from stackmf.model import Mode, TimeGrid, load_scenario
from stackmf.simulation import lln_diagnostic, simulate
from conftest import (FAST_CFG_TEXT, midpoint_flow, random_scenario, replace_mode, solve_both, solve_leader_M,
                      uncontrolled_leader_mean)

SOLVE_TIME_BUDGET = 0.5          # seconds, benchmark solve
DEVIATION_TIME_BUDGET = 35.0     # seconds, full certification battery

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


def report(gate: int, ok: bool, detail: str) -> None:
    print(f"ACCEPT-{gate} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"ACCEPT-{gate}: {detail}"


def seven_tables(fg, lg):
    return (
        ("P", fg.P), ("K", fg.K), ("Pi", fg.Pi),
        ("leaderP", lg.P), ("leaderK", lg.K), ("leaderM", lg.M), ("leaderV", lg.V),
    )


# ---------------------------------------------------------------------------
# 1. Benchmark solve: all tables integrate, exact terminal values, time budget
# ---------------------------------------------------------------------------


def test_accept_01_benchmark_solve(baseline_text):
    t0 = time.perf_counter()
    s, fg, lg = solve_both(load_scenario(baseline_text))
    elapsed = time.perf_counter() - t0
    worst_terminal = max(
        float(np.max(np.abs(gf.values[-1]))) for _, gf in seven_tables(fg, lg)
    )
    ok = elapsed <= SOLVE_TIME_BUDGET and worst_terminal == 0.0
    report(
        1, ok,
        f"benchmark solve {elapsed:.2f}s (budget {SOLVE_TIME_BUDGET:.1f}s), "
        f"worst terminal value {worst_terminal!r} (required exactly 0.0)",
    )


# ---------------------------------------------------------------------------
# 2. Sum identities against independently solved combined equations
# ---------------------------------------------------------------------------


def test_accept_02_sum_identities(team_gains, game_gains, random_battery):
    worst_f = worst_l = 0.0
    battery = [team_gains, game_gains, *random_battery]
    for s, fg, lg in battery:
        Pi_star = solve_follower_gains(s).Pi
        gap_f = float(np.max(np.abs(fg.P.values + fg.K.values - Pi_star.values)))
        tol_f = FOLLOWER_SUM_TOL * (1.0 + float(np.max(np.abs(Pi_star.values))))
        worst_f = max(worst_f, gap_f / tol_f)

        M_star = solve_leader_M(assemble_extended(s, fg))
        gap_l = float(np.max(np.abs(lg.P.values + lg.K.values - M_star.values)))
        tol_l = 1e-8 * (1.0 + float(np.max(np.abs(M_star.values))))
        worst_l = max(worst_l, gap_l / tol_l)
    ok = worst_f <= 1.0 and worst_l <= 1.0
    report(
        2, ok,
        f"{len(battery)} scenarios; worst follower sum-identity at "
        f"{worst_f:.3f}x tolerance, worst leader at {worst_l:.3f}x (tolerance "
        f"{FOLLOWER_SUM_TOL:g} and 1e-8 * (1 + max table norm), both sides solved independently)",
    )


# ---------------------------------------------------------------------------
# 3. Symmetric structure and the structurally zero third block
# ---------------------------------------------------------------------------


def test_accept_03_symmetry_structure(team_gains, game_gains, random_battery):
    # P is symmetric in both modes and Pi in team mode.  A game-mode Pi is in
    # general not symmetric; P + K = Pi with P symmetric gives it the skew
    # part of K, which is what is checked there.
    def skew(gf):
        return gf.values - np.swapaxes(gf.values, 1, 2)

    worst_sym = worst_row = 0.0
    battery = [team_gains, game_gains, *random_battery]
    for s, fg, lg in battery:
        n = s.dims.n
        pi_gap = skew(fg.Pi) if s.mode is Mode.TEAM else skew(fg.Pi) - skew(fg.K)
        for gap in (skew(fg.P), pi_gap):
            worst_sym = max(worst_sym, float(np.max(np.abs(gap))))
        for block in (lg.P.values[:, 2 * n:, :], lg.P.values[:, :, 2 * n:]):
            worst_row = max(worst_row, float(np.max(np.abs(block))))
    ok = worst_sym <= 1e-8 and worst_row <= 1e-8
    report(
        3, ok,
        f"{len(battery)} scenarios; worst symmetry gap {worst_sym:.2e} "
        f"and worst third-block row/column magnitude {worst_row:.2e} (tolerance 1e-8)",
    )


# ---------------------------------------------------------------------------
# 4. Closed-form oracles: scalar tanh value and the flow representation
# ---------------------------------------------------------------------------


def test_accept_04_closed_form_oracles(baseline_text):
    s_tanh = load_scenario(TANH_CFG)
    fg = solve_both(s_tanh)[1]
    p0 = float(fg.P.values[0, 0, 0])
    gap_tanh = abs(p0 - 0.761594)

    const_text = baseline_text.replace("Q = 1.0\nR = 0.1", "Q = 0.0\nR = 0.1")
    s_const, fg_c, lg_c = solve_both(load_scenario(const_text))
    es_c = assemble_extended(s_const, fg_c)
    gap_flow = float(np.max(np.abs(midpoint_flow(es_c, es_c.B1) - lg_c.P.values)))

    ok = gap_tanh <= 1e-6 and gap_flow <= 1e-8
    report(
        4, ok,
        f"tanh instance P(0)={p0:.9f} vs 0.761594 (gap {gap_tanh:.2e}, tol 1e-6); "
        f"constant-coefficient flow representation gap {gap_flow:.2e} (tol 1e-8)",
    )


# ---------------------------------------------------------------------------
# 5. Mode coincidence at zero population coupling
# ---------------------------------------------------------------------------


def test_accept_05_mode_coincidence():
    worst = 0.0
    for seed in range(2000, 2010):
        s_team = random_scenario(seed, gamma_zero=True, mode="team")
        _, fg_t, lg_t = solve_both(s_team)
        _, fg_g, lg_g = solve_both(replace_mode(s_team, Mode.GAME))
        for (_, a), (_, b) in zip(seven_tables(fg_t, lg_t), seven_tables(fg_g, lg_g)):
            worst = max(worst, float(np.max(np.abs(a.values - b.values))))
    ok = worst <= 1e-9
    report(
        5, ok,
        f"10 zero-coupling scenarios; worst node-wise game/team gap across the "
        f"seven gain tables is {worst:.2e} (tolerance 1e-9)",
    )


# ---------------------------------------------------------------------------
# 6. Equilibrium certification on the benchmark at 10^4 paths
# ---------------------------------------------------------------------------


def test_accept_06_deviation_certification(team_gains):
    s, fg, lg = team_gains
    t0 = time.perf_counter()
    lines = []
    all_ok = True
    dirs = direction_library(s.grid, s.dims.m, 5, seed=17)
    results = deviation_battery(s, fg, lg, dirs, dirs, 10_000, seed=42)
    for r in results:
        ok = abs(r.c1) <= 3.0 * r.c1_se and r.c2 > 0.0
        all_ok &= ok
        lines.append(
            f"  {r.target}/{r.label}: |c1|={abs(r.c1):.3e} vs 3*SE={3 * r.c1_se:.3e}, "
            f"c2={r.c2:.4f} -> {'ok' if ok else 'VIOLATED'}"
        )
    elapsed = time.perf_counter() - t0
    print("\n".join(lines))
    ok = all_ok and elapsed <= DEVIATION_TIME_BUDGET
    report(
        6, ok,
        f"10 first-order-condition fits (5 directions x leader+follower, costed "
        f"along one ensemble of 10^4 common-random-number paths) in {elapsed:.0f}s "
        f"(budget {DEVIATION_TIME_BUDGET:.0f}s); all |c1| <= 3*SE with c2 > 0: {all_ok}",
    )


# ---------------------------------------------------------------------------
# 7. Law-of-large-numbers decay of the population-average gap
# ---------------------------------------------------------------------------


def test_accept_07_population_gap_decay(team_scenario):
    rows, slope = lln_diagnostic(team_scenario, [30, 120, 480], n_paths=128, seed=7)
    ok = abs(slope + 0.5) <= 0.15
    detail = ", ".join(f"N={n}: {g:.4f}" for n, g in rows)
    report(
        7, ok,
        f"mean population-average gap [{detail}]; fitted log-log slope "
        f"{slope:.3f} vs -0.5 +/- 0.15",
    )


# ---------------------------------------------------------------------------
# 8. Dynamic-programming oracle converges at first order
# ---------------------------------------------------------------------------


def test_accept_08_dp_rate(team_scenario):
    steps_list = (500, 1000, 2000, 4000)
    deltas_P, deltas_h, dts = [], [], []
    for steps in steps_list:
        sv = dataclasses.replace(team_scenario, grid=TimeGrid(team_scenario.grid.horizon, steps))
        d = dp_gain_oracle(sv, solve_follower_gains(sv), uncontrolled_leader_mean(sv))
        deltas_P.append(d.delta_P)
        deltas_h.append(d.delta_offset)
        dts.append(sv.grid.dt)
    rate_P = float(np.polyfit(np.log(dts), np.log(deltas_P), 1)[0])
    rate_h = float(np.polyfit(np.log(dts), np.log(deltas_h), 1)[0])
    ok = abs(rate_P - 1.0) <= 0.3 and abs(rate_h - 1.0) <= 0.3
    report(
        8, ok,
        f"gain deltas over steps {steps_list} shrink at fitted rate {rate_P:.3f} "
        f"(curvature) and {rate_h:.3f} (offset) vs 1.0 +/- 0.3",
    )


# ---------------------------------------------------------------------------
# 9. Worker count never leaks into simulation artifacts
# ---------------------------------------------------------------------------


def test_accept_09_byte_identical_artifacts(baseline_text, tmp_path):
    cfg = tmp_path / "benchmark.cfg"
    cfg.write_text(baseline_text, encoding="utf-8")
    gains = tmp_path / "gains"
    assert cli_main(["solve", "--config", str(cfg), "--out", str(gains)]) == 0

    digests = {}
    for workers in ("1", "4"):
        out = tmp_path / f"run_w{workers}"
        code = cli_main([
            "simulate", "--config", str(cfg), "--gains", str(gains),
            "--out", str(out), "--paths", "64", "--seed", "3", "--workers", workers,
        ])
        assert code == 0
        digests[workers] = {
            name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in ("summary.csv", "costs.csv", "trajectories.csv", "manifest.json")
        }
    ok = digests["1"] == digests["4"]
    report(
        9, ok,
        "simulate with --workers 1 and --workers 4: summary.csv, costs.csv, "
        f"trajectories.csv and manifest.json byte-identical: {ok}",
    )


# ---------------------------------------------------------------------------
# 10. Trivial-case battery: exact zeros where the structure demands them
# ---------------------------------------------------------------------------


def test_accept_10_trivial_cases(baseline_text):
    # (a) zero follower state weight: gains and follower controls exactly zero
    text = FAST_CFG_TEXT.replace("Q = 1.0\nR = 0.5", "Q = 0.0\nR = 0.5")
    s, fg, lg = solve_both(load_scenario(text))
    gains_max = max(
        float(np.max(np.abs(g.values))) for g in (fg.P, fg.K, fg.Pi)
    )
    er = simulate(s, fg, lg, 16, seed=1, store_paths=4)
    controls_max = max(float(np.max(np.abs(p.controls))) for p in er.paths)

    # (b) zero leader state weight: leader control vanishes across 10^3 paths;
    # bounded through per-node second moments, which dominate every path.
    game_text = baseline_text.replace('mode = "team"', 'mode = "game"')
    game_text = game_text.replace("Q = 1.0\nR = 1.0", "Q = 0.0\nR = 1.0")
    s0, f0, l0 = solve_both(load_scenario(game_text))
    er0 = simulate(s0, f0, l0, 1000, seed=2, store_paths=0)
    ns = er0.node_summary
    u0_bound = float(
        np.max(np.sqrt(1000.0 * (ns["u0_std"] ** 2 + ns["u0_mean"] ** 2)))
    )

    # (c) a single follower in game mode has no mean-coupling correction
    s1 = random_scenario(4242, mode="game", N=1)
    _, fg1, _ = solve_both(s1)
    k_gap = float(np.max(np.abs(fg1.K.values)))
    k_tol = 1e-12 * (1.0 + float(np.max(np.abs(fg1.P.values))))

    ok = gains_max == 0.0 and controls_max == 0.0 and u0_bound <= 1e-6 and k_gap <= k_tol
    report(
        10, ok,
        f"zero follower weight: max gain {gains_max!r}, max control {controls_max!r} "
        f"(required exactly 0.0); zero leader weight: u0 bound {u0_bound:.2e} over "
        f"10^3 paths (tol 1e-6); single-follower game: mean-coupling gain {k_gap:.2e} "
        f"(tol {k_tol:.2e})",
    )
