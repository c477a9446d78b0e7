"""Shared fixtures: benchmark scenario, fast test scenario, random instances,
the chained-exponential flow representation of the leader P, the
closure RK4 routes: an independent discretization of every Riccati and
linear equation the package marches by step maps, and the per-step loops
of the recursions the package evaluates in closed form or by one scan.

Session-scoped fixtures cache solved gain sets so the expensive backward
solves run once per session.  The random-scenario factory draws well-posed
instances (hard validation checks pass, both solver stages integrate without
blow-up) and is deterministic in its seed argument.
"""
from __future__ import annotations

import dataclasses
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from stackmf.equilibrium import _exact_discretization
from stackmf.follower import follower_response, offset_drive, solve_follower_gains, sources
from stackmf.integrators import (BLOWUP_FACTOR, BlowUpError, GridFunction, StageTable, _frob,
                                 integrate_linear, linear_stages, sampled_stages, stage_table)
from stackmf.leader import ExtendedSystem, _dM, solve_leader_gains
from stackmf.model import (
    Dims,
    Distribution,
    Dynamics,
    FollowerCost,
    InitialLaw,
    LeaderCost,
    Mode,
    Scenario,
    TimeGrid,
    load_scenario,
    time_sampled,
    validate,
)

REPO = Path(__file__).resolve().parents[1]
BASELINE_CFG = REPO / "scenarios" / "baseline_team.cfg"

# Small two-follower-dimension scenario used where solve time matters more
# than realism: short horizon, few followers, every coupling term nonzero.
FAST_CFG_TEXT = """\
mode = "team"

[dims]
n = 1
m = 1
N = 5

[leader]
A = 0.05
B = 0.5
f = 0.3
D = 0.4

[follower]
A = -0.1
B = 0.6
f = 0.2
D = 0.5

[cost.leader]
Q = 1.0
R = 1.0
Gamma = 0.7
eta = 0.5

[cost.follower]
Q = 1.0
R = 0.5
Gamma = 0.4
Gamma1 = 0.8
eta = 0.1

[init]
leader = "gaussian(1.0, 0.25)"
follower = "uniform(-1, 3)"

[grid]
T = 2.0
steps = 200
"""


@pytest.fixture(scope="session")
def baseline_text() -> str:
    return BASELINE_CFG.read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def team_scenario(baseline_text) -> Scenario:
    return load_scenario(baseline_text)


@pytest.fixture(scope="session")
def game_scenario(baseline_text) -> Scenario:
    return load_scenario(baseline_text.replace('mode = "team"', 'mode = "game"'))


def solve_both(s: Scenario):
    """Coupled follower solve plus leader solve; the standard pipeline."""
    fg = solve_follower_gains(s)
    lg = solve_leader_gains(s, fg)
    return s, fg, lg


@pytest.fixture(scope="session")
def team_gains(team_scenario):
    return solve_both(team_scenario)


@pytest.fixture(scope="session")
def game_gains(game_scenario):
    return solve_both(game_scenario)


@pytest.fixture(scope="session")
def team_gains_fine(team_scenario):
    """The benchmark team solve on a 16x-finer grid: a convergence reference."""
    grid = TimeGrid(team_scenario.grid.horizon, 16 * team_scenario.grid.steps)
    return solve_both(dataclasses.replace(team_scenario, grid=grid))


@pytest.fixture(scope="session")
def game_n4_gains():
    """The game-n4 benchmark scenario (n = 4, generic couplings), solved."""
    return solve_both(load_scenario((REPO / "perfbench" / "game_n4.cfg").read_text(encoding="utf-8")))


@pytest.fixture(scope="session")
def fast_scenario() -> Scenario:
    return load_scenario(FAST_CFG_TEXT)


@pytest.fixture(scope="session")
def fast_gains(fast_scenario):
    return solve_both(fast_scenario)


@pytest.fixture(scope="session")
def fast_game_gains():
    return solve_both(load_scenario(FAST_CFG_TEXT.replace('mode = "team"', 'mode = "game"')))


def _spd(rng: np.random.Generator, k: int, floor: float = 0.0, scale: float = 1.0) -> np.ndarray:
    L = rng.uniform(-1.0, 1.0, (k, k))
    M = scale * (L @ L.T) / k + floor * np.eye(k)
    return 0.5 * (M + M.T)


def random_scenario(seed: int, *, mode: str | None = None, gamma_zero: bool = False,
                    n: int | None = None, m: int | None = None, N: int | None = None,
                    steps: int = 160, horizon: float = 1.5) -> Scenario:
    """One well-posed random instance; deterministic in `seed`.

    Draws until the hard validation checks pass and both solver stages
    integrate without blow-up, so every returned scenario is usable directly.
    """
    rng = np.random.default_rng(seed)
    for _ in range(64):
        nn = n if n is not None else int(rng.integers(1, 3))
        mm = m if m is not None else int(rng.integers(1, 3))
        NN = N if N is not None else int(rng.integers(2, 9))
        md = Mode(mode) if mode is not None else (Mode.GAME if rng.integers(2) else Mode.TEAM)
        grid = TimeGrid(horizon, steps)

        def mat(lo, hi, shape=(None, None)):
            r, c = (nn if shape[0] is None else shape[0]), (nn if shape[1] is None else shape[1])
            return rng.uniform(lo, hi, (r, c))

        gamma = np.zeros((nn, nn)) if gamma_zero else mat(-0.4, 0.4)
        s = Scenario(
            dims=Dims(nn, mm, NN),
            leader_dyn=Dynamics(
                A=mat(-0.6, 0.6), B=mat(-1.0, 1.0, (None, mm)),
                f=rng.uniform(-0.5, 0.5, nn), D=rng.uniform(0.1, 0.8, nn),
            ),
            follower_dyn=Dynamics(
                A=mat(-0.6, 0.6), B=mat(-1.0, 1.0, (None, mm)),
                f=rng.uniform(-0.5, 0.5, nn), D=rng.uniform(0.1, 0.8, nn),
            ),
            leader_cost=LeaderCost(
                Q=_spd(rng, nn), R=_spd(rng, mm, floor=0.4),
                Gamma=mat(-0.5, 0.5), eta=rng.uniform(-1.0, 1.0, nn),
            ),
            follower_cost=FollowerCost(
                Q=_spd(rng, nn), R=_spd(rng, mm, floor=0.4),
                Gamma=gamma, Gamma1=mat(-0.6, 0.6), eta=rng.uniform(-1.0, 1.0, nn),
            ),
            init=InitialLaw(
                leader=Distribution("gaussian", rng.uniform(-1, 1, nn), rng.uniform(0.0, 0.5, nn)),
                follower=Distribution("uniform", rng.uniform(-1, 0, nn), rng.uniform(0.5, 2.0, nn)),
            ),
            grid=grid,
            mode=md,
        )
        if not validate(s).hard_ok:
            continue
        try:
            solve_both(s)
        except BlowUpError:
            continue
        return s
    raise RuntimeError(f"no well-posed scenario found for seed {seed}")


@pytest.fixture(scope="session")
def make_random_scenario():
    return random_scenario


@pytest.fixture(scope="session")
def random_battery():
    """Twenty solved random instances shared by the identity/symmetry tests."""
    return [solve_both(random_scenario(1000 + i)) for i in range(20)]


@pytest.fixture(scope="session")
def recursion_cases(team_gains, game_gains, game_n4_gains, fast_gains, fast_game_gains):
    """Solved cases the closed-form and scanned recursions are checked on
    against their per-step loops: the test and benchmark configs,
    random_scenario(0..19), and coarse or stiff grids, on which the DP
    oracle's blocks end early (the baseline at 40 steps ends them at 18)."""
    s = team_gains[0]
    stiff = dataclasses.replace(s.follower_cost, Q=100.0 * s.follower_cost.Q)
    extra = [dataclasses.replace(s, grid=TimeGrid(s.grid.horizon, 40)),
             dataclasses.replace(s, grid=TimeGrid(s.grid.horizon, 100)),
             dataclasses.replace(s, follower_cost=stiff),
             dataclasses.replace(random_scenario(3), grid=TimeGrid(6.0, 20))]
    named = [("team", team_gains), ("game", game_gains), ("game_n4", game_n4_gains), ("fast", fast_gains),
             ("fast_game", fast_game_gains)]
    named += [(f"random{i}", solve_both(random_scenario(i))) for i in range(20)]
    return named + [(name, solve_both(c)) for name, c in zip(("steps40", "steps100", "stiff", "coarse"), extra)]


def dp_recursion_reference(s: Scenario, fg, mean_leader: StageTable) -> tuple[np.ndarray, np.ndarray]:
    """The DP oracle's backward recursion one step at a time: its curvature
    P (steps+1, n, n) and slope (steps+1, n) along the mean path of
    `mean_leader`, each node from the next by one feedback-gain solve."""
    grid = s.grid
    Ksteps, dt, n = grid.steps, grid.dt, s.dims.n
    A, B = s.follower_dyn.A, s.follower_dyn.B
    src = sources(s)
    drive = offset_drive(s, mean_leader)
    g = drive.nodes
    mean = follower_response(s, fg.Pi, drive, sampled_stages(s.follower_dyn.f, grid), s.init.follower.mean)[1]
    Ad, Bd = _exact_discretization(A, B, dt)
    fd = time_sampled(s.follower_dyn.f, grid) @ _exact_discretization(A, np.eye(n), dt)[1].T
    Rd = dt * s.follower_cost.R
    dtS = dt * src.S
    Pdp = np.zeros((Ksteps + 1, n, n))
    h = np.zeros((Ksteps + 1, n))
    rhs = np.empty((Bd.shape[1], n + 1))
    for k in range(Ksteps - 1, -1, -1):
        Pn = Pdp[k + 1]
        hn = h[k + 1]
        PB = Pn @ Bd
        w = Pn @ fd[k] + hn
        rhs[:, :n], rhs[:, n] = PB.T @ Ad, Bd.T @ w
        gain = np.linalg.solve(Rd + Bd.T @ PB, rhs)
        closed = Ad - Bd @ gain[:, :n]
        Pdp[k] = dtS + Ad.T @ Pn @ closed
        Pdp[k] = 0.5 * (Pdp[k] + Pdp[k].T)
        h[k] = -dt * (src.S1 @ mean[k] + g[k]) + Ad.T @ (w - PB @ gain[:, n])
    return Pdp, h


def control_shift_reference(v: np.ndarray, step: tuple) -> np.ndarray:
    """`simulation._control_shift` one Euler step at a time."""
    A_step, dtBT = step[:2]
    chi = np.zeros((len(v), v.shape[1], A_step.shape[0]))
    for k in range(len(v) - 1):
        chi[k + 1] = chi[k] @ A_step + v[k] @ dtBT
    return chi


def population_shift_loop(s: Scenario, fg, tab, chi0: np.ndarray) -> np.ndarray:
    """`simulation._population_shift` with its march one Euler step at a time,
    the feedback evaluated from the state of each step."""
    dg = stage_table(s.grid, sources(s).W @ np.swapaxes(chi0, 1, 2))
    zero = np.zeros(dg.values.shape[1:])
    phi, mean = follower_response(s, fg.Pi, dg, StageTable(s.grid, np.zeros_like(dg.values)), zero)
    dphi, dEbar = np.swapaxes(phi.nodes, 1, 2), np.swapaxes(mean, 1, 2)
    P, Kf = fg.P.values, fg.K.values
    A_step, dtBT = tab.step_f[:2]
    shift = np.zeros_like(chi0)
    for k in range(s.grid.steps):
        du = -(shift[k] @ P[k].T + dEbar[k] @ Kf[k].T + dphi[k]) @ tab.RinvBtT
        shift[k + 1] = shift[k] @ A_step + du @ dtBT
    return shift


def follower_offset(s: Scenario, Pi, mean_leader: StageTable) -> StageTable:
    """The follower offset phi along a leader mean path, given as a stage
    table: the offset half of `follower_response` to the scenario's drive
    and forcing."""
    forcing = sampled_stages(s.follower_dyn.f, s.grid)
    return follower_response(s, Pi, offset_drive(s, mean_leader), forcing, s.follower_mean0)[0]


def uncontrolled_leader_mean(s: Scenario) -> StageTable:
    """Stage table of E[x0] with the leader's control off, d/dt E[x0] =
    A0 E[x0] + f0: a mean path for `dp_gain_oracle` that needs no leader solve."""
    A0 = s.leader_dyn.A
    drift0 = StageTable(s.grid, np.broadcast_to(A0, (2 * s.grid.steps + 1,) + A0.shape))
    f0 = sampled_stages(s.leader_dyn.f, s.grid)
    return linear_stages(s.grid, drift0.nodes, f0.nodes,
                         integrate_linear(drift0, f0, s.leader_mean0, forward=True))


def replace_mode(s: Scenario, mode: Mode) -> Scenario:
    return dataclasses.replace(s, mode=mode)


def midpoint_flow(es: ExtendedSystem, lower_right: StageTable) -> np.ndarray:
    """V U^-1 of the chained midpoint flow of [[A, B], [A1, lower_right]]."""
    d, K, dt = 3 * es.n, es.grid.steps, es.grid.dt
    W = np.zeros((K + 1, 2 * d, d))
    W[K, :d] = np.eye(d)
    for k in range(K - 1, -1, -1):
        H = np.block([[es.A.values[2 * k + 1], es.B], [es.A1, lower_right.values[2 * k + 1]]])
        W[k] = scipy.linalg.expm(-dt * H) @ W[k + 1]
    return np.linalg.solve(np.swapaxes(W[:, :d], 1, 2), np.swapaxes(W[:, d:], 1, 2)).swapaxes(1, 2)


def stage_at(table: StageTable, t: float) -> np.ndarray:
    """Value of a stage table at the stage time t (a node or a step midpoint)."""
    return table.values[int(t * (2.0 / table.grid.dt) + 0.5)]


def _run_rk4(rhs, start_value, grid: TimeGrid, forward: bool):
    y = np.array(start_value, dtype=float)
    K = grid.steps
    out = np.empty((K + 1,) + y.shape)
    nodes = grid.nodes
    h = grid.dt if forward else -grid.dt
    threshold = BLOWUP_FACTOR * (1.0 + _frob(y))
    ks = range(K) if forward else range(K, 0, -1)
    out[0 if forward else K] = y
    with np.errstate(over="ignore", invalid="ignore"):
        for k in ks:
            t = nodes[k]
            k1 = rhs(t, y)
            k2 = rhs(t + 0.5 * h, y + (0.5 * h) * k1)
            k3 = rhs(t + 0.5 * h, y + (0.5 * h) * k2)
            k4 = rhs(t + h, y + h * k3)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            target = k + 1 if forward else k - 1
            norm = _frob(y)
            if not norm <= threshold:       # NaN fails too
                raise BlowUpError(nodes[target], norm)
            out[target] = y
    return GridFunction(grid, out)


def integrate_backward(rhs, terminal, grid: TimeGrid) -> GridFunction:
    """Integrate dy/dt = rhs(t, y) from t = T down to 0 with classical RK4.

    `terminal` is stored exactly at node `steps`.  Raises BlowUpError when
    the solution escapes BLOWUP_FACTOR * (1 + |terminal|).
    """
    return _run_rk4(rhs, terminal, grid, forward=False)


def integrate_forward(rhs, initial, grid: TimeGrid) -> GridFunction:
    """Forward RK4 mirror of integrate_backward; `initial` stored at node 0."""
    return _run_rk4(rhs, initial, grid, forward=True)


def _dP(es: ExtendedSystem, A, B1, P):
    """dP/dt given the blocks A, B1; P and the blocks may be stacks of nodes."""
    return -(P @ A + P @ es.B @ P - es.A1 - B1 @ P)


def solve_leader_P(es: ExtendedSystem) -> GridFunction:
    """Nonsymmetric Riccati equation for the per-path costate gain."""
    zero = np.zeros((3 * es.n, 3 * es.n))

    def rhs(t, P):
        return _dP(es, stage_at(es.A, t), stage_at(es.B1, t), P)

    return integrate_backward(rhs, zero, es.grid)


def solve_leader_M(es: ExtendedSystem) -> GridFunction:
    """Equation for the mean costate gain M; independent of P and K."""
    zero = np.zeros((3 * es.n, 3 * es.n))

    def rhs(t, M):
        return _dM(es, stage_at(es.A, t), stage_at(es.B1, t), stage_at(es.B2, t), M)

    return integrate_backward(rhs, zero, es.grid)


def solve_leader_K(es: ExtendedSystem, P: GridFunction) -> GridFunction:
    """Mean-coupling gain K, fed by P; its source is the one consistent with
    M = P + K (the same constant A2 in both modes)."""
    zero = np.zeros((3 * es.n, 3 * es.n))
    P_st = stage_table(es.grid, P.values, _dP(es, es.A.nodes, es.B1.nodes, P.values))

    def rhs(t, K):
        At, B1t, B2t, Pt = (stage_at(table, t) for table in (es.A, es.B1, es.B2, P_st))
        return -(Pt @ es.B @ K + K @ At + K @ es.B @ (Pt + K) - B1t @ K - es.A2 - B2t @ (Pt + K))

    return integrate_backward(rhs, zero, es.grid)
