"""Integrator layer: RK4 marches, the Riccati flow, blow-up detection, grid
tables, expm."""
from __future__ import annotations

import csv
import math

import numpy as np
import pytest
import scipy.linalg

from stackmf import integrators, leader, solve_follower_gains, solve_leader_gains
from stackmf.cli import _write_table
from stackmf.integrators import (
    BLOWUP_FACTOR,
    STEP_BLOCK,
    BlowUpError,
    GridFunction,
    StageTable,
    affine_scan,
    expm,
    expm_increment,
    integrate_linear,
    read_grid_csv,
    riccati_flow,
    riccati_march,
    rk4_increments,
    sampled_stages,
    stage_table,
)
from stackmf.integrators import _rk4_increment
from stackmf.model import TimeGrid
from conftest import integrate_backward, integrate_forward, stage_at


# ---------------------------------------------------------------------------
# RK4 marches
# ---------------------------------------------------------------------------


def test_backward_scalar_riccati_matches_tanh():
    # p' = p^2 - 1 with p(T) = 0 has the closed form p(t) = tanh(T - t).
    grid = TimeGrid(1.0, 1000)
    sol = integrate_backward(lambda t, p: p * p - 1.0, np.zeros(1), grid)
    assert abs(sol.values[0, 0] - math.tanh(1.0)) <= 1e-10
    assert sol.values[-1, 0] == 0.0


def test_forward_linear_system_matches_expm():
    A = np.array([[0.0, 1.0], [-1.0, 0.0]])
    y0 = np.array([1.0, 0.5])
    grid = TimeGrid(2.0, 400)
    sol = integrate_forward(lambda t, y: A @ y, y0, grid)
    exact = scipy.linalg.expm(A * 2.0) @ y0
    assert np.max(np.abs(sol.values[-1] - exact)) <= 1e-9


def test_rk4_fourth_order_error_decay():
    # Error against a steps*16 reference shrinks by 12x-20x when dt halves.
    def solve(steps):
        grid = TimeGrid(0.5, steps)
        return integrate_forward(lambda t, y: y * y, np.ones(1), grid).values[-1, 0]

    ref = solve(16 * 16)
    e_coarse = abs(solve(8) - ref)
    e_fine = abs(solve(16) - ref)
    assert 12.0 <= e_coarse / e_fine <= 20.0


def test_backward_is_time_reversal_of_forward():
    # On a linear system the backward solution, read in reversed node order,
    # solves the time-reversed forward problem.
    A = np.array([[0.1, -0.4], [0.3, -0.2]])
    c = np.array([0.5, -1.0])
    T = 1.0
    grid = TimeGrid(T, 200)
    terminal = np.array([1.0, 2.0])
    back = integrate_backward(lambda t, y: A @ y + np.cos(t) * c, terminal, grid)
    fwd = integrate_forward(lambda tau, z: -(A @ z + np.cos(T - tau) * c), terminal, grid)
    assert np.max(np.abs(back.values[::-1] - fwd.values)) <= 1e-10


def test_riccati_flow_fails_at_the_pole():
    # P' = P^2 + 1 with P(T) = 0 is -tan(T - t), with a pole at T - pi/2.  A
    # node on the pole escapes the norm threshold; a pole inside a step turns
    # the determinant of the flow factor negative, reported at the step's end.
    one, zero = np.ones((1, 1)), np.zeros((1, 1))
    with pytest.raises(BlowUpError) as on_node:
        riccati_flow(zero, one, -one, TimeGrid(math.pi, 4))
    assert on_node.value.time == math.pi / 2 and on_node.value.norm > BLOWUP_FACTOR
    grid = TimeGrid(2.0, 7)
    with pytest.raises(BlowUpError) as inside:
        riccati_flow(zero, one, -one, grid)
    assert grid.nodes[1] < 2.0 - math.pi / 2 < grid.nodes[2]
    assert inside.value.time == grid.nodes[1] and "crosses a pole" in str(inside.value)


def test_riccati_flow_checks_each_diagonal_block_for_a_pole():
    # Two copies of P' = P^2 + 1 on the diagonal cross their pole in the same
    # step: the whole flow factor's determinant is the product of two
    # negative ones, so only the blocks' own determinants see the pole.
    zero, one = np.zeros((2, 2)), np.eye(2)
    grid = TimeGrid(2.0, 7)
    values, health = riccati_flow(zero, one, -one, grid)
    assert health.min_det > 0.0 and np.max(np.abs(values)) > 1.0
    with pytest.raises(BlowUpError) as exc:
        riccati_flow(zero, one, -one, grid, (1, 1))
    assert exc.value.time == grid.nodes[1] and "crosses a pole" in str(exc.value)


def test_riccati_flow_reports_its_health():
    # p' = p^2 - 1 from p(T) = 0 is tanh(T - t): the largest node norm is
    # tanh(T), and each step's flow factor cosh(dt) + sinh(dt) p grows with
    # p >= 0, so the smallest is the first step's, cosh(dt).
    grid = TimeGrid(1.0, 20)
    one = np.ones((1, 1))
    values, health = riccati_flow(np.zeros((1, 1)), one, one, grid)
    assert health.margin == float(np.max(np.abs(values))) / BLOWUP_FACTOR
    assert abs(health.margin * BLOWUP_FACTOR - math.tanh(1.0)) <= 1e-15
    assert abs(health.min_det - math.cosh(grid.dt)) <= 1e-15


def _random_riccati_drift(rng, d):
    """Generator of y' = [[A, B], [C, D]](t) y for random time-varying blocks,
    as a drift(lo, hi) over the stage rows of a grid, and as a function of t."""
    base, wave = rng.standard_normal((2, 2 * d, 2 * d)) * 0.4

    def at(t):
        return base + np.sin(2.0 * t)[..., None, None] * wave

    def on_rows(grid):
        t = np.linspace(0.0, grid.horizon, 2 * grid.steps + 1)
        return lambda lo, hi: at(t[lo:hi + 1])

    return at, on_rows


def test_riccati_march_is_fourth_order_on_time_varying_maps():
    # Z' = C + D Z - Z A - Z B Z from the RK4 maps of its linear system: the
    # error at t = 0 against a 256-step closure RK4 solve falls 12x-20x per
    # halving of the step, and the march agrees with the closure route to
    # that order.
    rng = np.random.default_rng(12)
    d = 2
    at, on_rows = _random_riccati_drift(rng, d)

    def rhs(t, Z):
        L = at(np.float64(t))
        A, B, C, D = L[:d, :d], L[:d, d:], L[d:, :d], L[d:, d:]
        return C + D @ Z - Z @ A - Z @ B @ Z

    def march(steps):
        grid = TimeGrid(1.0, steps)
        return riccati_march(rk4_increments(on_rows(grid), grid), grid, (d, d))[0]

    ref = integrate_backward(rhs, np.zeros((d, d)), TimeGrid(1.0, 256)).values[0]
    errors = [np.max(np.abs(march(steps)[0] - ref)) for steps in (8, 16, 32)]
    assert all(12.0 <= coarse / fine <= 20.0 for coarse, fine in zip(errors, errors[1:])), errors
    grid = TimeGrid(1.0, 200)       # several blocks of step maps
    closure = integrate_backward(rhs, np.zeros((d, d)), grid).values
    assert np.max(np.abs(march(200) - closure)) <= 1e-8


def test_riccati_march_raises_between_the_nodes_of_a_pole():
    # z' = 1 + z^2 from z(2) = 0 is -tan(2 - t): on 7 steps the pole at
    # 2 - pi/2 falls inside the step onto node 1, where the march's values
    # stay finite and only the sign of the flow factor shows the crossing.
    pole = np.array([[0.0, -1.0], [1.0, 0.0]])
    grid = TimeGrid(2.0, 7)
    with pytest.raises(BlowUpError) as exc:
        riccati_march(rk4_increments(lambda lo, hi: np.broadcast_to(pole, (hi - lo + 1, 2, 2)), grid),
                      grid, (1, 1))
    assert exc.value.time == grid.nodes[1] and "crosses a pole" in str(exc.value)


@pytest.mark.parametrize("horizon, steps, node", [
    (2.0, 150, 32),             # inside the second block
    (2.0, 82, 17),              # the first step of the second block
    (4.0, 2, 1),                # the first step of the march, a one-step block
])
def test_riccati_march_raises_at_a_pole_in_a_later_block(horizon, steps, node):
    # The pole of -tan(horizon - t) lies inside the step onto `node`; the
    # step maps (RK4 or exact) and the block anchor must not move the
    # reported node, wherever in its block the pole falls.
    pole = np.array([[0.0, -1.0], [1.0, 0.0]])
    grid = TimeGrid(horizon, steps)
    assert grid.nodes[node] < horizon - math.pi / 2 < grid.nodes[node + 1]
    one, zero = np.ones((1, 1)), np.zeros((1, 1))

    def drift(lo, hi):
        return np.broadcast_to(pole, (hi - lo + 1, 2, 2))

    for march in (lambda: riccati_march(rk4_increments(drift, grid), grid, (1, 1)),
                  lambda: riccati_flow(zero, one, -one, grid)):
        with pytest.raises(BlowUpError) as exc:
            march()
        assert exc.value.time == grid.nodes[node] and "crosses a pole" in str(exc.value)


def test_riccati_march_names_the_node_of_a_singular_factor():
    # One exactly singular flow factor inside the second block, regular ones
    # after it in the same block: the march names that node, not the
    # block's last.
    grid = TimeGrid(1.0, 100)
    blocks = [np.zeros((STEP_BLOCK, 2, 2)), np.zeros((100 - STEP_BLOCK, 2, 2))]
    blocks[1][5, 0, 0] = -1.0                   # 1 + G11 + G12 Z = 0 with Z = 0
    with pytest.raises(BlowUpError) as exc:
        riccati_march(iter(blocks), grid, (1, 1))
    assert exc.value.time == grid.nodes[100 - STEP_BLOCK - 6] and "pole" in str(exc.value)


def _stepwise_march(steps, r):
    """The Davison-Maki march re-anchored at U = I on every node, one solve
    per step, from each step's increment F = T - I in march order: the
    reference for the block anchor of `riccati_march`."""
    Z = np.zeros((steps.shape[1] - r, r))
    out = [Z]
    for F in steps:
        W = F[:, :r] + F[:, r:] @ Z
        Z = Z + np.linalg.solve((np.eye(r) + W[:r]).T, (W[r:] - Z @ W[:r]).T).T
        out.append(Z)
    return np.array(out[::-1])


def test_block_anchor_matches_the_stepwise_march():
    # Three full blocks and a partial one: time-varying RK4 maps, and the
    # exact flow of a pair with 2x2 diagonal blocks in its flow factor.
    rng = np.random.default_rng(31)
    grid = TimeGrid(1.0, 200)
    d = 2
    _, on_rows = _random_riccati_drift(rng, d)
    L = on_rows(grid)(0, 2 * grid.steps)[::-1]
    steps = _rk4_increment(L[:-1:2], L[1::2], L[2::2], -grid.dt)[0]
    ref = _stepwise_march(steps, d)
    got = riccati_march(rk4_increments(on_rows(grid), grid), grid, (d, d))[0]
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    A = 0.5 * rng.standard_normal((d, d))
    G, S = (M @ M.T for M in rng.standard_normal((2, d, d)))
    S1 = 0.5 * S
    zero = np.zeros((d, d))
    AA, GG = (np.block([[M, zero], [zero, M]]) for M in (A, G))
    SS = np.block([[S, -S1], [zero, S - S1]])
    H = np.block([[AA, -GG], [-SS, -AA.T]])
    ref = _stepwise_march(np.broadcast_to(expm_increment(-grid.dt * H), (grid.steps,) + H.shape), 2 * d)
    got, health = riccati_flow(AA, GG, SS, grid, (d, d))
    assert health.min_det > 0.0
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_block_anchor_stays_accurate_on_stiff_maps():
    # The anchor's rounding grows with the condition number of a block's
    # map.  A multi-rate pair (rates 30 and 0.1; 64 steps of its maps have
    # condition about e^25, and e^64 on the coarser grid, where a full block
    # reported a false pole) and an RK4 system whose maps decay at rate 60
    # in march order (no growing direction) must still match the stepwise
    # march, which re-anchors on every node.
    A = np.array([[-30.0, 1.0], [0.5, -0.1]])
    G, S = np.array([[1.0, 0.3], [0.3, 0.5]]), np.array([[2.0, -0.4], [-0.4, 1.0]])
    H = np.block([[A, -G], [-S, -A.T]])
    for grid in (TimeGrid(10.0, 300), TimeGrid(4.0, 300)):
        ref = _stepwise_march(np.broadcast_to(expm_increment(-grid.dt * H), (grid.steps,) + H.shape), 2)
        got = riccati_flow(A, G, S, grid)[0]
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    L = np.array([[30.0, 0.3], [1.0, 30.0]])

    def drift(lo, hi):
        return np.broadcast_to(L, (hi - lo + 1, 2, 2))

    rows = drift(0, 2 * grid.steps)
    ref = _stepwise_march(_rk4_increment(rows[:-1:2], rows[1::2], rows[2::2], -grid.dt)[0], 1)
    got = riccati_march(rk4_increments(drift, grid), grid, (1, 1))[0]
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_leader_and_follower_solves_take_one_solve_per_block(team_scenario, monkeypatch):
    # Guard against a per-step solve creeping back into the march: the three
    # marches (follower pair, Pi, leader pair) take one LAPACK solve per block.
    calls, marching = [], []
    solve, march = np.linalg.solve, integrators.riccati_march

    def counted(*args, **kwargs):
        calls.append(bool(marching))
        return solve(*args, **kwargs)

    def marked(*args, **kwargs):
        marching.append(1)
        try:
            return march(*args, **kwargs)
        finally:
            marching.pop()

    monkeypatch.setattr(np.linalg, "solve", counted)
    for module in (integrators, leader):
        monkeypatch.setattr(module, "riccati_march", marked)
    solve_leader_gains(team_scenario, solve_follower_gains(team_scenario))
    assert sum(calls) == 3 * math.ceil(team_scenario.grid.steps / STEP_BLOCK)


# ---------------------------------------------------------------------------
# Linear equations by precomputed step maps
# ---------------------------------------------------------------------------


def _random_linear_system(rng, grid, d, columns):
    """Stage tables of a random time-varying y' = L(t) y + c(t), and a start value."""
    t = np.linspace(0.0, grid.horizon, 2 * grid.steps + 1)
    shape = (d,) if columns is None else (d, columns)
    L = 0.5 * (rng.standard_normal((d, d)) + np.sin(2.0 * t)[:, None, None] * rng.standard_normal((d, d)))
    wave = np.cos(3.0 * t).reshape((-1,) + (1,) * len(shape))
    c = rng.standard_normal(shape) + wave * rng.standard_normal(shape)
    return StageTable(grid, L), StageTable(grid, c), rng.standard_normal(shape)


@pytest.mark.parametrize("columns", [None, 1, 3])
@pytest.mark.parametrize("forward", [True, False])
def test_linear_march_matches_closure_march(forward, columns):
    # The step maps reassociate the RK4 stage arithmetic, nothing else.
    rng = np.random.default_rng(21 + (columns or 0) + 10 * forward)
    grid = TimeGrid(1.5, 300)
    closure_march = integrate_forward if forward else integrate_backward
    for d in (1, 2, 5):
        drift, forcing, start = _random_linear_system(rng, grid, d, columns)
        ref = closure_march(lambda t, y: stage_at(drift, t) @ y + stage_at(forcing, t), start, grid).values
        got = integrate_linear(drift, forcing, start, forward=forward)
        assert got.shape == ref.shape
        assert np.array_equal(got[0 if forward else -1], start)
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_linear_march_is_fourth_order():
    # Error against a steps*16 reference shrinks by 12x-20x when dt halves.
    rng = np.random.default_rng(4)
    L0, L1, c0 = rng.standard_normal((2, 2)), rng.standard_normal((2, 2)), rng.standard_normal(2)

    def solve(steps, forward):
        grid = TimeGrid(1.0, steps)
        t = np.linspace(0.0, 1.0, 2 * steps + 1)
        drift = StageTable(grid, L0 + np.sin(3.0 * t)[:, None, None] * L1)
        forcing = StageTable(grid, np.exp(t)[:, None] * c0)
        return integrate_linear(drift, forcing, np.ones(2), forward=forward)[-1 if forward else 0]

    for forward in (True, False):
        ref = solve(16 * 16, forward)
        e_coarse = np.max(np.abs(solve(8, forward) - ref))
        e_fine = np.max(np.abs(solve(16, forward) - ref))
        assert 12.0 <= e_coarse / e_fine <= 20.0


@pytest.mark.parametrize("case", ["escape", "nan", "inf"])
@pytest.mark.parametrize("forward", [True, False])
def test_linear_march_fails_at_the_closure_march_node(case, forward):
    # y' = 40 y grows by e^40 over the horizon in the direction of the march
    # and escapes the threshold part-way; a NaN or inf in the forcing's
    # stage row 1001 poisons the step through it.  Both marches report the
    # same node, and the closure march's cheap norm still rejects NaN/inf.
    grid = TimeGrid(1.0, 1000)
    rate = 40.0 if case == "escape" else 0.5
    drift = StageTable(grid, np.full((2001, 2, 2), rate * np.eye(2) * (1.0 if forward else -1.0)))
    c = np.ones((2001, 2, 3))
    if case != "escape":
        c[1001, 1, 2] = np.nan if case == "nan" else np.inf
    forcing = StageTable(grid, c)
    start = np.ones((2, 3))
    closure_march = integrate_forward if forward else integrate_backward
    with pytest.raises(BlowUpError) as ref:
        closure_march(lambda t, y: stage_at(drift, t) @ y + stage_at(forcing, t), start, grid)
    with pytest.raises(BlowUpError) as got:
        integrate_linear(drift, forcing, start, forward=forward)
    assert got.value.time == ref.value.time
    if case == "escape":
        assert 0.2 < abs(got.value.time - (0.0 if forward else 1.0)) < 0.9
    else:
        assert got.value.time == grid.nodes[501 if forward else 500]
        assert not math.isfinite(got.value.norm) and not math.isfinite(ref.value.norm)


@pytest.mark.parametrize("radius", [0.9, 1.05])
@pytest.mark.parametrize("K", [1, 2, 63, 64, 1000, 1001])
def test_affine_scan_matches_a_loop(K, radius):
    # Recursive doubling composes the maps in another order; each map is a
    # rotation times `radius`, its spectral radius, so the states grow or
    # decay like radius^k.  Read-only inputs pin that the scan never writes
    # into them.
    rng = np.random.default_rng(K)
    for d in (1, 3):
        Q = np.linalg.qr(rng.standard_normal((K, d, d)))[0]
        T = radius * Q
        for p in (1, 3):
            s = rng.standard_normal((K, p, d))
            T.flags.writeable = s.flags.writeable = False
            ref = np.zeros((K + 1, p, d))
            for k in range(K):
                ref[k + 1] = ref[k] @ T[k] + s[k]
            got = affine_scan(T, s)
            assert got.shape == ref.shape
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref)), (d, p)
            T.flags.writeable = True


def test_affine_scan_reads_a_broadcast_map():
    # `simulation._control_shift` passes one step map broadcast over the
    # steps: a read-only view.
    A = np.array([[0.99, 0.02], [-0.01, 0.98]])
    s = np.arange(30.0).reshape(15, 1, 2)
    got = affine_scan(np.broadcast_to(A, (15, 2, 2)), s)
    ref = np.zeros(2)
    for k in range(15):
        ref = ref @ A + s[k, 0]
    assert np.allclose(got[-1, 0], ref, rtol=1e-14, atol=0.0)
    assert np.array_equal(A, [[0.99, 0.02], [-0.01, 0.98]]) and np.array_equal(s, np.arange(30.0).reshape(15, 1, 2))


# ---------------------------------------------------------------------------
# Blow-up detection
# ---------------------------------------------------------------------------


def test_blowup_reports_escape_time():
    # p' = p^2 with p(1) = -2 escapes to -inf at t = 0.5 going backward.
    grid = TimeGrid(1.0, 1000)
    with pytest.raises(BlowUpError) as exc:
        integrate_backward(lambda t, p: p * p, np.array([-2.0]), grid)
    assert abs(exc.value.time - 0.5) <= 0.01
    assert BLOWUP_FACTOR == 1e12


def test_no_blowup_on_bounded_solution():
    grid = TimeGrid(1.0, 100)
    sol = integrate_backward(lambda t, p: p * p, np.array([0.5]), grid)
    assert np.all(np.isfinite(sol.values))


# ---------------------------------------------------------------------------
# GridFunction
# ---------------------------------------------------------------------------


def test_stage_table_reads_nodes_and_midpoints():
    # Hermite midpoints are exact for a cubic, linear ones for sampled data;
    # stage_at reads the row of every stage time of a forward or backward step.
    grid = TimeGrid(1.0, 4)
    t, dt = grid.nodes, grid.dt
    cubic = stage_table(grid, (t ** 3)[:, None], (3.0 * t ** 2)[:, None])
    mids = t[:-1] + 0.5 * dt
    np.testing.assert_allclose(cubic.values[1::2, 0], mids ** 3, rtol=0.0, atol=1e-15)
    assert np.array_equal(cubic.nodes[:, 0], t ** 3)
    linear = sampled_stages(np.column_stack([t, -t]), grid)
    np.testing.assert_allclose(linear.values[1::2], np.column_stack([mids, -mids]), rtol=0.0, atol=1e-15)
    assert np.array_equal(sampled_stages(np.array([2.5, -1.0]), grid).values, np.tile([2.5, -1.0], (9, 1)))
    for k in range(grid.steps):
        for h in (dt, -dt):
            start = t[k] if h > 0 else t[k + 1]
            row = 2 * k if h > 0 else 2 * k + 2
            assert stage_at(cubic, start)[0] == cubic.values[row, 0]
            assert stage_at(cubic, start + 0.5 * h)[0] == cubic.values[2 * k + 1, 0]
            assert stage_at(cubic, start + h)[0] == cubic.values[2 * k + (2 if h > 0 else 0), 0]
    with pytest.raises(ValueError):
        StageTable(grid, np.zeros((5, 1)))


def test_gridfunction_rejects_non_finite_values():
    grid = TimeGrid(1.0, 2)
    bad = np.array([[0.0], [np.nan], [1.0]])
    with pytest.raises(ValueError):
        GridFunction(grid, bad)


def test_gridfunction_rejects_wrong_leading_dimension():
    grid = TimeGrid(1.0, 4)
    with pytest.raises(ValueError):
        GridFunction(grid, np.zeros((3, 1)))


def test_csv_round_trip_is_exact(tmp_path):
    grid = TimeGrid(1.5, 7)
    rng = np.random.default_rng(3)
    gf = GridFunction(grid, rng.standard_normal((8, 2, 2)))
    path = tmp_path / "table.csv"
    _write_table(path, "g", gf)
    header = path.read_text(encoding="utf-8").splitlines()[0]
    assert header == "t,g_0_0,g_0_1,g_1_0,g_1_1"
    t, flat = read_grid_csv(path)
    assert np.array_equal(t, grid.nodes)
    assert np.array_equal(flat, gf.values.reshape(8, -1))


def _csv_writer_reference(gf, path, prefix):
    """The table format as csv.writer produced it, kept as the byte reference."""
    flat = gf.values.reshape(gf.grid.steps + 1, -1)
    cols = flat.shape[1]
    if gf.values.ndim == 3:
        header = [f"{prefix}_{i}_{j}" for i in range(gf.values.shape[1]) for j in range(gf.values.shape[2])]
    else:
        header = [f"{prefix}_{i}" for i in range(cols)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["t"] + header)
        for k in range(gf.grid.steps + 1):
            writer.writerow([repr(float(gf.grid.nodes[k]))] + [repr(float(x)) for x in flat[k]])


@pytest.mark.parametrize("item_shape", [(5,), (2, 3)])
def test_csv_bytes_match_csv_writer(item_shape, tmp_path):
    # Extreme and signed values: negative zero, the smallest subnormal, huge
    # magnitudes, negatives; the bytes and the round trip are both exact.
    grid = TimeGrid(0.7, 9)
    rng = np.random.default_rng(12)
    vals = rng.standard_normal((10,) + item_shape) * 10.0 ** rng.integers(-300, 300, (10,) + item_shape)
    flat = vals.reshape(10, -1)
    flat[0, :4] = (-0.0, 5e-324, 1e300, -1e300)
    flat[1, :3] = (0.0, -5e-324, -2.5)
    gf = GridFunction(grid, vals)
    _write_table(tmp_path / "new.csv", "g", gf)
    _csv_writer_reference(gf, tmp_path / "ref.csv", "g")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    t, back = read_grid_csv(tmp_path / "new.csv")
    assert np.array_equal(t, grid.nodes)
    assert back.tobytes() == flat.tobytes()


# ---------------------------------------------------------------------------
# Matrix exponential
# ---------------------------------------------------------------------------


def test_expm_matches_scipy_across_scales():
    rng = np.random.default_rng(11)
    for scale in (0.05, 1.0, 6.0, 40.0):
        M = rng.standard_normal((6, 6))
        M *= scale / np.linalg.norm(M, 1)
        ours = expm(M)
        ref = scipy.linalg.expm(M)
        assert np.max(np.abs(ours - ref)) <= 1e-12 * (1.0 + np.max(np.abs(ref)))


def test_expm_inverse_identity():
    rng = np.random.default_rng(5)
    for _ in range(5):
        M = rng.standard_normal((5, 5))
        M *= 5.0 / np.linalg.norm(M, 1)
        resid = expm(M) @ expm(-M) - np.eye(5)
        assert np.max(np.abs(resid)) <= 1e-10


def test_expm_increment_keeps_relative_accuracy():
    # e^M - I from the increment form, against the reference M phi1(M), where
    # phi1(M) = sum M^k / (k + 1)! is a block of scipy's exponential of
    # [[M, I], [0, 0]] and has no cancellation.  Norms run from far below to
    # above theta13 (5.37), where squarings start.  Forming e^M - I loses
    # relative accuracy as |M| shrinks: about 1e-11 at |M| = 1e-4.
    rng = np.random.default_rng(17)
    d = 6
    for scale in (1e-4, 1e-2, 1.0, 5.0, 20.0):
        for _ in range(5):
            M = rng.standard_normal((d, d))
            M *= scale / np.linalg.norm(M, 1)
            aug = np.zeros((2 * d, 2 * d))
            aug[:d, :d], aug[:d, d:] = M, np.eye(d)
            ref = M @ scipy.linalg.expm(aug)[:d, d:]
            size = np.max(np.abs(ref))
            tol = 4e-15 if scale <= 1.0 else 1e-12
            assert np.max(np.abs(expm_increment(M) - ref)) <= tol * size, scale
            if scale == 1e-4:
                assert np.max(np.abs(expm(M) - np.eye(d) - ref)) > tol * size


def test_expm_zero_is_identity():
    assert np.max(np.abs(expm(np.zeros((4, 4))) - np.eye(4))) <= 1e-15
