"""Leader-stage solvers on the dimension-expanded forward/backward system.

After the follower stage is absorbed, the leader faces a linear system in a
stacked state X = (x0, mean follower state, mean sensitivity) and costate
Y = (leader costate mean, population costate mean, follower offset), each of
size 3n:

    dX = [A(t) X + B Y + f_state] dt + noise dW0
    dY = [A1 X + B1(t) Y + A2 E[X] + B2(t) E[Y] + f_costate] dt + Z dW0

The affine ansatz Y = P X + K E[X] + V closes the system into one
nonsymmetric matrix Riccati equation for P, a coupled quadratic equation for K,
an independent equation for the sum M (which must equal P + K), and an
offset equation for V:

    P' + P A + P B P - A1 - B1 P                            = 0,  P(T) = 0
    K' + P B K + K A + K B (P + K) - B1 K - A2 - B2 (P + K) = 0,  K(T) = 0
    M' + M A + M B M - B1 M - B2 M - A1 - A2                = 0,  M(T) = 0
    V' + M B V + M f_state - B1 V - B2 V - f_costate        = 0,  V(T) = 0

    (Matching the Ito expansion of d(P X + K E[X] + V) against the costate
    drift fixes every sign.  The tests pin them numerically: closure RK4
    references of P, K and M (`tests/conftest.py`) against the pair march,
    and the offset block of the reconstructed costate against the follower
    stage's own offset equation in `test_offset_routes_agree`.)

Each Riccati equation here is Y U^-1 of a linear system (Radon's lemma).
`solve_leader_pair` marches P, K and M as one square equation in
G = [[P, K], [0, M]], so `verify`'s check of P + K against M tests the K
equation against the M equation.  V solves its linear equation by
`integrators.integrate_linear`, with M read from M's Hermite stage table;
`solve_leader_V` and `leader_V_stages` read the same coefficients, so a
solved V and a loaded one get their midpoints from one rule
(`integrators.linear_stages`).

No symmetrization is applied: these solutions are not symmetric.  The
leader's control reads the first block of the reconstructed costate.  Only
x0 is random in X, so with P00 the block of P on x0 and the mean costate
E[Y] = M E[X] + V it is

    u0 = -R0^-1 B0' (P00 (x0 - E[x0]) + E[Y]_0).

`leader_gains`, the one constructor of `LeaderGains`, also solves once the
mean path E[X]' = (A + B M) E[X] + B V + f_state that M and V give; what
every path shares, E[Y] and its third block, the follower offset, is read
off it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .follower import FollowerGains, closed_loop, riccati_stages, sources
from .integrators import (FlowHealth, GridFunction, StageTable, integrate_linear, linear_stages,
                          riccati_march, rk4_increments, sampled_stages, stage_table)
from .model import Scenario, require_valid

__all__ = [
    "ExtendedSystem",
    "LeaderGains",
    "assemble_extended",
    "solve_leader_V",
    "leader_M_stages",
    "leader_V_stages",
    "leader_gains",
    "solve_leader_pair",
    "solve_leader_gains",
    "solve_mean_state",
]


@dataclass(frozen=True)
class ExtendedSystem:
    """Block coefficients of the leader-stage system; each block is n x n.

    A, B1, B2, f_state, f_costate vary in time through the follower gains and
    the offsets and are stage tables, read at every RK4 stage time; B, A1 and
    A2 are constant.  The noise dW0 loads block 1 alone, by the leader's D.
    """

    n: int
    grid: object
    A: StageTable             # (3n, 3n) state drift
    B: np.ndarray             # (3n, 3n) costate feedback into the state drift
    A1: np.ndarray            # (3n, 3n) state source of the costate drift
    B1: StageTable            # (3n, 3n) costate drift
    A2: np.ndarray            # (3n, 3n) mean-state source of the costate drift
    B2: StageTable            # (3n, 3n) mean-costate source of the costate drift
    f_state: StageTable       # (3n,)
    f_costate: StageTable     # (3n,)


def _block(n: int, entries: dict[tuple[int, int], np.ndarray]) -> np.ndarray:
    out = np.zeros((3 * n, 3 * n))
    for (i, j), M in entries.items():
        out[i * n:(i + 1) * n, j * n:(j + 1) * n] = M
    return out


def assemble_extended(s: Scenario, fg: FollowerGains) -> ExtendedSystem:
    """Build the block coefficients from the scenario and the follower gains.

    The time-varying blocks are built at every RK4 stage time from stage
    tables of the follower P and Pi (Hermite midpoints from their own
    equations) and of the sampled forcing and targets (linear midpoints).
    """
    require_valid(s)
    if fg.grid != s.grid:
        raise ValueError("follower gains were solved on a different grid")
    grid = s.grid
    n = s.dims.n
    rows = 2 * grid.steps + 1
    A0, B0 = s.leader_dyn.A, s.leader_dyn.B
    A, B = s.follower_dyn.A, s.follower_dyn.B
    Q0, R0, Gamma0 = s.leader_cost.Q, s.leader_cost.R, s.leader_cost.Gamma

    G = B @ fg.control_map
    G0 = B0 @ np.linalg.solve(R0, B0.T)

    src = sources(s)                   # P's source S, offset drive W E[x0] + target
    P = riccati_stages(s, fg.P, src.S).values                    # (rows, n, n)
    Pi_st, closed, offset_drift = closed_loop(s, fg.Pi)          # follower closed loop
    Pi = Pi_st.values
    f0 = sampled_stages(s.leader_dyn.f, grid).values
    f = sampled_stages(s.follower_dyn.f, grid).values
    eta0 = sampled_stages(s.leader_cost.eta, grid).values

    A_blocks = np.zeros((rows, 3 * n, 3 * n))
    B1_blocks = np.zeros((rows, 3 * n, 3 * n))
    B2_blocks = np.zeros((rows, 3 * n, 3 * n))
    # Block 3 of the state is the multiplier of the offset equation and the
    # population costate is adjoint to the mean dynamics, so each moves under
    # the transpose of the other drift: A - G Pi' and -(A' - Pi' G).  Pi is
    # not symmetric in game mode.
    A_blocks[:, :n, :n] = A0
    A_blocks[:, n:2 * n, n:2 * n] = closed.values
    A_blocks[:, 2 * n:, 2 * n:] = np.swapaxes(offset_drift.values, 1, 2)
    B1_blocks[:, :n, :n] = -A0.T
    B1_blocks[:, n:2 * n, n:2 * n] = -A.T + P @ G
    B1_blocks[:, 2 * n:, 2 * n:] = -offset_drift.values
    B2_blocks[:, n:2 * n, n:2 * n] = (np.swapaxes(Pi, 1, 2) - P) @ G

    B_blk = _block(n, {(0, 0): -G0, (1, 2): -G, (2, 1): G})
    A1_blk = _block(
        n,
        {
            (0, 0): -Q0,
            (0, 1): Q0 @ Gamma0,
            (1, 0): Gamma0.T @ Q0,
            (1, 1): -(Gamma0.T @ Q0 @ Gamma0),
        },
    )
    A2_blk = _block(n, {(0, 2): -src.W.T, (2, 0): src.W})

    f_state = np.zeros((rows, 3 * n))
    f_state[:, :n] = f0
    f_state[:, n:2 * n] = f

    f_costate = np.zeros((rows, 3 * n))
    f_costate[:, :n] = eta0 @ Q0.T
    f_costate[:, n:2 * n] = -(eta0 @ Q0.T) @ Gamma0
    f_costate[:, 2 * n:] = stage_table(grid, src.target).values - np.einsum("kij,kj->ki", Pi, f)

    return ExtendedSystem(
        n=n,
        grid=grid,
        A=StageTable(grid, A_blocks),
        B=B_blk,
        A1=A1_blk,
        B1=StageTable(grid, B1_blocks),
        A2=A2_blk,
        B2=StageTable(grid, B2_blocks),
        f_state=StageTable(grid, f_state),
        f_costate=StageTable(grid, f_costate),
    )


def _dM(es: ExtendedSystem, A, B1, B2, M):
    """dM/dt given the blocks A, B1, B2; M and the blocks may be stacks of nodes."""
    return -(M @ A + M @ es.B @ M - B1 @ M - B2 @ M - es.A1 - es.A2)


def leader_M_stages(es: ExtendedSystem, M: GridFunction) -> StageTable:
    """Stage table of the mean costate gain: Hermite midpoints from its own equation."""
    return stage_table(es.grid, M.values, _dM(es, es.A.nodes, es.B1.nodes, es.B2.nodes, M.values))


def _V_coefficients(es: ExtendedSystem, M_st: StageTable, rows=slice(None)) -> tuple[np.ndarray, np.ndarray]:
    """V' = L V + c: L = B1 + B2 - M B and c = f_costate - M f_state at the
    stage rows `rows`, M read from its stage table `M_st` (`leader_M_stages`)."""
    M = M_st.values[rows]
    return (es.B1.values[rows] + es.B2.values[rows] - M @ es.B,
            es.f_costate.values[rows] - np.einsum("kij,kj->ki", M, es.f_state.values[rows]))


def leader_V_stages(es: ExtendedSystem, M_st: StageTable, V: GridFunction) -> StageTable:
    """Stage table of the costate offset, given M's stage table: Hermite
    midpoints from its own equation, coefficients read at the nodes only."""
    return linear_stages(es.grid, *_V_coefficients(es, M_st, slice(None, None, 2)), V.values)


def solve_leader_V(es: ExtendedSystem, M: GridFunction) -> GridFunction:
    """Offset vector of the costate reconstruction: V' = L V + c with
    L = B1 + B2 - M B and c = f_costate - M f_state, M read from its Hermite
    stage table."""
    L, c = (StageTable(es.grid, a) for a in _V_coefficients(es, leader_M_stages(es, M)))
    return GridFunction(es.grid, integrate_linear(L, c, np.zeros(3 * es.n), forward=False))


def _mean_path(s: Scenario, es: ExtendedSystem, M: GridFunction, V: GridFunction) -> StageTable:
    """The mean path E[X] at every stage time: forward RK4 from the declared
    initial means, drift A + B M and forcing B V + f_state read from the
    stage tables of M and V, and Hermite midpoints from the same equation."""
    M_st = leader_M_stages(es, M)
    drift = es.A.values + es.B @ M_st.values
    forcing = leader_V_stages(es, M_st, V).values @ es.B.T + es.f_state.values
    init = np.concatenate([s.leader_mean0, s.follower_mean0, np.zeros(es.n)])
    nodes = integrate_linear(StageTable(es.grid, drift), StageTable(es.grid, forcing), init, forward=True)
    return linear_stages(es.grid, drift[::2], forcing[::2], nodes)


def solve_mean_state(s: Scenario, es: ExtendedSystem, lg: LeaderGains) -> GridFunction:
    """Node values of the mean path that lg.M and lg.V give on `es`, solved afresh."""
    return GridFunction(es.grid, _mean_path(s, es, lg.M, lg.V).nodes)


@dataclass(frozen=True)
class LeaderGains:
    """Leader-stage gain tables: Y = P X + K E[X] + V, M = P + K; built by
    `leader_gains`.  control_map = R0^-1 B0' turns the first block of a
    reconstructed costate into -u0.  mean is the mean path E[X] that M and
    V give, at every stage time.  The constructor derives control_map and
    mean (`dataclasses.replace` of M or V does not).  health names the
    solve's march with its FlowHealth (empty for loaded tables).
    """

    P: GridFunction
    K: GridFunction
    M: GridFunction
    V: GridFunction
    control_map: np.ndarray
    mean: StageTable
    health: tuple[tuple[str, FlowHealth], ...] = ()

    @property
    def grid(self):
        return self.P.grid

    @property
    def mean_costate(self) -> np.ndarray:
        """E[Y] = M E[X] + V per node, (steps + 1, 3n)."""
        return np.einsum("kij,kj->ki", self.M.values, self.mean.nodes) + self.V.values

    @property
    def offset(self) -> GridFunction:
        """The follower offset: the third block of E[Y], per node."""
        EY = self.mean_costate
        return GridFunction(self.grid, EY[:, 2 * EY.shape[1] // 3:])


def leader_gains(s: Scenario, es: ExtendedSystem, P: GridFunction, K: GridFunction, M: GridFunction,
                 V: GridFunction, health=()) -> LeaderGains:
    """The gain object of solved or loaded tables on the extended system
    `es`; derives the control map and the mean path (one mean pass)."""
    control_map = np.linalg.solve(s.leader_cost.R, s.leader_dyn.B.T)
    return LeaderGains(P=P, K=K, M=M, V=V, control_map=control_map, mean=_mean_path(s, es, M, V),
                       health=tuple(health))


def solve_leader_pair(es: ExtendedSystem):
    """P, K and M as one square Riccati equation, and its march's FlowHealth.

    G = [[P, K], [0, M]] maps the doubled state (X, E[X]) to the costates
    (Y, E[Y]) and solves G' = C + D G - G Ah - G Bh G, G(T) = 0, with
    Ah = diag(A, A), Bh = diag(B, B), C = [[A1, A2], [0, A1 + A2]] and
    D = [[B1, B2], [0, B1 + B2]]: its blocks are the P, K and M equations
    term by term.  Each step is the linear-fractional update of the RK4 map
    of its linear system (`integrators.riccati_march`); the flow factor is
    block upper triangular, and P's and M's diagonal blocks are checked for
    a pole apart.
    """
    d = 3 * es.n

    def drift(lo, hi):
        A, B1, B2 = (t.values[lo:hi + 1] for t in (es.A, es.B1, es.B2))
        L = np.zeros((len(A), 4 * d, 4 * d))
        u, y = slice(0, 2 * d), slice(2 * d, 4 * d)      # the rows of U and of Y
        Ah, Bh, C, D = L[:, u, u], L[:, u, y], L[:, y, u], L[:, y, y]
        Ah[:, :d, :d] = Ah[:, d:, d:] = A
        Bh[:, :d, :d] = Bh[:, d:, d:] = es.B
        C[:, :d, :d] = es.A1
        C[:, :d, d:] = es.A2
        C[:, d:, d:] = es.A1 + es.A2
        D[:, :d, :d] = B1
        D[:, :d, d:] = B2
        D[:, d:, d:] = B1 + B2
        return L

    G, health = riccati_march(rk4_increments(drift, es.grid), es.grid, (2 * d, 2 * d), (d, d))
    P, K, M = (GridFunction(es.grid, g) for g in (G[:, :d, :d], G[:, :d, d:], G[:, d:, d:]))
    return P, K, M, health


def solve_leader_gains(s: Scenario, fg: FollowerGains) -> LeaderGains:
    """Solve the leader-stage equations on the scenario grid: P, K and M as
    one pair (`solve_leader_pair`), then V by its linear equation with M
    read from M's Hermite stage table, then the mean path (`leader_gains`)."""
    es = assemble_extended(s, fg)
    P, K, M, health = solve_leader_pair(es)
    return leader_gains(s, es, P, K, M, solve_leader_V(es, M), (("leader", health),))
