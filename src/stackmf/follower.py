"""Follower-stage gain equations and the decentralized follower feedback law.

Each follower's best response (game mode) or the social optimum (team mode)
is characterized by one symmetric Riccati equation for the own-state gain P,
a quadratic matrix equation for the mean-coupling gain K, an independent
Riccati equation for the aggregate gain Pi (which must equal P + K), and an
offset vector phi driven by the leader's mean path:

    P'  + A'P + PA - P G P + S            = 0,   P(T)  = 0
    K'  + A'K + KA - P G K - K G (P + K) - S1 = 0,   K(T)  = 0
    Pi' + A'Pi + Pi A - Pi G Pi + S2      = 0,   Pi(T) = 0
    phi' + (A' - Pi G) phi + Pi f - g     = 0,   phi(T) = 0

with G = B R^-1 B'.  The sources S, S1, S2, g are the only mode-dependent
pieces, and `sources` is the one place that tests the mode: game mode
carries the (I - Gamma/N) influence factors of a single agent on the
population average, team mode the social re-weightings of the per-capita
cost.  The feedback law for agent i is

    u_i = -R^-1 B' (P x_i + K E[x_i] + phi).

The coefficients A, G, S, S1, S2 are constant in time (only f and eta vary),
so the (P, K) pair and Pi step by their exact Hamiltonian flow
(`integrators.riccati_flow`) and carry no discretization error.

P is symmetric: the flow keeps it so to rounding, and the marched P is
symmetrized once, its drift recorded.  Pi is symmetric in team mode; in
game mode its source (I - Gamma/N)'Q(I - Gamma) is in general not
symmetric, and neither is Pi, so the aggregate solve imposes no symmetry.
The mean follower state moves under the drift A - G Pi and the offset
under A' - Pi G; `closed_loop` is the one place that forms those products.
`follower_response` marches the offset backward and then the mean forward:
the DP oracle reads it along a leader mean path, a leader deviation along
a shift of that path.

Gains are identical across agents; there is deliberately no per-agent entry
point.  `follower_gains` is the one constructor of `FollowerGains`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .integrators import (
    BlowUpError,
    FlowHealth,
    GridFunction,
    StageTable,
    integrate_linear,
    linear_stages,
    matvec,
    riccati_flow,
    stage_table,
)
from .model import Mode, Scenario, require_valid, time_sampled

__all__ = [
    "Sources",
    "FollowerGains",
    "sources",
    "offset_drive",
    "riccati_stages",
    "closed_loop",
    "follower_response",
    "symmetry_drift",
    "follower_gains",
    "solve_follower_gains",
]

# The largest symmetry drift max |P - P'| of P that is still roundoff: beyond
# it the solver rejects its march and `verify` and the gains loader reject
# the tables.
SYMMETRY_TOL = 1e-10


@dataclass(frozen=True)
class Sources:
    """The mode-dependent sources of the follower equations (module docstring):
    S of P's, S1 of K's, S2 of Pi's, and the offset drive g = W E[x0] + target,
    target (steps + 1, n) per node."""

    S: np.ndarray
    S1: np.ndarray
    S2: np.ndarray
    W: np.ndarray
    target: np.ndarray


@np.errstate(over="ignore", invalid="ignore")     # a source that overflows fails `riccati_flow` at t = T
def sources(s: Scenario) -> Sources:
    """Game mode weighs Q by J = I - Gamma/N, one agent's marginal effect on its
    own tracking error; team mode by the social re-weightings of the
    per-capita cost, coupling = Gamma'Q + Q Gamma - Gamma'Q Gamma."""
    Q, G, G1 = s.follower_cost.Q, s.follower_cost.Gamma, s.follower_cost.Gamma1
    eta = time_sampled(s.follower_cost.eta, s.grid)
    N, eye = s.dims.N, np.eye(s.dims.n)
    frac = (N - 1) / N
    if s.mode is Mode.GAME:
        J = eye - G / N
        JQ = J.T @ Q
        return Sources(JQ @ J, JQ @ (frac * G), JQ @ (eye - G), JQ @ G1, eta @ JQ.T)
    coupling = G.T @ Q + Q @ G - G.T @ Q @ G
    return Sources(Q - coupling / N, frac * coupling, Q - coupling, Q @ G1 - G.T @ (Q @ G1),
                   eta @ Q.T - (eta @ Q.T) @ G)


def offset_drive(s: Scenario, mean_leader: StageTable) -> StageTable:
    """Drive g of the offset equation along the leader mean path E[x0], at
    every RK4 stage time; the tracking target is sampled data and has linear
    midpoints."""
    src = sources(s)
    return StageTable(s.grid, mean_leader.values @ src.W.T + stage_table(s.grid, src.target).values)


def _gain_matrix(s: Scenario) -> np.ndarray:
    """G = B R^-1 B' of the follower dynamics."""
    B = s.follower_dyn.B
    return B @ np.linalg.solve(s.follower_cost.R, B.T)


def symmetry_drift(values: np.ndarray) -> np.ndarray:
    """max |P - P'| at each node of a stack of square tables."""
    return np.max(np.abs(values - np.swapaxes(values, -1, -2)), axis=(-2, -1))


def _symmetrized(s: Scenario, values: np.ndarray) -> tuple[np.ndarray, float]:
    """Symmetrize a marched Riccati gain once, after the march, and return
    it with its largest symmetry drift over the nodes.

    The flow step is exact, so a drift beyond SYMMETRY_TOL means a
    step's linear solve lost accuracy: the flow factor is near singular, as
    it is beside a pole -- the pathology of a norm escape, caught earlier --
    so the solve is rejected through the same failure channel, located at
    the worst node.
    """
    drift = symmetry_drift(values)
    worst = int(np.argmax(drift))
    max_drift = float(drift[worst])
    if max_drift > SYMMETRY_TOL:
        t_bad = float(s.grid.nodes[worst])
        raise BlowUpError(
            t_bad,
            max_drift,
            f"Riccati symmetrization drift {max_drift:.3e} at t={t_bad:.6g} "
            f"exceeds limit {SYMMETRY_TOL:g}: the Riccati flow is ill-conditioned there",
        )
    return 0.5 * (values + np.swapaxes(values, 1, 2)), max_drift


def _riccati_rhs(A: np.ndarray, G: np.ndarray, source: np.ndarray, P: np.ndarray) -> np.ndarray:
    """dP/dt of the follower Riccati family; P may be a stack of nodes."""
    return -(A.T @ P + P @ A - P @ G @ P + source)


def riccati_stages(s: Scenario, gain: GridFunction, source: np.ndarray) -> StageTable:
    """Stage table of a follower Riccati gain (P with source S, Pi with S2 of
    `sources`): Hermite midpoints from the gain's own equation."""
    slopes = _riccati_rhs(s.follower_dyn.A, _gain_matrix(s), source, gain.values)
    return stage_table(s.grid, gain.values, slopes)


def closed_loop(s: Scenario, Pi: GridFunction) -> tuple[StageTable, StageTable, StageTable]:
    """The follower closed loop on the stage grid: the aggregate gain (Hermite
    midpoints from its own equation), the mean drift A - G Pi and the offset
    drift A' - Pi G."""
    Pi_st = riccati_stages(s, Pi, sources(s).S2)
    A, G = s.follower_dyn.A, _gain_matrix(s)
    return Pi_st, StageTable(s.grid, A - G @ Pi_st.values), StageTable(s.grid, A.T - Pi_st.values @ G)


def follower_response(s: Scenario, Pi: GridFunction, drive: StageTable, forcing: StageTable,
                      start) -> tuple[StageTable, np.ndarray]:
    """The followers' offset phi under the aggregate gain Pi, as a stage
    table, and their mean x at the nodes: phi solves

        phi' = -(A' - Pi G) phi + drive - Pi forcing,   phi(T) = 0,

    backward, and x solves x' = (A - G Pi) x + forcing - G phi, x(0) = start,
    forward.  Both are linear in (drive, forcing, start): (n, D) columns
    answer D drives at once.
    """
    Pi_st, mean_drift, offset_drift = closed_loop(s, Pi)
    G = _gain_matrix(s)
    L = StageTable(s.grid, -offset_drift.values)
    c = StageTable(s.grid, drive.values - matvec(Pi_st.values, forcing.values))
    phi = linear_stages(s.grid, L.nodes, c.nodes,
                        integrate_linear(L, c, np.zeros(drive.values.shape[1:]), forward=False))
    mean = integrate_linear(mean_drift, StageTable(s.grid, forcing.values - matvec(G, phi.values)),
                            start, forward=True)
    return phi, mean


@dataclass(frozen=True)
class FollowerGains:
    """Follower-stage gain tables on the scenario grid, built by `follower_gains`.

    P, K, Pi are (steps+1, n, n); control_map = R^-1 B'; sym_drift is the
    largest symmetrization drift of P; health names each march of the solve
    with its FlowHealth (empty for loaded tables).
    """

    P: GridFunction
    K: GridFunction
    Pi: GridFunction
    control_map: np.ndarray
    sym_drift: float
    health: tuple[tuple[str, FlowHealth], ...] = ()

    @property
    def grid(self):
        return self.P.grid


def follower_gains(s: Scenario, P: GridFunction, K: GridFunction, Pi: GridFunction,
                   sym_drift: float, health=()) -> FollowerGains:
    """The gain object of solved or loaded tables; derives the control map."""
    control_map = np.linalg.solve(s.follower_cost.R, s.follower_dyn.B.T)
    return FollowerGains(P=P, K=K, Pi=Pi, control_map=control_map, sym_drift=sym_drift,
                         health=tuple(health))


def _solve_coupled(s: Scenario):
    """Solve (P, K) as one square Riccati equation.

    The unknown [[P, K], [0, P + K]] solves the follower Riccati family with
    coefficients diag(A, A), diag(G, G) and source [[S, -S1], [0, S - S1]]:
    its top row is the P and K equations term by term, its lower right block
    their sum.  The pair therefore steps by one exact flow, and P + K against
    the separately solved Pi checks the sources alone.  The flow factor is
    block upper triangular, so each diagonal block -- P's factor and
    P + K's -- is checked for a pole on its own.
    """
    n = s.dims.n
    A = s.follower_dyn.A
    G = _gain_matrix(s)
    src = sources(s)
    S, S1 = src.S, src.S1
    zero = np.zeros((n, n))
    AA, GG = (np.block([[M, zero], [zero, M]]) for M in (A, G))
    vals, health = riccati_flow(AA, GG, np.block([[S, -S1], [zero, S - S1]]), s.grid, (n, n))
    P, drift = _symmetrized(s, vals[:, :n, :n])
    return GridFunction(s.grid, P), GridFunction(s.grid, vals[:, :n, n:]), drift, health


def solve_follower_gains(s: Scenario) -> FollowerGains:
    """Solve P, K and, independently, Pi."""
    require_valid(s)
    P, K, drift, pair_health = _solve_coupled(s)
    Pi, Pi_health = riccati_flow(s.follower_dyn.A, _gain_matrix(s), sources(s).S2, s.grid)
    return follower_gains(s, P, K, GridFunction(s.grid, Pi), drift,
                          (("follower_pair", pair_health), ("Pi", Pi_health)))
