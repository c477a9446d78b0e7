"""Euler-Maruyama ensemble simulation of the closed-loop leader/follower system.

The deterministic layer (the mean of the extended leader state, and the
follower offset reconstructed from it) is integrated once per run with RK4
and shared across paths.  Each path then marches the extended leader state
and all N followers with Euler-Maruyama on the same grid, evaluates both
feedback laws node by node, and accumulates the quadratic costs with the
trapezoid rule.  The same march optionally costs open-loop control
deviations of one follower and of the leader (`Deviations`): the dynamics
are linear, so a deviated path is the baseline path plus a deterministic
shift, and every (direction, epsilon) pair is costed along the baseline
paths in the same pass.

Noise streams are counter-derived: path p draws from one Philox stream per
purpose (initial states, increments), keyed purely by (seed, p, purpose), with
one row per agent.  Results are therefore bit-identical for any worker count
or chunking, path p never depends on how many paths run before it, and agent
j's row never depends on how many followers there are.  Agent 0 is the
leader; the population average is never sampled directly -- it is the exact
arithmetic mean of the follower states.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .follower import FollowerGains, aggregate_weight, offset_terms, riccati_stages, solve_follower_gains
from .integrators import GridFunction, StageTable, integrate_backward, integrate_forward, stage_table
from .leader import (
    ExtendedSystem,
    LeaderGains,
    assemble_extended,
    leader_M_stages,
    leader_V_stages,
    solve_leader_gains,
)
from .model import InitialLaw, Mode, Scenario, require_valid, time_sampled

__all__ = [
    "NoiseModel",
    "Deviations",
    "SimPath",
    "CostEstimate",
    "EnsembleResult",
    "GridMismatchError",
    "solve_mean_state",
    "mean_state_stages",
    "deterministic_layer",
    "simulate",
    "estimate_costs",
    "lln_diagnostic",
]

PURPOSE_INIT = 0
PURPOSE_NOISE = 1
# Recorded in manifests: outputs drawn under another scheme are not comparable.
NOISE_SCHEME = "philox:seed,path,purpose:agent-rows"

_MASK64 = (1 << 64) - 1
_ZERO4 = np.zeros(4, dtype=np.uint64)


class GridMismatchError(ValueError):
    """Gain tables and scenario grid disagree."""


@dataclass(frozen=True)
class NoiseModel:
    """Counter-derived noise streams, one per (path, purpose).

    Streams are independent Philox streams keyed by a 128-bit packing of
    (seed, path, purpose); nothing about one stream depends on any other
    stream having been consumed.  A stream holds one row per agent (row 0 the
    leader, row j follower j), drawn in row order, so agent j's row depends
    only on the rows before it and never on the follower count.  Draws re-key
    one reusable Philox (counter reset to zero) rather than constructing a
    generator per stream; the numbers are those of `generator(path, purpose)`.
    """

    seed: int
    _gen: np.random.Generator = field(
        default_factory=lambda: np.random.Generator(np.random.Philox()),
        init=False, repr=False, compare=False,
    )

    def key(self, path: int, purpose: int) -> int:
        if path < 0 or path >= 1 << 32:
            raise ValueError("path index out of the 32-bit stream range")
        return ((self.seed & _MASK64) << 64) | (path << 32) | (purpose & 0x3)

    def generator(self, path: int, purpose: int) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(key=self.key(path, purpose)))

    def _stream(self, path: int, purpose: int) -> np.random.Generator:
        """The shared generator, re-keyed to the start of one stream."""
        key = self.key(path, purpose)
        self._gen.bit_generator.state = {
            "bit_generator": "Philox", "buffer": _ZERO4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
            "state": {"counter": _ZERO4, "key": np.array([key & _MASK64, key >> 64], dtype=np.uint64)},
        }
        return self._gen

    def initial(self, path: int, law: InitialLaw, N: int) -> np.ndarray:
        """Initial states of one path, (N+1, n): the leader, then followers 1..N."""
        g = self._stream(path, PURPOSE_INIT)
        return np.concatenate([law.leader.sample(g, 1), law.follower.sample(g, N)])

    def wiener(self, path: int, agents: int, steps: int, dt: float, substeps: int = 1,
               out: np.ndarray | None = None) -> np.ndarray:
        """Brownian increments of one path over each grid step, (agents, steps).

        With substeps > 1 the stream is drawn at resolution dt/substeps and
        aggregated, so runs at different step counts that share the same fine
        resolution consume the same underlying Brownian path.  `out`, when
        given, receives the increments.
        """
        g = self._stream(path, PURPOSE_NOISE)
        if substeps == 1:
            raw = g.standard_normal((agents, steps), out=out)
            raw *= math.sqrt(dt)
            return raw
        fine = g.standard_normal((agents, steps * substeps)) * math.sqrt(dt / substeps)
        return np.sum(fine.reshape(agents, steps, substeps), axis=2, out=out)


@dataclass(frozen=True)
class Deviations:
    """Open-loop control deviations costed along the ensemble's own paths.

    Follower slot 1 deviates by eps * v(t) for every follower direction v
    and every eps in `follower_eps`; everyone else keeps the solved feedback,
    so only the 1/N population-average shift feeds back.  A leader deviation
    shifts the leader path, and the follower population shifts by its
    deterministic reaction to the shifted mean leader path.  Directions are
    (steps+1, m) tables.  `EnsembleResult.deviation_costs` holds one column
    per (direction, eps), epsilon fastest: follower directions first (the
    social cost in team mode, the deviator's own cost in game mode), then
    leader directions (the leader's cost).
    """

    follower: tuple = ()
    leader: tuple = ()
    follower_eps: tuple = ()
    leader_eps: tuple = ()


@dataclass(frozen=True)
class SimPath:
    """Full trajectories of one stored path."""

    index: int
    x0: np.ndarray           # (K+1, n)
    followers: np.ndarray    # (N, K+1, n)
    xbar: np.ndarray         # (K+1, n) exact arithmetic follower mean
    u0: np.ndarray           # (K+1, m)
    controls: np.ndarray     # (N, K+1, m)
    X: np.ndarray | None     # (K+1, 3n) extended leader state; None in open-loop runs
    phi: np.ndarray          # (K+1, n) offset used by the follower feedback


@dataclass(frozen=True)
class CostEstimate:
    mean: float
    se: float


@dataclass(frozen=True)
class EnsembleResult:
    n_paths: int
    seed: int
    mode: Mode
    leader_cost: CostEstimate
    social_cost: CostEstimate
    follower_costs: np.ndarray        # (N,) per-slot means
    follower_costs_se: np.ndarray     # (N,)
    leader_cost_paths: np.ndarray     # (n_paths,)
    social_cost_paths: np.ndarray     # (n_paths,)
    follower_cost_paths: np.ndarray   # (n_paths, N)
    lln_gap: GridFunction             # scalar per node: E || xbar - E[x_i] ||
    mean_state: GridFunction          # (K+1, 3n) deterministic extended mean
    mean_follower: GridFunction       # (K+1, n) block 2 of the extended mean
    offset: GridFunction              # (K+1, n) deterministic follower offset
    phi_spread: float                 # max cross-path deviation of the offset
    node_summary: dict
    paths: tuple
    deviation_costs: np.ndarray | None = None   # (n_paths, columns of `Deviations`)


@dataclass(frozen=True)
class _Tables:
    """Per-node precomputations shared by every path."""

    n: int
    m: int
    N: int
    steps: int
    dt: float
    team: bool
    weights: np.ndarray       # trapezoid weights, (K+1,)
    xi_bar: np.ndarray        # follower initial mean
    mean_state: np.ndarray    # (K+1, 3n)
    mean_follower: np.ndarray  # (K+1, n)
    offset: np.ndarray        # (K+1, n) deterministic part of phi
    X_drift: np.ndarray       # (K+1, 3n, 3n)  A + B P
    X_const: np.ndarray       # (K+1, 3n)      B (K meanX + V) + f_state
    e3P: np.ndarray           # (K+1, n, 3n)
    u0_P: np.ndarray          # (K+1, m, 3n)
    u0_const: np.ndarray      # (K+1, m)
    F_xT: np.ndarray          # (K+1, n, m)  follower feedback, transposed
    F_mean: np.ndarray        # (K+1, m)
    RinvBt: np.ndarray        # (m, n)
    noise_vec: np.ndarray     # (3n,)
    A0: np.ndarray
    B0: np.ndarray
    f0: np.ndarray            # (K+1, n)
    D0: np.ndarray
    A_fT: np.ndarray          # follower A', B', C-contiguous for the flat products
    B_fT: np.ndarray
    f_f: np.ndarray           # (K+1, n)
    D_f: np.ndarray
    Q0: np.ndarray
    R0: np.ndarray
    Gamma0: np.ndarray
    eta0: np.ndarray          # (K+1, n)
    Q: np.ndarray
    R: np.ndarray
    Gamma: np.ndarray
    Gamma1: np.ndarray
    eta: np.ndarray           # (K+1, n)


def _mean_coefficients(es: ExtendedSystem, lg: LeaderGains) -> tuple[StageTable, StageTable]:
    """Drift A + B M and forcing B V + f_state of the mean equation, on the stage grid."""
    M = leader_M_stages(es, lg.M).values
    V = leader_V_stages(es, lg.M, lg.V).values
    drift = StageTable(es.grid, es.A.values + es.B @ M)
    return drift, StageTable(es.grid, V @ es.B.T + es.f_state.values)


def solve_mean_state(s: Scenario, es: ExtendedSystem, lg: LeaderGains) -> GridFunction:
    """Forward RK4 for the deterministic mean of the extended leader state."""
    n = s.dims.n
    init = np.zeros(3 * n)
    init[:n] = s.leader_mean0
    init[n:2 * n] = s.follower_mean0
    drift, forcing = _mean_coefficients(es, lg)

    def rhs(t, E):
        return drift.at(t) @ E + forcing.at(t)

    return integrate_forward(rhs, init, s.grid)


def mean_state_stages(es: ExtendedSystem, lg: LeaderGains, mean: GridFunction) -> StageTable:
    """The mean path at every RK4 stage time: Hermite midpoints from its own equation."""
    drift, forcing = _mean_coefficients(es, lg)
    slopes = np.einsum("kij,kj->ki", drift.nodes, mean.values) + forcing.nodes
    return stage_table(es.grid, mean.values, slopes)


def deterministic_layer(s: Scenario, es: ExtendedSystem, lg: LeaderGains) -> tuple:
    """What every path shares, per node: the mean extended state E[X], the mean
    costate offset K E[X] + V, and its third block, the follower offset."""
    mX = solve_mean_state(s, es, lg).values
    KmV = np.einsum("kij,kj->ki", lg.K.values, mX) + lg.V.values
    return mX, KmV, KmV[:, 2 * es.n:]


def _check_grids(s: Scenario, fg: FollowerGains, lg: LeaderGains) -> None:
    if fg.grid != s.grid or lg.grid != s.grid:
        raise GridMismatchError("gain tables were solved on a different grid than the scenario")


def _build_tables(s: Scenario, fg: FollowerGains, lg: LeaderGains, es: ExtendedSystem) -> _Tables:
    K = s.grid.steps
    dt = s.grid.dt
    n, m, N = s.dims.n, s.dims.m, s.dims.N
    mX, KmV, offset = deterministic_layer(s, es, lg)
    P = lg.P.values
    X_drift = es.A.nodes + np.einsum("ij,kjl->kil", es.B, P)
    X_const = KmV @ es.B.T + es.f_state.nodes
    e3P = np.einsum("ij,kjl->kil", es.e3, P)
    u0_P = np.einsum("ij,kjl->kil", lg.control_map, P)
    u0_const = -np.einsum("ij,kj->ki", lg.control_map, KmV)

    F_x = np.einsum("ij,kjl->kil", fg.control_map, fg.P.values)
    mean_follower = mX[:, n:2 * n]
    F_mean = np.einsum("ij,kjl,kl->ki", fg.control_map, fg.K.values, mean_follower)

    weights = np.full(K + 1, dt)
    weights[0] = weights[K] = 0.5 * dt

    return _Tables(
        n=n,
        m=m,
        N=N,
        steps=K,
        dt=dt,
        team=s.mode is Mode.TEAM,
        weights=weights,
        xi_bar=s.follower_mean0,
        mean_state=mX,
        mean_follower=mean_follower,
        offset=offset,
        X_drift=X_drift,
        X_const=X_const,
        e3P=e3P,
        u0_P=u0_P,
        u0_const=u0_const,
        F_xT=np.ascontiguousarray(F_x.transpose(0, 2, 1)),
        F_mean=F_mean,
        RinvBt=fg.control_map,
        noise_vec=es.noise,
        A0=s.leader_dyn.A,
        B0=s.leader_dyn.B,
        f0=time_sampled(s.leader_dyn.f, s.grid),
        D0=s.leader_dyn.D,
        A_fT=np.ascontiguousarray(s.follower_dyn.A.T),
        B_fT=np.ascontiguousarray(s.follower_dyn.B.T),
        f_f=time_sampled(s.follower_dyn.f, s.grid),
        D_f=s.follower_dyn.D,
        Q0=s.leader_cost.Q,
        R0=s.leader_cost.R,
        Gamma0=s.leader_cost.Gamma,
        eta0=time_sampled(s.leader_cost.eta, s.grid),
        Q=s.follower_cost.Q,
        R=s.follower_cost.R,
        Gamma=s.follower_cost.Gamma,
        Gamma1=s.follower_cost.Gamma1,
        eta=time_sampled(s.follower_cost.eta, s.grid),
    )


def default_chunk_size(N: int, steps: int, n_paths: int) -> int:
    """Paths per chunk, capped so one chunk's increments stay around 64 MB.

    Depends only on (N, steps, n_paths) -- never on the worker count -- so
    reductions happen in the same order for any parallelism degree.
    """
    budget = int(8e6 // ((N + 1) * steps)) or 1
    return max(1, min(n_paths, min(budget, 1024)))


def _quad(y: np.ndarray, M: np.ndarray) -> np.ndarray:
    """Quadratic form along the last axis: y' M y."""
    return np.einsum("...i,ij,...j->...", y, M, y)


def _control_shift(tab: _Tables, v: np.ndarray, At: np.ndarray, Bt: np.ndarray) -> np.ndarray:
    """Euler-Maruyama response of a single state (dynamics A, B given as
    A', B') to unit control deviations v, (K+1, D, m); returns (K+1, D, n)."""
    chi = np.zeros((tab.steps + 1, v.shape[1], At.shape[0]))
    for k in range(tab.steps):
        chi[k + 1] = chi[k] + tab.dt * (chi[k] @ At + v[k] @ Bt)
    return chi


def _population_shift(s: Scenario, fg: FollowerGains, tab: _Tables, chi0: np.ndarray) -> np.ndarray:
    """Follower-state shifts caused by shifting the mean leader path by each
    column of chi0, (K+1, D, n).

    Offset and mean response are linear in the leader shift, so every column
    rides along one backward solve of the offset shift and one forward solve
    of the mean response; the shift is then marched with the same one-step
    scheme the paths use.
    """
    grid = s.grid
    dg = stage_table(grid, chi0 @ offset_terms(s)[0].T)        # drive shift; chi0 is Euler-marched
    G = s.follower_dyn.B @ tab.RinvBt
    A, P, Kf = s.follower_dyn.A, fg.P.values, fg.K.values
    Pi = riccati_stages(s, fg.Pi, aggregate_weight(s)).values
    back = StageTable(grid, np.swapaxes(A.T - Pi @ G, 1, 2))    # row-vector form of each drift
    fwd = StageTable(grid, np.swapaxes(A - G @ Pi, 1, 2))
    zero = np.zeros(chi0.shape[1:])
    dphi = integrate_backward(lambda t, p: dg.at(t) - p @ back.at(t), zero, grid).values
    dphi_st = stage_table(grid, dphi, dg.nodes - dphi @ back.nodes)
    dEbar = integrate_forward(lambda t, E: E @ fwd.at(t) - dphi_st.at(t) @ G.T, zero, grid).values
    shift = np.zeros_like(chi0)
    for k in range(tab.steps):
        du = -(shift[k] @ P[k].T + dEbar[k] @ Kf[k].T + dphi[k]) @ tab.RinvBt.T
        shift[k + 1] = shift[k] + tab.dt * (shift[k] @ tab.A_fT + du @ tab.B_fT)
    return shift


def _deviation_shifts(s: Scenario, fg: FollowerGains, tab: _Tables, dev: Deviations) -> tuple:
    """Per-node shifts, (K+1, columns, dim) each, scaled by every epsilon:
    follower-1 state and control, then leader state, population average and
    leader control."""
    K, m = tab.steps, tab.m
    for v in dev.follower + dev.leader:
        if np.shape(v) != (K + 1, m):
            raise ValueError(f"deviation directions must have shape ({K + 1}, {m})")
    v_f = np.stack(dev.follower, axis=1) if dev.follower else np.zeros((K + 1, 0, m))
    v_l = np.stack(dev.leader, axis=1) if dev.leader else np.zeros((K + 1, 0, m))

    def scaled(eps, tables):
        eps = np.asarray(eps, dtype=float)
        return (eps[None, None, :, None] * tables[:, :, None, :]).reshape(K + 1, -1, tables.shape[2])

    chi0 = _control_shift(tab, v_l, tab.A0.T, tab.B0.T)
    xi_shift = _population_shift(s, fg, tab, chi0) if dev.leader else chi0
    return (
        scaled(dev.follower_eps, _control_shift(tab, v_f, tab.A_fT, tab.B_fT)), scaled(dev.follower_eps, v_f),
        scaled(dev.leader_eps, chi0), scaled(dev.leader_eps, xi_shift), scaled(dev.leader_eps, v_l),
    )


def _follower_deviation_cost(tab, k, x0, x, u, dx, du) -> np.ndarray:
    """Trapezoid increment of the deviating follower's cost, (c, Cf)."""
    N, Q, R = tab.N, tab.Q, tab.R
    rest_x = x[:, 1:]
    x1e = x[:, 0, None] + dx
    u1e = u[:, 0, None] + du
    Sx = rest_x.sum(axis=1)[:, None] + x1e
    z = (Sx / N) @ tab.Gamma.T + (x0 @ tab.Gamma1.T)[:, None] + tab.eta[k]
    if tab.team:
        S1 = _quad(rest_x, Q).sum(axis=1)[:, None] + _quad(x1e, Q)
        Tu = _quad(u[:, 1:], R).sum(axis=1)[:, None]
        cross = np.einsum("...i,ij,...j->...", z, Q, Sx)
        integ = 0.5 * (S1 - 2.0 * cross + N * _quad(z, Q) + Tu + _quad(u1e, R)) / N
    else:
        integ = 0.5 * (_quad(x1e - z, Q) + _quad(u1e, R))
    return tab.weights[k] * integ


def _leader_deviation_cost(tab, k, x0, xbar, u0, dx0, dxbar, du0) -> np.ndarray:
    """Trapezoid increment of the leader's cost, (c, Cl)."""
    y0 = (x0[:, None] + dx0) - (xbar[:, None] + dxbar) @ tab.Gamma0.T - tab.eta0[k]
    return tab.weights[k] * 0.5 * (_quad(y0, tab.Q0) + _quad(u0[:, None] + du0, tab.R0))


def _chunk(args) -> dict:
    """March one chunk of paths: the package's one Euler-Maruyama kernel."""
    (tab, law, seed, start, stop, substeps, rows, u0_override, store_upto, shifts) = args
    nm = NoiseModel(seed)
    c = stop - start
    K, n, m, N = tab.steps, tab.n, tab.m, tab.N
    dt = tab.dt

    # One stream per (path, purpose); agent slot j reads row rows[j].  The
    # increments are stored time-major, (K, paths, N+1), so each step reads
    # one contiguous slab.
    init = np.empty((c, N + 1, n))
    dW = np.empty((K, c, N + 1))
    drawn = np.empty((N + 1, K))
    for i, p in enumerate(range(start, stop)):
        init[i] = nm.initial(p, law, N)
        nm.wiener(p, N + 1, K, dt, substeps, out=drawn)
        if rows is not None:
            init[i] = init[i, rows]
            dW[:, i] = drawn[rows].T
        else:
            dW[:, i] = drawn.T
    xi0 = init[:, 0]

    open_loop = u0_override is not None

    X = np.zeros((c, 3 * n))
    X[:, :n] = xi0
    X[:, n:2 * n] = tab.xi_bar
    x0_open = xi0.copy() if open_loop else None
    x = init[:, 1:].reshape(c * N, n)      # follower slot j of path i is row i*N + j

    J0 = np.zeros(c)
    Ji = np.zeros((c, N))
    if shifts is not None:
        fx, fu, lx, lxbar, lu = shifts
        Jf = np.zeros((c, fx.shape[1]))
        Jl = np.zeros((c, lx.shape[1]))
    # Per node, x0 | xbar | u0 stacked as rows (each summed pairwise along its
    # paths): chunk sums and centred second moments, merged by `simulate`.
    stats = np.empty((2 * n + m, c))
    node_sum = np.zeros((K + 1, 2 * n + m))
    node_m2 = np.zeros((K + 1, 2 * n + m))
    gap_sum = np.zeros(K + 1)
    phi_spread = 0.0

    n_store = max(0, min(store_upto, stop) - start)
    store = None
    if n_store > 0:
        store = {
            "x0": np.empty((n_store, K + 1, n)),
            "followers": np.empty((n_store, N, K + 1, n)),
            "xbar": np.empty((n_store, K + 1, n)),
            "u0": np.empty((n_store, K + 1, m)),
            "controls": np.empty((n_store, N, K + 1, m)),
            "X": None if open_loop else np.empty((n_store, K + 1, 3 * n)),
            "phi": np.empty((n_store, K + 1, n)),
        }

    for k in range(K + 1):
        if open_loop:
            x0 = x0_open
            phi_p = np.broadcast_to(tab.offset[k], (c, n))
            u0 = np.broadcast_to(u0_override[k], (c, m))
        else:
            x0 = X[:, :n]
            phi_p = tab.offset[k] + X @ tab.e3P[k].T
            u0 = tab.u0_const[k] - X @ tab.u0_P[k].T

        x3 = x.reshape(c, N, n)
        xbar = x3.mean(axis=1)
        u = -(np.dot(x, tab.F_xT[k]).reshape(c, N, m) + tab.F_mean[k] + (phi_p @ tab.RinvBt.T)[:, None, :])

        y0 = x0 - xbar @ tab.Gamma0.T - tab.eta0[k]
        J0 += tab.weights[k] * 0.5 * (_quad(y0, tab.Q0) + _quad(u0, tab.R0))
        y = x3 - (xbar @ tab.Gamma.T)[:, None, :] - (x0 @ tab.Gamma1.T)[:, None, :] - tab.eta[k]
        Ji += tab.weights[k] * 0.5 * (_quad(y, tab.Q) + _quad(u, tab.R))
        if shifts is not None:
            if Jf.shape[1]:
                Jf += _follower_deviation_cost(tab, k, x0, x3, u, fx[k], fu[k])
            if Jl.shape[1]:
                Jl += _leader_deviation_cost(tab, k, x0, xbar, u0, lx[k], lxbar[k], lu[k])

        stats[:n] = x0.T
        stats[n:2 * n] = xbar.T
        stats[2 * n:] = u0.T
        node_sum[k] = stats.sum(axis=1)
        centred = stats - (node_sum[k] / c)[:, None]
        node_m2[k] = np.einsum("ij,ij->i", centred, centred)
        gap_sum[k] = float(np.linalg.norm(xbar - tab.mean_follower[k], axis=1).sum())
        spread = float(np.max(np.abs(phi_p - tab.offset[k])))
        if spread > phi_spread:
            phi_spread = spread

        if store is not None:
            sl = slice(0, n_store)
            store["x0"][:, k] = x0[sl]
            store["followers"][:, :, k] = x3[sl]
            store["xbar"][:, k] = xbar[sl]
            store["u0"][:, k] = u0[sl]
            store["controls"][:, :, k] = u[sl]
            if store["X"] is not None:
                store["X"][:, k] = X[sl]
            store["phi"][:, k] = phi_p[sl]

        if k < K:
            if open_loop:
                drift0 = x0_open @ tab.A0.T + u0 @ tab.B0.T + tab.f0[k]
                x0_open = x0_open + dt * drift0 + dW[k, :, 0, None] * tab.D0
            else:
                X = X + dt * (X @ tab.X_drift[k].T + tab.X_const[k]) + dW[k, :, 0, None] * tab.noise_vec
            drift = np.dot(x, tab.A_fT) + np.dot(u.reshape(c * N, m), tab.B_fT) + tab.f_f[k]
            x = x + dt * drift + dW[k, :, 1:].reshape(c * N, 1) * tab.D_f

    return {
        "start": start,
        "J0": J0,
        "Ji": Ji,
        "Jdev": None if shifts is None else np.concatenate([Jf, Jl], axis=1),
        "node_sum": node_sum,
        "node_m2": node_m2,
        "gap_sum": gap_sum,
        "phi_spread": phi_spread,
        "store": store,
    }


def simulate(
    s: Scenario,
    fg: FollowerGains,
    lg: LeaderGains,
    n_paths: int,
    seed: int,
    *,
    workers: int = 1,
    store_paths: int = 2,
    substeps: int = 1,
    agent_permutation=None,
    u0_override=None,
    chunk_size: int | None = None,
    deviations: Deviations | None = None,
) -> EnsembleResult:
    """Simulate the closed-loop ensemble and estimate all costs.

    Identical (scenario, seed, n_paths) produce bit-identical results for any
    `workers`.  `agent_permutation` relabels follower slots onto the agent
    rows of the noise streams (exchangeability checks): slot j reads row
    agent_permutation[j - 1].  `u0_override` forces an open-loop
    leader control -- a (m,) constant or (steps+1, m) table; the follower
    layer still runs the solved feedback against the deterministic offset.
    `deviations` additionally costs open-loop deviations along the same
    paths (closed loop only); see `Deviations`.
    """
    if not 1 <= n_paths < 1 << 32:
        raise ValueError("n_paths must lie in [1, 2**32)")
    if not 0 <= seed < 1 << 64:
        raise ValueError("seed must lie in [0, 2**64)")
    require_valid(s)
    _check_grids(s, fg, lg)
    es = assemble_extended(s, fg)
    tab = _build_tables(s, fg, lg, es)
    K, n, m, N = tab.steps, tab.n, tab.m, tab.N

    rows = None
    if agent_permutation is not None:
        rows = np.concatenate(([0], np.asarray(agent_permutation, dtype=int)))
        if sorted(rows.tolist()) != list(range(N + 1)):
            raise ValueError("agent_permutation must permute 1..N")

    if u0_override is not None:
        if deviations is not None:
            raise ValueError("deviations are costed on the closed loop; drop u0_override")
        u0_override = np.asarray(u0_override, dtype=float)
        if u0_override.ndim == 1:
            u0_override = np.tile(u0_override, (K + 1, 1))
        if u0_override.shape != (K + 1, m):
            raise ValueError(f"u0_override must have shape ({K + 1}, {m})")

    shifts = None if deviations is None else _deviation_shifts(s, fg, tab, deviations)
    store_paths = max(0, min(store_paths, n_paths))
    chunk = chunk_size or default_chunk_size(N, K, n_paths)
    argses = [
        (tab, s.init, seed, start, min(start + chunk, n_paths), substeps, rows, u0_override,
         store_paths, shifts)
        for start in range(0, n_paths, chunk)
    ]
    if workers > 1 and len(argses) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            partials = list(pool.map(_chunk, argses))
    else:
        partials = [_chunk(a) for a in argses]

    J0 = np.concatenate([p["J0"] for p in partials])
    Ji = np.concatenate([p["Ji"] for p in partials])

    def total(key):
        acc = partials[0][key].copy()
        for p in partials[1:]:
            acc += p[key]
        return acc

    # Node variances: centred chunk moments merged pairwise in chunk order
    # (Chan, Golub & LeVeque 1979), so any worker count gives the same bits.
    seen = partials[0]["J0"].shape[0]
    mean, m2 = partials[0]["node_sum"] / seen, partials[0]["node_m2"].copy()
    for p in partials[1:]:
        c = p["J0"].shape[0]
        delta = p["node_sum"] / c - mean
        m2 += p["node_m2"] + delta * delta * (seen * c / (seen + c))
        mean += delta * (c / (seen + c))
        seen += c
    means = np.split(total("node_sum") / n_paths, [n, 2 * n], axis=1)
    stds = np.split(np.sqrt(m2 / n_paths), [n, 2 * n], axis=1)
    node_summary = {f"{name}_{kind}": v[i] for name, i in (("x0", 0), ("xbar", 1), ("u0", 2))
                    for kind, v in (("mean", means), ("std", stds))}

    gap = total("gap_sum") / n_paths
    phi_spread = max(p["phi_spread"] for p in partials)

    paths = []
    for p in partials:
        st = p["store"]
        if st is None:
            continue
        count = st["x0"].shape[0]
        for i in range(count):
            paths.append(
                SimPath(
                    index=p["start"] + i,
                    x0=st["x0"][i],
                    followers=st["followers"][i],
                    xbar=st["xbar"][i],
                    u0=st["u0"][i],
                    controls=st["controls"][i],
                    X=None if st["X"] is None else st["X"][i],
                    phi=st["phi"][i],
                )
            )

    def estimate(samples: np.ndarray) -> CostEstimate:
        mean = float(samples.mean())
        se = float(samples.std(ddof=1) / math.sqrt(len(samples))) if len(samples) > 1 else 0.0
        return CostEstimate(mean, se)

    Jsoc_paths = Ji.mean(axis=1)
    grid = s.grid
    return EnsembleResult(
        n_paths=n_paths,
        seed=seed,
        mode=s.mode,
        leader_cost=estimate(J0),
        social_cost=estimate(Jsoc_paths),
        follower_costs=Ji.mean(axis=0),
        follower_costs_se=Ji.std(axis=0, ddof=1) / math.sqrt(n_paths) if n_paths > 1 else np.zeros(N),
        leader_cost_paths=J0,
        social_cost_paths=Jsoc_paths,
        follower_cost_paths=Ji,
        lln_gap=GridFunction(grid, gap),
        mean_state=GridFunction(grid, tab.mean_state),
        mean_follower=GridFunction(grid, tab.mean_follower),
        offset=GridFunction(grid, tab.offset),
        phi_spread=phi_spread,
        node_summary=node_summary,
        paths=tuple(paths),
        deviation_costs=None if shifts is None else np.concatenate([p["Jdev"] for p in partials]),
    )


def estimate_costs(er: EnsembleResult) -> list[tuple[str, float, float]]:
    """Cost table rows: (name, mean, standard error)."""
    rows = [
        ("J0", er.leader_cost.mean, er.leader_cost.se),
        ("Jsoc", er.social_cost.mean, er.social_cost.se),
    ]
    for i in range(er.follower_costs.shape[0]):
        rows.append((f"J{i + 1}", float(er.follower_costs[i]), float(er.follower_costs_se[i])))
    return rows


def lln_diagnostic(
    s: Scenario, N_list, n_paths: int, seed: int, *, workers: int = 1
) -> tuple[list[tuple[int, float]], float]:
    """Mean gap between the population average and its limit at t = T/2.

    Gains are re-solved for every follower count (the sources carry 1/N
    factors).  Returns ((N, gap) rows, fitted log-log slope); the gap decays
    like N^-1/2 when the de-aggregation is wired correctly.
    """
    rows = []
    mid = s.grid.steps // 2
    for N in N_list:
        sN = replace(s, dims=replace(s.dims, N=int(N)))
        fg = solve_follower_gains(sN)
        lg = solve_leader_gains(sN, fg)
        er = simulate(sN, fg, lg, n_paths, seed, workers=workers, store_paths=0)
        rows.append((int(N), float(er.lln_gap.values[mid])))
    logs = np.log([r[0] for r in rows])
    gaps = np.log([r[1] for r in rows])
    slope = float(np.polyfit(logs, gaps, 1)[0])
    return rows, slope
