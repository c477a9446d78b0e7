"""Euler-Maruyama ensemble simulation of the closed-loop leader/follower system.

The deterministic layer every path shares (the mean of the extended leader
state, the mean costate M E[X] + V and its third block, the follower
offset) comes with the leader gains (`leader.LeaderGains.mean`,
`LeaderGains.mean_costate`, `LeaderGains.offset`).  Each path marches the
leader's own state x0 and all N followers with Euler-Maruyama on the same
grid, evaluates both feedback laws node by node, and accumulates the
quadratic costs with the trapezoid rule.  Of leader P the leader's feedback
reads only P00, the block on x0.  The same march optionally costs open-loop
control deviations of one follower and of the leader (`Deviations`): the
dynamics are linear, so a deviated path is the baseline path plus a
deterministic shift, and each direction's pathwise cost slope is
accumulated along the baseline paths in the same pass.  The followers'
answer to a leader shift is `follower.follower_response`, one column per
direction.  Stored paths (`SimPath`) hold every agent's trajectory and
control.

Paths run in chunks; without a pool they share one draw buffer.  Within a
chunk the followers form one follower-major array, so each step is a
handful of flat array operations.  Exchangeability checks (`simulate`'s
`relabel`) march paths' followers again, rows relabeled, as extra lanes of
the same arrays on the same draws.  The leader does not see the followers:
it is marched once per path, paths as columns, a block of steps ahead; its
reads, the slope sums and the cross-path reductions run per block (`_chunk`).

Noise streams are counter-derived: path p draws from one SFC64 stream per
purpose (initial states, increments), seeded purely by (seed, p, purpose),
with one row per agent.  Results are therefore bit-identical for any worker
count, path p never depends on how many paths run before it, and agent j's
row never depends on how many followers there are.  Agent 0 is the leader;
the population average is never sampled directly -- it is the exact
arithmetic mean of the follower states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .follower import FollowerGains, follower_response, sources
from .integrators import BlowUpError, GridFunction, StageTable, affine_scan, matvec, stage_table
from .leader import LeaderGains, solve_mean_state  # the last re-exported for perfbench
from .model import InitialLaw, Mode, Scenario, require_valid, time_sampled

__all__ = [
    "NoiseModel",
    "Deviations",
    "SimPath",
    "CostEstimate",
    "EnsembleResult",
    "GridMismatchError",
    "solve_mean_state",
    "simulate",
    "estimate_costs",
]

PURPOSE_INIT = 0
PURPOSE_NOISE = 1
# Recorded in manifests: outputs drawn under another scheme are not comparable.
NOISE_SCHEME = "sfc64:seedsequence(seed,path,purpose):agent-rows"


class GridMismatchError(ValueError):
    """Gain tables and scenario grid disagree."""


@dataclass(frozen=True)
class NoiseModel:
    """Counter-derived noise streams, one per (path, purpose).

    Each stream is an SFC64 generator seeded by SeedSequence([seed, path,
    purpose]); nothing about one stream depends on any other stream having
    been consumed.  A stream holds one row per agent (row 0 the leader, row j
    follower j), drawn in row order, so agent j's row depends only on the
    rows before it and never on the follower count.
    """

    seed: int

    def generator(self, path: int, purpose: int) -> np.random.Generator:
        if path < 0 or path >= 1 << 32:
            raise ValueError("path index out of the 32-bit stream range")
        return np.random.Generator(np.random.SFC64(np.random.SeedSequence([self.seed, path, purpose])))

    def initial(self, path: int, law: InitialLaw, N: int) -> np.ndarray:
        """Initial states of one path, (N+1, n): the leader, then followers 1..N."""
        g = self.generator(path, PURPOSE_INIT)
        return np.concatenate([law.leader.sample(g, 1), law.follower.sample(g, N)])

    def wiener(self, path: int, agents: int, steps: int, dt: float, substeps: int = 1,
               out: np.ndarray | None = None) -> np.ndarray:
        """Brownian increments of one path over each grid step, (agents, steps).

        With substeps > 1 the stream is drawn at resolution dt/substeps and
        aggregated, so runs at different step counts that share the same fine
        resolution consume the same underlying Brownian path.  `out`, when
        given, receives the increments.
        """
        g = self.generator(path, PURPOSE_NOISE)
        if substeps == 1:
            raw = g.standard_normal((agents, steps), out=out)
            raw *= math.sqrt(dt)
            return raw
        fine = g.standard_normal((agents, steps * substeps)) * math.sqrt(dt / substeps)
        return np.sum(fine.reshape(agents, steps, substeps), axis=2, out=out)


@dataclass(frozen=True)
class Deviations:
    """Open-loop control deviations costed along the ensemble's own paths.

    Follower slot 1 deviates by eps * v(t) for every follower direction v;
    everyone else keeps the solved feedback, so only the 1/N
    population-average shift feeds back.  A leader deviation shifts the
    leader path, and the follower population shifts by its deterministic
    reaction to the shifted mean leader path.  Directions are (steps+1, m)
    tables.  The dynamics are linear and the costs quadratic, so each
    path's cost moves by exactly eps a_p + eps^2 b: `EnsembleResult`
    holds the slopes a_p (`deviation_slopes`, one column per direction) and
    the curvatures b (`deviation_curvature`, one per direction, the same on
    every path), follower directions first (the social cost in team mode,
    the deviator's own cost in game mode), then leader directions (the
    leader's cost).
    """

    follower: tuple = ()
    leader: tuple = ()


@dataclass(frozen=True)
class SimPath:
    """Full trajectories of one stored path."""

    index: int
    x0: np.ndarray           # (K+1, n)
    followers: np.ndarray    # (N, K+1, n)
    xbar: np.ndarray         # (K+1, n) exact arithmetic follower mean
    u0: np.ndarray           # (K+1, m)
    controls: np.ndarray     # (N, K+1, m)


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
    node_summary: dict
    paths: tuple
    deviation_slopes: np.ndarray | None = None     # (n_paths, directions of `Deviations`)
    deviation_curvature: np.ndarray | None = None  # (directions,)
    relabeled_cost_paths: np.ndarray | None = None  # (count, N), follower costs of the lanes of `relabel`


@dataclass(frozen=True)
class _Tables:
    """Per-node precomputations shared by every path.

    Follower states are rows, so their products are `row @ table` with the
    matrices stored transposed (suffix T): one Euler-Maruyama step of z with
    control u is z @ (I + dt A') + u @ (dt B') + dt f + dW D.  The leader's
    paths are columns, read by `_dot(table, columns)` off untransposed tables.
    """

    weights: np.ndarray       # trapezoid weights, (K+1,)
    mean_follower: np.ndarray  # (K+1, n)  block 2 of the leader's mean path
    x0_step: np.ndarray       # (K+1, n, n)    leader closed loop: I + dt A0' - u0_P' dt B0'
    x0_const: np.ndarray      # (K+1, n)       u0_const dt B0' + dt f0
    u0_P: np.ndarray          # (K+1, m, n)    u0 = u0_const - u0_P x0
    u0_const: np.ndarray      # (K+1, m)
    F_xT: np.ndarray          # (K+1, n, m)    follower feedback on the own state
    u_const: np.ndarray       # (K+1, m)       follower feedback constant
    RinvBtT: np.ndarray       # (n, m)
    step0: tuple              # leader (I + dt A0', dt B0', dt f0 per node, D0)
    step_f: tuple             # follower (I + dt A', dt B', dt f per node, D)
    Gamma0T: np.ndarray
    eta0: np.ndarray          # (K+1, n)
    GammaT: np.ndarray
    eta: np.ndarray           # (K+1, n)
    Qw: np.ndarray            # (K+1, n, n)  half the trapezoid weight times Q
    Rw: np.ndarray            # (K+1, m, m)


def _build_tables(s: Scenario, fg: FollowerGains, lg: LeaderGains) -> _Tables:
    K, dt, n = s.grid.steps, s.grid.dt, s.dims.n
    offset = lg.offset.values

    def T(a):
        return np.ascontiguousarray(np.swapaxes(a, -1, -2))

    mean_follower = lg.mean.nodes[:, n:2 * n]
    F_mean = np.einsum("ij,kjl,kl->ki", fg.control_map, fg.K.values, mean_follower)
    RinvBtT = T(fg.control_map)

    weights = np.full(K + 1, dt)
    weights[0] = weights[K] = 0.5 * dt
    half_w = 0.5 * weights[:, None, None]

    def step(dyn):
        eye = np.eye(dyn.A.shape[0])
        return eye + dt * T(dyn.A), dt * T(dyn.B), dt * time_sampled(dyn.f, s.grid), dyn.D

    step0, step_f = step(s.leader_dyn), step(s.follower_dyn)
    # Only x0 is random in X: u0 = -R0^-1 B0' (P00 (x0 - E[x0]) + E[Y]_0).
    P00 = lg.P.values[:, :n, :n]
    u0_P = lg.control_map @ P00
    u0_const = -matvec(lg.control_map, lg.mean_costate[:, :n] - matvec(P00, lg.mean.nodes[:, :n]))

    return _Tables(
        weights=weights,
        mean_follower=mean_follower,
        x0_step=step0[0] - T(u0_P) @ step0[1],
        x0_const=u0_const @ step0[1] + step0[2],
        u0_P=u0_P,
        u0_const=u0_const,
        F_xT=T(np.einsum("ij,kjl->kil", fg.control_map, fg.P.values)),
        u_const=-(F_mean + _dot(offset, RinvBtT)),
        RinvBtT=RinvBtT,
        step0=step0,
        step_f=step_f,
        Gamma0T=T(s.leader_cost.Gamma),
        eta0=time_sampled(s.leader_cost.eta, s.grid),
        GammaT=T(s.follower_cost.Gamma),
        eta=time_sampled(s.follower_cost.eta, s.grid),
        Qw=half_w * s.follower_cost.Q,
        Rw=half_w * s.follower_cost.R,
    )


_BLOCK = 64     # time steps per block of leader-side and cross-path work


def default_chunk_size(N: int, steps: int, n_paths: int) -> int:
    """Paths per chunk: the fewest equal chunks whose buffers stay near 64 MB.

    A path holds (N+1) x steps increments, one time-major block of them and
    the block's leader-side work, taken as another block.  Depends only on
    (N, steps, n_paths) -- never on the worker count -- so reductions happen
    in the same order for any parallelism degree.
    """
    budget = max(1, min(1024, int(8e6 // ((N + 1) * (steps + 2 * _BLOCK)))))
    return -(-n_paths // -(-n_paths // budget))


def _ordered_sum(a: np.ndarray) -> np.ndarray:
    """Sum over the leading axis, added in index order for any trailing shape.

    numpy adds a lone contiguous column pairwise but several columns in
    order, so a plain sum would let a chunk of one path round differently.
    """
    if len(a) > 1 and a[0].size == 1:
        return np.add.accumulate(a, axis=0)[-1]
    return a.sum(axis=0)


def _dot(a: np.ndarray, M: np.ndarray) -> np.ndarray:
    """Rows of a times M, (..., d) @ (d, k) or per node (B, c, d) @ (B, d, k).

    One broadcast multiply-add per column of a, in column order: unlike a
    BLAS product, an entry rounds alike for any row or column count.  Used
    where paths are rows or columns; follower products (N times the rows) keep BLAS.
    """
    out = a[..., :1] * M[..., 0, None, :]
    for i in range(1, a.shape[-1]):
        out += a[..., i:i + 1] * M[..., i, None, :]
    return out


def _control_shift(v: np.ndarray, step: tuple) -> np.ndarray:
    """Euler-Maruyama response of a single state (step tables `step`, as in
    `_Tables`) to unit control deviations v, (K+1, D, m); returns (K+1, D, n)."""
    A_step, dtBT = step[:2]
    return affine_scan(np.broadcast_to(A_step, (len(v) - 1,) + A_step.shape), v[:-1] @ dtBT)


def _population_shift(s: Scenario, fg: FollowerGains, tab: _Tables, chi0: np.ndarray) -> np.ndarray:
    """Follower-state shifts caused by shifting the mean leader path by each
    column of chi0, (K+1, D, n).

    Offset and mean response are linear in the leader shift, so every column
    rides along one `follower_response` to the drive shift, with no forcing;
    the shift is then marched with the same one-step scheme the paths use,
    its feedback folded into each step's map.
    """
    # Column form: each column of the (n, D) states is one direction.
    dg = stage_table(s.grid, sources(s).W @ np.swapaxes(chi0, 1, 2))   # drive shift; chi0 is Euler-marched
    zero = np.zeros(dg.values.shape[1:])
    phi, mean = follower_response(s, fg.Pi, dg, StageTable(s.grid, np.zeros_like(dg.values)), zero)
    dphi, dEbar = np.swapaxes(phi.nodes, 1, 2)[:-1], np.swapaxes(mean, 1, 2)[:-1]
    A_step, dtBT = tab.step_f[:2]
    gain = tab.RinvBtT @ dtBT       # du @ dtBT = -(feedback terms) @ gain
    P, Kf = fg.P.values[:-1], fg.K.values[:-1]
    return affine_scan(A_step - P.mT @ gain, -(dEbar @ Kf.mT + dphi) @ gain)


def _deviation_shifts(s: Scenario, fg: FollowerGains, tab: _Tables, dev: Deviations) -> tuple:
    """Per-node shifts of the unit deviations, (K+1, directions, dim) each:
    follower-1 state and control, then leader state, population average and
    leader control."""
    K, m = s.grid.steps, s.dims.m
    v_f = np.stack(dev.follower, axis=1) if dev.follower else np.zeros((K + 1, 0, m))
    v_l = np.stack(dev.leader, axis=1) if dev.leader else np.zeros((K + 1, 0, m))
    chi0 = _control_shift(v_l, tab.step0)
    xi_shift = _population_shift(s, fg, tab, chi0) if dev.leader else chi0
    return _control_shift(v_f, tab.step_f), v_f, chi0, xi_shift, v_l


def _slope_tables(s: Scenario, tab: _Tables, shifts: tuple) -> tuple:
    """What the kernel reads to cost the unit deviations, and their curvatures.

    A deviation by eps moves a cost's tracking errors y by eps dy and its
    controls u by eps du, so the path's cost moves by eps a + eps^2 b with
    a = sum_k w_k (y Q dy + u R du), read off the path, and
    b = 1/2 sum_k w_k (dy Q dy + du R du), the same on every path (Q and R
    are symmetric).  A table holds w_k Q dy per node and direction, as
    (K+1, directions, dim), so the kernel adds table @ y for states as columns.

    The deviating follower moves the tracking target of everyone by
    g = Gamma dx / N.  Game mode costs the deviator: dy = dx - g.  Team mode
    costs the social average, where every other follower's error also moves
    by -g; the kernel reads the summed error of all N followers as
    N (xbar - z), so the follower tables are (dx, du, -g) with 1/N on the
    first two.
    """
    fx, fu, lx, lxbar, lu = shifts
    N, w = s.dims.N, tab.weights
    Q, R, Q0, R0 = s.follower_cost.Q, s.follower_cost.R, s.leader_cost.Q, s.leader_cost.R

    def table(d, M):
        return w[:, None, None] * (d @ M)

    def curvature(*pairs):
        return 0.5 * sum(np.einsum("k,kdi,kdi->d", w, d @ M, d) for d, M in pairs)

    g = fx @ tab.GammaT / N
    dy1 = fx - g
    dy0 = lx - lxbar @ tab.Gamma0T
    if s.mode is Mode.TEAM:
        follower = (table(fx, Q) / N, table(fu, R) / N, -table(g, Q))
        curv_f = (curvature((dy1, Q), (fu, R)) + (N - 1) * curvature((g, Q))) / N
    else:
        follower = (table(dy1, Q), table(fu, R), None)
        curv_f = curvature((dy1, Q), (fu, R))
    tables = follower + (table(dy0, Q0), table(lu, R0))
    return tables, np.concatenate([curv_f, curvature((dy0, Q0), (lu, R0))])


@np.errstate(over="ignore", invalid="ignore")     # `simulate` reports overflowed paths
def _chunk(args, dW: np.ndarray | None = None) -> dict:
    """March one chunk of paths: the package's one Euler-Maruyama kernel.

    The followers of the c paths run as lanes, followed by r relabeled lanes:
    copies of the chunk's paths below the relabel count on the same draws,
    slot j reading agent row rows[j].  Follower states are one (N L, n) array,
    follower-major: row j L + i is follower j of lane i, so the population mean
    is a sum over the leading axis and every per-path term broadcasts along
    contiguous rows; their feedback constant is one table.  The leader never
    sees the followers, so its state x0 is marched once per path through its
    closed-loop tables, as (n, c) columns; lane i reads the leader of path lanes[i].
    That march, everything read off it and every reduction run one time block
    at a time; each block first moves its increments from the path-major draw
    buffer into a time-major one.  A follower step only files follower 1's
    errors; the block forms their deviation slopes and, like the leader's,
    adds them in step order (`_ordered_sum`).  `dW`, when given, is a draw
    buffer of at least c paths, reused across chunks.
    """
    (tab, s, seed, start, stop, substeps, (rows, count), store_upto, slopes) = args
    nm = NoiseModel(seed)
    c = stop - start
    r = max(0, min(count, stop) - start)      # relabeled lanes
    lanes = np.r_[:c, :r]
    L = c + r
    K, n, m, N = s.grid.steps, s.dims.n, s.dims.m, s.dims.N
    NL = N * L
    Q0, R0, G0, G1 = s.leader_cost.Q, s.leader_cost.R, s.leader_cost.Gamma, s.follower_cost.Gamma1

    # One stream per (path, purpose), drawn straight into its slot of the
    # path-major buffer.
    init = np.empty((c, N + 1, n))
    dW = np.empty((c, N + 1, K)) if dW is None else dW[:c]
    for i, p in enumerate(range(start, stop)):
        init[i] = nm.initial(p, s.init, N)
        nm.wiener(p, N + 1, K, s.grid.dt, substeps, out=dW[i])

    # The leader's state x0, one (n, c) block per node: one step is
    # x0_step[k]' x0 + x0_const[k] + D0 dW0, `_dot`'s products in its order
    # summed from one (n, n, c) temporary: 1.5 to 1.7 times faster than `_dot`.
    B = min(_BLOCK, K + 1)
    leads = np.zeros((B + 1, n, c))
    leads[0] = init[:, 0].T
    followers = np.concatenate([init[:, 1:], init[:r, rows[1:]]])
    x = np.ascontiguousarray(followers.transpose(1, 0, 2)).reshape(NL, n)
    A_step, dtBT, dtf, D = tab.step_f

    J0 = np.zeros(c)
    acc_x = np.zeros((NL, n))      # per follower and state component: sum_k w_k/2 y (Q y)
    acc_u = np.zeros((NL, m))
    if slopes is not None:
        Fy, Fu, Fz, Ly, Lu = slopes
        Sf = np.zeros((Fy.shape[1], c))     # per direction and path: sum_k w_k (y Q dy + u R du)
        Sl = np.zeros((Ly.shape[1], c))
        y1s, u1s = np.empty((B, n, c)), np.empty((B, m, c))     # follower 1 of every path, per step
    node_sum = np.zeros((K + 1, 2 * n + m))     # x0 | xbar | u0 per node
    node_m2 = np.zeros((K + 1, 2 * n + m))
    gap_sum = np.zeros(K + 1)

    # Stored paths, by `SimPath` field: (paths, [N,] K+1, dim).
    n_store = max(0, min(store_upto, stop) - start)
    store = None
    if n_store > 0:
        dims = {"x0": (n,), "followers": (N, n), "xbar": (n,), "u0": (m,), "controls": (N, m)}
        store = {key: np.empty((n_store,) + d[:-1] + (K + 1, d[-1])) for key, d in dims.items()}

    inc = np.empty((B, N + 1, L))       # one block of increments, time-major
    xbars, zs = np.empty((B, L, n)), np.empty((B, L, n))
    for k0 in range(0, K + 1, B):
        nb = min(B, K + 1 - k0)
        ks = slice(k0, k0 + nb)
        steps = min(nb, K - k0)
        for j in range(N + 1):
            np.copyto(inc[:steps, j, :c], dW[:, j, k0:k0 + steps].T)
            if j:
                np.copyto(inc[:steps, j, c:], dW[:r, rows[j], k0:k0 + steps].T)

        if k0:
            leads[0] = leads[B]
        drive = inc[:steps, 0, None, :c] * tab.step0[3][:, None] + tab.x0_const[k0:k0 + steps, :, None]
        for b in range(steps):
            np.add(_ordered_sum(tab.x0_step[k0 + b, :, :, None] * leads[b, :, None]), drive[b], out=leads[b + 1])
        x0 = leads[:nb]      # (nb, n, c)
        # The leader part of the followers' target, as (nb, L, n) rows that
        # `take`, unlike `[:, lanes]`, lays out contiguously.
        target = (_dot(G1, x0) + tab.eta[ks, :, None]).transpose(0, 2, 1).take(lanes, axis=1)

        for b in range(nb):
            k = k0 + b
            x3 = x.reshape(N, L, n)
            xbar = np.divide(_ordered_sum(x3), N, out=xbars[b])
            u3 = np.dot(x, tab.F_xT[k]).reshape(N, L, m)
            np.subtract(tab.u_const[k], u3, out=u3)
            u = u3.reshape(NL, m)
            z = np.add(_dot(xbar, tab.GammaT), target[b], out=zs[b])
            y = (x3 - z).reshape(NL, n)
            acc_x += np.dot(y, tab.Qw[k]) * y
            acc_u += np.dot(u, tab.Rw[k]) * u
            if slopes is not None:
                y1s[b], u1s[b] = y[:c].T, u[:c].T
            if store is not None:
                store["followers"][:, :, k] = x3[:, :n_store].swapaxes(0, 1)
                store["controls"][:, :, k] = u3[:, :n_store].swapaxes(0, 1)
            if b < steps:
                x = np.dot(x, A_step)
                x += np.dot(u, dtBT)
                x += dtf[k]
                x += inc[b, 1:].reshape(NL, 1) * D

        # From here on only the chunk's own paths, the first c lanes, as columns.
        xbar, z = xbars[:nb, :c].transpose(0, 2, 1), zs[:nb, :c].transpose(0, 2, 1)
        u0 = tab.u0_const[ks, :, None] - _dot(tab.u0_P[ks], x0)
        y0 = x0 - _dot(G0, xbar) - tab.eta0[ks, :, None]
        quad = (_dot(Q0.T, y0) * y0).sum(1) + (_dot(R0.T, u0) * u0).sum(1)
        J0 += _ordered_sum(0.5 * tab.weights[ks, None] * quad)
        if slopes is not None:
            dSf = _dot(Fy[ks], y1s[:nb]) + _dot(Fu[ks], u1s[:nb])
            if Fz is not None:
                dSf += _dot(Fz[ks], xbar - z)
            Sf += _ordered_sum(dSf)
            Sl += _ordered_sum(_dot(Ly[ks], y0) + _dot(Lu[ks], u0))
        # Node sums and centred second moments, each summed pairwise along its paths.
        stats = np.concatenate([x0, xbar, u0], axis=1)
        node_sum[ks] = stats.sum(axis=2)
        centred = stats - (node_sum[ks] / c)[:, :, None]
        node_m2[ks] = (centred * centred).sum(axis=2)
        gap_sum[ks] = np.linalg.norm(xbar - tab.mean_follower[ks, :, None], axis=1).sum(axis=1)
        if store is not None:
            for key, value in (("x0", x0), ("xbar", xbar), ("u0", u0)):
                store[key][:, ks] = value[:, :, :n_store].transpose(2, 0, 1)

    Ji = (acc_x.sum(axis=1) + acc_u.sum(axis=1)).reshape(N, L)
    return {
        "start": start,
        "J0": J0,
        "Ji": Ji[:, :c],
        "relabeled": Ji[:, c:],
        "slopes": None if slopes is None else np.concatenate([Sf, Sl]).T,
        "node_sum": node_sum,
        "node_m2": node_m2,
        "gap_sum": gap_sum,
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
    relabel=None,
    deviations: Deviations | None = None,
) -> EnsembleResult:
    """Simulate the closed-loop ensemble and estimate all costs.

    Identical (scenario, seed, n_paths) produce bit-identical results for any
    `workers`.  `relabel=(perm, count)` marches paths 0..count-1 a second
    time in the same pass, on the same draws, with follower slot j on agent
    row perm[j - 1] (exchangeability checks); their follower costs come back
    as `relabeled_cost_paths` and nothing else changes.  `deviations`
    additionally costs open-loop deviations along the same paths; see
    `Deviations`.  Of leader `P` it reads only P00, the block on x0, and it
    takes P to be zero on X's third block, as `verify` and the gains loader
    gate it (`table_identities`).  A non-finite cost, node statistic, gap or
    deviation slope raises `BlowUpError`, timed at the first node with a
    non-finite statistic, or at T.
    """
    if not 1 <= n_paths < 1 << 32:
        raise ValueError("n_paths must lie in [1, 2**32)")
    if not 0 <= seed < 1 << 64:
        raise ValueError("seed must lie in [0, 2**64)")
    if substeps < 1:
        raise ValueError("substeps must be at least 1")
    if workers < 1 or store_paths < 0:
        raise ValueError("workers must be at least 1 and store_paths at least 0")
    K, n, N = s.grid.steps, s.dims.n, s.dims.N
    perm, count = relabel or (range(1, N + 1), 0)
    rows = np.concatenate(([0], np.asarray(perm, dtype=int)))
    if sorted(rows.tolist()) != list(range(N + 1)):
        raise ValueError("relabel's permutation must permute 1..N")
    if not 0 <= count <= n_paths:
        raise ValueError("relabel's count must lie in [0, n_paths]")
    if deviations is not None and any(np.shape(v) != (K + 1, s.dims.m)
                                      for v in deviations.follower + deviations.leader):
        raise ValueError(f"deviation directions must have shape ({K + 1}, {s.dims.m})")
    require_valid(s)
    if fg.grid != s.grid or lg.grid != s.grid:
        raise GridMismatchError("gain tables were solved on a different grid than the scenario")
    tab = _build_tables(s, fg, lg)

    slopes = curvature = None
    if deviations is not None:
        slopes, curvature = _slope_tables(s, tab, _deviation_shifts(s, fg, tab, deviations))
    store_paths = min(store_paths, n_paths)
    chunk = default_chunk_size(N, K, n_paths)
    argses = [
        (tab, s, seed, start, min(start + chunk, n_paths), substeps, (rows, count), store_paths, slopes)
        for start in range(0, n_paths, chunk)
    ]
    if workers > 1 and len(argses) > 1:
        from concurrent.futures import ProcessPoolExecutor     # only pooled runs pay for multiprocessing
        with ProcessPoolExecutor(max_workers=workers) as pool:
            partials = list(pool.map(_chunk, argses))       # each task draws into a buffer of its own
    else:
        dW = np.empty((min(chunk, n_paths), N + 1, K))      # reused by every chunk in turn
        partials = [_chunk(a, dW) for a in argses]

    with np.errstate(over="ignore", invalid="ignore"):     # overflowed paths are reported below
        # Per-path costs, (N + 2, paths): the leader's, the social cost, then followers
        # 1..N; the follower cost means and sums add in one order for any chunking.
        Ji, relabeled = (np.concatenate([p[key] for p in partials], axis=1) for key in ("Ji", "relabeled"))
        costs = np.vstack([np.concatenate([p["J0"] for p in partials]), _ordered_sum(Ji) / N, Ji])
        cost_mean = costs.mean(axis=1)
        cost_se = costs.std(axis=1, ddof=1) / math.sqrt(n_paths) if n_paths > 1 else np.zeros(N + 2)

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
        node_mean, gap = total("node_sum") / n_paths, total("gap_sum") / n_paths
    dev_slopes = None if slopes is None else np.concatenate([p["slopes"] for p in partials])

    node_ok = np.isfinite(np.column_stack([node_mean, m2, gap])).all(axis=1)
    if not node_ok.all() or not all(np.isfinite(a).all() for a in (costs, cost_mean, cost_se, dev_slopes)
                                    if a is not None):
        t = s.grid.nodes[np.argmin(node_ok)] if not node_ok.all() else s.grid.horizon
        raise BlowUpError(t, math.inf, f"simulated paths overflowed at t={t:.6g}: a cost, "
                          "node statistic, gap or deviation slope is not finite")

    means = np.split(node_mean, [n, 2 * n], axis=1)
    stds = np.split(np.sqrt(m2 / n_paths), [n, 2 * n], axis=1)
    node_summary = {f"{name}_{kind}": v[i] for name, i in (("x0", 0), ("xbar", 1), ("u0", 2))
                    for kind, v in (("mean", means), ("std", stds))}
    paths = [SimPath(index=p["start"] + i, **{key: v[i] for key, v in st.items()})
             for p in partials if (st := p["store"]) is not None for i in range(len(st["x0"]))]
    return EnsembleResult(
        n_paths=n_paths,
        seed=seed,
        mode=s.mode,
        leader_cost=CostEstimate(float(cost_mean[0]), float(cost_se[0])),
        social_cost=CostEstimate(float(cost_mean[1]), float(cost_se[1])),
        follower_costs=cost_mean[2:],
        follower_costs_se=cost_se[2:],
        leader_cost_paths=costs[0],
        social_cost_paths=costs[1],
        follower_cost_paths=costs[2:].T,
        lln_gap=GridFunction(s.grid, gap),
        node_summary=node_summary,
        paths=tuple(paths),
        deviation_slopes=dev_slopes,
        deviation_curvature=curvature,
        relabeled_cost_paths=None if relabel is None else relabeled.T,
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

