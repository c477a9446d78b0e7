"""Fixed-step integrators and grid-sampled functions shared by every solver.

Every gain table lives on one fixed grid, solved backward from its terminal
value; the mean-field layer runs forward on the same grid, so every
produced table lines up node for node.  Adaptive steppers are deliberately
not used: a shared fixed grid keeps cross-module identities exact to the
scheme's order instead of to interpolation error.

Every Riccati equation, follower and leader, marches by one kernel
(`riccati_march`): the equation is Y U^-1 of a linear system (Radon's
lemma), and each node of a block of steps is one linear-fractional update
of the block's first node by the increment of the system's map between
them.  Constant-coefficient equations of the follower family step by the
exact map e^(-dt H) (`riccati_flow`), so their node values carry rounding
error only; the leader stage's time-varying systems compose each step's
classical RK4 map, built from the stage tables (`rk4_increments`).  Every
linear equation y' = L y + c marches by one routine, `integrate_linear`,
through each step's precomputed RK4 affine map, and returns its solution
as a stage table.
The closure RK4 marches (`integrate_backward`, `integrate_forward`) remain
for independent cross-checks.

Coefficients that vary in time are read from stage tables: values at every
node and every step midpoint, the only times an RK4 step evaluates
anything.  A table solved from an ODE gets cubic-Hermite midpoints from its
own slopes (Hairer, Norsett & Wanner, Solving ODEs I, II.6), which keeps
the consuming RK4 pass at 4th order: a linear table from `linear_stages`,
whose slopes are L y + c at the nodes, a Riccati table from its caller's
slopes; sampled data gets the linear midpoint.  Stage tables depend on
node values only.

The scaling-and-squaring matrix exponential (degree-13 rational core) backs
the follower flow, through the increment form `expm_increment`, and the
exact one-step discretization of the dynamic-programming oracle
(`equilibrium.dp_gain_oracle`).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import TimeGrid, time_sampled

__all__ = [
    "BlowUpError",
    "GridFunction",
    "StageTable",
    "stage_table",
    "sampled_stages",
    "matvec",
    "linear_stages",
    "integrate_backward",
    "integrate_forward",
    "integrate_linear",
    "rk4_increments",
    "FlowHealth",
    "riccati_march",
    "riccati_flow",
    "expm",
    "expm_increment",
    "read_grid_csv",
]

# Escape threshold relative to the terminal/initial data; beyond this the
# equation is declared to have no solution on the horizon.
BLOWUP_FACTOR = 1e12

# Steps per block: the step maps built at once, and the steps of a Riccati
# march solved at once from one anchor, the block's first node.
STEP_BLOCK = 64
MAP_CONDITION = 1e4     # a Riccati march's block ends earlier past this (`_block_maps`)


class BlowUpError(RuntimeError):
    """Integration failed numerically; `time` reports where, `norm` how badly.

    The default message describes an escape to infinity; callers detecting a
    different integration failure (e.g. accuracy collapse) pass their own.
    """

    def __init__(self, time: float, norm: float, message: str | None = None):
        super().__init__(message or f"integration blew up at t={time:.6g} (norm {norm:.3e})")
        self.time = float(time)
        self.norm = float(norm)


@dataclass(frozen=True)
class GridFunction:
    """A vector- or matrix-valued function sampled on every node of a TimeGrid.

    values[k] is the value at t_k = k * dt; the array is frozen after
    construction and must be finite everywhere (a NaN/Inf poisons the whole
    function and is rejected).
    """

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape[0] != self.grid.steps + 1:
            raise ValueError(
                f"grid function needs {self.grid.steps + 1} node values, got {vals.shape[0]}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("grid function is poisoned: non-finite entries")
        vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @property
    def item_shape(self) -> tuple:
        return self.values.shape[1:]

    def to_csv(self, path, prefix: str = "v") -> None:
        """Write one row per node: t, then the entries in row-major order."""
        shape = self.item_shape
        if len(shape) == 1:
            header = [f"{prefix}_{i}" for i in range(shape[0])]
        elif len(shape) == 2:
            header = [f"{prefix}_{i}_{j}" for i in range(shape[0]) for j in range(shape[1])]
        else:
            header = [f"{prefix}_{i}" for i in range(int(np.prod(shape)) or 1)]
        rows = np.column_stack([self.grid.nodes, self.values.reshape(self.grid.steps + 1, -1)]).tolist()
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(",".join(["t"] + header) + "\n")
            fh.writelines(",".join(map(repr, row)) + "\n" for row in rows)


@dataclass(frozen=True)
class StageTable:
    """A function of time at every stage time of an RK4 step on `grid`.

    values[2k] is the value at node t_k and values[2k + 1] the value at the
    step midpoint t_k + dt/2.  Built by `stage_table`.
    """

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        rows = 2 * self.grid.steps + 1
        if np.shape(self.values)[0] != rows:
            raise ValueError(f"stage table needs {rows} rows, got {np.shape(self.values)[0]}")
        object.__setattr__(self, "_rows_per_time", 2.0 / self.grid.dt)

    @property
    def nodes(self) -> np.ndarray:
        return self.values[::2]

    def row(self, t: float) -> int:
        """Row of the stage time t (a node or a step midpoint); tables on one
        grid share it."""
        return int(t * self._rows_per_time + 0.5)

    def at(self, t: float) -> np.ndarray:
        """Value at the stage time t (a node or a step midpoint)."""
        return self.values[self.row(t)]


def stage_table(grid: TimeGrid, values, slopes=None) -> StageTable:
    """Node values plus step midpoints.

    With `slopes` (the derivative at each node, from the equation the values
    solve) the midpoint is the cubic-Hermite value
    (y_k + y_{k+1}) / 2 + (dt / 8) (y'_k - y'_{k+1}); without, the linear mean.
    """
    y = np.asarray(values, dtype=float)
    out = np.empty((2 * y.shape[0] - 1,) + y.shape[1:])
    out[::2] = y
    mid = 0.5 * (y[:-1] + y[1:])
    if slopes is not None:
        mid += (grid.dt / 8.0) * (slopes[:-1] - slopes[1:])
    out[1::2] = mid
    return StageTable(grid, out)


def matvec(L: np.ndarray, y: np.ndarray) -> np.ndarray:
    """L y at every row: L is a stack (rows, d, d) or one (d, d) matrix, y
    holds vectors (rows, d) or column blocks (rows, d, p)."""
    if y.ndim == 3:
        return L @ y
    return y @ L.T if L.ndim == 2 else np.einsum("kij,kj->ki", L, y)


def linear_stages(drift: StageTable, forcing: StageTable, y) -> StageTable:
    """Stage table of node values y of dy/dt = L y + c (`drift` holds L,
    `forcing` c): Hermite midpoints from the slopes L y + c at the nodes."""
    y = np.asarray(y, dtype=float)
    return stage_table(drift.grid, y, matvec(drift.nodes, y) + forcing.nodes)


def sampled_stages(value, grid: TimeGrid) -> StageTable:
    """Stage table of a constant (n,) or node-sampled (steps + 1, n) coefficient:
    sampled data has no equation, so its midpoints are linear."""
    return stage_table(grid, time_sampled(value, grid))


def read_grid_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a GridFunction CSV back as (t, flat_values); exact for repr-formatted floats."""
    with open(path, "r", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0][:1] != ["t"]:
        raise ValueError("not a grid CSV (missing 't' header)")
    data = np.array([[float(x) for x in row] for row in rows[1:]], dtype=float)
    return data[:, 0], data[:, 1:]


def _frob(y: np.ndarray) -> float:
    v = y.ravel()
    return math.sqrt(v @ v)


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


def _rk4_increment(L0, L1, L2, h):
    """The increment T - I of the RK4 map T of y' = L y over steps whose stage
    values are L0, L1, L2 (start, midpoint, end), and (h / 2) L1, which the
    forcing of an affine step reuses."""
    hL1 = (0.5 * h) * L1                # stage i of every step is M_i y + m_i
    M2 = L1 + hL1 @ L0
    M3 = L1 + hL1 @ M2
    return (h / 6.0) * (L0 + 2.0 * (M2 + M3) + L2 + h * (L2 @ M3)), hL1


def _step_blocks(K: int, forward: bool):
    """Blocks of at most STEP_BLOCK steps of a march over K steps, in march
    order, each as (first, last): the range of stage rows it reads."""
    for m in range(0, K, STEP_BLOCK):
        n = min(STEP_BLOCK, K - m)
        yield (2 * m, 2 * (m + n)) if forward else (2 * (K - m - n), 2 * (K - m))


def integrate_linear(drift: StageTable, forcing: StageTable, start, forward: bool) -> StageTable:
    """Classical RK4 for the linear equation dy/dt = L(t) y + c(t), no closure,
    and the solution's stage table (`linear_stages`).

    `drift` holds L, (d, d), and `forcing` c, (d,) or (d, p), at every stage
    time; `start` is stored at node 0 (forward) or node `steps` (backward).
    The equation is linear in (c, start), so p columns solve p equations at
    once.

    An RK4 step of a linear equation is an affine map y -> T y + s (Hairer &
    Wanner, Solving ODEs II, IV.2); the maps of a block of STEP_BLOCK steps
    are built at once, so the march is one product and one add per step.
    Raises BlowUpError at the first node to escape the threshold of
    integrate_backward.
    """
    grid = drift.grid
    K = grid.steps
    y = np.array(start, dtype=float)
    h = grid.dt if forward else -grid.dt
    out = np.empty((K + 1,) + y.shape)
    out[0] = y
    k = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for first, last in _step_blocks(K, forward):
            L, c = drift.values[first:last + 1], forcing.values[first:last + 1]
            c = c.reshape(c.shape[:2] + (-1,))
            if not forward:             # a backward march reads the stage rows reversed
                L, c = L[::-1], c[::-1]
            L2, c0, c1, c2 = L[2::2], c[:-1:2], c[1::2], c[2::2]
            increment, hL1 = _rk4_increment(L[:-1:2], L[1::2], L2, h)
            T = np.eye(L.shape[-1]) + increment
            m2 = hL1 @ c0 + c1
            m3 = hL1 @ m2 + c1
            s = ((h / 6.0) * (c0 + 2.0 * (m2 + m3) + c2 + h * (L2 @ m3))).reshape((len(T),) + y.shape)
            for Tk, sk in zip(T, s):
                out[k + 1] = Tk @ out[k] + sk
                k += 1
        flat = out.reshape(K + 1, -1)
        norms = np.sqrt(np.einsum("ki,ki->k", flat, flat))
    escaped = np.flatnonzero(~(norms <= BLOWUP_FACTOR * (1.0 + _frob(y))))      # NaN escapes too
    if escaped.size:
        k = escaped[0]
        raise BlowUpError(grid.nodes[k if forward else K - k], norms[k])
    return linear_stages(drift, forcing, out if forward else out[::-1].copy())


def _block_maps(F: np.ndarray):
    """Yields, block by block, the increments G_j = Phi_j - I of the maps
    Phi_j from a block's first node onto each of its nodes, from the step
    increments F_j in march order: G_j = G_{j-1} + (F_j + F_j G_{j-1});
    summed in another order, the follower tables drift about 3x further
    from those of a finer grid.  A block ends before the product over its
    steps of (1 + |F_j|) / (1 - |F_j|) (Frobenius norms), a bound on the
    condition number of Phi_j, passes MAP_CONDITION, but keeps one step; a
    full block of 64 reaches 39 on the baseline and 1.2e3 on game-n4."""
    f = np.sqrt(np.einsum("kij,kij->k", F, F))
    with np.errstate(divide="ignore", invalid="ignore"):
        spread = np.log1p(f) - np.log1p(-f)         # NaN past |F_j| = 1 sorts above any bound
    while len(F):
        n = max(1, int(np.searchsorted(np.cumsum(spread), math.log(MAP_CONDITION), side="right")))
        G = np.array(F[:n])
        for step, g, previous in zip(F[1:n], G[1:], G):
            g += step @ previous
            g += previous
        yield G
        F, spread = F[n:], spread[n:]


def rk4_increments(drift, grid: TimeGrid):
    """Block maps (`_block_maps`) of the backward RK4 steps of y' = L(t) y, in
    march order (the block ending at node steps first), at most STEP_BLOCK
    steps each: arrays (steps in block, D, D).

    `drift(lo, hi)` returns L at the stage rows lo..hi (inclusive, rows of a
    StageTable on `grid`), (hi - lo + 1, D, D); one block reads only its
    own rows, so memory stays bounded by the block, not by the grid.
    """
    for first, last in _step_blocks(grid.steps, forward=False):
        L = drift(first, last)[::-1]
        yield from _block_maps(_rk4_increment(L[:-1:2], L[1::2], L[2::2], -grid.dt)[0])


class FlowHealth(NamedTuple):
    """Numerical health of one Riccati march."""

    min_det: float          # smallest det of a flow factor's diagonal block, from a block's first node
    margin: float           # largest node norm over the blow-up threshold


def riccati_march(increments, grid: TimeGrid, shape, factor_blocks=None) -> tuple[np.ndarray, FlowHealth]:
    """Node values of the Riccati equation Z' = C + D Z - Z A - Z B Z, Z(T) = 0,
    from the maps of its linear system y' = [[A, B], [C, D]] y.

    Z = Y U^-1 where (U, Y) solves the linear system (Radon's lemma; Reid,
    Riccati Differential Equations, 1972).  The march anchors U = I on the
    first node of each block, where Z is known (the Davison-Maki method;
    Kenney & Leipnik, IEEE TAC 1985); with G = Phi - I of the map from
    there onto a node of the block, every node is

        Z + (G21 + G22 Z - Z G11 - Z G12 Z) (I + G11 + G12 Z)^-1,

    one batched solve per block.  Its rounding grows with the condition of
    Phi, which `_block_maps` bounds.  Written in G, a node that Z moves
    little from keeps the relative accuracy of its increment, so the march
    keeps the order of its maps.

    `shape` is Z's shape (p, r).  `increments` yields, in march order, each
    block's arrays (steps in block, r + p, r + p) of G (`_block_maps`).
    `factor_blocks` lists the sizes of the diagonal blocks of a block upper
    triangular flow factor I + G11 + G12 Z (default: one block).

    Returns the node values (steps + 1, ...) and the march's FlowHealth.
    Raises BlowUpError at the first node, in march order, to escape the
    threshold of integrate_backward, or on which a diagonal block of the
    flow factor has det <= 0 (checked before the block is solved): U
    changed sign since the node before, so Z has a pole between the two.
    (A pole that an even number of directions of one block cross between
    two nodes leaves its sign unchanged.)
    """
    K = grid.steps
    p, r = shape
    out = np.empty((K + 1, p, r))
    out[K] = 0.0
    edges = np.cumsum((0,) + tuple(factor_blocks or (r,)))
    norms, dets = np.empty(K), np.empty(K)      # [k]: node k and its flow factor
    k = K
    with np.errstate(over="ignore", invalid="ignore"):
        for G in increments:
            n, Z = len(G), out[k]
            W = G[:, :, :r] + G[:, :, r:] @ Z       # [G11 + G12 Z; G21 + G22 Z] onto each node
            U = np.eye(r) + W[:, :r]
            det = np.min([np.linalg.det(U[:, a:b, a:b]) for a, b in zip(edges[:-1], edges[1:])], axis=0)
            m = np.append(np.flatnonzero(~(det > 0.0)), n)[0]     # the first pole; NaN fails too
            node = Z + np.linalg.solve(U[:m].mT, (W[:m, r:] - Z @ W[:m, :r]).mT).mT
            norm = np.sqrt(np.einsum("ki,ki->k", node.reshape(m, p * r), node.reshape(m, p * r)))
            out[k - m:k], norms[k - m:k], dets[k - n:k] = node[::-1], norm[::-1], det[::-1]
            escaped = np.flatnonzero(~(norm <= BLOWUP_FACTOR))
            if escaped.size:
                raise BlowUpError(grid.nodes[k - 1 - escaped[0]], norm[escaped[0]])
            if m < n:
                t = grid.nodes[k - 1 - m]
                raise BlowUpError(t, math.inf, f"Riccati flow crosses a pole between t={t:.6g} and "
                                               f"t={grid.nodes[k - m]:.6g} (flow factor det {det[m]:.3e})")
            k -= n
    return out, FlowHealth(float(dets.min()), float(norms.max()) / BLOWUP_FACTOR)


def riccati_flow(A: np.ndarray, G: np.ndarray, S: np.ndarray, grid: TimeGrid,
                 factor_blocks=None) -> tuple[np.ndarray, FlowHealth]:
    """Node values of P' + A'P + PA - PGP + S = 0, P(T) = 0, for constant
    (d, d) coefficients, exact to rounding at any step size, and the march's
    health.

    The linear system of P is the Hamiltonian H = [[A, -G], [-S, -A']], so
    every step's map is e^(-dt H): one block of its powers, less I
    (`_block_maps` of `expm_increment`), serves every block of
    `riccati_march` (which see for `factor_blocks` and the failures raised).
    """
    F, K = expm_increment(-grid.dt * np.block([[A, -G], [-S, -A.T]])), grid.steps
    block = next(_block_maps(np.broadcast_to(F, (min(STEP_BLOCK, K),) + F.shape)))
    return riccati_march((block[:K - lo] for lo in range(0, K, len(block))), grid, A.shape, factor_blocks)


# --------------------------------------------------------------------------
# matrix exponential: degree-13 diagonal rational approximant with scaling
# and squaring (squarings chosen from the 1-norm).

_B13 = (
    64764752532480000.0,
    32382376266240000.0,
    7771770303897600.0,
    1187353796428800.0,
    129060195264000.0,
    10559470521600.0,
    670442572800.0,
    33522128640.0,
    1323241920.0,
    40840800.0,
    960960.0,
    16380.0,
    182.0,
    1.0,
)
_THETA13 = 5.371920351148152


def _pade13(M) -> tuple[np.ndarray, np.ndarray, int]:
    """Odd and even parts U, V of the degree-13 approximant of e^(M / 2^s),
    and the squaring count s chosen from the 1-norm (Higham, SIAM J. Matrix
    Anal. Appl. 2005); rejects non-square or non-finite input."""
    A = np.asarray(M, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expm needs a square matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError("expm: non-finite entries in input")
    norm = float(np.linalg.norm(A, 1))
    squarings = 0
    if norm > _THETA13:
        squarings = int(np.ceil(np.log2(norm / _THETA13)))
        A = A / (2.0 ** squarings)

    n = A.shape[0]
    ident = np.eye(n)
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A2 @ A4
    b = _B13
    U = A @ (
        A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
        + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * ident
    )
    V = (
        A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
        + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * ident
    )
    return U, V, squarings


def expm(M: np.ndarray) -> np.ndarray:
    """Matrix exponential of a square matrix; rejects non-finite input."""
    U, V, squarings = _pade13(M)
    R = np.linalg.solve(V - U, V + U)
    for _ in range(squarings):
        R = R @ R
    return R


def expm_increment(M: np.ndarray) -> np.ndarray:
    """e^M - I without forming e^M, so a small increment keeps its relative
    accuracy: (V - U)^-1 2U from the approximant of expm, squared as
    F <- F F + 2F, which is (I + F)^2 - I."""
    U, V, squarings = _pade13(M)
    F = np.linalg.solve(V - U, 2.0 * U)
    for _ in range(squarings):
        F = F @ F + 2.0 * F
    return F
