"""Fixed-step integrators and grid-sampled functions shared by every solver.

Every gain table lives on one fixed grid, solved backward from its terminal
value; the mean-field layer runs forward on the same grid, so every
produced table lines up node for node.  Adaptive steppers are deliberately
not used: a shared fixed grid keeps cross-module identities exact to the
scheme's order instead of to interpolation error.

Constant-coefficient Riccati equations of the follower family step by their
exact Hamiltonian flow (`riccati_flow`): one matrix exponential, then one
linear-fractional update per step, so their node values carry rounding
error only.  Everything else is classical RK4: nonlinear equations with
time-varying coefficients through a closure (`integrate_backward`), linear
equations through each step's precomputed affine map (`integrate_linear`).

Coefficients that vary in time are read from stage tables: values at every
node and every step midpoint, the only times an RK4 step evaluates
anything.  A table solved from an ODE gets cubic-Hermite midpoints from its
own slopes (Hairer, Norsett & Wanner, Solving ODEs I, II.6), which keeps
the consuming RK4 pass at 4th order; sampled data gets the linear
midpoint.  Stage tables depend on node values only.

The scaling-and-squaring matrix exponential (degree-13 rational core) backs
the Riccati flow, through the increment form `expm_increment`, and the
constant-coefficient flow oracle of the leader stage.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .model import TimeGrid, time_sampled

__all__ = [
    "BlowUpError",
    "GridFunction",
    "StageTable",
    "stage_table",
    "sampled_stages",
    "integrate_backward",
    "integrate_forward",
    "integrate_linear",
    "riccati_flow",
    "expm",
    "expm_increment",
    "read_grid_csv",
]

# Escape threshold relative to the terminal/initial data; beyond this the
# equation is declared to have no solution on the horizon.
BLOWUP_FACTOR = 1e12


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


def integrate_linear(drift: StageTable, forcing: StageTable, start, forward: bool) -> GridFunction:
    """Classical RK4 for the linear equation dy/dt = L(t) y + c(t), no closure.

    `drift` holds L, (d, d), and `forcing` c, (d,) or (d, p), at every stage
    time; `start` is stored at node 0 (forward) or node `steps` (backward).
    An RK4 step of a linear equation is an affine map y -> T y + s (Hairer &
    Wanner, Solving ODEs II, IV.2); the maps of all steps are built at once,
    so the march is one product and one add per step.  Raises BlowUpError at
    the first node to escape the threshold of integrate_backward.
    """
    grid, K = drift.grid, drift.grid.steps
    y = np.array(start, dtype=float)
    L, c = drift.values, forcing.values.reshape(forcing.values.shape[:2] + (-1,))
    if not forward:                     # a backward march reads the stage rows reversed
        L, c = L[::-1], c[::-1]
    h = grid.dt if forward else -grid.dt
    L0, L1, L2, c0, c1, c2 = L[:-1:2], L[1::2], L[2::2], c[:-1:2], c[1::2], c[2::2]
    out = np.empty((K + 1,) + y.shape)
    out[0] = y
    with np.errstate(over="ignore", invalid="ignore"):
        hL1 = (0.5 * h) * L1            # stage i of every step is M_i y + m_i
        M2 = L1 + hL1 @ L0
        M3 = L1 + hL1 @ M2
        T = np.eye(L.shape[-1]) + (h / 6.0) * (L0 + 2.0 * (M2 + M3) + L2 + h * (L2 @ M3))
        m2 = hL1 @ c0 + c1
        m3 = hL1 @ m2 + c1
        s = ((h / 6.0) * (c0 + 2.0 * (m2 + m3) + c2 + h * (L2 @ m3))).reshape((K,) + y.shape)
        for k in range(K):
            out[k + 1] = T[k] @ out[k] + s[k]
        flat = out.reshape(K + 1, -1)
        norms = np.sqrt(np.einsum("ki,ki->k", flat, flat))
    escaped = np.flatnonzero(~(norms <= BLOWUP_FACTOR * (1.0 + _frob(y))))      # NaN escapes too
    if escaped.size:
        k = escaped[0]
        raise BlowUpError(grid.nodes[k if forward else K - k], norms[k])
    return GridFunction(grid, out if forward else out[::-1])


def riccati_flow(A: np.ndarray, G: np.ndarray, S: np.ndarray, grid: TimeGrid, post_step=None) -> GridFunction:
    """Node values of P' + A'P + PA - PGP + S = 0, P(T) = 0, for constant
    (d, d) coefficients, exact to rounding at any step size.

    P = Y U^-1 where (U, Y) solves the linear system with the Hamiltonian
    H = [[A, -G], [-S, -A']] (Radon's lemma).  One step back from a node,
    where U = I, is therefore the linear-fractional map of F = e^(-dt H) - I
    (the Davison-Maki step; Kenney & Leipnik, IEEE TAC 1985):

        P <- P + (F21 + F22 P - P F11 - P F12 P) (I + F11 + F12 P)^-1.

    F is built once by `expm_increment`.  `post_step`, when given, maps each
    freshly computed node value (e.g. re-symmetrization); it is called for
    nodes steps - 1 down to 0.  Raises BlowUpError at the first node, in
    march order, to escape the threshold of integrate_backward, or to end a
    step whose flow factor I + F11 + F12 P has det <= 0: U changed sign
    inside the step, so P has a pole there.  (A pole that an even number of
    directions cross in one step leaves the sign unchanged.)
    """
    d, K = A.shape[0], grid.steps
    F = expm_increment(-grid.dt * np.block([[A, -G], [-S, -A.T]]))
    left, right = F[:, :d], F[:, d:]
    ident = np.eye(d)
    out = np.empty((K + 1, d, d))
    factors = np.empty((K, d, d))       # factors[k]: the flow factor of the step onto node k
    P = out[K] = np.zeros((d, d))
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            for k in range(K - 1, -1, -1):
                W = left + right @ P    # [F11 + F12 P; F21 + F22 P]
                U = factors[k] = ident + W[:d]
                P = P + np.linalg.solve(U.T, (W[d:] - P @ W[:d]).T).T
                if post_step is not None:
                    P = post_step(P)
                out[k] = P
        except np.linalg.LinAlgError:   # a factor exactly singular: the step ends on a pole
            raise BlowUpError(grid.nodes[k], math.inf,
                              f"Riccati flow ends a step on a pole at t={grid.nodes[k]:.6g}") from None
        flat = out[:K].reshape(K, -1)
        norms = np.sqrt(np.einsum("ki,ki->k", flat, flat))
        dets = np.linalg.det(factors)
    bad = np.flatnonzero(~(norms <= BLOWUP_FACTOR) | ~(dets > 0.0))      # NaN fails too
    if bad.size:
        k = bad[-1]
        if norms[k] <= BLOWUP_FACTOR:
            raise BlowUpError(grid.nodes[k], norms[k],
                              f"Riccati flow crosses a pole between t={grid.nodes[k]:.6g} "
                              f"and t={grid.nodes[k + 1]:.6g} (flow factor det {dets[k]:.3e})")
        raise BlowUpError(grid.nodes[k], norms[k])
    return GridFunction(grid, out)


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
