"""Optimality verification for the solved feedback laws.

`run_verification` gates nine check rows and the deviation tests.  Three
lines of evidence reuse none of the solver route they are checking:

* **Deviation tests** -- Monte Carlo first-order conditions.  One agent's
  realized control is perturbed open-loop by ``eps * v(t)``; in a linear
  system the perturbed trajectories are exact affine shifts of the
  baseline, so the cost change of every path is exactly
  ``eps * a_p + eps**2 * b`` with a curvature b shared by all paths.  At
  an optimum the mean pathwise slope a_p is statistically zero and the
  curvature positive.  A leader deviation shifts the mean leader path, so
  the follower reaction to the shift (`follower.follower_response`) moves
  the follower population accordingly; a follower
  deviation leaves every other agent untouched but moves the population
  average by 1/N.  Every direction's slopes are read off the same baseline
  paths in one ensemble pass (`simulation.Deviations`).
* **Stationarity residuals** -- along simulated paths the follower control
  must satisfy R u + B' (P x + K m + phi) = 0 at machine precision, gated
  relative to the largest |B' (P x + K m + phi)| on the same paths.
* **Dynamic-programming oracle** -- an exact one-step discretization of the
  follower's best-response problem solved by backward recursion, converging
  at O(dt) to the Riccati-based gains.  It shares no code with the
  continuous-time solvers.

The other rows check that the pieces fit together:

* **Table identities** (`table_identities`) -- the gain tables given,
  solved or loaded, satisfy follower P + K = Pi and leader P + K = M, each
  sum solved by its own equation, P's symmetry drift stays roundoff, and
  leader P is zero on X's third block, rows and columns: the offset does
  not depend on the leader's path, as the path kernel assumes.
* **Offset consistency** -- the follower offset the leader layer
  reconstructs along the mean path (block 3 of M E[X] + V) equals the
  follower-route offset along the same leader mean.
* **Exchangeability** -- relabeling which noise row drives which follower
  permutes the per-path follower costs, path by path; the relabeled paths
  ride in the same ensemble pass on the same draws (`simulate`'s `relabel`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .follower import (
    SYMMETRY_TOL,
    FollowerGains,
    follower_response,
    offset_drive,
    sources,
    symmetry_drift,
)
from .integrators import MAP_CONDITION, STEP_BLOCK, StageTable, affine_scan, expm, sampled_stages
from .leader import LeaderGains
from .model import Mode, Scenario, TimeGrid, time_sampled
from .simulation import Deviations, simulate

__all__ = [
    "DeviationResult",
    "DpOracleResult",
    "CheckRow",
    "VerificationReport",
    "direction_library",
    "deviation_battery",
    "stationarity_residuals",
    "dp_gain_oracle",
    "table_identities",
    "run_verification",
]

PASS_FLOOR = 1e-9
# Gates on the gain tables (`table_identities`), relative to 1 + max |Pi|,
# |M| and leader |P|; the symmetry drift of P, max |P - P'|, is gated
# absolutely by the solver's own `follower.SYMMETRY_TOL`.
FOLLOWER_SUM_TOL = 1e-12
LEADER_SUM_TOL = 1e-12


@dataclass(frozen=True)
class DeviationResult:
    """Outcome of one first-order-condition test."""

    label: str
    target: str             # "leader" or "follower"
    vacuous: bool
    c1: float               # mean pathwise cost slope (should be ~0)
    c1_se: float
    c2: float               # cost curvature, the same on every path (should be > 0)
    passed: bool


def direction_library(grid: TimeGrid, m: int, count: int, seed: int) -> list:
    """Deterministic perturbation directions: (label, (steps+1, m)) pairs."""
    t = grid.nodes
    T = grid.horizon
    base = [
        ("const", np.ones_like(t)),
        ("halfsine", np.sin(np.pi * t / T)),
        ("cosine", np.cos(np.pi * t / T)),
        ("ramp", t / T - 0.5),
    ]
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        if i < len(base):
            label, prof = base[i]
        else:
            c = rng.standard_normal(3)
            prof = sum(c[j] * np.sin((j + 1) * np.pi * t / T) for j in range(3))
            label = f"mix{i - len(base) + 1}"
        out.append((label, np.tile(prof[:, None], (1, m))))
    return out


def _normalize_direction(direction, grid: TimeGrid, m: int) -> np.ndarray:
    v = np.asarray(direction, dtype=float)
    if v.ndim == 1:
        v = np.tile(v, (grid.steps + 1, 1))
    if v.shape != (grid.steps + 1, m):
        raise ValueError(f"direction must have shape ({grid.steps + 1}, {m})")
    return v


def _first_order(er, col: int, label: str, target: str) -> DeviationResult:
    """The mean pathwise slope of deviation column `col` against three
    standard errors, and its curvature."""
    a = er.deviation_slopes[:, col]
    n_paths = len(a)
    c1 = float(a.mean())
    c1_se = float(a.std(ddof=1) / math.sqrt(n_paths)) if n_paths > 1 else 0.0
    c2 = float(er.deviation_curvature[col])
    if target == "leader":
        base = er.leader_cost.mean
    else:
        base = er.social_cost.mean if er.mode is Mode.TEAM else float(er.follower_costs[0])
    passed = abs(c1) <= 3.0 * c1_se + PASS_FLOOR * (1.0 + abs(base)) and c2 > 0.0
    return DeviationResult(label=label, target=target, vacuous=False, c1=c1, c1_se=c1_se, c2=c2, passed=passed)


def _battery(s: Scenario, fg: FollowerGains, lg: LeaderGains, follower_dirs, leader_dirs,
             n_paths: int, seed: int, *, workers: int, store_paths: int, relabel=None):
    """Deviation results plus the ensemble they were costed on (None when nothing had to run)."""
    plan = [(label, target, _normalize_direction(d, s.grid, s.dims.m))
            for target, dirs in (("follower", follower_dirs), ("leader", leader_dirs)) for label, d in dirs]
    live = {t: tuple(v for _, tt, v in plan if tt == t and np.any(v)) for t in ("follower", "leader")}
    er = None
    if store_paths or live["follower"] or live["leader"]:
        er = simulate(s, fg, lg, n_paths, seed, workers=workers, store_paths=store_paths, relabel=relabel,
                      deviations=Deviations(live["follower"], live["leader"]))
    results, col = [], 0
    for label, target, v in plan:
        if not np.any(v):
            results.append(DeviationResult(label=label, target=target, vacuous=True, c1=0.0, c1_se=0.0,
                                           c2=0.0, passed=True))
            continue
        results.append(_first_order(er, col, label, target))
        col += 1
    return results, er


def deviation_battery(
    s: Scenario,
    fg: FollowerGains,
    lg: LeaderGains,
    follower_dirs,
    leader_dirs,
    n_paths: int,
    seed: int,
    *,
    workers: int = 1,
) -> list:
    """First-order conditions for many directions from one ensemble pass.

    `follower_dirs` and `leader_dirs` are (label, direction) pairs, as
    `direction_library` returns them.  Every direction's pathwise slopes are
    read off the same baseline paths, with common random numbers.  Results
    come follower directions first, in order; `simulation.Deviations` says
    what each kind of deviation moves.
    """
    results, _ = _battery(s, fg, lg, follower_dirs, leader_dirs, n_paths, seed, workers=workers, store_paths=0)
    return results


# ---------------------------------------------------------------------------
# Stationarity residuals
# ---------------------------------------------------------------------------


def stationarity_residuals(s: Scenario, er, fg: FollowerGains, lg: LeaderGains) -> tuple[float, float]:
    """Worst pointwise optimality residual R u + B'(P x + K m + phi) over the
    stored paths of `er`, with the mean m and the offset phi of `lg`, and
    the largest |B'(P x + K m + phi)| on the same paths, the residual's scale."""
    if not er.paths:
        raise ValueError("ensemble holds no stored paths; rerun with store_paths >= 1")
    B, R, n = s.follower_dyn.B, s.follower_cost.R, s.dims.n
    P, Kv = fg.P.values, fg.K.values
    mean_term = np.einsum("kij,kj->ki", Kv, lg.mean.nodes[:, n:2 * n])
    x, u = (np.stack([getattr(path, name) for path in er.paths]) for name in ("followers", "controls"))
    Btp = (np.einsum("kij,pakj->paki", P, x) + mean_term + lg.offset.values) @ B
    return float(np.max(np.abs(Btp + u @ R.T))), float(np.max(np.abs(Btp)))


# ---------------------------------------------------------------------------
# Dynamic-programming oracle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DpOracleResult:
    """Discrete-time backward recursion compared against the ODE route."""

    P: np.ndarray        # (steps+1, n, n) DP value-function curvature
    offset: np.ndarray   # (steps+1, n) DP value-function slope at x = 0
    phi: np.ndarray      # (steps+1, n) ODE-route follower offset along the leader mean
    delta_P: float       # max node gap to the Riccati solution
    delta_offset: float  # max node gap to K m + phi from the ODE route


def _exact_discretization(A: np.ndarray, B: np.ndarray, dt: float):
    """One-step transition (Ad, Bd) for constant (A, B) via an augmented exponential."""
    n, m = B.shape
    M = np.zeros((n + m, n + m))
    M[:n, :n] = A
    M[:n, n:] = B
    E = expm(M * dt)
    return E[:n, :n], E[:n, n:]


def dp_gain_oracle(s: Scenario, fg: FollowerGains, mean_leader: StageTable) -> DpOracleResult:
    """Independent finite-horizon check of the follower gain equations.

    Discretizes the follower's best-response problem exactly over each step
    (transition via matrix exponentials, stage cost via the rectangle rule)
    and solves it by backward dynamic programming, in closed form per block
    of steps.  The recursion touches none of the continuous-time solver
    code; its value-function curvature and slope converge at O(dt) to the
    Riccati solution fg.P and to K m + phi along the equilibrium mean path,
    with K and Pi from `fg` and phi and m the `follower_response` to
    `mean_leader`, the stage table of E[x0].  That phi is returned too, so
    a caller that needs the follower-route offset along the same mean
    solves it once.
    """
    grid = s.grid
    Ksteps, dt, n = grid.steps, grid.dt, s.dims.n
    A, B = s.follower_dyn.A, s.follower_dyn.B
    R = s.follower_cost.R
    f = time_sampled(s.follower_dyn.f, grid)

    src = sources(s)
    drive = offset_drive(s, mean_leader)
    g = drive.nodes

    # ODE-route quantities the oracle is compared against.
    f_st = sampled_stages(s.follower_dyn.f, grid)
    phi, mean = follower_response(s, fg.Pi, drive, f_st, s.init.follower.mean)
    ode_offset = np.einsum("kij,kj->ki", fg.K.values, mean) + phi.nodes

    Ad, Bd = _exact_discretization(A, B, dt)
    # A forcing held over a step enters through the integral of e^{As} over the step.
    fd = f @ _exact_discretization(A, np.eye(n), dt)[1].T
    G = Bd @ np.linalg.solve(dt * R, Bd.T)

    # P_k = dtS + Ad' P_{k+1} (I + G P_{k+1})^-1 Ad is Y X^-1 of the linear
    # recursion [X; Y]_k = H [X; Y]_{k+1} (Vaughan, IEEE TAC 1970), so a block
    # of b steps is one product of H^1..H^b with its anchor [I; P] and one
    # solve.  A block ends before ((1 + |H - I|) / (1 - |H - I|))^b, a bound
    # on the condition of H^b, passes MAP_CONDITION, as in `_block_maps`.
    AiG = np.linalg.solve(Ad, np.hstack([np.eye(n), G]))
    H = np.vstack([AiG, dt * src.S @ AiG])
    H[n:, n:] += Ad.T
    with np.errstate(divide="ignore", invalid="ignore"):      # past |H - I| = 1 a block keeps one step
        f_H = np.linalg.norm(H - np.eye(2 * n))
        spread = np.arange(1, STEP_BLOCK + 1) * (np.log1p(f_H) - np.log1p(-f_H))
    b = max(1, np.count_nonzero(spread <= math.log(MAP_CONDITION)))
    powers = np.array(list(accumulate([H] * b, np.matmul)))
    Pdp = np.zeros((Ksteps + 1, n, n))
    for k in range(Ksteps, 0, -b):
        XY = powers[:k, :, :n] + powers[:k, :, n:] @ Pdp[k]     # onto nodes k - 1, k - 2, ...
        node = np.linalg.solve(XY[:, :n].mT, XY[:, n:].mT)
        Pdp[max(0, k - b):k] = 0.5 * (node + node.mT)[::-1]
    # The slope is affine in the next node, h_k = T_k h_{k+1} + c_k, with
    # T_k = Ad' (I + P_{k+1} G)^-1: one scan from h_K = 0, rows reversed.
    Tt = np.linalg.solve(np.eye(n) + G @ Pdp[1:], Ad)
    c = np.einsum("kj,kji,kil->kl", fd[:-1], Pdp[1:], Tt) - dt * (mean[:-1] @ src.S1.T + g[:-1])
    h = affine_scan(Tt[::-1], c[::-1, None])[::-1, 0]
    delta_P = float(np.max(np.abs(Pdp - fg.P.values)))
    delta_offset = float(np.max(np.abs(h - ode_offset)))
    return DpOracleResult(P=Pdp, offset=h, phi=phi.nodes, delta_P=delta_P, delta_offset=delta_offset)


# ---------------------------------------------------------------------------
# Orchestration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckRow:
    name: str
    value: float
    threshold: float
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class VerificationReport:
    mode: Mode
    n_paths: int
    seed: int
    checks: tuple
    deviations: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks) and all(d.passed for d in self.deviations)

    def summary_lines(self) -> list:
        lines = []
        for c in self.checks:
            tag = "PASS" if c.passed else "FAIL"
            lines.append(f"[{tag}] {c.name}: value={c.value:.3e} threshold={c.threshold:.3e} {c.detail}".rstrip())
        for d in self.deviations:
            tag = "PASS" if d.passed else "FAIL"
            if d.vacuous:
                lines.append(f"[{tag}] deviation {d.target}/{d.label}: vacuous (zero direction)")
            else:
                lines.append(
                    f"[{tag}] deviation {d.target}/{d.label}: c1={d.c1:.3e} (se {d.c1_se:.3e}) c2={d.c2:.3e}"
                )
        verdict = "PASS" if self.passed else "FAIL"
        lines.append(f"overall: {verdict}")
        return lines


def _check(name, value, threshold, detail="") -> CheckRow:
    return CheckRow(name, float(value), float(threshold), bool(value <= threshold), detail)


def table_identities(fg: FollowerGains, lg: LeaderGains) -> list[CheckRow]:
    """Check rows of the identities that gain tables, solved or loaded, must
    satisfy: follower P + K = Pi with P symmetric, leader P + K = M, and
    leader P zero on X's third block (rows and columns), which `simulate` assumes."""

    def sum_row(name, P, K, total, tol):
        gap = np.max(np.abs(P.values + K.values - total.values))
        return _check(name, gap, tol * (1.0 + np.max(np.abs(total.values))))

    P = lg.P.values
    third = 2 * P.shape[1] // 3
    block = max(np.max(np.abs(P[:, third:])), np.max(np.abs(P[:, :, third:])))
    return [sum_row("follower_sum_identity", fg.P, fg.K, fg.Pi, FOLLOWER_SUM_TOL),
            _check("follower_symmetry_drift", symmetry_drift(fg.P.values).max(), SYMMETRY_TOL),
            sum_row("leader_sum_identity", lg.P, lg.K, lg.M, LEADER_SUM_TOL),
            _check("leader_offset_block", block, LEADER_SUM_TOL * (1.0 + np.max(np.abs(P))))]


def run_verification(
    s: Scenario,
    fg: FollowerGains,
    lg: LeaderGains,
    *,
    n_paths: int = 256,
    seed: int = 0,
    directions: int = 3,
    workers: int = 1,
) -> VerificationReport:
    """Full verification battery: the table identities of the gains it is
    given (`table_identities`), oracles, deviation tests.

    The reported ensemble, every deviation direction and the exchangeability
    check share one pass, which re-marches the first min(n_paths, 64) paths
    as relabeled lanes (follower rows reversed): each stream is drawn once.
    The DP oracle and the offset check read the leader gains' mean path.
    """
    if directions < 1:
        raise ValueError("directions must be at least 1")

    checks = table_identities(fg, lg)

    def add(name, value, threshold, detail=""):
        checks.append(_check(name, value, threshold, detail))

    n_small = min(n_paths, 64)
    perm = np.arange(s.dims.N, 0, -1)
    devs, er = _battery(
        s, fg, lg,
        direction_library(s.grid, s.dims.m, directions, seed + 17),
        direction_library(s.grid, s.dims.m, directions, seed + 29),
        n_paths, seed, workers=workers, store_paths=min(4, n_paths), relabel=(perm, n_small),
    )

    dp = dp_gain_oracle(s, fg, mean_leader=StageTable(s.grid, lg.mean.values[:, : s.dims.n]))
    offset = lg.offset.values
    add(
        "offset_consistency",
        float(np.max(np.abs(dp.phi - offset))),
        1e-9 * (1.0 + float(np.max(np.abs(offset)))),
        "follower-route offset vs leader-route offset",
    )

    residual, scale = stationarity_residuals(s, er, fg, lg)
    add("stationarity_residual", residual, 1e-10 * (1.0 + scale))

    relabeled = er.follower_cost_paths[:n_small][:, perm - 1]
    exch_gap = float(np.max(np.abs(er.relabeled_cost_paths - relabeled)))
    add(
        "exchangeability",
        exch_gap,
        1e-8 * (1.0 + float(np.max(np.abs(relabeled)))),
        "stream relabeling permutes costs path-by-path",
    )

    scale_P = 1.0 + float(np.max(np.abs(fg.P.values)))
    scale_h = 1.0 + float(np.max(np.abs(dp.offset)))
    add("dp_oracle_curvature", dp.delta_P, 4.0 * s.grid.dt * scale_P, "O(dt) discrete-time recursion")
    add("dp_oracle_offset", dp.delta_offset, 4.0 * s.grid.dt * scale_h)

    return VerificationReport(
        mode=s.mode,
        n_paths=n_paths,
        seed=seed,
        checks=tuple(checks),
        deviations=tuple(devs),
    )
