"""Optimality verification for the solved feedback laws.

Three independent lines of evidence, none of which reuse the solver route
they are checking:

* **Deviation tests** -- Monte Carlo first-order conditions.  One agent's
  realized control is perturbed open-loop by ``eps * v(t)`` with common
  random numbers across the epsilon grid; in a linear system the perturbed
  trajectories are exact affine shifts of the baseline, so the cost change
  of every path is an exact quadratic in eps.  At an optimum the fitted
  linear coefficient is statistically zero and the curvature positive.
  A leader deviation shifts the mean leader path, so the follower reaction
  (offset and mean response) is recomputed for the shifted mean and the
  follower population shifts accordingly; a follower deviation leaves every
  other agent untouched but moves the population average by 1/N.  Every
  direction and epsilon is costed along the same baseline paths in one
  ensemble pass (`simulation.Deviations`).
* **Stationarity residuals** -- along simulated paths the follower control
  must satisfy R u + B' (P x + K m + phi) = 0 at machine precision.
* **Dynamic-programming oracle** -- an exact one-step discretization of the
  follower's best-response problem solved by backward recursion, converging
  at O(dt) to the Riccati-based gains.  It shares no code with the
  continuous-time solvers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .follower import (
    FollowerGains,
    closed_loop,
    mean_weight,
    offset_source,
    phi_stages,
    solve_follower_gains,
    solve_phi,
    state_weight,
)
from .integrators import StageTable, expm, integrate_forward, sampled_stages, stage_table
from .leader import LeaderGains, assemble_extended, solve_leader_M, solve_leader_gains
from .model import Mode, Scenario, TimeGrid, time_sampled
from .simulation import Deviations, mean_state_stages, simulate

__all__ = [
    "DeviationResult",
    "DpOracleResult",
    "CheckRow",
    "VerificationReport",
    "direction_library",
    "deviation_battery",
    "stationarity_residuals",
    "dp_gain_oracle",
    "run_verification",
]

PASS_FLOOR = 1e-9


@dataclass(frozen=True)
class DeviationResult:
    """Outcome of one first-order-condition test."""

    label: str
    target: str             # "leader" or "follower"
    vacuous: bool
    epsilons: tuple         # nonzero deviation magnitudes
    delta_mean: tuple       # mean cost change per epsilon
    delta_se: tuple
    c1: float               # fitted linear coefficient (should be ~0)
    c1_se: float
    c2: float               # fitted curvature (should be > 0)
    c2_se: float
    fit_residual: float     # worst gap between mean deltas and the fit
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


def _fit_quadratic(J: np.ndarray, epsilons: np.ndarray, label: str, target: str, base_mean: float) -> DeviationResult:
    """Per-path quadratic fit of cost changes over the epsilon grid."""
    if len(epsilons) < 3:
        raise ValueError("need at least two nonzero epsilons to fit a quadratic")
    n_paths = J.shape[0]
    delta = J[:, 1:] - J[:, :1]           # slot 0 is the baseline
    eps = epsilons[1:]
    design = np.stack([eps, eps * eps], axis=1)
    coef = delta @ np.linalg.pinv(design).T     # (n_paths, 2)
    a, b = coef[:, 0], coef[:, 1]

    def mean_se(x):
        mu = float(x.mean())
        se = float(x.std(ddof=1) / math.sqrt(n_paths)) if n_paths > 1 else 0.0
        return mu, se

    c1, c1_se = mean_se(a)
    c2, c2_se = mean_se(b)
    dm = delta.mean(axis=0)
    ds = delta.std(axis=0, ddof=1) / math.sqrt(n_paths) if n_paths > 1 else np.zeros_like(dm)
    fit = float(np.max(np.abs(dm - (c1 * eps + c2 * eps * eps))))
    floor = PASS_FLOOR * (1.0 + abs(base_mean))
    passed = abs(c1) <= 3.0 * c1_se + floor and c2 > 0.0
    return DeviationResult(
        label=label,
        target=target,
        vacuous=False,
        epsilons=tuple(float(e) for e in eps),
        delta_mean=tuple(float(x) for x in dm),
        delta_se=tuple(float(x) for x in ds),
        c1=c1,
        c1_se=c1_se,
        c2=c2,
        c2_se=c2_se,
        fit_residual=fit,
        passed=passed,
    )


def _vacuous(label: str, target: str, epsilons) -> DeviationResult:
    eps = tuple(float(e) for e in epsilons if e != 0.0)
    zeros = tuple(0.0 for _ in eps)
    return DeviationResult(
        label=label, target=target, vacuous=True, epsilons=eps,
        delta_mean=zeros, delta_se=zeros, c1=0.0, c1_se=0.0, c2=0.0, c2_se=0.0,
        fit_residual=0.0, passed=True,
    )


def _eps_grid(epsilons) -> np.ndarray:
    """Baseline slot 0 followed by the nonzero magnitudes."""
    eps = np.concatenate(([0.0], np.asarray([e for e in epsilons if e != 0.0], dtype=float)))
    if len(eps) < 3:
        raise ValueError("need at least two nonzero epsilons to fit a quadratic")
    return eps


def _battery(s: Scenario, fg: FollowerGains, lg: LeaderGains, follower_dirs, leader_dirs,
             follower_eps, leader_eps, n_paths: int, seed: int, *, workers: int, store_paths: int):
    """Deviation fits plus the ensemble they were costed on (None when nothing had to run)."""
    groups = (("follower", follower_dirs, follower_eps), ("leader", leader_dirs, leader_eps))
    plan = [(label, target, epsilons, _normalize_direction(d, s.grid, s.dims.m))
            for target, dirs, epsilons in groups for label, d in dirs]
    live = {t: tuple(v for _, tt, _, v in plan if tt == t and np.any(v)) for t, _, _ in groups}
    eps = {t: _eps_grid(e) if live[t] else np.zeros(0) for t, _, e in groups}
    er = None
    if store_paths or live["follower"] or live["leader"]:
        spec = Deviations(live["follower"], live["leader"], tuple(eps["follower"]), tuple(eps["leader"]))
        er = simulate(s, fg, lg, n_paths, seed, workers=workers, store_paths=store_paths, deviations=spec)
    results, col = [], 0
    for label, target, epsilons, v in plan:
        if not np.any(v):
            results.append(_vacuous(label, target, epsilons))
            continue
        e = eps[target]
        J = er.deviation_costs[:, col:col + len(e)]
        col += len(e)
        results.append(_fit_quadratic(J, e, label, target, float(J[:, 0].mean())))
    return results, er


def deviation_battery(
    s: Scenario,
    fg: FollowerGains,
    lg: LeaderGains,
    follower_dirs,
    leader_dirs,
    follower_eps,
    leader_eps,
    n_paths: int,
    seed: int,
    *,
    workers: int = 1,
) -> list:
    """First-order conditions for many directions from one ensemble pass.

    `follower_dirs` and `leader_dirs` are (label, direction) pairs, as
    `direction_library` returns them.  Every direction is costed with common
    random numbers along the same baseline paths; each one's cost matrix is
    fitted on its own.  Results come follower directions first, in order;
    `simulation.Deviations` says what each kind of deviation moves.
    """
    results, _ = _battery(
        s, fg, lg, follower_dirs, leader_dirs, follower_eps, leader_eps, n_paths, seed,
        workers=workers, store_paths=0,
    )
    return results


# ---------------------------------------------------------------------------
# Stationarity residuals
# ---------------------------------------------------------------------------


def stationarity_residuals(s: Scenario, er, fg: FollowerGains, *, control_offset: float = 0.0) -> float:
    """Worst pointwise optimality residual R u + B'(P x + K m + phi) over stored paths."""
    if not er.paths:
        raise ValueError("ensemble holds no stored paths; rerun with store_paths >= 1")
    B, R = s.follower_dyn.B, s.follower_cost.R
    P, Kv = fg.P.values, fg.K.values
    mean_term = np.einsum("kij,kj->ki", Kv, er.mean_follower.values)
    worst = 0.0
    for path in er.paths:
        p = np.einsum("kij,akj->aki", P, path.followers) + mean_term + path.phi
        r = p @ B + (path.controls + control_offset) @ R.T
        worst = max(worst, float(np.max(np.abs(r))))
    return worst


# ---------------------------------------------------------------------------
# Dynamic-programming oracle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DpOracleResult:
    """Discrete-time backward recursion compared against the ODE route."""

    P: np.ndarray        # (steps+1, n, n) DP value-function curvature
    offset: np.ndarray   # (steps+1, n) DP value-function slope at x = 0
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


def dp_gain_oracle(s: Scenario, fg: FollowerGains, mean_leader: StageTable | None = None) -> DpOracleResult:
    """Independent finite-horizon check of the follower gain equations.

    Discretizes the follower's best-response problem exactly over each step
    (transition via matrix exponentials, stage cost via the rectangle rule)
    and solves it by backward dynamic programming.  The recursion touches
    none of the continuous-time solver code; its value-function curvature
    and slope converge at O(dt) to the Riccati solution fg.P and to
    K m + phi along the equilibrium mean path, with K and Pi from `fg` and
    phi solved here for `mean_leader`, the stage table of E[x0]; by default
    the uncontrolled leader mean.
    """
    grid = s.grid
    Ksteps, dt, n = grid.steps, grid.dt, s.dims.n
    A, B = s.follower_dyn.A, s.follower_dyn.B
    R = s.follower_cost.R
    f = time_sampled(s.follower_dyn.f, grid)

    if mean_leader is None:
        A0 = s.leader_dyn.A
        f0 = sampled_stages(s.leader_dyn.f, grid)
        lead = integrate_forward(lambda t, e: A0 @ e + f0.at(t), s.leader_mean0, grid).values
        mean_leader = stage_table(grid, lead, lead @ A0.T + f0.nodes)

    S = state_weight(s)
    S1 = mean_weight(s)
    g = offset_source(s, mean_leader.nodes)

    # ODE-route quantities the oracle is compared against.
    phi = solve_phi(s, fg.Pi, mean_leader)
    G = s.follower_dyn.B @ fg.control_map
    closed = closed_loop(s, fg.Pi)[1]
    phi_st = phi_stages(s, fg.Pi, phi, mean_leader)
    f_st = sampled_stages(s.follower_dyn.f, grid)
    mean = integrate_forward(
        lambda t, e: closed.at(t) @ e - G @ phi_st.at(t) + f_st.at(t),
        s.init.follower.mean,
        grid,
    ).values
    ode_offset = np.einsum("kij,kj->ki", fg.K.values, mean) + phi.values

    Ad, Bd = _exact_discretization(A, B, dt)
    # A forcing held over a step enters through the integral of e^{As} over the step.
    fd = f @ _exact_discretization(A, np.eye(n), dt)[1].T
    Rd = dt * R

    Pdp = np.zeros((Ksteps + 1, n, n))
    h = np.zeros((Ksteps + 1, n))
    for k in range(Ksteps - 1, -1, -1):
        Pn = Pdp[k + 1]
        hn = h[k + 1]
        PB = Pn @ Bd
        gain_den = Rd + Bd.T @ PB
        closed = Ad - Bd @ np.linalg.solve(gain_den, PB.T @ Ad)
        Pdp[k] = dt * S + Ad.T @ Pn @ closed
        Pdp[k] = 0.5 * (Pdp[k] + Pdp[k].T)
        w = Pn @ fd[k] + hn
        h[k] = -dt * (S1 @ mean[k] + g[k]) + Ad.T @ (
            w - PB @ np.linalg.solve(gain_den, Bd.T @ w)
        )

    delta_P = float(np.max(np.abs(Pdp - fg.P.values)))
    delta_offset = float(np.max(np.abs(h - ode_offset)))
    return DpOracleResult(P=Pdp, offset=h, delta_P=delta_P, delta_offset=delta_offset)


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
                    f"[{tag}] deviation {d.target}/{d.label}: c1={d.c1:.3e} (se {d.c1_se:.3e}) "
                    f"c2={d.c2:.3e} fit_residual={d.fit_residual:.3e}"
                )
        verdict = "PASS" if self.passed else "FAIL"
        lines.append(f"overall: {verdict}")
        return lines

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("kind,name,value,threshold,c1,c1_se,c2,c2_se,fit_residual,passed\n")
            for c in self.checks:
                fh.write(
                    f"check,{c.name},{c.value!r},{c.threshold!r},,,,,,{int(c.passed)}\n"
                )
            for d in self.deviations:
                fh.write(
                    f"deviation,{d.target}/{d.label},,,{d.c1!r},{d.c1_se!r},{d.c2!r},{d.c2_se!r},{d.fit_residual!r},{int(d.passed)}\n"
                )


def run_verification(
    s: Scenario,
    fg: FollowerGains | None = None,
    lg: LeaderGains | None = None,
    *,
    n_paths: int = 256,
    seed: int = 0,
    directions: int = 3,
    follower_epsilons=(-0.2, -0.1, -0.05, 0.05, 0.1, 0.2),
    leader_epsilons=(-0.2, -0.1, 0.1, 0.2),
    workers: int = 1,
) -> VerificationReport:
    """Full verification battery: solver invariants, oracles, deviation tests.

    The reported ensemble and every deviation direction share one pass over
    the same paths; only the exchangeability check runs a second, permuted
    ensemble.
    """
    if fg is None:
        fg = solve_follower_gains(s)
    if lg is None:
        lg = solve_leader_gains(s, fg)

    checks = []

    def add(name, value, threshold, detail=""):
        checks.append(CheckRow(name, float(value), float(threshold), bool(value <= threshold), detail))

    sum_gap = float(np.max(np.abs(fg.P.values + fg.K.values - fg.Pi.values)))
    add("follower_sum_identity", sum_gap, 1e-8 * (1.0 + float(np.max(np.abs(fg.Pi.values)))))
    add("follower_symmetry_drift", fg.sym_drift, 1e-9)

    es = assemble_extended(s, fg)
    M_direct = solve_leader_M(es)
    leader_gap = float(np.max(np.abs(lg.P.values + lg.K.values - M_direct.values)))
    add(
        "leader_sum_identity",
        leader_gap,
        1e-12 * (1.0 + float(np.max(np.abs(M_direct.values)))),
        "independently solved combined equation",
    )

    devs, er = _battery(
        s, fg, lg,
        direction_library(s.grid, s.dims.m, directions, seed + 17),
        direction_library(s.grid, s.dims.m, directions, seed + 29),
        follower_epsilons, leader_epsilons, n_paths, seed,
        workers=workers, store_paths=min(4, n_paths),
    )

    mean0 = StageTable(s.grid, mean_state_stages(es, lg, er.mean_state).values[:, : s.dims.n])
    phi_follower = solve_phi(s, fg.Pi, mean0).values
    phi_gap = float(np.max(np.abs(phi_follower - er.offset.values)))
    add(
        "offset_consistency",
        phi_gap,
        1e-9 * (1.0 + float(np.max(np.abs(er.offset.values)))),
        "follower-route offset vs leader-route offset",
    )

    add("offset_path_spread", er.phi_spread, 1e-10 * (1.0 + float(np.max(np.abs(er.offset.values)))))

    u_scale = float(np.max(np.abs(er.node_summary["u0_mean"]))) + 1.0
    add("stationarity_residual", stationarity_residuals(s, er, fg), 1e-9 * u_scale)

    n_small = min(n_paths, 64)
    perm = np.arange(s.dims.N, 0, -1)
    er_perm = simulate(s, fg, lg, n_small, seed, store_paths=0, agent_permutation=perm)
    relabeled = er.follower_cost_paths[:n_small][:, perm - 1]
    exch_gap = float(np.max(np.abs(er_perm.follower_cost_paths - relabeled)))
    add(
        "exchangeability",
        exch_gap,
        1e-8 * (1.0 + float(np.max(np.abs(relabeled)))),
        "stream relabeling permutes costs path-by-path",
    )

    dp = dp_gain_oracle(s, fg, mean_leader=mean0)
    scale_P = 1.0 + float(np.max(np.abs(fg.P.values)))
    scale_h = 1.0 + float(np.max(np.abs(dp.offset)))
    add("dp_oracle_curvature", dp.delta_P, 200.0 * s.grid.dt * scale_P, "O(dt) discrete-time recursion")
    add("dp_oracle_offset", dp.delta_offset, 200.0 * s.grid.dt * scale_h)

    return VerificationReport(
        mode=s.mode,
        n_paths=n_paths,
        seed=seed,
        checks=tuple(checks),
        deviations=tuple(devs),
    )
