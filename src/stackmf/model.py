"""Problem data: scenario types, config parsing, and standing-assumption checks.

A scenario bundles one leader and N exchangeable followers with linear
dynamics, quadratic tracking costs coupled through the population average,
an initial law for the states, a uniform time grid on [0, T], and a mode
switch: "game" (followers compete, Nash response) or "team" (followers
cooperate, social optimum).

Config format: UTF-8 text, `key = value` lines grouped under bracketed
sections, `#` comments, one top-level key `mode`.  Matrices are row-major
nested arrays; scalars are accepted wherever the target is 1x1 (or length-1).
The offset coefficients f, eta may be time-sampled as `steps + 1` rows.
See scenarios/baseline_team.cfg for the canonical example.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

__all__ = [
    "Mode",
    "ScenarioError",
    "TimeGrid",
    "Dims",
    "Distribution",
    "InitialLaw",
    "Dynamics",
    "LeaderCost",
    "FollowerCost",
    "Scenario",
    "CheckResult",
    "ValidationReport",
    "load_scenario",
    "load_scenario_file",
    "scenario_to_text",
    "validate",
    "require_valid",
    "time_sampled",
]


class Mode(Enum):
    GAME = "game"
    TEAM = "team"


class ScenarioError(ValueError):
    """Raised for malformed configs, shape conflicts, or hard validation failures."""


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_k = k * dt on [0, horizon] with dt = horizon / steps."""

    horizon: float
    steps: int

    def __post_init__(self):
        if not (self.horizon > 0.0 and math.isfinite(self.horizon)):
            raise ScenarioError(f"grid horizon must be positive and finite, got {self.horizon}")
        if int(self.steps) != self.steps or self.steps < 2:
            raise ScenarioError(f"grid steps must be an integer >= 2, got {self.steps}")
        object.__setattr__(self, "horizon", float(self.horizon))
        object.__setattr__(self, "steps", int(self.steps))

    @property
    def dt(self) -> float:
        return self.horizon / self.steps

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.steps + 1)


@dataclass(frozen=True)
class Dims:
    n: int   # state dimension (leader and followers share it)
    m: int   # control dimension
    N: int   # follower count

    def __post_init__(self):
        for name in ("n", "m", "N"):
            v = getattr(self, name)
            if int(v) != v or v < 1:
                raise ScenarioError(f"dims.{name} must be a positive integer, got {v}")
            object.__setattr__(self, name, int(v))


@dataclass(frozen=True)
class Distribution:
    """Initial-state law, applied per coordinate.

    kind 'constant': value a.  kind 'uniform': on [a, b].  kind 'gaussian':
    mean a, variance b.  Parameters are broadcast to length n.
    """

    kind: str
    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        if self.kind not in ("constant", "uniform", "gaussian"):
            raise ScenarioError(f"unknown distribution kind {self.kind!r}")
        object.__setattr__(self, "a", _readonly(np.atleast_1d(self.a)))
        object.__setattr__(self, "b", _readonly(np.atleast_1d(self.b)))
        if self.a.shape != self.b.shape:
            raise ScenarioError("distribution parameters must have matching shapes")
        if self.kind == "uniform" and np.any(self.b < self.a):
            raise ScenarioError("uniform distribution needs a <= b")
        if self.kind == "gaussian" and np.any(self.b < 0.0):
            raise ScenarioError("gaussian distribution needs variance >= 0")

    @property
    def mean(self) -> np.ndarray:
        if self.kind == "uniform":
            return 0.5 * (self.a + self.b)
        return self.a.copy()

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Draw `count` vectors; consumes the generator stream in a fixed order."""
        n = self.a.shape[0]
        if self.kind == "constant":
            return np.tile(self.a, (count, 1))
        if self.kind == "uniform":
            return rng.uniform(self.a, self.b, size=(count, n))
        return rng.normal(self.a, np.sqrt(self.b), size=(count, n))


@dataclass(frozen=True)
class InitialLaw:
    leader: Distribution
    follower: Distribution


@dataclass(frozen=True)
class Dynamics:
    A: np.ndarray          # (n, n)
    B: np.ndarray          # (n, m)
    f: np.ndarray          # (n,) or (steps + 1, n)
    D: np.ndarray          # (n,)


@dataclass(frozen=True)
class LeaderCost:
    Q: np.ndarray          # (n, n), tracks x0 - Gamma * average - eta
    R: np.ndarray          # (m, m)
    Gamma: np.ndarray      # (n, n) weight on the follower average
    eta: np.ndarray        # (n,) or (steps + 1, n)


@dataclass(frozen=True)
class FollowerCost:
    Q: np.ndarray
    R: np.ndarray
    Gamma: np.ndarray      # weight on the follower average
    Gamma1: np.ndarray     # weight on the leader state
    eta: np.ndarray


@dataclass(frozen=True)
class Scenario:
    dims: Dims
    leader_dyn: Dynamics
    follower_dyn: Dynamics
    leader_cost: LeaderCost
    follower_cost: FollowerCost
    init: InitialLaw
    grid: TimeGrid
    mode: Mode

    @property
    def leader_mean0(self) -> np.ndarray:
        return self.init.leader.mean

    @property
    def follower_mean0(self) -> np.ndarray:
        return self.init.follower.mean


def time_sampled(value: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Materialize a constant (n,) or sampled (steps + 1, n) coefficient on the grid."""
    v = np.asarray(value, dtype=float)
    if v.ndim == 1:
        return np.tile(v, (grid.steps + 1, 1))
    return v.copy()


# --------------------------------------------------------------------------
# config parsing

_SECTIONS = {
    "dims": {"n", "m", "N"},
    "leader": {"A", "B", "f", "D"},
    "follower": {"A", "B", "f", "D"},
    "cost.leader": {"Q", "R", "Gamma", "eta"},
    "cost.follower": {"Q", "R", "Gamma", "Gamma1", "eta"},
    "init": {"leader", "follower"},
    "grid": {"T", "steps"},
}

_DIST_RE = re.compile(r"^(constant|uniform|gaussian)\s*\((.*)\)$")


def _parse_number_list(text: str, where: str):
    """Parse a scalar or (nested) numeric array literal."""
    try:
        import json

        return json.loads(text)
    except Exception:
        raise ScenarioError(f"{where}: cannot parse value {text!r} as a number or array") from None


def _parse_lines(text: str):
    """Split config text into {section: {key: raw_value}} plus top-level keys."""
    sections: dict[str, dict[str, str]] = {}
    top: dict[str, str] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in _SECTIONS:
                raise ScenarioError(f"line {lineno}: unknown section [{name}]")
            if name in sections:
                raise ScenarioError(f"line {lineno}: duplicate section [{name}]")
            sections[name] = {}
            current = name
            continue
        if "=" not in line:
            raise ScenarioError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if current is None:
            if key != "mode":
                raise ScenarioError(f"line {lineno}: unknown top-level key {key!r} (only 'mode')")
            if key in top:
                raise ScenarioError(f"line {lineno}: duplicate key 'mode'")
            top[key] = value
        else:
            if key not in _SECTIONS[current]:
                raise ScenarioError(f"line {lineno}: unknown key {key!r} in section [{current}]")
            if key in sections[current]:
                raise ScenarioError(f"line {lineno}: duplicate key {key!r} in section [{current}]")
            sections[current][key] = value
    return top, sections


def _shape_matrix(raw, shape, where: str) -> np.ndarray:
    value = _parse_number_list(raw, where) if isinstance(raw, str) else raw
    if isinstance(value, (int, float)):
        if shape == (1, 1):
            return np.array([[float(value)]])
        raise ScenarioError(f"{where}: scalar given but a {shape[0]}x{shape[1]} matrix is required")
    arr = np.array(value, dtype=float)
    if arr.shape != shape:
        raise ScenarioError(f"{where}: expected shape {shape[0]}x{shape[1]}, got {arr.shape}")
    return arr


def _shape_vector(raw, n: int, grid: TimeGrid | None, where: str, allow_sampled: bool) -> np.ndarray:
    value = _parse_number_list(raw, where) if isinstance(raw, str) else raw
    if isinstance(value, (int, float)):
        if n == 1:
            return np.array([float(value)])
        raise ScenarioError(f"{where}: scalar given but a length-{n} vector is required")
    arr = np.array(value, dtype=float)
    if arr.ndim == 1:
        if arr.shape != (n,):
            raise ScenarioError(f"{where}: expected length {n}, got {arr.shape[0]}")
        return arr
    if arr.ndim == 2 and allow_sampled:
        if grid is None or arr.shape != (grid.steps + 1, n):
            expected = f"({grid.steps + 1}, {n})" if grid is not None else "(steps + 1, n)"
            raise ScenarioError(f"{where}: time-sampled value must have shape {expected}, got {arr.shape}")
        return arr
    raise ScenarioError(f"{where}: cannot interpret value of shape {arr.shape}")


def _parse_distribution(raw: str, n: int, where: str) -> Distribution:
    m = _DIST_RE.match(raw.strip().strip('"').strip("'").strip())
    if not m:
        raise ScenarioError(
            f"{where}: expected constant(c), uniform(a, b) or gaussian(mean, var), got {raw!r}"
        )
    kind, args_text = m.group(1), m.group(2)
    args = _parse_number_list(f"[{args_text}]", where)
    want = 1 if kind == "constant" else 2

    def broadcast(v):
        arr = np.atleast_1d(np.array(v, dtype=float))
        if arr.shape == (1,) and n > 1:
            arr = np.full(n, arr[0])
        if arr.shape != (n,):
            raise ScenarioError(f"{where}: distribution parameter must be scalar or length {n}")
        return arr

    if len(args) != want:
        raise ScenarioError(f"{where}: {kind} takes {want} parameter(s), got {len(args)}")
    if kind == "constant":
        a = broadcast(args[0])
        return Distribution(kind, a, a)
    return Distribution(kind, broadcast(args[0]), broadcast(args[1]))


def load_scenario(text: str) -> Scenario:
    """Parse a scenario config; strict about unknown keys and shape conflicts."""
    top, sections = _parse_lines(text)
    if "mode" not in top:
        raise ScenarioError("missing top-level key 'mode'")
    mode_raw = top["mode"].strip().strip('"').strip("'").lower()
    try:
        mode = Mode(mode_raw)
    except ValueError:
        raise ScenarioError(f"mode must be 'game' or 'team', got {top['mode']!r}") from None

    for name in _SECTIONS:
        if name not in sections:
            raise ScenarioError(f"missing section [{name}]")

    def require(section: str, key: str) -> str:
        if key not in sections[section]:
            raise ScenarioError(f"missing key {key!r} in section [{section}]")
        return sections[section][key]

    def integer(section: str, key: str) -> int:
        v = _parse_number_list(require(section, key), f"[{section}] {key}")
        if not isinstance(v, int):
            raise ScenarioError(f"[{section}] {key} must be an integer, got {v!r}")
        return v

    dims = Dims(integer("dims", "n"), integer("dims", "m"), integer("dims", "N"))
    n, m = dims.n, dims.m

    t_val = _parse_number_list(require("grid", "T"), "[grid] T")
    grid = TimeGrid(float(t_val), integer("grid", "steps"))

    zero_n = np.zeros(n)

    def dyn(section: str):
        A = _shape_matrix(require(section, "A"), (n, n), f"[{section}] A")
        B = _shape_matrix(require(section, "B"), (n, m), f"[{section}] B")
        f_raw = sections[section].get("f")
        f = zero_n.copy() if f_raw is None else _shape_vector(f_raw, n, grid, f"[{section}] f", True)
        D = _shape_vector(require(section, "D"), n, None, f"[{section}] D", False)
        return A, B, f, D

    A0, B0, f0, D0 = dyn("leader")
    A, B, f, D = dyn("follower")

    def cost(section: str, with_gamma1: bool):
        Q = _shape_matrix(require(section, "Q"), (n, n), f"[{section}] Q")
        R = _shape_matrix(require(section, "R"), (m, m), f"[{section}] R")
        Gamma = _shape_matrix(require(section, "Gamma"), (n, n), f"[{section}] Gamma")
        eta_raw = sections[section].get("eta")
        eta = zero_n.copy() if eta_raw is None else _shape_vector(eta_raw, n, grid, f"[{section}] eta", True)
        if with_gamma1:
            Gamma1 = _shape_matrix(require(section, "Gamma1"), (n, n), f"[{section}] Gamma1")
            return Q, R, Gamma, Gamma1, eta
        return Q, R, Gamma, eta

    Q0, R0, Gamma0, eta0 = cost("cost.leader", False)
    Q, R, Gamma, Gamma1, eta = cost("cost.follower", True)

    init = InitialLaw(
        leader=_parse_distribution(require("init", "leader"), n, "[init] leader"),
        follower=_parse_distribution(require("init", "follower"), n, "[init] follower"),
    )

    ro = _readonly
    return Scenario(
        dims=dims,
        leader_dyn=Dynamics(ro(A0), ro(B0), ro(f0), ro(D0)),
        follower_dyn=Dynamics(ro(A), ro(B), ro(f), ro(D)),
        leader_cost=LeaderCost(ro(Q0), ro(R0), ro(Gamma0), ro(eta0)),
        follower_cost=FollowerCost(ro(Q), ro(R), ro(Gamma), ro(Gamma1), ro(eta)),
        init=init,
        grid=grid,
        mode=mode,
    )


def load_scenario_file(path) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        return load_scenario(fh.read())


def _fmt(x: float) -> str:
    return repr(float(x))


def _fmt_value(arr: np.ndarray) -> str:
    a = np.asarray(arr, dtype=float)
    if a.ndim == 0:
        return _fmt(float(a))
    if a.ndim == 1:
        return "[" + ", ".join(_fmt(v) for v in a) + "]"
    return "[" + ", ".join(_fmt_value(row) for row in a) + "]"


def _fmt_dist(d: Distribution) -> str:
    def one(v):
        return _fmt(v[0]) if v.shape == (1,) else _fmt_value(v)

    if d.kind == "constant":
        return f"constant({one(d.a)})"
    return f"{d.kind}({one(d.a)}, {one(d.b)})"


def scenario_to_text(s: Scenario) -> str:
    """Serialize a scenario; load_scenario(scenario_to_text(s)) reproduces s bitwise."""
    lines = [f"mode = {s.mode.value}", ""]
    lines += ["[dims]", f"n = {s.dims.n}", f"m = {s.dims.m}", f"N = {s.dims.N}", ""]
    for name, dyn in (("leader", s.leader_dyn), ("follower", s.follower_dyn)):
        lines += [
            f"[{name}]",
            f"A = {_fmt_value(dyn.A)}",
            f"B = {_fmt_value(dyn.B)}",
            f"f = {_fmt_value(dyn.f)}",
            f"D = {_fmt_value(dyn.D)}",
            "",
        ]
    lines += [
        "[cost.leader]",
        f"Q = {_fmt_value(s.leader_cost.Q)}",
        f"R = {_fmt_value(s.leader_cost.R)}",
        f"Gamma = {_fmt_value(s.leader_cost.Gamma)}",
        f"eta = {_fmt_value(s.leader_cost.eta)}",
        "",
        "[cost.follower]",
        f"Q = {_fmt_value(s.follower_cost.Q)}",
        f"R = {_fmt_value(s.follower_cost.R)}",
        f"Gamma = {_fmt_value(s.follower_cost.Gamma)}",
        f"Gamma1 = {_fmt_value(s.follower_cost.Gamma1)}",
        f"eta = {_fmt_value(s.follower_cost.eta)}",
        "",
        "[init]",
        f"leader = {_fmt_dist(s.init.leader)}",
        f"follower = {_fmt_dist(s.init.follower)}",
        "",
        "[grid]",
        f"T = {_fmt(s.grid.horizon)}",
        f"steps = {s.grid.steps}",
        "",
    ]
    return "\n".join(lines)


# --------------------------------------------------------------------------
# validation

@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    severity: str          # 'hard' blocks solvers; 'warning'/'info' do not
    value: float | None = None
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[CheckResult, ...]

    @property
    def hard_ok(self) -> bool:
        return all(c.passed for c in self.checks if c.severity == "hard")

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]

    def lines(self) -> list[str]:
        out = []
        for c in self.checks:
            status = "pass" if c.passed else ("FAIL" if c.severity == "hard" else "warn")
            value = "" if c.value is None else f" value={c.value:.6g}"
            detail = f" ({c.detail})" if c.detail else ""
            out.append(f"{status:4s} [{c.severity}] {c.name}{value}{detail}")
        return out


_SYM_TOL = 1e-12
_EIG_TOL = 1e-10


def _sym_gap(M: np.ndarray) -> float:
    return float(np.linalg.norm(M - M.T) / (1.0 + np.linalg.norm(M)))


def validate(s: Scenario) -> ValidationReport:
    """Check standing assumptions; pure function of the scenario.

    Hard checks (solvers refuse on failure): symmetry of the weights and
    positive definiteness of both control weights.  State-weight positive
    semidefiniteness and the game-mode population-coupling condition are
    reported as warnings; blow-up detection in the solvers remains the
    authority on solvability.
    """
    checks: list[CheckResult] = []

    for name, M in (
        ("symmetry.Q", s.follower_cost.Q),
        ("symmetry.R", s.follower_cost.R),
        ("symmetry.Q_leader", s.leader_cost.Q),
        ("symmetry.R_leader", s.leader_cost.R),
    ):
        gap = _sym_gap(M)
        checks.append(CheckResult(name, gap <= _SYM_TOL, "hard", gap))

    def eig_range(M):
        w = np.linalg.eigvalsh(0.5 * (M + M.T))
        return float(w[0]), float(w[-1])

    for name, M in (("psd.Q", s.follower_cost.Q), ("psd.Q_leader", s.leader_cost.Q)):
        lo, hi = eig_range(M)
        checks.append(CheckResult(name, lo >= -_EIG_TOL * (1.0 + abs(hi)), "warning", lo))

    for name, M in (("pd.R", s.follower_cost.R), ("pd.R_leader", s.leader_cost.R)):
        lo, hi = eig_range(M)
        checks.append(CheckResult(name, lo > _EIG_TOL * (1.0 + abs(hi)), "hard", lo))

    # Sufficient condition for the competitive follower stage: the population
    # coupling must not overpower the self-weight.  Computed in both modes for
    # the record; never blocks.
    n, N = s.dims.n, s.dims.N
    Gamma = s.follower_cost.Gamma
    J = np.eye(n) - Gamma / N
    M = J.T @ (np.eye(n) - Gamma)
    lo = float(np.linalg.eigvalsh(0.5 * (M + M.T))[0])
    checks.append(
        CheckResult(
            "coupling.population",
            lo >= -_EIG_TOL,
            "warning",
            lo,
            "game-mode sufficient condition" if s.mode is Mode.GAME else "informational in team mode",
        )
    )

    # Initial law: every supported family has finite second moments.
    checks.append(
        CheckResult(
            "init.second_moments",
            True,
            "info",
            None,
            f"leader={s.init.leader.kind}, follower={s.init.follower.kind}",
        )
    )

    return ValidationReport(tuple(checks))


def require_valid(s: Scenario) -> None:
    """Raise ScenarioError when any hard check fails."""
    report = validate(s)
    if not report.hard_ok:
        bad = ", ".join(c.name for c in report.failures() if c.severity == "hard")
        raise ScenarioError(f"scenario fails hard validation checks: {bad}")
