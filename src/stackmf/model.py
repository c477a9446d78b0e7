"""Problem data: scenario types, config parsing, and standing-assumption checks.

A scenario bundles one leader and N exchangeable followers with linear
dynamics, quadratic tracking costs coupled through the population average,
an initial law for the states, a uniform time grid on [0, T], and a mode
switch: "game" (followers compete, Nash response) or "team" (followers
cooperate, social optimum).

Config format: TOML, read by the standard library's `tomllib`, with one
top-level key `mode` and the sections of `_SECTIONS`, whose keys are the
field names of the dataclasses they build; one schema drives both
`load_scenario` and `scenario_to_text`.  Strings are quoted, matrices are
row-major nested arrays, and scalars are accepted wherever the target is 1x1
(or length-1).  Booleans are not numbers.  The offset coefficients f, eta may
be omitted (zero) or time-sampled as `steps + 1` rows.  See
scenarios/baseline_team.cfg for the canonical example.
"""

from __future__ import annotations

import math
import re
import tomllib
from dataclasses import dataclass, fields
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
    "load_scenario_bytes",
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
# config files: one schema reads and writes them

# (section, Scenario field, the dataclass the section builds), in file order.
# A section's keys are its dataclass's field names; [grid] names the horizon T.
_SECTIONS = (
    ("dims", "dims", Dims),
    ("leader", "leader_dyn", Dynamics),
    ("follower", "follower_dyn", Dynamics),
    ("cost.leader", "leader_cost", LeaderCost),
    ("cost.follower", "follower_cost", FollowerCost),
    ("init", "init", InitialLaw),
    ("grid", "grid", TimeGrid),
)
_OPTIONAL = ("f", "eta")   # zero when omitted; may be sampled per node as steps + 1 rows
_DIST_RE = re.compile(r"(constant|uniform|gaussian)\s*\((.*)\)")


def _keys(cls) -> dict:
    """{config key: field of `cls`} of the section that builds `cls`."""
    if cls is TimeGrid:
        return {"T": "horizon", "steps": "steps"}
    return {f.name: f.name for f in fields(cls)}


def _shape(key: str, n: int, m: int) -> tuple:
    """The one shape of an array key, in whichever section it appears."""
    return {"B": (n, m), "R": (m, m), "f": (n,), "eta": (n,), "D": (n,)}.get(key, (n, n))


def _scalar(value, where: str, kind=(int, float)):
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ScenarioError(f"{where}: expected {'an integer' if kind is int else 'a number'}, got {value!r}")
    if not math.isfinite(value):
        raise ScenarioError(f"{where}: expected a finite number, got {value!r}")
    return value


def _numbers(value, where: str) -> np.ndarray:
    """A number or a nested array of numbers as a float array."""
    stack = [value]
    while stack:
        v = stack.pop()
        if isinstance(v, list):
            stack.extend(v)
        else:
            _scalar(v, where)
    try:
        return np.array(value, dtype=float)
    except ValueError:
        raise ScenarioError(f"{where}: rows of unequal length") from None


def _array(value, shape: tuple, where: str, rows: int | None) -> np.ndarray:
    """`value` as a read-only array of `shape`, or of (rows, n) when `rows` is
    given; a scalar fills a 1x1 or length-1 entry."""
    arr = _numbers(value, where)
    if arr.ndim == 0 and math.prod(shape) == 1:
        arr = arr.reshape(shape)
    if arr.shape != shape and (rows is None or arr.shape != (rows, shape[0])):
        sampled = "" if rows is None else f" or {(rows, shape[0])} sampled per node"
        raise ScenarioError(f"{where}: expected shape {shape}{sampled}, got {arr.shape}")
    return _readonly(arr)


def _distribution(text, n: int, where: str) -> Distribution:
    match = _DIST_RE.fullmatch(text.strip()) if isinstance(text, str) else None
    if not match:
        raise ScenarioError(
            f"{where}: expected constant(c), uniform(a, b) or gaussian(mean, var), got {text!r}"
        )
    kind = match.group(1)
    try:
        args = tomllib.loads(f"args = [{match.group(2)}]")["args"]
    except tomllib.TOMLDecodeError:
        raise ScenarioError(f"{where}: cannot parse the parameters {match.group(2)!r}") from None
    want = 1 if kind == "constant" else 2
    if len(args) != want:
        raise ScenarioError(f"{where}: {kind} takes {want} parameter(s), got {len(args)}")
    params = [_numbers(v, where) for v in args]
    try:
        params = [np.broadcast_to(p, (n,)) for p in params]
    except ValueError:
        raise ScenarioError(f"{where}: distribution parameter must be scalar or length {n}") from None
    return Distribution(kind, params[0], params[-1])


def _tables(doc: dict, prefix: str = "") -> dict:
    """{section: its table} of a parsed document; a name outside the schema is refused."""
    names = [section for section, _, _ in _SECTIONS]
    found = {}
    for key, value in doc.items():
        name = prefix + key
        if name in names and isinstance(value, dict):
            found[name] = value
        elif isinstance(value, dict) and any(s.startswith(name + ".") for s in names):
            found.update(_tables(value, name + "."))
        elif name != "mode":
            raise ScenarioError(f"unexpected section or top-level key {name!r}")
    return found


def load_scenario(text: str) -> Scenario:
    """Parse a scenario config; strict about unknown keys, types and shapes."""
    try:
        doc = tomllib.loads(text)
    except tomllib.TOMLDecodeError as e:
        raise ScenarioError(f"invalid TOML: {e}") from None
    tables = _tables(doc)
    if "mode" not in doc:
        raise ScenarioError("missing top-level key 'mode'")
    try:
        mode = Mode(str(doc["mode"]).lower())
    except ValueError:
        raise ScenarioError(f"mode must be 'game' or 'team', got {doc['mode']!r}") from None

    def build(section: str, cls, dims: Dims | None = None, grid: TimeGrid | None = None):
        if section not in tables:
            raise ScenarioError(f"missing section [{section}]")
        table, keys = tables[section], _keys(cls)
        for key in table:
            if key not in keys:
                raise ScenarioError(f"unknown key {key!r} in section [{section}]")
        values = {}
        for key, name in keys.items():
            where = f"[{section}] {key}"
            value = table.get(key, [0.0] * dims.n if key in _OPTIONAL else None)
            if value is None:
                raise ScenarioError(f"missing key {key!r} in section [{section}]")
            if cls is Dims or key == "steps":
                values[name] = _scalar(value, where, int)
            elif key == "T":
                values[name] = float(_scalar(value, where))
            elif cls is InitialLaw:
                values[name] = _distribution(value, dims.n, where)
            else:
                rows = grid.steps + 1 if key in _OPTIONAL else None
                values[name] = _array(value, _shape(key, dims.n, dims.m), where, rows)
        return cls(**values)

    # [dims] and [grid], the first and last sections, set the other sections' shapes.
    dims, grid = build("dims", Dims), build("grid", TimeGrid)
    parts = {attr: build(section, cls, dims, grid) for section, attr, cls in _SECTIONS[1:-1]}
    return Scenario(dims=dims, grid=grid, mode=mode, **parts)


def load_scenario_bytes(raw: bytes) -> Scenario:
    """Parse a scenario config from its bytes, which must be UTF-8."""
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as e:
        raise ScenarioError(f"config is not UTF-8: {e}") from None
    return load_scenario(text)


def load_scenario_file(path) -> Scenario:
    with open(path, "rb") as fh:
        return load_scenario_bytes(fh.read())


def _toml(value) -> str:
    """A schema value as a TOML value; floats in shortest round-trip form."""
    if isinstance(value, Distribution):
        params = (value.a,) if value.kind == "constant" else (value.a, value.b)
        return f'"{value.kind}({", ".join(repr(p.tolist()) for p in params)})"'
    return repr(value.tolist() if isinstance(value, np.ndarray) else value)


def scenario_to_text(s: Scenario) -> str:
    """Serialize a scenario as TOML; load_scenario(scenario_to_text(s)) reproduces s bitwise."""
    lines = [f'mode = "{s.mode.value}"']
    for section, attr, cls in _SECTIONS:
        part = getattr(s, attr)
        lines += ["", f"[{section}]"]
        lines += [f"{key} = {_toml(getattr(part, name))}" for key, name in _keys(cls).items()]
    return "\n".join(lines) + "\n"


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
    with np.errstate(over="ignore", invalid="ignore"):      # huge weights: the solve reports the blow-up
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
