"""Scenario schema: parsing, serialization round-trip, validation, sampling."""
from __future__ import annotations

import dataclasses
import re
import tomllib
from pathlib import Path

import numpy as np
import pytest

from stackmf.model import (
    Distribution,
    Mode,
    ScenarioError,
    TimeGrid,
    load_scenario,
    load_scenario_file,
    require_valid,
    scenario_to_text,
    time_sampled,
    validate,
)

MATRIX_CFG = """\
mode = "game"

[dims]
n = 2
m = 2
N = 4

[leader]
A = [[0.1, -0.2], [0.0, 0.3]]
B = [[1.0, 0.0], [0.5, 1.0]]
f = [0.25, -0.5]
D = [0.3, 0.4]

[follower]
A = [[-0.1, 0.2], [0.1, -0.3]]
B = [[0.8, 0.1], [0.0, 0.9]]
f = [0.0, 0.125]
D = [0.2, 0.1]

[cost.leader]
Q = [[2.0, 0.5], [0.5, 1.0]]
R = [[1.0, 0.0], [0.0, 2.0]]
Gamma = [[0.5, 0.0], [0.1, 0.5]]
eta = [1.0, -1.0]

[cost.follower]
Q = [[1.0, 0.25], [0.25, 1.5]]
R = [[0.5, 0.1], [0.1, 0.5]]
Gamma = [[0.2, 0.0], [0.0, 0.2]]
Gamma1 = [[0.7, 0.0], [0.0, 0.7]]
eta = [0.5, 0.25]

[init]
leader = "constant(1.5)"
follower = "gaussian(2.0, 0.5)"

[grid]
T = 1.0
steps = 100
"""


# ---------------------------------------------------------------------------
# Parsing and round-trip
# ---------------------------------------------------------------------------


def test_baseline_config_parses(team_scenario):
    s = team_scenario
    assert s.mode is Mode.TEAM
    assert (s.dims.n, s.dims.m, s.dims.N) == (1, 1, 30)
    assert s.grid.horizon == 10.0 and s.grid.steps == 1000
    assert s.leader_dyn.A[0, 0] == 0.05
    assert s.follower_cost.R[0, 0] == 0.1
    assert s.init.leader.kind == "uniform"
    assert s.leader_mean0[0] == 5.0
    assert s.follower_mean0[0] == 10.0


def test_matrix_config_parses():
    s = load_scenario(MATRIX_CFG)
    assert s.mode is Mode.GAME
    assert s.leader_dyn.A.shape == (2, 2)
    assert s.follower_dyn.B[0, 1] == 0.1
    assert s.init.follower.kind == "gaussian"
    assert np.array_equal(s.init.leader.mean, [1.5, 1.5])


def _assert_same_scenario(s1, s2):
    """Equal field for field, array dtypes included."""
    assert s1.mode is s2.mode and s1.dims == s2.dims and s1.grid == s2.grid
    pairs = []
    for grp in ("leader_dyn", "follower_dyn", "leader_cost", "follower_cost"):
        g1, g2 = getattr(s1, grp), getattr(s2, grp)
        pairs += [(getattr(g1, f.name), getattr(g2, f.name)) for f in dataclasses.fields(g1)]
    for tier in ("leader", "follower"):
        d1, d2 = getattr(s1.init, tier), getattr(s2.init, tier)
        assert d1.kind == d2.kind
        pairs += [(d1.a, d2.a), (d1.b, d2.b)]
    for a, b in pairs:
        assert a.dtype == b.dtype and np.array_equal(a, b)


def _sampled_text() -> str:
    """MATRIX_CFG with the leader's f and the follower's eta sampled per node."""
    rng = np.random.default_rng(7)
    rows = [repr(rng.standard_normal((101, 2)).tolist()) for _ in range(2)]
    text = MATRIX_CFG.replace("f = [0.25, -0.5]", f"f = {rows[0]}")
    return text.replace("eta = [0.5, 0.25]", f"eta = {rows[1]}")


@pytest.mark.parametrize("case", ["baseline", "matrix", "random_battery", "sampled"])
def test_round_trip_is_bitwise(case, baseline_text, request):
    if case == "random_battery":
        # Vector Gaussian and uniform initial laws, n and m up to 2.
        scenarios = [s for s, _, _ in request.getfixturevalue("random_battery")]
    else:
        text = {"baseline": baseline_text, "matrix": MATRIX_CFG, "sampled": _sampled_text()}[case]
        scenarios = [load_scenario(text)]
    for s1 in scenarios:
        text = scenario_to_text(s1)
        tomllib.loads(text)  # the serialized form is valid TOML
        _assert_same_scenario(s1, load_scenario(text))
    if case == "sampled":
        assert scenarios[0].leader_dyn.f.shape == scenarios[0].follower_cost.eta.shape == (101, 2)


def test_shipped_configs_load():
    # Every config the repository ships, and the README's example block.
    repo = Path(__file__).resolve().parents[1]
    paths = sorted((repo / "scenarios").glob("*.cfg")) + [repo / "perfbench" / "game_n4.cfg"]
    assert len(paths) >= 2
    for path in paths:
        load_scenario_file(path)
    readme = (repo / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```toml\n(.*?)```", readme, re.S)
    assert blocks
    for block in blocks:
        load_scenario(block)


def test_non_utf8_config_file_raises_scenario_error(tmp_path):
    # The same decode route as the CLI's: a malformed file is a ScenarioError.
    bad = tmp_path / "bad.cfg"
    bad.write_bytes(b'mode = "team"\n# \xff\n')
    with pytest.raises(ScenarioError, match="config is not UTF-8"):
        load_scenario_file(bad)


def test_time_varying_forcing_parses(baseline_text):
    # A grid-sampled forcing: steps+1 rows, one per node.
    s0 = load_scenario(baseline_text)
    rows = ", ".join("[%g]" % v for v in np.linspace(0.0, 1.0, s0.grid.steps + 1))
    text = baseline_text.replace("f = 1.0", f"f = [{rows}]", 1)
    s = load_scenario(text)
    assert s.leader_dyn.f.shape == (s.grid.steps + 1, 1)
    sampled = time_sampled(s.leader_dyn.f, s.grid)
    assert sampled.shape == (s.grid.steps + 1, 1)
    assert sampled[0, 0] == 0.0 and sampled[-1, 0] == 1.0


def test_constant_forcing_tiles_over_grid(team_scenario):
    sampled = time_sampled(team_scenario.follower_dyn.f, team_scenario.grid)
    assert sampled.shape == (1001, 1)
    assert np.all(sampled == 1.0)


@pytest.mark.parametrize(
    "mutate,needle",
    [
        (lambda t: t.replace('mode = "team"\n', ""), "mode"),
        (lambda t: t.replace('mode = "team"', 'mode = "duel"'), "mode"),
        (lambda t: t.replace("[grid]", "[lattice]"), "lattice"),
        (lambda t: t.replace("steps = 1000", "steps = 1"), "steps"),
        (lambda t: t.replace("T = 10.0", "T = -1.0"), "horizon"),
        (lambda t: t.replace("N = 30", "N = 0"), "dims.N"),
        (lambda t: t.replace("R = 0.1", "R = [[0.1, 0.1]]"), "R"),
        (lambda t: t + "\nwhatever = 1\n", "whatever"),
        (lambda t: t.replace('leader = "uniform(0, 10)"', 'leader = "uniform(10, 0)"'), "a <= b"),
        (lambda t: t.replace('follower = "uniform(0, 20)"', 'follower = "poisson(3)"'), "poisson"),
        # Booleans are not numbers.
        (lambda t: t.replace("n = 1", "n = true"), "[dims] n"),
        (lambda t: t.replace("T = 10.0", "T = true"), "[grid] T"),
        (lambda t: t.replace("Q = 1.0", "Q = true", 1), "[cost.leader] Q"),
        (lambda t: t.replace('leader = "uniform(0, 10)"', 'leader = "uniform(true, 10)"'), "[init] leader"),
        # TOML reads nan and inf as floats; no coefficient may be non-finite.
        (lambda t: t.replace("D = 1.0", "D = nan", 1), "[leader] D: expected a finite"),
        (lambda t: t.replace("A = -0.05", "A = inf"), "[follower] A: expected a finite"),
        (lambda t: t.replace("eta = 0.05", "eta = -inf"), "[cost.follower] eta: expected a finite"),
        (lambda t: t.replace('leader = "uniform(0, 10)"', 'leader = "gaussian(nan, 0.25)"'),
         "[init] leader: expected a finite"),
        # TOML syntax errors carry the reader's line and column.
        (lambda t: t.replace("m = 1", "m = 1\nm = 1"), "line 8, column"),
        (lambda t: t + "\n[dims]\nn = 1\n", "twice (at line"),
        (lambda t: t.replace('mode = "team"', "mode = team"), "line 3, column 8"),
        (lambda t: t + "\n[cost.x]\nQ = 1.0\n", "cost.x"),
        (lambda t: t.replace("Q = 1.0", "Q = [[1.0], [1.0, 2.0]]", 1), "unequal length"),
    ],
)
def test_malformed_configs_are_rejected(baseline_text, mutate, needle):
    with pytest.raises(ScenarioError) as exc:
        load_scenario(mutate(baseline_text))
    assert needle.lower() in str(exc.value).lower()


# ---------------------------------------------------------------------------
# Grid
# ---------------------------------------------------------------------------


def test_grid_nodes_and_dt():
    grid = TimeGrid(2.0, 8)
    assert grid.dt == 0.25
    assert grid.nodes.shape == (9,)
    assert grid.nodes[0] == 0.0 and grid.nodes[-1] == 2.0


def test_grid_rejects_bad_parameters():
    with pytest.raises(ScenarioError):
        TimeGrid(1.0, 1)
    with pytest.raises(ScenarioError):
        TimeGrid(0.0, 10)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def test_baseline_passes_all_checks(team_scenario):
    report = validate(team_scenario)
    assert report.hard_ok and all(c.passed for c in report.checks)
    assert not report.failures()
    require_valid(team_scenario)  # must not raise


def test_validate_is_pure(team_scenario):
    assert validate(team_scenario).checks == validate(team_scenario).checks


def test_zero_control_weight_fails_hard(baseline_text):
    s = load_scenario(baseline_text.replace("R = 0.1", "R = 0.0"))
    report = validate(s)
    assert not report.hard_ok
    assert any(c.name == "pd.R" for c in report.failures())
    with pytest.raises(ScenarioError):
        require_valid(s)


def test_asymmetric_weight_fails_hard():
    text = MATRIX_CFG.replace("Q = [[1.0, 0.25], [0.25, 1.5]]", "Q = [[1.0, 0.3], [0.25, 1.5]]")
    report = validate(load_scenario(text))
    assert not report.hard_ok
    assert any(c.name == "symmetry.Q" for c in report.failures())


def test_indefinite_state_weight_is_soft(baseline_text):
    # A negative state weight is flagged but does not block the solvers.
    s = load_scenario(baseline_text.replace("Q = 1.0\nR = 0.1", "Q = -1.0\nR = 0.1"))
    report = validate(s)
    assert report.hard_ok and not all(c.passed for c in report.checks)
    assert any(c.name == "psd.Q" for c in report.failures())
    require_valid(s)  # soft failures never raise


def test_validation_lines_render():
    lines = validate(load_scenario(MATRIX_CFG)).lines()
    assert len(lines) >= 8
    assert all(line.startswith(("pass", "FAIL", "warn")) for line in lines)


# ---------------------------------------------------------------------------
# Distributions
# ---------------------------------------------------------------------------


def test_distribution_means():
    assert Distribution("constant", np.array([2.0]), np.array([2.0])).mean[0] == 2.0
    assert Distribution("uniform", np.array([0.0]), np.array([10.0])).mean[0] == 5.0
    assert Distribution("gaussian", np.array([-1.0]), np.array([4.0])).mean[0] == -1.0


def test_distribution_rejects_bad_parameters():
    with pytest.raises(ScenarioError):
        Distribution("uniform", np.array([1.0]), np.array([0.0]))
    with pytest.raises(ScenarioError):
        Distribution("gaussian", np.array([0.0]), np.array([-1.0]))
    with pytest.raises(ScenarioError):
        Distribution("cauchy", np.array([0.0]), np.array([1.0]))


@pytest.mark.parametrize("kind,a,b", [("constant", 1.5, 1.5), ("uniform", 0.0, 10.0), ("gaussian", 2.0, 9.0)])
def test_sample_mean_matches_declared_mean(kind, a, b):
    # One million draws land within five standard errors of the declared mean.
    dist = Distribution(kind, np.array([a]), np.array([b]))
    rng = np.random.default_rng(42)
    draws = dist.sample(rng, 1_000_000)[:, 0]
    se = draws.std(ddof=1) / np.sqrt(draws.size)
    assert abs(draws.mean() - dist.mean[0]) <= 5.0 * se + 1e-12


def test_constant_distribution_samples_exactly():
    dist = Distribution("constant", np.array([3.0, -1.0]), np.array([3.0, -1.0]))
    draws = dist.sample(np.random.default_rng(0), 7)
    assert draws.shape == (7, 2)
    assert np.all(draws == [3.0, -1.0])
