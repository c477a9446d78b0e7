"""End-to-end CLI contract: artifacts, exit codes, manifest determinism."""
from __future__ import annotations

import argparse
import builtins
import csv
import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import stackmf
from stackmf import cli
from stackmf.cli import _build_parser, _load_gains, main
from stackmf.equilibrium import run_verification
from stackmf.follower import solve_follower_gains
from stackmf.integrators import BLOWUP_FACTOR, GridFunction, read_grid_csv
from stackmf.leader import assemble_extended, leader_M_stages, leader_V_stages, solve_leader_gains
from stackmf.model import load_scenario_file, scenario_to_text
from stackmf.simulation import NOISE_SCHEME
from conftest import BASELINE_CFG, FAST_CFG_TEXT, random_scenario

GAIN_TABLES = ("P", "K", "Pi", "phi", "leaderP", "leaderK", "leaderM", "leaderV")


def run_cli(*args: str) -> int:
    try:
        return main(list(args))
    except SystemExit as e:            # argparse usage failures
        return int(e.code)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def config(workdir) -> Path:
    path = workdir / "fast.cfg"
    path.write_text(FAST_CFG_TEXT, encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def gains_dir(workdir, config) -> Path:
    out = workdir / "gains"
    assert run_cli("solve", "--config", str(config), "--out", str(out)) == 0
    return out


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def test_solve_writes_all_artifacts(gains_dir):
    names = {p.name for p in gains_dir.iterdir()}
    expected = {f"{t}.csv" for t in GAIN_TABLES}
    expected |= {"solve_report.txt", "validation.txt", "manifest.json"}
    assert names == expected
    report = (gains_dir / "solve_report.txt").read_text(encoding="utf-8")
    assert report.startswith("status = ok")
    assert "symmetry_drift = " in report


def test_solve_report_carries_each_marchs_health(gains_dir, config):
    # Each Riccati march reports its smallest flow-factor determinant (the
    # pole check's closest call) and its largest node norm over the blow-up
    # threshold, exactly as the solve computed them.
    report = dict(line.split(" = ") for line in
                  (gains_dir / "solve_report.txt").read_text(encoding="utf-8").splitlines())
    s = load_scenario_file(config)
    fg = solve_follower_gains(s)
    lg = solve_leader_gains(s, fg)
    names = [name for name, _ in fg.health + lg.health]
    assert names == ["follower_pair", "Pi", "leader"]
    for name, health in fg.health + lg.health:
        assert float(report[f"flow.{name}.min_factor_det"]) == health.min_det > 0.0
        assert float(report[f"flow.{name}.blowup_margin"]) == health.margin < 1.0
    # The leader margin is the largest Frobenius norm of the pair
    # [[P, K], [0, M]] over the nodes; the margins are about 1e-12, so the
    # comparison is relative only.
    pair = np.concatenate([np.concatenate([lg.P.values, lg.K.values], axis=2),
                           np.concatenate([np.zeros_like(lg.M.values), lg.M.values], axis=2)], axis=1)
    margin = np.linalg.norm(pair, axis=(1, 2)).max() / BLOWUP_FACTOR
    assert float(report["flow.leader.blowup_margin"]) == pytest.approx(margin, rel=1e-14, abs=0.0)


def test_solve_manifest_inventory(gains_dir, config):
    manifest = json.loads((gains_dir / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["command"] == "solve"
    assert manifest["config_sha256"] == hashlib.sha256(config.read_bytes()).hexdigest()
    assert manifest["mode"] == "team"
    assert manifest["grid"] == {"horizon": 2.0, "steps": 200}
    assert manifest["dims"] == {"n": 1, "m": 1, "N": 5}
    for name, digest in manifest["outputs"].items():
        assert digest == sha256(gains_dir / name), name


def test_solve_reruns_are_byte_identical(gains_dir, config, tmp_path):
    again = tmp_path / "gains2"
    assert run_cli("solve", "--config", str(config), "--out", str(again)) == 0
    for table in GAIN_TABLES:
        assert sha256(again / f"{table}.csv") == sha256(gains_dir / f"{table}.csv"), table
    a = json.loads((again / "manifest.json").read_text(encoding="utf-8"))
    b = json.loads((gains_dir / "manifest.json").read_text(encoding="utf-8"))
    assert a["outputs"] == b["outputs"]


def test_solve_rejects_hard_invalid_config(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text(FAST_CFG_TEXT.replace("R = 0.5", "R = 0.0"), encoding="utf-8")
    out = tmp_path / "out"
    assert run_cli("solve", "--config", str(bad), "--out", str(out)) == 2
    report = (out / "validation.txt").read_text(encoding="utf-8")
    assert "pd.R" in report
    assert (out / "manifest.json").is_file()


def test_solve_reports_blowup(tmp_path):
    bad = tmp_path / "explode.cfg"
    bad.write_text(FAST_CFG_TEXT.replace("Q = 1.0\nR = 0.5", "Q = -5.0\nR = 0.5"),
                   encoding="utf-8")
    out = tmp_path / "out"
    assert run_cli("solve", "--config", str(bad), "--out", str(out)) == 3
    report = (out / "solve_report.txt").read_text(encoding="utf-8")
    assert "status = blowup" in report
    assert "failure_time = " in report
    assert "stage = follower" in report


@pytest.mark.parametrize("gamma", ["1e300", "1e20"])
def test_solve_reports_overflowing_sources_as_blowup(gamma, tmp_path):
    # A finite follower Gamma whose sources (1e300) or Riccati step map (1e20)
    # overflow to inf is a blow-up of the follower stage at t = T, reported
    # like any other, with no warning and no traceback.
    bad = tmp_path / "overflow.cfg"
    bad.write_text(FAST_CFG_TEXT.replace("Gamma = 0.4", f"Gamma = {gamma}"), encoding="utf-8")
    out = tmp_path / "out"
    assert run_cli("solve", "--config", str(bad), "--out", str(out)) == 3
    report = (out / "solve_report.txt").read_text(encoding="utf-8")
    assert "status = blowup" in report
    assert "stage = follower" in report


# Baseline edits whose gains solve but whose simulated paths overflow: the
# noise loads (every path reaches inf after one step) and the leader's
# initial spread (only the costs and their standard errors do).
OVERFLOWING_PATHS = {
    "noise": ("D = 1.0", "D = 1e200"),
    "spread": ('leader = "uniform(0, 10)"', 'leader = "gaussian(0, 1e300)"'),
}


@pytest.mark.parametrize("command", ["simulate", "verify"])
@pytest.mark.parametrize("case", sorted(OVERFLOWING_PATHS))
def test_overflowing_paths_exit_blowup(case, command, tmp_path, capsys):
    # Exit 3 naming the simulated paths, not a traceback, an inf in a cost
    # table or a passing verdict.
    cfg = tmp_path / "overflow.cfg"
    cfg.write_text(BASELINE_CFG.read_text(encoding="utf-8").replace(*OVERFLOWING_PATHS[case]), encoding="utf-8")
    out = tmp_path / "out"
    if command == "simulate":
        assert run_cli("solve", "--config", str(cfg), "--out", str(tmp_path / "gains")) == 0
        args = ("--gains", str(tmp_path / "gains"), "--paths", "4")
    else:
        args = ("--paths", "8", "--directions", "1")
    capsys.readouterr()
    assert run_cli(command, "--config", str(cfg), "--out", str(out), *args) == 3
    assert "simulated paths overflowed at t=" in capsys.readouterr().err
    assert not (out / "costs.csv").exists() and not (out / "verification.csv").exists()


def test_malformed_config_exits_validation(tmp_path):
    bad = tmp_path / "nonsense.cfg"
    bad.write_text(FAST_CFG_TEXT.replace('mode = "team"', 'mode = "duel"'), encoding="utf-8")
    assert run_cli("solve", "--config", str(bad), "--out", str(tmp_path / "o")) == 2


def test_non_utf8_config_exits_validation(tmp_path, capsys):
    bad = tmp_path / "latin1.cfg"
    bad.write_bytes(FAST_CFG_TEXT.encode("utf-8") + "# caf\xe9\n".encode("latin-1"))
    assert run_cli("solve", "--config", str(bad), "--out", str(tmp_path / "o")) == 2
    assert "invalid scenario: config is not UTF-8" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "simulate", "verify", "sweep"])
def test_each_command_reads_the_config_once(command, config, gains_dir, tmp_path, monkeypatch):
    # The manifest's config_sha256 must hash the bytes that were parsed, so
    # the config is opened once and both come from that one read.
    opened = []
    real_open = io.open

    def counting_open(file, *args, **kwargs):
        if isinstance(file, (str, os.PathLike)) and Path(file).resolve() == config.resolve():
            opened.append(args[:1] or kwargs.get("mode", "r"))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(io, "open", counting_open)
    monkeypatch.setattr(builtins, "open", counting_open)
    extra = {
        "solve": [],
        "simulate": ["--gains", str(gains_dir), "--paths", "4"],
        "verify": ["--paths", "8", "--directions", "1"],
        "sweep": ["--vary", "N", "--values", "4,5", "--paths", "4"],
    }[command]
    assert run_cli(command, "--config", str(config), "--out", str(tmp_path / "o"), *extra) == 0
    assert len(opened) == 1, opened
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["config_sha256"] == sha256(config)


def test_each_command_assembles_and_runs_the_mean_pass_once(config, gains_dir, tmp_path, monkeypatch):
    # The leader gains carry the mean path from their one constructor, so
    # no command assembles the extended system or runs the mean pass twice.
    modules = [m for name, m in sys.modules.items() if name.startswith("stackmf")]
    calls = []
    for fname in ("assemble_extended", "_mean_path"):
        for module in modules:
            original = getattr(module, fname, None)
            if original is None:
                continue

            def counted(*args, _fname=fname, _original=original, **kwargs):
                calls.append(_fname)
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, fname, counted)
    extra = {
        "solve": [],
        "simulate": ["--gains", str(gains_dir), "--paths", "4"],
        "verify": ["--paths", "8", "--directions", "1"],
    }
    for command, args in extra.items():
        calls.clear()
        assert run_cli(command, "--config", str(config), "--out", str(tmp_path / command), *args) == 0
        assert sorted(calls) == ["_mean_path", "assemble_extended"], command


def test_missing_config_exits_io(tmp_path):
    missing = tmp_path / "nope.cfg"
    assert run_cli("solve", "--config", str(missing), "--out", str(tmp_path / "o")) == 1


def test_cli_import_leaves_multiprocessing_unloaded():
    # Only a pooled simulate imports the process pool, so a CLI run does not
    # pay for multiprocessing at set-up.
    env = {**os.environ, "PYTHONPATH": str(Path(stackmf.__file__).resolve().parents[1])}
    code = "import sys, stackmf.cli; sys.exit('multiprocessing' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_artifacts_and_schema(workdir, config, gains_dir):
    out = workdir / "sim"
    code = run_cli(
        "simulate", "--config", str(config), "--gains", str(gains_dir),
        "--out", str(out), "--paths", "24", "--seed", "5", "--store", "2",
    )
    assert code == 0
    summary = read_csv(out / "summary.csv")
    assert summary[0] == [
        "t",
        "x0_mean_0", "x0_std_0", "xbar_mean_0", "xbar_std_0", "offset_0",
        "u0_mean_0", "u0_std_0", "gap",
    ]
    assert len(summary) == 1 + 201

    costs = read_csv(out / "costs.csv")
    assert costs[0] == ["name", "mean", "se"]
    assert [r[0] for r in costs[1:]] == ["J0", "Jsoc", "J1", "J2", "J3", "J4", "J5"]

    traj = read_csv(out / "trajectories.csv")
    assert traj[0] == ["path", "t", "leader_0", "f1_0", "f2_0", "f3_0", "f4_0", "f5_0"]
    assert len(traj) == 1 + 2 * 201
    assert {r[0] for r in traj[1:]} == {"0", "1"}

    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["command"] == "simulate"
    assert set(manifest["outputs"]) == {"summary.csv", "costs.csv", "trajectories.csv"}
    assert set(manifest["inputs"]["gains_sha256"]) == {f"{t}.csv" for t in GAIN_TABLES}
    assert manifest["versions"]["noise"] == NOISE_SCHEME


def test_phi_csv_is_the_offset_simulate_uses(config, gains_dir):
    # solve writes phi.csv from the offset of the leader gains, the one
    # simulate reads; from the CSV-loaded gains the two agree bit for bit.
    s = load_scenario_file(str(config))
    _, lg = _load_gains(s, gains_dir)
    phi = read_grid_csv(gains_dir / "phi.csv")[1]
    assert phi.tobytes() == lg.offset.values.tobytes()


def test_stage_tables_from_csv_gains_are_bit_identical(config, gains_dir):
    # Stage tables depend on node values only, and the CSVs round-trip node
    # values exactly, so reloaded gains rebuild the same tables bit for bit.
    s = load_scenario_file(str(config))
    fg = solve_follower_gains(s)
    lg = solve_leader_gains(s, fg)
    fg_csv, lg_csv = _load_gains(s, gains_dir)
    es, es_csv = assemble_extended(s, fg), assemble_extended(s, fg_csv)
    for name in ("A", "B1", "B2", "f_state", "f_costate"):
        assert getattr(es, name).values.tobytes() == getattr(es_csv, name).values.tobytes(), name
    assert lg.mean.values.tobytes() == lg_csv.mean.values.tobytes()
    V_stages = leader_V_stages(es, leader_M_stages(es, lg.M), lg.V)
    V_stages_csv = leader_V_stages(es_csv, leader_M_stages(es_csv, lg_csv.M), lg_csv.V)
    assert V_stages.values.tobytes() == V_stages_csv.values.tobytes()


def test_simulate_worker_count_is_invisible_in_outputs(workdir, config, gains_dir, tmp_path):
    a = tmp_path / "w1"
    b = tmp_path / "w3"
    for out, workers in ((a, "1"), (b, "3")):
        code = run_cli(
            "simulate", "--config", str(config), "--gains", str(gains_dir),
            "--out", str(out), "--paths", "30", "--seed", "11", "--workers", workers,
        )
        assert code == 0
    for name in ("summary.csv", "costs.csv", "trajectories.csv", "manifest.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_simulate_grid_mismatch_exits_4(config, gains_dir, tmp_path):
    coarse = tmp_path / "coarse.cfg"
    coarse.write_text(FAST_CFG_TEXT.replace("steps = 200", "steps = 100"), encoding="utf-8")
    code = run_cli(
        "simulate", "--config", str(coarse), "--gains", str(gains_dir),
        "--out", str(tmp_path / "o"), "--paths", "2",
    )
    assert code == 4


def test_simulate_missing_gains_exits_io(config, tmp_path):
    code = run_cli(
        "simulate", "--config", str(config), "--gains", str(tmp_path / "empty"),
        "--out", str(tmp_path / "o"), "--paths", "2",
    )
    assert code == 1


@pytest.mark.parametrize("missing", GAIN_TABLES)
def test_simulate_missing_one_gains_table_exits_io(config, gains_dir, tmp_path, capsys, missing):
    gains = tmp_path / "gains"
    gains.mkdir()
    for name in GAIN_TABLES:
        if name != missing:
            (gains / f"{name}.csv").write_bytes((gains_dir / f"{name}.csv").read_bytes())
    capsys.readouterr()
    code = run_cli("simulate", "--config", str(config), "--gains", str(gains),
                   "--out", str(tmp_path / "o"), "--paths", "2")
    err = capsys.readouterr().err
    assert code == 1
    assert len(err.splitlines()) == 1 and f"{missing}.csv" in err


def _ragged(lines):
    lines[2] = lines[2].rsplit(",", 1)[0]


def _non_numeric(lines):
    lines[2] = lines[2].split(",", 1)[0] + ",abc"


def _nan(lines):
    lines[2] = lines[2].split(",", 1)[0] + ",nan"


def _no_header(lines):
    lines[0] = lines[0].replace("t,", "time,", 1)


@pytest.mark.parametrize("corrupt", [_non_numeric, _no_header, _ragged, _nan],
                         ids=["non-numeric", "missing-t-header", "ragged-row", "nan"])
def test_malformed_gains_table_exits_4(config, gains_dir, tmp_path, capsys, corrupt):
    # A damaged table is outside input: one line on stderr and exit 4, no traceback.
    gains = tmp_path / "gains"
    gains.mkdir()
    for name in GAIN_TABLES:
        (gains / f"{name}.csv").write_bytes((gains_dir / f"{name}.csv").read_bytes())
    lines = (gains / "P.csv").read_text(encoding="utf-8").splitlines()
    corrupt(lines)
    (gains / "P.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    code = main(["simulate", "--config", str(config), "--gains", str(gains),
                 "--out", str(tmp_path / "o"), "--paths", "2"])
    err = capsys.readouterr().err
    assert code == 4
    assert len(err.splitlines()) == 1 and "P.csv" in err


def _bump(path: Path, column: int, delta: float) -> None:
    """Add delta to one cell of a gains table's t = 0 row."""
    lines = path.read_text(encoding="utf-8").splitlines()
    cells = lines[1].split(",")
    cells[column] = repr(float(cells[column]) + delta)
    lines[1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.mark.parametrize("case", ["follower-sum", "leader-sum", "asymmetric-P", "leader-offset-block", "phi"])
def test_contradictory_gains_tables_exit_4(case, tmp_path, capsys):
    # Tables that parse but contradict each other are refused with exit 4,
    # by the gates `verify` applies: follower P + K = Pi, P symmetric, the
    # leader's P + K = M, and leader P zero on the offset block, which the
    # path kernel would otherwise silently ignore; and phi.csv must be the
    # offset the other tables give, which `simulate` recomputes.
    cfg = BASELINE_CFG
    if case == "asymmetric-P":
        cfg = tmp_path / "vector.cfg"
        cfg.write_text(scenario_to_text(random_scenario(3, n=2, m=2, N=4)), encoding="utf-8")
    gains = tmp_path / "gains"
    assert run_cli("solve", "--config", str(cfg), "--out", str(gains)) == 0
    sim = ("simulate", "--config", str(cfg), "--gains", str(gains), "--paths", "8")
    assert run_cli(*sim, "--out", str(tmp_path / "ok")) == 0
    if case == "follower-sum":
        _bump(gains / "K.csv", 1, 0.5)
    elif case == "leader-sum":
        _bump(gains / "leaderK.csv", 1, 0.5)
    elif case == "leader-offset-block":
        _bump(gains / "leaderP.csv", 3, 0.5)     # leaderP_0_2; P + K still equals M
        _bump(gains / "leaderK.csv", 3, -0.5)
    elif case == "phi":
        _bump(gains / "phi.csv", 1, 0.5)
    else:
        _bump(gains / "P.csv", 2, 0.5)      # P_0_1; P + K still equals Pi
        _bump(gains / "K.csv", 2, -0.5)
    capsys.readouterr()
    assert run_cli(*sim, "--out", str(tmp_path / "bad")) == 4
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "contradict" in err
    if case == "leader-offset-block":
        assert "leader_offset_block" in err
    if case == "phi":
        assert "phi = " in err


def test_simulate_zero_paths_is_usage_error(config, gains_dir, tmp_path):
    code = run_cli(
        "simulate", "--config", str(config), "--gains", str(gains_dir),
        "--out", str(tmp_path / "o"), "--paths", "0",
    )
    assert code == 64


def test_simulate_negative_store_is_usage_error(tmp_path):
    # The manifest records --store, so a negative count, which would dump the
    # same trajectories as 0, is refused before the config is read.
    code = run_cli("simulate", "--config", str(tmp_path / "missing.cfg"), "--gains", str(tmp_path / "gains"),
                   "--out", str(tmp_path / "o"), "--store", "-3")
    assert code == 64
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["simulate", "verify", "sweep"])
@pytest.mark.parametrize("flag, value", [
    ("--seed", "-1"), ("--seed", str(1 << 64)), ("--paths", str(1 << 32)),
])
def test_stream_range_is_checked_before_any_work(command, flag, value, tmp_path):
    # The config does not exist: an exit of 64 rather than 1 shows the bounds
    # are checked before the config is read, so nothing is simulated.
    args = [command, "--config", str(tmp_path / "missing.cfg"), "--out", str(tmp_path / "o")]
    if command == "simulate":
        args += ["--gains", str(tmp_path / "gains")]
    if command == "sweep":
        args += ["--vary", "N", "--values", "4"]
    assert run_cli(*args, flag, value) == 64
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["simulate", "verify", "sweep"])
@pytest.mark.parametrize("workers", ["0", "-2"])
def test_workers_below_one_is_usage_error(command, workers, tmp_path):
    # As above: a missing config would exit 1, so 64 shows the worker count
    # is refused first.
    args = [command, "--config", str(tmp_path / "missing.cfg"), "--out", str(tmp_path / "o")]
    if command == "simulate":
        args += ["--gains", str(tmp_path / "gains")]
    if command == "sweep":
        args += ["--vary", "N", "--values", "4"]
    assert run_cli(*args, "--workers", workers) == 64
    assert not (tmp_path / "o").exists()


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_passes_on_solved_scenario(workdir, config, capsys):
    out = workdir / "verify"
    code = run_cli(
        "verify", "--config", str(config), "--out", str(out),
        "--paths", "48", "--seed", "0", "--directions", "1",
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert "overall: PASS" in stdout
    rows = read_csv(out / "verification.csv")
    assert rows[0][0] == "kind"
    assert all(row[7] == "1" for row in rows[1:])


def test_verify_detects_injected_fault(config, tmp_path, capsys, monkeypatch):
    # Damage the mean-coupling gain K after the leader solve, as a broken
    # follower solver would; verify must name the identity it breaks.
    def with_bumped_K(s, fg, lg, **kwargs):
        bump = 0.01 * (1.0 + float(np.max(np.abs(fg.K.values))))
        fg = dataclasses.replace(fg, K=GridFunction(fg.grid, fg.K.values + bump))
        return run_verification(s, fg, lg, **kwargs)

    monkeypatch.setattr(cli, "run_verification", with_bumped_K)
    out = tmp_path / "verify_bad"
    code = run_cli(
        "verify", "--config", str(config), "--out", str(out),
        "--paths", "32", "--seed", "0", "--directions", "1",
    )
    assert code == 5
    captured = capsys.readouterr()
    assert "follower_sum_identity" in captured.err
    assert "overall: FAIL" in captured.out
    rows = read_csv(out / "verification.csv")
    failed = {row[1] for row in rows[1:] if row[7] == "0"}
    assert "follower_sum_identity" in failed


def test_verify_zero_paths_is_usage_error(config, tmp_path):
    code = run_cli("verify", "--config", str(config), "--out", str(tmp_path / "o"),
                   "--paths", "0")
    assert code == 64


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def test_sweep_population_size(config, tmp_path):
    out = tmp_path / "sweepN"
    code = run_cli(
        "sweep", "--config", str(config), "--out", str(out),
        "--vary", "N", "--values", "4,8", "--paths", "16", "--seed", "2",
    )
    assert code == 0
    assert (out / "run_N4.csv").is_file() and (out / "run_N8.csv").is_file()
    rows = read_csv(out / "aggregate.csv")
    assert rows[0] == ["param", "value", "metric", "result"]
    metrics = [(r[0], r[2]) for r in rows[1:]]
    assert metrics.count(("N", "gap")) == 2
    assert ("N", "slope_loglog") in metrics
    gaps = {r[1]: float(r[3]) for r in rows[1:] if r[2] == "gap"}
    assert gaps["8"] < gaps["4"]


def test_sweep_population_size_single_value(config, tmp_path, capsys):
    # One follower count has no log-log slope to fit: no fit is attempted, so
    # nothing warns, and the aggregate holds the one gap row.
    out = tmp_path / "sweepN1"
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["sweep", "--config", str(config), "--out", str(out),
                     "--vary", "N", "--values", "5", "--paths", "4"])
    assert code == 0
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == ""
    rows = read_csv(out / "aggregate.csv")
    assert [r[2] for r in rows[1:]] == ["gap"]


def test_sweep_step_refinement(config, tmp_path):
    out = tmp_path / "sweepSteps"
    code = run_cli(
        "sweep", "--config", str(config), "--out", str(out),
        "--vary", "steps", "--values", "100,200", "--paths", "8", "--seed", "2",
    )
    assert code == 0
    rows = read_csv(out / "aggregate.csv")
    metrics = {(r[1], r[2]): r[3] for r in rows[1:]}
    assert ("100", "J0") in metrics and ("200", "Jsoc") in metrics
    assert float(metrics[("100", "cost_error")]) > 0.0
    assert (out / "run_steps100.csv").is_file() and (out / "run_steps200.csv").is_file()


def test_sweep_coupling_strength(config, tmp_path):
    # At zero coupling the two modes coincide; at full strength they differ.
    out = tmp_path / "sweepGamma"
    code = run_cli(
        "sweep", "--config", str(config), "--out", str(out),
        "--vary", "Gamma", "--values", "0.0,1.0", "--paths", "4", "--seed", "2",
    )
    assert code == 0
    rows = read_csv(out / "aggregate.csv")
    gap = {r[1]: float(r[3]) for r in rows[1:] if r[2] == "mode_gap"}
    assert gap["0.0"] <= 1e-8
    assert gap["1.0"] > 1e-4


@pytest.mark.parametrize(
    "values",
    ["", "4,4", "0,4", "1,200", "100,150", "abc", "nan", "inf"],
    ids=["empty", "duplicate", "zero-N", "step-too-small", "non-dividing", "non-numeric", "nan", "inf"],
)
def test_sweep_value_validation(config, tmp_path, values):
    vary = {"1,200": "steps", "100,150": "steps", "nan": "Gamma", "inf": "Gamma"}.get(values, "N")
    code = run_cli(
        "sweep", "--config", str(config), "--out", str(tmp_path / "o"),
        "--vary", vary, "--values", values, "--paths", "4",
    )
    assert code == 64


def test_unknown_vary_key_is_usage_error(config, tmp_path):
    code = run_cli(
        "sweep", "--config", str(config), "--out", str(tmp_path / "o"),
        "--vary", "noise", "--values", "1,2",
    )
    assert code == 64


def test_missing_subcommand_is_usage_error():
    assert run_cli() == 64
    assert run_cli("solve", "--bogus", "x") == 64


def test_every_option_is_in_its_help(capsys):
    # No hidden flags: each subcommand's --help lists every option it parses.
    subcommands = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    for command, sub in subcommands.choices.items():
        capsys.readouterr()
        assert run_cli(command, "--help") == 0
        shown = capsys.readouterr().out
        for action in sub._actions:
            for option in action.option_strings:
                assert option in shown, (command, option)
