"""Output checks of the stackmf benchmark, run outside every timing.

Each function takes an operation's output directory and returns a list of
problems; an empty list means the outputs are correct.  The thresholds are
stated here and are never relaxed to make a run pass.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np

from stackmf import (
    GridFunction,
    TimeGrid,
    assemble_extended,
    solve_follower_gains,
    solve_leader_gains,
)
from stackmf.integrators import read_grid_csv
from stackmf.simulation import solve_mean_state

# The seven gain tables compared against the finer-grid reference (phi is a
# by-product of the forward mean pass, not a solved gain).
TABLES = ("P", "K", "Pi", "leaderP", "leaderK", "leaderM", "leaderV")
REFERENCE_REFINEMENT = 8
REL_ERR_TOL = 1e-5          # largest relative error at t=0 a solve may have

# Sum identities, as `run_verification` gates them.
FOLLOWER_SUM_TOL = 1e-8     # times (1 + max |Pi|)
LEADER_SUM_TOL = 1e-6       # times (1 + max |M|)

# A simulated node mean must lie within MEAN_Z standard errors of the mean
# path solved from the exported gains, plus MEAN_DT_ALLOWANCE * dt * (1 +
# max |mean|) for the O(dt) bias of Euler-Maruyama.
MEAN_Z = 5.0
MEAN_DT_ALLOWANCE = 0.5

VERIFY_CHECK_ROWS = 9
VERIFY_DEVIATION_ROWS = 6   # 3 directions x (follower, leader)

COST_REL_SE_TARGET = 0.01   # sim_time_to_1pct_s: time to a 1 % standard error


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def manifest_outputs(out_dir: Path) -> dict:
    return json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))["outputs"]


def manifest_problems(out_dir: Path) -> list:
    """Every output the manifest lists exists and has the recorded hash."""
    try:
        outputs = manifest_outputs(out_dir)
    except (OSError, ValueError, KeyError) as e:
        return [f"{out_dir.name}: unreadable manifest ({e})"]
    problems = [
        f"{out_dir.name}/{name}: hash differs from manifest"
        for name, digest in outputs.items()
        if not (out_dir / name).is_file() or sha256_file(out_dir / name) != digest
    ]
    if not outputs:
        problems.append(f"{out_dir.name}: manifest lists no outputs")
    return problems


def _table(gains_dir: Path, name: str) -> np.ndarray:
    return read_grid_csv(gains_dir / f"{name}.csv")[1]


def reference_t0(s) -> dict:
    """Gain tables at t=0 solved on a grid REFERENCE_REFINEMENT times finer."""
    fine = replace(s, grid=TimeGrid(s.grid.horizon, REFERENCE_REFINEMENT * s.grid.steps))
    fg = solve_follower_gains(fine)
    lg = solve_leader_gains(fine, fg)
    gains = {"P": fg.P, "K": fg.K, "Pi": fg.Pi,
             "leaderP": lg.P, "leaderK": lg.K, "leaderM": lg.M, "leaderV": lg.V}
    return {name: gf.values[0].ravel() for name, gf in gains.items()}


def solve_rel_err(gains_dir: Path, reference: dict) -> float:
    """Largest relative error at t=0 of the seven exported tables."""
    worst = 0.0
    for name in TABLES:
        ref = reference[name]
        err = np.max(np.abs(_table(gains_dir, name)[0] - ref)) / np.max(np.abs(ref))
        worst = max(worst, float(err))
    return worst


def solve_problems(gains_dir: Path, rel_err: float) -> list:
    """Sum identities read back from the CSVs, and accuracy against the reference."""
    problems = []
    P, K, Pi = (_table(gains_dir, n) for n in ("P", "K", "Pi"))
    gap = float(np.max(np.abs(P + K - Pi)))
    if not gap <= FOLLOWER_SUM_TOL * (1.0 + float(np.max(np.abs(Pi)))):
        problems.append(f"follower P+K-Pi = {gap:.3e}")
    lP, lK, lM = (_table(gains_dir, n) for n in ("leaderP", "leaderK", "leaderM"))
    gap = float(np.max(np.abs(lP + lK - lM)))
    if not gap <= LEADER_SUM_TOL * (1.0 + float(np.max(np.abs(lM)))):
        problems.append(f"leader P+K-M = {gap:.3e}")
    if not rel_err <= REL_ERR_TOL:
        problems.append(f"solve_rel_err {rel_err:.3e} > {REL_ERR_TOL:g}")
    return problems


def expected_mean(s, gains_dir: Path) -> np.ndarray:
    """The extended mean path `solve_mean_state` gives for the exported gains."""
    fg = solve_follower_gains(s)
    lg = solve_leader_gains(s, fg)

    def table(name, like):
        return GridFunction(s.grid, _table(gains_dir, name).reshape(like.values.shape))

    fg = replace(fg, P=table("P", fg.P), K=table("K", fg.K), Pi=table("Pi", fg.Pi))
    lg = replace(lg, P=table("leaderP", lg.P), K=table("leaderK", lg.K),
                 M=table("leaderM", lg.M), V=table("leaderV", lg.V))
    return solve_mean_state(s, assemble_extended(s, fg), lg).values


def _columns(path: Path) -> dict:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    data = np.array([[float(x) for x in row] for row in rows[1:]])
    return {name: data[:, i] for i, name in enumerate(rows[0])}


def mean_path_problems(s, sim_dir: Path, paths: int, expected: np.ndarray) -> list:
    """Node means of x0 and xbar in summary.csv against the solved mean path."""
    cols = _columns(sim_dir / "summary.csv")
    n = s.dims.n
    problems = []
    for block, label in ((0, "x0"), (1, "xbar")):
        target = expected[:, block * n:(block + 1) * n]
        allowance = MEAN_DT_ALLOWANCE * s.grid.dt * (1.0 + float(np.max(np.abs(target))))
        for i in range(n):
            se = cols[f"{label}_std_{i}"] / math.sqrt(paths)
            gap = np.abs(cols[f"{label}_mean_{i}"] - target[:, i])
            bad = gap > MEAN_Z * se + allowance
            if np.any(bad):
                z = float(np.max(gap / np.maximum(se, np.finfo(float).tiny)))
                problems.append(
                    f"{label}_{i} mean misses the solved mean path at {int(bad.sum())} of "
                    f"{len(gap)} nodes, by up to {float(np.max(gap)):.3e} ({z:.1f} SE)"
                )
    return problems


def cost_rel_se(sim_dir: Path) -> float:
    """Largest SE/|mean| of the J0 and Jsoc estimates in costs.csv."""
    with open(sim_dir / "costs.csv", newline="", encoding="utf-8") as fh:
        rows = {r["name"]: r for r in csv.DictReader(fh)}
    return max(float(rows[k]["se"]) / abs(float(rows[k]["mean"])) for k in ("J0", "Jsoc"))


def verify_problems(verify_dir: Path, stdout: str) -> list:
    problems = []
    if "overall: PASS" not in stdout.splitlines():
        problems.append("verdict is not 'overall: PASS'")
    with open(verify_dir / "verification.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    kinds = [r["kind"] for r in rows]
    if kinds.count("check") != VERIFY_CHECK_ROWS or kinds.count("deviation") != VERIFY_DEVIATION_ROWS:
        problems.append(
            f"verification.csv has {kinds.count('check')} check and "
            f"{kinds.count('deviation')} deviation rows"
        )
    failed = [r["name"] for r in rows if r["passed"] != "1"]
    if failed:
        problems.append("failed rows: " + ", ".join(failed))
    return problems
