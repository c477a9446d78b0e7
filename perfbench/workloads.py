"""The workloads of the stackmf benchmark.

Every workload is a closed loop with one client: the next operation starts
when the previous one ends.  An operation is one or two calls of the public
CLI entry point `stackmf.cli.main`.  Why each workload exists:

* solve     -- follower and leader backward passes plus CSV/manifest writes,
               no Monte Carlo.  A solver change shows here; a noise or path
               loop change should not.
* simulate  -- 2048 paths on one worker from gains solved in preparation:
               noise, the Euler-Maruyama loop and the reductions, no solver.
               Its traced run also times the same call on a process pool.
* verify    -- the verification battery (256 paths x 3 directions), which
               redraws the same noise for all seven ensembles.
* game-n4   -- solve, then simulate 512 paths on a process pool, on a vector
               game-mode scenario: real matrix products, wide CSV tables and
               the pooled simulate path.  Its operations fail the mean-path
               check until the follower closed-loop drift in
               `assemble_extended` is fixed, so BENCHMARK.json, which may
               list only workloads whose operations pass, leaves it out; it
               runs from the same command.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

BASELINE = "scenarios/baseline_team.cfg"
GAME_N4 = "perfbench/game_n4.cfg"

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads() -> None:
    """One BLAS thread, so `--workers` is the only parallelism.

    Must run before numpy is first imported in the process.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def pool_workers() -> int:
    return min(2, os.cpu_count() or 1)


@dataclass(frozen=True)
class Workload:
    name: str
    config: str             # scenario file, relative to the repository root
    solve: bool             # the operation runs `stackmf solve` first
    sim_paths: int          # paths of the operation's `stackmf simulate`; 0: none
    sim_workers: int
    verify_paths: int       # paths of the operation's `stackmf verify`; 0: none
    directions: int = 3


WORKLOADS = {
    w.name: w
    for w in (
        Workload("solve", BASELINE, solve=True, sim_paths=0, sim_workers=1, verify_paths=0),
        Workload("simulate", BASELINE, solve=False, sim_paths=2048, sim_workers=1,
                 verify_paths=0),
        Workload("verify", BASELINE, solve=False, sim_paths=0, sim_workers=1, verify_paths=256),
        Workload("game-n4", GAME_N4, solve=True, sim_paths=512, sim_workers=pool_workers(),
                 verify_paths=0),
    )
}


def operation_calls(w: Workload, root, op_dir, seed: int, prepared_gains) -> list:
    """The CLI calls of one operation, as (step, argv) pairs, in order.

    Outputs go under `op_dir`: solve -> gains/, simulate -> sim/, verify
    -> verify/.  Simulate reads the gains the operation solved, or
    `prepared_gains` when it solves none.
    """
    config = str(root / w.config)
    calls = []
    gains = op_dir / "gains" if w.solve else prepared_gains
    if w.solve:
        calls.append(("solve", ["solve", "--config", config, "--out", str(gains)]))
    if w.sim_paths:
        calls.append(("simulate", [
            "simulate", "--config", config, "--gains", str(gains), "--out", str(op_dir / "sim"),
            "--paths", str(w.sim_paths), "--seed", str(seed), "--workers", str(w.sim_workers),
        ]))
    if w.verify_paths:
        calls.append(("verify", [
            "verify", "--config", config, "--out", str(op_dir / "verify"),
            "--paths", str(w.verify_paths), "--seed", str(seed),
            "--directions", str(w.directions), "--workers", "1",
        ]))
    return calls
