"""Benchmark of stackmf: run one workload and print its metrics.

    python3 perfbench/run.py --workload {solve,simulate,verify,game-n4} \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the package from src/ and
writes only under .perfbench/.  A run prepares outside every timing (a CLI
solve of the workload's config and an 8x finer reference solve), measures
set-up time with fresh probe processes, runs the workload's operations in a
closed loop for about S seconds in one workload process (perfbench/ops.py),
checks every operation's outputs (perfbench/checks.py), and prints a table
of every metric, an environment line and, last, one JSON line: the
end-to-end metrics with --trace 0, the per-layer ones with --trace 1.
perfbench/README.md describes the workloads and metrics.

An operation fails on a nonzero exit code or a failed output check; the run
still prints its result and exits 0.  Without a source tree, or when a step
of the benchmark itself breaks, it exits nonzero without a result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import BASELINE, WORKLOADS, pin_blas_threads, pool_workers

pin_blas_threads()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Set-up probes per run: half before the operations and half after.
SETUP_PROBES = 8
# The set-up reference: a fresh interpreter that imports numpy.  setup_s is
# in seconds at the speed where it takes REFERENCE_S (about its time on the
# 2-vCPU host the benchmark was tuned on).
REFERENCE_ARGV = [sys.executable, "-c", "import numpy; print('ready')"]
REFERENCE_S = 0.15
DEADLINE_S = 170            # the whole run, preparation included

# name -> unit of every metric the result line reports, from BENCHMARK.json
_BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in _BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _BENCHMARK["per_layer"]}
# Layers a process pool hides from the tracer: they are read from the roots
# whose simulate call ran on one worker.
HIDDEN_BY_POOL = ("simulation.noise_s", "simulation.path_loop_s")


class BenchmarkError(RuntimeError):
    """A step of the benchmark itself failed; no result can be printed."""


def _median(values):
    values = list(values)
    return statistics.median(values) if values else 0.0


# -- preparation -------------------------------------------------------------


def reference(s, config: Path, src_sha256: str) -> dict:
    """The finer-grid reference tables, cached per source tree and config."""
    import checks
    import numpy

    key = hashlib.sha256(f"{src_sha256}:{checks.REFERENCE_REFINEMENT}:".encode()
                         + config.read_bytes()).hexdigest()[:24]
    path = ROOT / ".perfbench" / "cache" / f"reference-{key}.json"
    if path.is_file():
        return {k: numpy.array(v) for k, v in json.loads(path.read_text(encoding="utf-8")).items()}
    ref = checks.reference_t0(s)
    path.parent.mkdir(parents=True, exist_ok=True)
    partial = path.with_suffix(".partial")
    partial.write_text(json.dumps({k: v.tolist() for k, v in ref.items()}), encoding="utf-8")
    partial.replace(path)  # a run killed mid-write leaves no truncated cache entry
    return ref


def prepare(w, work: Path, src_sha256: str) -> dict:
    import checks
    import stackmf.cli

    config = ROOT / w.config
    s = stackmf.load_scenario_file(config)
    gains = work / "gains"
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = stackmf.cli.main(["solve", "--config", str(config), "--out", str(gains)])
    if code != 0:
        raise BenchmarkError(f"preparation: stackmf solve exited {code}")
    rel_err = checks.solve_rel_err(gains, reference(s, config, src_sha256))
    return {
        "scenario": s,
        "gains_outputs": checks.manifest_outputs(gains),
        "rel_err": rel_err,
        "solve_problems": checks.solve_problems(gains, rel_err),
        "expected_mean": checks.expected_mean(s, gains) if w.sim_paths else None,
    }


def _until_ready(argv: list) -> float:
    """Seconds from starting a fresh process until it prints "ready"."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - start
    proc.stdout.close()
    if proc.wait(timeout=60) != 0 or line.strip() != "ready":
        raise BenchmarkError(f"set-up probe {argv[1:]} failed")
    return elapsed


def setup_times(config: Path, probes: int) -> list:
    """Fresh process to first operation ready (import, load and validate),
    in seconds at the reference speed, one value per probe.

    Every probe lies between two runs of REFERENCE_ARGV, a fresh interpreter
    importing numpy: work of the same kind (process start, module loading),
    which the package does not change.  A probe's time divided by the mean of
    its neighbours' times, times REFERENCE_S, cancels the host's speed drift.
    """
    probe = [sys.executable, str(HERE / "ops.py"), "--probe", str(config)]
    refs = [_until_ready(REFERENCE_ARGV)]
    values = []
    for _ in range(probes):
        elapsed = _until_ready(probe)
        refs.append(_until_ready(REFERENCE_ARGV))
        values.append(elapsed / ((refs[-2] + refs[-1]) / 2) * REFERENCE_S)
    return values


def run_operations(args, work: Path, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "ops.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work", str(work)]
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise BenchmarkError("workload process overran the run's time limit") from None
    if code != 0:
        raise BenchmarkError(f"workload process exited {code}")
    return json.loads((work / "ops.json").read_text(encoding="utf-8"))


# -- checks ------------------------------------------------------------------


def check_operation(w, prep: dict, op: dict, op_dir: Path) -> tuple:
    """Problems of one operation, and its cost SE/|mean| when it simulated."""
    import checks

    problems = [f"{step} exited {call['code']}: {call['stderr'].strip()[-300:]}"
                for step, call in op["steps"].items() if call["code"] != 0]
    if "alt" in op:
        problems += [f"simulate on the other worker count exited {call['code']}: "
                     f"{call['stderr'].strip()[-300:]}"
                     for call in op["alt"]["steps"].values() if call["code"] != 0]
    if problems:
        return problems, None
    rel_se = None
    if "solve" in op["steps"]:
        gains = op_dir / "gains"
        problems += checks.manifest_problems(gains)
        if checks.manifest_outputs(gains) != prep["gains_outputs"]:
            problems.append("re-solve is not byte-identical to the prepared solve")
        problems += prep["solve_problems"]
    if "simulate" in op["steps"]:
        sim = op_dir / "sim"
        problems += checks.manifest_problems(sim)
        problems += checks.mean_path_problems(prep["scenario"], sim, w.sim_paths,
                                              prep["expected_mean"])
        rel_se = checks.cost_rel_se(sim)
        if "alt" in op and checks.manifest_outputs(op_dir / "alt" / "sim") != checks.manifest_outputs(sim):
            problems.append("simulate on the other worker count is not byte-identical")
    if "verify" in op["steps"]:
        verify = op_dir / "verify"
        problems += checks.manifest_problems(verify)
        problems += checks.verify_problems(verify, op["steps"]["verify"]["stdout"])
    return problems, rel_se


def trace_self_check(roots: list) -> list:
    """Counts repeat exactly between traced roots of one kind; spans nest and add up."""
    problems = []
    for kind in sorted({r["kind"] for r in roots}):
        same = [r for r in roots if r["kind"] == kind]
        if len(same) < 2:
            problems.append(f"trace: fewer than two traced '{kind}' roots")
        elif any(r["counts"] != same[0]["counts"] for r in same[1:]):
            problems.append(f"trace: counts differ between traced '{kind}' roots")
    for r in roots:
        if not r["nesting_ok"]:
            problems.append(f"trace: a span of root {r['kind']}/{r['op']} lies outside its parent")
        unattributed = r["duration_s"] - sum(r["layers"].values())
        if abs(unattributed) > 1e-6 or r["closure_error_s"] > 1e-6:
            problems.append(f"trace: self times of root {r['kind']}/{r['op']} do not add up "
                            f"to its span ({unattributed:.3e} s)")
    return problems


# -- metrics -----------------------------------------------------------------


def _bytes_written(op_dir: Path) -> int:
    return sum(p.stat().st_size for p in op_dir.rglob("*")
               if p.is_file() and "alt" not in p.relative_to(op_dir).parts)


def end_to_end(w, prep, setup, result, rel_ses) -> dict:
    """name -> (value, unit, samples) over the untraced operations; None: not measured here."""
    import checks

    untraced = [(op, r) for op, r in zip(result["ops"], rel_ses) if not op["traced"]]

    def step(name):
        return [op["steps"][name]["seconds"] for op, _ in untraced if name in op["steps"]]

    def row(values, unit):
        return (_median(values), unit, len(values)) if values else None

    sim = step("simulate")
    to_1pct = [op["steps"]["simulate"]["seconds"] * (r / checks.COST_REL_SE_TARGET) ** 2
               for op, r in untraced if r is not None]
    return {
        "setup_s": row(setup, "s"),
        "op_s": row([op["seconds"] for op, _ in untraced], "s"),
        "op_norm": row([op["seconds"] / op["probe_s"] for op, _ in untraced if "probe_s" in op],
                       "probes"),
        "solve_s": row(step("solve"), "s"),
        "sim_paths_per_s": (w.sim_paths / _median(sim), "1/s", len(sim)) if sim else None,
        "sim_time_to_1pct_s": row(to_1pct, "s"),
        "verify_s": row(step("verify"), "s"),
        "solve_rel_err": (prep["rel_err"], "ratio", 1),
        "peak_rss_mb": (result["first_op_maxrss_kb"] / 1024.0, "MB", 1),
    }


def per_layer(w, result, work: Path) -> dict:
    """name -> (value, unit, samples) from the traced roots."""
    roots = result["roots"]
    op_roots = [r for r in roots if r["kind"] == "op"]
    alt_roots = [r for r in roots if r["kind"] != "op"]
    # The roots whose simulate call ran on one worker, and those that pooled it.
    sim_roots, pool_roots = ((alt_roots, op_roots) if w.sim_workers > 1
                             else (op_roots, alt_roots))

    def layer(name):
        source = sim_roots if name in HIDDEN_BY_POOL else op_roots
        return _median(r["layers"][name] for r in source)

    def count(name, source=op_roots):
        return _median(r["counts"].get(name, 0) for r in source)

    rows = {name: layer(name) for name in op_roots[0]["layers"]}
    rows["integrators.eval_calls"] = count("integrators.eval_calls")
    rows["simulation.generators"] = count("simulation.generators", sim_roots)
    rows["simulation.chunks"] = count("simulation.chunks")
    rows["simulation.noise_share"] = _median(r["layers"]["simulation.noise_s"] / r["duration_s"]
                                             for r in sim_roots)
    loop = rows["simulation.path_loop_s"]
    steps = count("simulation.agent_steps", sim_roots)
    rows["simulation.agent_steps_per_s"] = steps / loop if loop > 0 else 0.0
    if alt_roots:
        one = _median(r["simulate_s"] for r in sim_roots)
        pooled = _median(r["simulate_pool_s"] for r in pool_roots)
        rows["simulation.pool_s"] = _median(r["layers"]["simulation.pool_s"] for r in pool_roots)
        rows["simulation.pool_efficiency"] = one / (pool_workers() * pooled)
    else:
        rows["simulation.pool_efficiency"] = 1.0   # one worker does all the work
    tests = count("equilibrium.deviation_tests")
    rows["equilibrium.deviation_pass"] = (count("equilibrium.deviations_passed") / tests
                                          if tests else 0.0)
    rows["cli.bytes_written"] = _median(_bytes_written(work / f"op{i}")
                                        for i in range(len(result["ops"])))
    traced = [op["seconds"] for op in result["ops"] if op["traced"]]
    untraced = [op["seconds"] for op in result["ops"] if not op["traced"]]
    rows["trace.overhead_ratio"] = _median(traced) / _median(untraced)
    rows["trace.spans"] = _median(r["spans"] for r in op_roots)
    return {name: (rows[name], PER_LAYER[name], len(op_roots)) for name in PER_LAYER}


def environment(w, seed: int) -> dict:
    import numpy
    import stackmf

    files = sorted((ROOT / "src").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        digest.update(str(f.relative_to(ROOT)).encode() + b"\0" + data)
        lines += len(data.splitlines())
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            commit = out.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "stackmf": stackmf.__version__,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "seed": seed,
        "workload": w.name,
        "sim_workers": w.sim_workers,
        "pool_workers": pool_workers(),
        "blas_threads": 1,
    }


def _print_table(rows: dict) -> None:
    print(f"{'metric':32} {'value':>16} {'unit':>6} {'samples':>8}")
    for name, row in rows.items():
        if row is None:
            print(f"{name:32} {'n/a':>16}")
        else:
            value, unit, samples = row
            print(f"{name:32} {value:16.6g} {unit:>6} {samples:8d}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "stackmf" / "__init__.py").is_file() or not (ROOT / BASELINE).is_file():
        print(f"perfbench: no stackmf source tree under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    w = WORKLOADS[args.workload]
    label = f"{w.name}-seed{args.seed}-trace{args.trace}"
    out = ROOT / ".perfbench"
    work = out / label
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        env = environment(w, args.seed)
        prep = prepare(w, work, env["src_sha256"])
        setup = setup_times(ROOT / w.config, SETUP_PROBES // 2)
        result = run_operations(args, work, deadline)
        setup += setup_times(ROOT / w.config, SETUP_PROBES - len(setup))

        problems = {}
        rel_ses = []
        for i, op in enumerate(result["ops"]):
            found, rel_se = check_operation(w, prep, op, work / f"op{i}")
            rel_ses.append(rel_se)
            if found:
                problems[i] = found
        run_problems = trace_self_check(result["roots"]) if args.trace else []

        e2e = end_to_end(w, prep, setup, result, rel_ses)
        e2e["ops_failed_ratio"] = (len(problems) / len(result["ops"]), "ratio", len(result["ops"]))
        layers = per_layer(w, result, work) if args.trace else {}
        if args.trace:
            shutil.copyfile(work / "spans.csv", out / f"spans-{label}.csv")
    except BenchmarkError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)

    chosen = layers if args.trace else {k: e2e[k] for k in END_TO_END if e2e[k] is not None}
    summary = {
        "correct": not problems and not run_problems,
        "attempted": len(result["ops"]),
        "failed": len(problems),
        "metrics": {k: {"value": v[0], "unit": v[1]} for k, v in chosen.items()},
    }
    (out / f"result-{label}.json").write_text(json.dumps({
        "env": env,
        "op_seconds": [op["seconds"] for op in result["ops"]],
        "op_probe_s": [op.get("probe_s") for op in result["ops"]],
        "setup_seconds": setup,
        "end_to_end": e2e,
        "per_layer": layers,
        "problems": {str(k): v for k, v in problems.items()},
        "run_problems": run_problems,
        "result": summary,
    }, indent=2) + "\n", encoding="utf-8")

    print(f"perfbench workload={w.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    _print_table(e2e)
    if layers:
        _print_table(layers)
    for i, found in sorted(problems.items()):
        print(f"operation {i} FAILED: " + "; ".join(found))
    for line in run_problems:
        print("FAILED " + line)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
