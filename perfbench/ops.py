"""Workload process of the stackmf benchmark.

    python3 perfbench/ops.py --workload NAME --seed N --seconds S --trace 0|1 --work DIR
    python3 perfbench/ops.py --probe CONFIG

The first form imports the package, loads and validates the workload's
config, then runs operations through `stackmf.cli.main` in a closed loop
for about S seconds (up to the operation boundary nearest to S), each
operation writing under DIR/op<i>/.  It
writes DIR/ops.json: every operation's calls with exit code, wall time and
captured output, the peak memory of the first operation (the process's
plus its largest pool worker's), and, with --trace 1, the
per-root summaries of the traced operations (spans go to DIR/spans.csv).
Untraced operations of a workload without a process pool run under a
`SpeedProbe`, whose time is taken out of theirs and whose mean duration
they record.

With --trace 1 traced and untraced operations alternate, starting traced,
until at least two traced and one untraced operation have run.  On a
workload that simulates, every traced operation is followed by a traced
root that runs the same simulate call on the other worker count: a
`simulate_w1` root on one worker after a pooled operation, which shows the
layers the pool hides, or a `simulate_pool` root on a pool after a
one-worker operation.  Together they give the pool efficiency.

The second form is the set-up probe: it does the same imports and config
load, prints "ready" and exits.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import signal
import sys
import time
import traceback
from pathlib import Path

from workloads import WORKLOADS, operation_calls, pin_blas_threads, pool_workers

pin_blas_threads()

import numpy as np  # noqa: E402  (after the BLAS threads are pinned)

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))


def setup(config: Path):
    """What a fresh process does before its first operation; returns the CLI entry point."""
    import stackmf.cli
    from stackmf.model import load_scenario_file, validate

    validate(load_scenario_file(config))
    return stackmf.cli.main


def probe_kernel() -> None:
    """Fixed work of the kind the package does: interpreter loop, small
    matrix products, Philox generator construction.  About 3 ms."""
    s = 0
    for i in range(8_000):
        s += i * i % 7
    a = np.ones((4, 4))
    for _ in range(400):
        a = a @ a * 0.25
    for key in range(40):
        np.random.Generator(np.random.Philox(key=key)).standard_normal(8)


class SpeedProbe:
    """Samples the CPU speed an operation sees, on the operation's own thread.

    The CPU speed of a shared host drifts by tens of percent within seconds,
    so wall time alone does not repeat between runs.  While armed, a SIGALRM
    every PERIOD_S runs `probe_kernel` between the program's bytecodes and
    records how long it took; one more sample is taken on each side.  An
    operation's wall time minus the probes' time, divided by their mean
    duration, is its length in probe durations, and the drift cancels out.
    """

    PERIOD_S = 0.1

    def __init__(self):
        self.samples = []   # (start, duration) of every probe run
        signal.signal(signal.SIGALRM, lambda signum, frame: self._sample())

    def _sample(self) -> None:
        start = time.perf_counter()
        probe_kernel()
        self.samples.append((start, time.perf_counter() - start))

    @contextlib.contextmanager
    def armed(self):
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            self._sample()

    def busy_s(self, start: float, end: float) -> float:
        """Time the probe took from the interval [start, end)."""
        return sum(d for s, d in self.samples if start <= s < end)


def _call(main, argv: list, probe=None) -> dict:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as e:  # argparse rejects a usage error by exiting
        code = e.code
    except Exception:  # an operation that raises is recorded as failed, the loop goes on
        code = None
        err.write(traceback.format_exc())
    end = time.perf_counter()
    seconds = end - start - (probe.busy_s(start, end) if probe else 0.0)
    return {"argv": argv, "code": code, "seconds": seconds,
            "stdout": out.getvalue(), "stderr": err.getvalue()}


def _operation(main, calls: list, probe=None) -> dict:
    """One operation; with a probe, its times exclude the probe's and it
    records the probe's mean duration over the operation."""
    if probe is None:
        start = time.perf_counter()
        steps = {step: _call(main, argv) for step, argv in calls}
        return {"seconds": time.perf_counter() - start, "steps": steps}
    first = len(probe.samples)
    with probe.armed():
        start = time.perf_counter()
        steps = {step: _call(main, argv, probe) for step, argv in calls}
        end = time.perf_counter()
    durations = [d for _, d in probe.samples[first:]]
    return {"seconds": end - start - probe.busy_s(start, end),
            "probe_s": sum(durations) / len(durations), "probes": len(durations),
            "steps": steps}


def run(args) -> dict:
    w = WORKLOADS[args.workload]
    main = setup(ROOT / w.config)
    work = Path(args.work)

    # A probe beside a process pool would time the contention with its
    # workers, not the CPU's speed.
    probe = SpeedProbe() if w.sim_workers == 1 else None
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    ops = []
    traced = untraced = 0
    start = time.perf_counter()

    def more() -> bool:
        # Stop at the operation boundary nearest to S seconds, so that a run
        # of long operations does not overshoot by up to a whole one.
        elapsed = time.perf_counter() - start
        return not ops or elapsed + elapsed / len(ops) / 2 < args.seconds

    while more() or (tracer is not None and (traced < 2 or untraced < 1)):
        i = len(ops)
        op_dir = work / f"op{i}"
        calls = operation_calls(w, ROOT, op_dir, args.seed, work / "gains")
        if tracer is None or i % 2 == 1:
            ops.append({"traced": False, **_operation(main, calls, probe)})
            untraced += 1
        else:
            with tracer.root("op", i):
                ops.append({"traced": True, **_operation(main, calls)})
            if w.sim_paths and pool_workers() > 1:
                pooled = w.sim_workers > 1
                argv = list(dict(calls)["simulate"])
                argv[argv.index("--out") + 1] = str(op_dir / "alt" / "sim")
                argv[argv.index("--workers") + 1] = str(1 if pooled else pool_workers())
                with tracer.root("simulate_w1" if pooled else "simulate_pool", i):
                    ops[-1]["alt"] = _operation(main, [("simulate", argv)])
            traced += 1
        if i == 0:
            # What a user of the CLI sees: one operation in a fresh process.
            # Later operations would add the long-lived process's fragmentation.
            maxrss_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                         + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)

    result = {"ops": ops, "first_op_maxrss_kb": maxrss_kb}
    if tracer is not None:
        result["roots"] = [tracer.summarize(r) for r in tracer.roots]
        tracer.write_csv(work / "spans.csv")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--probe", help="set-up probe: load this config, print ready, exit")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", help="directory for operation outputs and ops.json")
    args = parser.parse_args(argv)

    if args.probe:
        setup(Path(args.probe))
        print("ready", flush=True)
        return 0
    if not args.workload or not args.work:
        parser.error("--workload and --work are required")
    result = run(args)
    (Path(args.work) / "ops.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
