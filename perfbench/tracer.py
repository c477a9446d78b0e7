"""Span tracer for the benchmark's traced run, kept outside the package.

While a root span is open, the public functions listed below are replaced in
every loaded `stackmf` module by wrappers that record a span (name, start,
end, parent, root id), or only count calls.  Closing the root restores the
originals, so untraced operations run the unmodified program.  Spans stay
in memory until `write_csv` is called at the end of the run.

A span's self time is its duration minus the durations of its direct
children; each span name adds its self time to one per-layer metric, and a
root's own self time is the CLI's own work (`cli.self_s`).  A target that a
later version of the package no longer has is skipped and its metric reads 0.
"""

from __future__ import annotations

import csv
import math
import sys
import time
from collections import Counter
from contextlib import contextmanager

# (module, class or None, attribute, span name, per-layer metric the span's self time adds to)
TIMED = (
    ("stackmf.model", None, "load_scenario_file", "model.load_scenario_file", "model.load_s"),
    ("stackmf.model", None, "validate", "model.validate", "model.load_s"),
    ("stackmf.follower", None, "solve_follower_gains", "follower.solve_follower_gains",
     "follower.solve_s"),
    ("stackmf.leader", None, "solve_leader_gains", "leader.solve_leader_gains", "leader.solve_s"),
    ("stackmf.leader", None, "assemble_extended", "leader.assemble_extended", "leader.assemble_s"),
    ("stackmf.leader", None, "solve_leader_M", "leader.solve_leader_M", "leader.cross_check_s"),
    ("stackmf.simulation", None, "solve_mean_state", "simulation.solve_mean_state",
     "simulation.mean_pass_s"),
    ("stackmf.simulation", "NoiseModel", "initial", "simulation.NoiseModel.initial",
     "simulation.noise_s"),
    ("stackmf.simulation", "NoiseModel", "wiener", "simulation.NoiseModel.wiener",
     "simulation.noise_s"),
    ("stackmf.equilibrium", None, "run_verification", "equilibrium.run_verification",
     "equilibrium.checks_s"),
    ("stackmf.equilibrium", None, "dp_gain_oracle", "equilibrium.dp_gain_oracle",
     "equilibrium.dp_oracle_s"),
    ("stackmf.equilibrium", None, "follower_deviation_test", "equilibrium.follower_deviation_test",
     "equilibrium.follower_dev_s"),
    ("stackmf.equilibrium", None, "leader_deviation_test", "equilibrium.leader_deviation_test",
     "equilibrium.leader_dev_s"),
    ("stackmf.integrators", "GridFunction", "to_csv", "integrators.GridFunction.to_csv",
     "cli.write_s"),
    ("stackmf.equilibrium", "VerificationReport", "to_csv", "equilibrium.VerificationReport.to_csv",
     "cli.write_s"),
    ("stackmf.cli", None, "_write_rows", "cli._write_rows", "cli.write_s"),
    ("stackmf.cli", None, "_write_manifest", "cli._write_manifest", "cli.write_s"),
    ("stackmf.integrators", None, "read_grid_csv", "integrators.read_grid_csv", "cli.read_s"),
)

# (module, class, attribute, counter)
COUNTED = (
    ("stackmf.integrators", "GridFunction", "eval", "integrators.eval_calls"),
    ("stackmf.simulation", "NoiseModel", "generator", "simulation.generators"),
)

SIMULATE = "simulation.simulate"            # an in-process simulate call
SIMULATE_POOL = "simulation.simulate[pool]"  # a simulate call that ran a process pool

LAYER_OF = {span: metric for _, _, _, span, metric in TIMED}
LAYER_OF[SIMULATE] = "simulation.path_loop_s"
LAYER_OF[SIMULATE_POOL] = "simulation.pool_s"

TIME_METRICS = tuple(dict.fromkeys(list(LAYER_OF.values()) + ["cli.self_s"]))

_NAME, _START, _END, _PARENT, _ROOT = range(5)


class Tracer:
    """Spans and counters of the traced operations of one run."""

    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent index, root id]
        self.roots: list[dict] = []     # one entry per root span, with its counters
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._root_id = -1
        self._restore: list = []

    # -- recording --------------------------------------------------------

    def _open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self._root_id]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[_START] = time.perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[_END] = time.perf_counter()
        self._stack.pop()

    def _timed(self, fn, name: str):
        def wrapper(*args, **kwargs):
            rec = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(rec)
        return wrapper

    def _counted(self, fn, counter: str):
        def wrapper(*args, **kwargs):
            self.counts[counter] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _simulate(self, fn):
        """simulate(s, fg, lg, n_paths, seed, *, workers=1, ...): span plus work counters."""
        def wrapper(s, fg, lg, n_paths, *args, **kwargs):
            pooled = kwargs.get("workers", 1) > 1
            self.counts["simulation.paths"] += n_paths
            self.counts["simulation.agent_steps"] += n_paths * (s.dims.N + 1) * s.grid.steps
            chunk_size = getattr(sys.modules["stackmf.simulation"], "default_chunk_size", None)
            if chunk_size is not None:
                chunk = kwargs.get("chunk_size") or chunk_size(s.dims.N, s.grid.steps, n_paths)
                self.counts["simulation.chunks"] += math.ceil(n_paths / chunk)
            rec = self._open(SIMULATE_POOL if pooled else SIMULATE)
            try:
                return fn(s, fg, lg, n_paths, *args, **kwargs)
            finally:
                self._close(rec)
        return wrapper

    def _deviation(self, fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.counts["equilibrium.deviation_tests"] += 1
            self.counts["equilibrium.deviations_passed"] += int(bool(result.passed))
            return result
        return wrapper

    # -- installing the wrappers --------------------------------------------

    def _patch(self, module: str, cls, attr: str, make) -> None:
        mod = sys.modules.get(module)
        if mod is None:
            return
        if cls is not None:
            owner = getattr(mod, cls, None)
            if owner is None or attr not in vars(owner):
                return
            orig = vars(owner)[attr]
            setattr(owner, attr, make(orig))
            self._restore.append((owner, attr, orig))
            return
        orig = getattr(mod, attr, None)
        if orig is None:
            return
        wrapper = make(orig)
        # Modules that imported the function by name hold their own reference.
        for name, other in list(sys.modules.items()):
            if name != "stackmf" and not name.startswith("stackmf."):
                continue
            for key, value in list(vars(other).items()):
                if value is orig:
                    setattr(other, key, wrapper)
                    self._restore.append((other, key, orig))

    def _install(self) -> None:
        for module, cls, attr, span, _ in TIMED:
            timed = (lambda fn, span=span: self._timed(fn, span))
            if attr.endswith("deviation_test"):
                self._patch(module, cls, attr, lambda fn, timed=timed: timed(self._deviation(fn)))
            else:
                self._patch(module, cls, attr, timed)
        for module, cls, attr, counter in COUNTED:
            self._patch(module, cls, attr, lambda fn, counter=counter: self._counted(fn, counter))
        self._patch("stackmf.simulation", None, "simulate", self._simulate)

    def _uninstall(self) -> None:
        while self._restore:
            owner, attr, orig = self._restore.pop()
            setattr(owner, attr, orig)

    @contextmanager
    def root(self, kind: str, op: int):
        """Trace everything inside as one root span of the given kind."""
        self._root_id = len(self.roots)
        self.counts = Counter()
        first = len(self.spans)
        self._install()
        rec = self._open(kind)
        try:
            yield
        finally:
            self._close(rec)
            self._uninstall()
            self.roots.append({"kind": kind, "op": op, "first": first, "last": len(self.spans),
                               "counts": dict(self.counts)})

    # -- reduction ----------------------------------------------------------

    def summarize(self, root: dict) -> dict:
        """Per-layer self times, counters and bookkeeping checks of one root."""
        spans = self.spans[root["first"]:root["last"]]
        first = root["first"]
        child_time = [0.0] * len(spans)
        nesting_ok = True
        for rec in spans[1:]:
            parent = spans[rec[_PARENT] - first]
            child_time[rec[_PARENT] - first] += rec[_END] - rec[_START]
            if rec[_START] < parent[_START] or rec[_END] > parent[_END]:
                nesting_ok = False
        layers = dict.fromkeys(TIME_METRICS, 0.0)
        sim = {SIMULATE: 0.0, SIMULATE_POOL: 0.0}
        self_sum = 0.0
        for i, rec in enumerate(spans):
            self_time = rec[_END] - rec[_START] - child_time[i]
            self_sum += self_time
            layers[LAYER_OF.get(rec[_NAME], "cli.self_s")] += self_time
            if rec[_NAME] in sim:
                sim[rec[_NAME]] += rec[_END] - rec[_START]
        duration = spans[0][_END] - spans[0][_START]
        closure = abs(self_sum - duration)
        return {
            "kind": root["kind"],
            "op": root["op"],
            "duration_s": duration,
            "spans": len(spans),
            "layers": layers,
            "counts": root["counts"],
            "simulate_s": sim[SIMULATE],
            "simulate_pool_s": sim[SIMULATE_POOL],
            "nesting_ok": nesting_ok,
            "closure_error_s": closure,
        }

    def write_csv(self, path) -> None:
        """Every span of the run: name, start, end (seconds), parent index, root id."""
        t0 = self.spans[0][_START] if self.spans else 0.0
        with open(path, "w", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh, lineterminator="\n")
            out.writerow(["index", "name", "start_s", "end_s", "parent", "root"])
            for i, rec in enumerate(self.spans):
                out.writerow([i, rec[_NAME], f"{rec[_START] - t0:.9f}", f"{rec[_END] - t0:.9f}",
                              rec[_PARENT], rec[_ROOT]])
