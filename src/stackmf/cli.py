"""Command-line front end: solve, simulate, verify, and sweep workflows.

Every command ingests a scenario config, writes CSV artifacts plus a
`manifest.json` into the output directory, and exits with a stable code.
This is the package's one module that writes files, and every CSV, the
gains tables and `verify`'s report included, goes through one writer,
`_write_rows`.  Codes:

    0   success
    1   I/O failure (unreadable config, missing gains files, unwritable out)
    2   validation hard-failure or malformed config (a non-finite number too)
    3   gain equation blew up, or simulated paths overflowed (failure time
        reported)
    4   gains directory is not grid-compatible with the config, a gains
        table is malformed (non-numeric or non-finite cell, missing `t`
        header, ragged row), or the tables contradict each other (follower
        P + K against Pi, leader P + K against M, P not symmetric, leader
        P nonzero on the offset block, past the gates of `verify`, or phi
        against the offset the other tables give)
    5   verification found a violated invariant
    64  usage error (bad flags, empty or non-finite value lists, zero paths, a
        negative --store, seed or path count outside the noise-stream range)

Manifests record the config hash, grid, seed-level inputs, package versions,
and a content hash per output file — and deliberately nothing that is allowed
to vary without changing the outputs (worker counts, timestamps, host names),
so equal manifests certify byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .equilibrium import FOLLOWER_SUM_TOL, VerificationReport, run_verification, table_identities
from .follower import FollowerGains, follower_gains, solve_follower_gains, symmetry_drift
from .integrators import BlowUpError, GridFunction, read_grid_csv
from .leader import LeaderGains, assemble_extended, leader_gains, solve_leader_gains
from .model import (
    Mode,
    Scenario,
    ScenarioError,
    TimeGrid,
    load_scenario_bytes,
    require_valid,
    validate,
)
from .simulation import (
    NOISE_SCHEME,
    GridMismatchError,
    estimate_costs,
    simulate,
)

__all__ = ["main"]

EXIT_OK = 0
EXIT_IO = 1
EXIT_VALIDATION = 2
EXIT_BLOWUP = 3
EXIT_GRID = 4
EXIT_VERIFY = 5
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    """argparse with the usage exit code pinned to 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


# --------------------------------------------------------------------------
# shared plumbing


def _fail(code: int, message: str) -> int:
    print(message, file=sys.stderr)
    return code


def _load_config(path_str: str) -> tuple[Scenario, bytes]:
    """The scenario parsed from the config's bytes, and those bytes, read once."""
    raw = Path(path_str).read_bytes()
    return load_scenario_bytes(raw), raw


def _sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _sha256_file(path: Path) -> str:
    return _sha256_bytes(path.read_bytes())


def _write_manifest(
    out: Path, command: str, s: Scenario, config_bytes: bytes, inputs: dict, outputs: list[Path]
) -> Path:
    manifest = {
        "command": command,
        "config_sha256": _sha256_bytes(config_bytes),
        "mode": s.mode.value,
        "grid": {"horizon": s.grid.horizon, "steps": s.grid.steps},
        "dims": {"n": s.dims.n, "m": s.dims.m, "N": s.dims.N},
        "inputs": inputs,
        "versions": {"noise": NOISE_SCHEME, "numpy": np.__version__, "stackmf": __version__},
        "outputs": {p.name: _sha256_file(p) for p in outputs},
    }
    path = out / "manifest.json"
    path.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    return path


def _write_rows(path: Path, header: list[str], lines) -> None:
    """The header, then one CSV line per entry of `lines` (see `_line`, `_float_lines`)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for line in lines:
            fh.write(line + "\n")


def _line(row) -> str:
    """One CSV line from cells of any type; floats in shortest round-trip form."""
    return ",".join(repr(x) if isinstance(x, float) else str(x) for x in row)


def _float_lines(table: np.ndarray, lead: str = ""):
    """CSV lines of a float table, each prefixed by `lead`; the bytes `_line`
    writes for the same rows."""
    return (lead + ",".join(map(repr, row)) for row in table.tolist())


def _write_verification(path: Path, rep: VerificationReport) -> None:
    """One row per check, then one per deviation; floats in shortest round-trip form."""
    rows = [("check", c.name, c.value, c.threshold, "", "", "", int(c.passed)) for c in rep.checks]
    rows += [("deviation", f"{d.target}/{d.label}", "", "", d.c1, d.c1_se, d.c2, int(d.passed))
             for d in rep.deviations]
    _write_rows(path, ["kind", "name", "value", "threshold", "c1", "c1_se", "c2", "passed"], map(_line, rows))


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# --------------------------------------------------------------------------
# gains round trip


def _gain_tables(n: int) -> dict[str, tuple]:
    """The solve tables in file order, each with its item shape."""
    d = 3 * n
    return {"P": (n, n), "K": (n, n), "Pi": (n, n), "phi": (n,),
            "leaderP": (d, d), "leaderK": (d, d), "leaderM": (d, d), "leaderV": (d,)}


def _write_table(path: Path, name: str, gf: GridFunction) -> None:
    """One row per node: t, then the entries in row-major order as `name_i` or `name_i_j`."""
    header = ["t"] + ["_".join(map(str, (name, *ix))) for ix in np.ndindex(gf.values.shape[1:])]
    flat = gf.values.reshape(len(gf.values), -1)
    _write_rows(path, header, _float_lines(np.column_stack([gf.grid.nodes, flat])))


def _write_gains(out: Path, s: Scenario, fg: FollowerGains, lg: LeaderGains) -> dict[str, GridFunction]:
    # phi.csv is the offset `simulate` builds its tables from, `lg.offset`.
    values = (fg.P, fg.K, fg.Pi, lg.offset, lg.P, lg.K, lg.M, lg.V)
    tables = dict(zip(_gain_tables(s.dims.n), values, strict=True))
    for name, gf in tables.items():
        _write_table(out / f"{name}.csv", name, gf)
    return tables


def _read_table(s: Scenario, gains_dir: Path, name: str, item_shape: tuple) -> GridFunction:
    path = gains_dir / f"{name}.csv"
    if not path.is_file():
        raise FileNotFoundError(f"missing gains table: {path}")
    try:
        t, flat = read_grid_csv(path)
        if t.shape[0] != s.grid.steps + 1 or not np.array_equal(t, s.grid.nodes):
            raise ValueError(
                f"time grid does not match config ({t.shape[0] - 1} steps vs {s.grid.steps})"
            )
        want = int(np.prod(item_shape))
        if flat.shape[1] != want:
            raise ValueError(f"expected {want} value columns for shape {item_shape}, got {flat.shape[1]}")
        return GridFunction(s.grid, flat.reshape((s.grid.steps + 1,) + item_shape))
    except (ValueError, IndexError) as e:     # unparsable, ragged or non-finite cells too
        raise GridMismatchError(f"{path}: {e}") from None


def _load_gains(s: Scenario, gains_dir: Path) -> tuple[FollowerGains, LeaderGains]:
    """Rebuild the gain objects from a solve output directory.

    All eight tables are read and validated.  The tables must satisfy the
    identities `verify` gates (`table_identities`): P + K = Pi with P
    symmetric, and the leader's P + K = M with P zero on the third block,
    which `simulate` assumes.  phi.csv must hold the offset that the leader
    gains derive from the others (`LeaderGains.offset`), the one `_write_gains`
    writes and `simulate` reads.
    """
    t = {name: _read_table(s, gains_dir, name, shape) for name, shape in _gain_tables(s.dims.n).items()}
    fg = follower_gains(s, t["P"], t["K"], t["Pi"], float(symmetry_drift(t["P"].values).max()))
    lg = leader_gains(s, assemble_extended(s, fg), t["leaderP"], t["leaderK"], t["leaderM"], t["leaderV"])
    rows = [(row.name, row.value, row.threshold) for row in table_identities(fg, lg)]
    offset = lg.offset.values
    rows.append(("phi", np.max(np.abs(t["phi"].values - offset)), FOLLOWER_SUM_TOL * (1.0 + np.max(np.abs(offset)))))
    for name, value, threshold in rows:
        if not value <= threshold:
            raise GridMismatchError(f"{gains_dir}: gains tables contradict each other: "
                                    f"{name} = {value:.3e} exceeds {threshold:.3e}")
    return fg, lg


# --------------------------------------------------------------------------
# solve


def _cmd_solve(args) -> int:
    s, config_bytes = _load_config(args.config)
    out = _out_dir(args)
    outputs: list[Path] = []

    report = validate(s)
    validation_path = out / "validation.txt"
    validation_path.write_text("\n".join(report.lines()) + "\n", encoding="utf-8")
    outputs.append(validation_path)
    inputs = {"config": str(args.config)}

    if not report.hard_ok:
        failed = ", ".join(c.name for c in report.failures() if c.severity == "hard")
        _write_manifest(out, "solve", s, config_bytes, inputs, outputs)
        return _fail(EXIT_VALIDATION, f"validation hard-failure: {failed} (see {validation_path})")

    report_path = out / "solve_report.txt"
    stage = "follower"
    try:
        fg = solve_follower_gains(s)
        stage = "leader"
        lg = solve_leader_gains(s, fg)
    except BlowUpError as e:
        report_path.write_text(
            f"status = blowup\nstage = {stage}\nfailure_time = {e.time!r}\nmessage = {e}\n",
            encoding="utf-8",
        )
        outputs.append(report_path)
        _write_manifest(out, "solve", s, config_bytes, inputs, outputs)
        return _fail(EXIT_BLOWUP, f"{stage} gain equation blew up at t={e.time:.6g}")

    tables = _write_gains(out, s, fg, lg)
    outputs.extend(out / f"{name}.csv" for name in tables)
    lines = ["status = ok"]
    lines += [f"max_abs.{name} = {float(np.max(np.abs(gf.values)))!r}"
              for name, gf in tables.items() if name != "phi"]
    lines.append(f"symmetry_drift = {fg.sym_drift!r}")
    for name, health in fg.health + lg.health:
        lines.append(f"flow.{name}.min_factor_det = {health.min_det!r}")
        lines.append(f"flow.{name}.blowup_margin = {health.margin!r}")
    report_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    outputs.append(report_path)

    _write_manifest(out, "solve", s, config_bytes, inputs, outputs)
    return EXIT_OK


# --------------------------------------------------------------------------
# simulate


def _cmd_simulate(args) -> int:
    if args.store < 0:
        return _fail(EXIT_USAGE, "simulate: --store must be a nonnegative integer")
    s, config_bytes = _load_config(args.config)
    require_valid(s)
    gains_dir = Path(args.gains)
    fg, lg = _load_gains(s, gains_dir)
    out = _out_dir(args)

    store = min(args.store, args.paths)
    er = simulate(
        s, fg, lg, n_paths=args.paths, seed=args.seed, workers=args.workers, store_paths=store
    )

    n, m = s.dims.n, s.dims.m
    K = s.grid.steps
    nodes = s.grid.nodes
    ns = er.node_summary

    header = ["t"]
    for label in ("x0_mean", "x0_std", "xbar_mean", "xbar_std", "offset"):
        header += [f"{label}_{i}" for i in range(n)]
    for label in ("u0_mean", "u0_std"):
        header += [f"{label}_{j}" for j in range(m)]
    header.append("gap")
    columns = np.column_stack(
        [
            nodes,
            ns["x0_mean"], ns["x0_std"], ns["xbar_mean"], ns["xbar_std"], lg.offset.values,
            ns["u0_mean"], ns["u0_std"],
            er.lln_gap.values,
        ]
    )
    summary_path = out / "summary.csv"
    _write_rows(summary_path, header, _float_lines(columns))

    costs_path = out / "costs.csv"
    _write_rows(costs_path, ["name", "mean", "se"], map(_line, estimate_costs(er)))

    traj_path = out / "trajectories.csv"
    traj_header = ["path", "t"]
    traj_header += [f"leader_{c}" for c in range(n)]
    for i in range(s.dims.N):
        traj_header += [f"f{i + 1}_{c}" for c in range(n)]

    def traj_lines():
        for p in er.paths:
            followers = p.followers.transpose(1, 0, 2).reshape(K + 1, -1)
            yield from _float_lines(np.column_stack([nodes, p.x0, followers]), f"{p.index},")

    _write_rows(traj_path, traj_header, traj_lines())

    inputs = {
        "config": str(args.config),
        "paths": args.paths,
        "seed": args.seed,
        "store": store,
        "gains_sha256": {f"{name}.csv": _sha256_file(gains_dir / f"{name}.csv") for name in _gain_tables(n)},
    }
    _write_manifest(
        out, "simulate", s, config_bytes, inputs, [summary_path, costs_path, traj_path]
    )
    return EXIT_OK


# --------------------------------------------------------------------------
# verify


def _cmd_verify(args) -> int:
    if args.directions < 1:
        return _fail(EXIT_USAGE, "verify: --directions must be a positive integer")
    s, config_bytes = _load_config(args.config)
    out = _out_dir(args)

    fg = solve_follower_gains(s)
    lg = solve_leader_gains(s, fg)
    rep = run_verification(
        s,
        fg,
        lg,
        n_paths=args.paths,
        seed=args.seed,
        directions=args.directions,
        workers=args.workers,
    )
    for line in rep.summary_lines():
        print(line)

    report_path = out / "verification.csv"
    _write_verification(report_path, rep)
    inputs = {
        "config": str(args.config),
        "paths": args.paths,
        "seed": args.seed,
        "directions": args.directions,
    }
    _write_manifest(out, "verify", s, config_bytes, inputs, [report_path])

    if not rep.passed:
        failing = [c.name for c in rep.checks if not c.passed]
        failing += [
            f"deviation:{d.target}/{d.label}" for d in rep.deviations if not d.passed
        ]
        return _fail(EXIT_VERIFY, "verification failed: " + ", ".join(failing))
    return EXIT_OK


# --------------------------------------------------------------------------
# sweep


def _parse_values(parser: _Parser, vary: str, raw: str) -> list:
    items = [x.strip() for x in raw.split(",") if x.strip()]
    if not items:
        parser.error("sweep: --values must be a nonempty comma-separated list")
    try:
        if vary in ("N", "steps"):
            values = [int(x) for x in items]
        else:
            values = [float(x) for x in items]
    except ValueError:
        parser.error(f"sweep: could not parse --values {raw!r} as numbers")
    if not np.all(np.isfinite(values)):
        parser.error("sweep: --values entries must be finite")
    if len(set(values)) != len(values):
        parser.error("sweep: --values entries must be distinct")
    if vary == "N" and any(v < 1 for v in values):
        parser.error("sweep: follower counts must be positive")
    if vary == "steps":
        if any(v < 2 for v in values):
            parser.error("sweep: steps values must be at least 2")
        finest = max(values)
        bad = [v for v in values if finest % v != 0]
        if bad:
            parser.error(
                f"sweep: each steps value must divide the largest one ({finest}) "
                f"so all rungs share the same noise paths; offending: {bad}"
            )
    return values


def _sweep_N(s: Scenario, values, args, out: Path):
    """The mean gap between the population average and its limit at t = T/2,
    gains re-solved per follower count (the sources carry 1/N factors), and
    its log-log slope, near -1/2 when the de-aggregation is wired correctly."""
    mid = s.grid.steps // 2
    rows = []
    for v in values:
        sv = dataclasses.replace(s, dims=dataclasses.replace(s.dims, N=v))
        fg = solve_follower_gains(sv)
        lg = solve_leader_gains(sv, fg)
        er = simulate(sv, fg, lg, n_paths=args.paths, seed=args.seed, workers=args.workers, store_paths=0)
        rows.append((v, float(er.lln_gap.values[mid])))
        _write_rows(out / f"run_N{v}.csv", ["N", "gap"], [_line(rows[-1])])
    agg = [["N", str(v), "gap", g] for v, g in rows]
    if len(rows) > 1:
        logs, gaps = np.log(np.array(rows, dtype=float)).T
        agg.append(["N", "", "slope_loglog", float(np.polyfit(logs, gaps, 1)[0])])
    return agg, [out / f"run_N{v}.csv" for v, _ in rows]


def _sweep_steps(s: Scenario, values, args, out: Path):
    finest = max(values)
    results = {}
    files = []
    for v in sorted(values):
        sv = dataclasses.replace(s, grid=TimeGrid(s.grid.horizon, v))
        fg = solve_follower_gains(sv)
        lg = solve_leader_gains(sv, fg)
        er = simulate(
            sv, fg, lg, n_paths=args.paths, seed=args.seed, workers=args.workers,
            store_paths=0, substeps=finest // v,
        )
        results[v] = (er.leader_cost.mean, er.social_cost.mean)
        path = out / f"run_steps{v}.csv"
        _write_rows(path, ["name", "mean", "se"], map(_line, estimate_costs(er)))
        files.append(path)

    agg = []
    errs = []
    refJ0, refJsoc = results[finest]
    for v in sorted(values):
        J0, Jsoc = results[v]
        agg.append(["steps", str(v), "J0", float(J0)])
        agg.append(["steps", str(v), "Jsoc", float(Jsoc)])
        if v != finest:
            err = abs(J0 - refJ0) + abs(Jsoc - refJsoc)
            agg.append(["steps", str(v), "cost_error", float(err)])
            errs.append((s.grid.horizon / v, err))
    if len(errs) > 1 and all(e > 0.0 for _, e in errs):
        rate = float(np.polyfit(np.log([d for d, _ in errs]), np.log([e for _, e in errs]), 1)[0])
        agg.append(["steps", "", "rate", rate])
    return agg, files


def _sweep_Gamma(s: Scenario, values, args, out: Path):
    base = s.follower_cost.Gamma
    agg = []
    files = []
    for v in values:
        fc = dataclasses.replace(s.follower_cost, Gamma=v * base)
        gains = {}
        for mode in (Mode.GAME, Mode.TEAM):
            sv = dataclasses.replace(s, follower_cost=fc, mode=mode)
            fg = solve_follower_gains(sv)
            lg = solve_leader_gains(sv, fg)
            gains[mode] = (fg.P, fg.K, fg.Pi, lg.P, lg.K, lg.M, lg.V)
        gap = max(
            float(np.max(np.abs(a.values - b.values)))
            for a, b in zip(gains[Mode.GAME], gains[Mode.TEAM])
        )
        agg.append(["Gamma", repr(float(v)), "mode_gap", gap])
        path = out / f"run_Gamma{v!r}.csv"
        _write_rows(path, ["Gamma_scale", "mode_gap"], [_line([float(v), gap])])
        files.append(path)
    return agg, files


def _cmd_sweep(args) -> int:
    s, config_bytes = _load_config(args.config)
    out = _out_dir(args)

    runner = {"N": _sweep_N, "steps": _sweep_steps, "Gamma": _sweep_Gamma}[args.vary]
    agg, files = runner(s, args.values, args, out)

    agg_path = out / "aggregate.csv"
    _write_rows(agg_path, ["param", "value", "metric", "result"], map(_line, agg))
    inputs = {
        "config": str(args.config),
        "vary": args.vary,
        "values": [float(v) for v in args.values],
        "paths": args.paths,
        "seed": args.seed,
    }
    _write_manifest(out, "sweep", s, config_bytes, inputs, files + [agg_path])
    return EXIT_OK


# --------------------------------------------------------------------------
# parser


def _add_common(sub: _Parser) -> None:
    sub.add_argument("--config", required=True, help="scenario config file")
    sub.add_argument("--out", required=True, help="output directory")


def _build_parser() -> _Parser:
    parser = _Parser(prog="stackmf", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_solve = subs.add_parser("solve", help="solve the gain equations and export tables")
    _add_common(p_solve)
    p_solve.set_defaults(func=_cmd_solve)

    p_sim = subs.add_parser("simulate", help="Monte Carlo ensemble from exported gains")
    _add_common(p_sim)
    p_sim.add_argument("--gains", required=True, help="directory holding solve outputs")
    p_sim.add_argument("--paths", type=int, default=256)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--workers", type=int, default=1)
    p_sim.add_argument("--store", type=int, default=2,
                       help="number of paths dumped to trajectories.csv")
    p_sim.set_defaults(func=_cmd_simulate)

    p_ver = subs.add_parser("verify", help="equilibrium invariant and deviation battery")
    _add_common(p_ver)
    p_ver.add_argument("--paths", type=int, default=256)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--directions", type=int, default=3)
    p_ver.add_argument("--workers", type=int, default=1)
    p_ver.set_defaults(func=_cmd_verify)

    p_sweep = subs.add_parser("sweep", help="parameter sweeps with an aggregate table")
    _add_common(p_sweep)
    p_sweep.add_argument("--vary", required=True, choices=("N", "Gamma", "steps"))
    p_sweep.add_argument("--values", required=True, help="comma-separated list")
    p_sweep.add_argument("--paths", type=int, default=256)
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument("--workers", type=int, default=1)
    p_sweep.set_defaults(func=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # Seeds and path indices must fit the 64- and 32-bit noise-stream key
    # fields; these and --workers are checked before any config is read.
    if getattr(args, "paths", None) is not None:
        if not 1 <= args.paths < 1 << 32:
            return _fail(EXIT_USAGE, f"{args.command}: --paths must lie in [1, 2**32)")
        if not 0 <= args.seed < 1 << 64:
            return _fail(EXIT_USAGE, f"{args.command}: --seed must lie in [0, 2**64)")
    if getattr(args, "workers", 1) < 1:
        return _fail(EXIT_USAGE, f"{args.command}: --workers must be at least 1")
    if getattr(args, "values", None) is not None:
        args.values = _parse_values(parser, args.vary, args.values)
    try:
        return args.func(args)
    except GridMismatchError as e:
        return _fail(EXIT_GRID, f"gains rejected: {e}")
    except ScenarioError as e:
        return _fail(EXIT_VALIDATION, f"invalid scenario: {e}")
    except BlowUpError as e:          # a gain equation, or simulated paths that overflow
        return _fail(EXIT_BLOWUP, str(e))
    except OSError as e:
        return _fail(EXIT_IO, f"I/O error: {e}")


if __name__ == "__main__":
    sys.exit(main())
