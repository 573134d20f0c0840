"""Configuration parsing, run orchestration, and bit-stable CSV emission.

Config files are flat sectioned key=value text::

    [params]
    gamma = 1.4
    tau = 0.01

    [grid]
    r_max = 21
    n_cells = 800

    [init]
    bump_amp = 0.01

    [solver]
    cfl = 0.4
    t_end = 1.0

Unknown sections or keys, keys given twice, malformed values and violated
invariants are rejected with the offending line number.  Snapshots and
diagnostics are CSV with full double precision (17 significant digits) and LF
line endings, so identical configs reproduce byte-identical numerical outputs.
"""

import argparse
import json
import math
import sys
import time
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import __version__
from .energy import (
    PINCH_BOX,
    apriori_report,
    boundary_stress_trace,
    energy_identity_residual,
    energy_series,
    mass_balance_residual,
)
from .errors import ConfigError, DomainError, FieldError, NumericalAbort
from .model import FluidParams, InitConfig, RadialGrid, make_initial_data
from .relaxation import limit_relation_error, tau_sweep
from .solver import SolverConfig, run, run_classical
from .structure import noncharacteristic_report, structure_audit

_SECTIONS = {"params": FluidParams, "grid": RadialGrid, "init": InitConfig, "solver": SolverConfig}
_RENAMES = {"lambda_": "lambda"}  # dataclass field -> config key, where they differ
# section -> config key -> dataclass field, over the fields each constructor takes
_KEYS = {
    sec: {_RENAMES.get(f.name, f.name): f for f in fields(cls) if f.init}
    for sec, cls in _SECTIONS.items()
}


def _defaults():
    return {sec: {key: f.default for key, f in keys.items()} for sec, keys in _KEYS.items()}


def _parse_text(text):
    """key -> (raw value, line number) per section; rejects unknown and repeated keys."""
    values = {sec: {} for sec in _KEYS}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].split(";", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _KEYS:
                raise ConfigError(f"unknown section [{section}]", line=lineno)
            continue
        if "=" not in line:
            raise ConfigError(f"expected key = value, got {line!r}", line=lineno)
        if section is None:
            raise ConfigError("key = value before any [section] header", line=lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _KEYS[section]:
            raise ConfigError(f"unknown key {key!r} in section [{section}]", line=lineno)
        if key in values[section]:
            first = values[section][key][1]
            raise ConfigError(
                f"duplicate key {key!r} in section [{section}], first set on line {first}", line=lineno
            )
        values[section][key] = (value, lineno)
    return values


def _convert(values):
    resolved = _defaults()
    lines = {}
    for sec, entries in values.items():
        for key, (raw, lineno) in entries.items():
            typ = _KEYS[sec][key].type
            try:
                val = typ(raw)
            except ValueError:
                raise ConfigError(
                    f"cannot parse {sec}.{key} value {raw!r} as {typ.__name__}", line=lineno
                ) from None
            if typ is float and not math.isfinite(val):
                raise ConfigError(f"{sec}.{key} value {raw!r} is not finite", line=lineno)
            resolved[sec][key] = val
            lines[(sec, key)] = lineno
    return resolved, lines


def parse_config(path):
    """Parse and validate a config file; 'default' or None gives pure defaults.

    Returns (FluidParams, RadialGrid, InitConfig, SolverConfig, resolved),
    where resolved echoes every setting by section and config key.
    """
    if path is None or path == "default":
        resolved, lines = _defaults(), {}
    else:
        p = Path(path)
        if not p.is_file():
            raise ConfigError(f"config file not found: {path}")
        resolved, lines = _convert(_parse_text(p.read_text()))

    def build(section):
        kwargs = {f.name: resolved[section][key] for key, f in _KEYS[section].items()}
        try:
            return _SECTIONS[section](**kwargs)
        except FieldError as exc:
            key = _RENAMES.get(exc.field, exc.field)
            raise ConfigError(f"invalid [{section}]: {exc}", line=lines.get((section, key))) from None

    return (*(build(sec) for sec in _SECTIONS), resolved)


def _fmt(x):
    if x is None or (isinstance(x, float) and math.isnan(x)):
        return ""
    return f"{x:.17g}"


def _write_csv(path, header, rows):
    """CSV with every value written by _fmt; LF endings."""
    lines = [header]
    lines.extend(",".join(_fmt(x) for x in row) for row in rows)
    Path(path).write_text("\n".join(lines) + "\n", newline="\n")


def write_snapshot(state, grid, path):
    """CSV snapshot: header r,rho,v,s1,s2; one row per cell; LF endings."""
    _write_csv(path, "r,rho,v,s1,s2", zip(grid.centers, state.rho, state.v, state.s1, state.s2))


def read_snapshot(path):
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return data[:, 0], data[:, 1], data[:, 2], data[:, 3], data[:, 4]


_DIAG_HEADER = (
    "t,E_inst,E_run,D_inst,mass,taylor_energy,stress_l2,"
    "energy_residual,mass_residual,s1_limit_err,s2_limit_err"
)


def write_diagnostics(series, path, energy_residual=None, mass_residual=None, limit_errors=None):
    """Aligned diagnostics CSV; missing values are written as empty fields."""
    n = len(series)
    eres = {} if energy_residual is None else {float(t): v for t, v in zip(*energy_residual)}
    mres = [None] * n if mass_residual is None else mass_residual
    lims = [(None, None)] * n if limit_errors is None else limit_errors
    rows = (
        (s.t, s.e_inst, s.e_running, s.d_inst, s.mass, s.taylor_energy, s.stress_l2, eres.get(float(s.t)), m, l1, l2)
        for s, m, (l1, l2) in zip(series, mres, lims, strict=True)
    )
    _write_csv(path, _DIAG_HEADER, rows)


def _write_report(path, lines, say):
    """A text report: the lines go to path (LF endings) and to say."""
    Path(path).write_text("\n".join(lines) + "\n", newline="\n")
    for line in lines:
        say(line)


def _start(out_dir, resolved, grid, params, **extra):
    """Make out_dir and write its manifest (wall_time null), then start the clock.

    Returns finish(warnings), which rewrites the manifest with the wall time
    and the warnings.  A run that aborts in between keeps its config echo.
    """
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out {str(out_dir)!r} cannot be used as the output directory: {exc}") from None
    manifest = {
        "code_version": __version__,
        "config_echo": resolved,
        "grid_summary": {"r_min": grid.r_min, "r_max": grid.r_max, "n_cells": grid.n_cells, "dr": grid.dr},
        "params_summary": asdict(params),
        "wall_time": None,
        "warnings": [],
        **extra,
    }

    def write():
        text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        (out_dir / "manifest.json").write_text(text, newline="\n")

    write()
    t0 = time.perf_counter()

    def finish(warnings):
        manifest["wall_time"] = time.perf_counter() - t0
        manifest["warnings"] = list(warnings)
        write()

    return finish


def _relaxed(params):
    """The relaxed integrator; tau = 0 is refused before anything is written."""
    if params.tau == 0.0:
        raise ConfigError("tau = 0 selects the classical system; use the run-classical subcommand")
    return run


def _run_and_emit(out, config, integrate, say, summarize=None):
    """The path of run, run-classical and energy-report.

    Builds the initial state, integrates it with integrate(state, grid,
    params, solver), writes snapshot_NNNN.csv and diagnostics.csv, and prints
    the trajectory warnings.  summarize(traj, series), if given, returns the
    lines of energy_report.txt.
    """
    params, grid, init, solver, resolved = config
    out_dir = Path(out)
    finish = _start(out_dir, resolved, grid, params)
    traj = integrate(make_initial_data(init, grid, params), grid, params, solver)
    series = energy_series(traj, grid, params)
    for j, snap in enumerate(traj.snapshots):
        write_snapshot(snap, grid, out_dir / f"snapshot_{j:04d}.csv")
    write_diagnostics(
        series,
        out_dir / "diagnostics.csv",
        energy_residual=energy_identity_residual(traj, grid, params, series=series),
        mass_residual=mass_balance_residual(traj, grid),
        limit_errors=[limit_relation_error(s, grid, params) for s in traj.snapshots],
    )
    say(f"wrote {len(traj.snapshots)} snapshots and diagnostics.csv to {out_dir}")
    for w in traj.warnings:
        say(f"warning: {w}")
    if summarize is not None:
        _write_report(out_dir / "energy_report.txt", summarize(traj, series), say)
    finish(traj.warnings)
    return 0


def _cmd_run(args, config, say):
    return _run_and_emit(args.out, config, _relaxed(config[0]), say)


def _cmd_run_classical(args, config, say):
    return _run_and_emit(args.out, config, run_classical, say)


def _cmd_energy_report(args, config, say):
    params, grid = config[0], config[1]

    def summarize(traj, series):
        rep = apriori_report(traj, grid, params, series=series)
        lines = [
            f"E(0) = {rep.e0:.6g}",
            "degenerate equilibrium run" if rep.degenerate else f"[E(t)+int D]/E(0) final ratio = {rep.final_ratio:.6g}",
            f"final-quarter growth rate = {rep.growth_rate_final_quarter:.3g} per unit time",
            f"rho range [{rep.rho_min:.6g}, {rep.rho_max:.6g}] "
            + ("inside" if rep.pinch_ok else "OUTSIDE")
            + " [{:g}, {:g}]".format(*PINCH_BOX),
        ]
        if params.eps > 0.0:
            tr1, tr2 = boundary_stress_trace(traj.snapshots[-1], grid, params)
            lines.append(f"wall stress traces at t_end (no threshold): s1-type {tr1:.6g}, s2-type {tr2:.6g}")
        return lines

    return _run_and_emit(args.out, config, _relaxed(params), say, summarize)


def _parse_taus(text):
    """The --tau-list entries as floats; each must be finite and positive."""
    taus = []
    for entry in filter(None, (x.strip() for x in text.split(","))):
        try:
            tau = float(entry)
        except ValueError:
            raise ConfigError(f"--tau-list entry {entry!r} is not a number") from None
        if not 0.0 < tau < math.inf:
            raise ConfigError(f"--tau-list entry {entry!r} must be finite and positive")
        taus.append(tau)
    if not taus:
        raise ConfigError("--tau-list must name at least one tau")
    return taus


def _cmd_sweep_tau(args, config, say):
    params, grid, init, solver, resolved = config
    taus = _parse_taus(args.tau_list)
    out_dir = Path(args.out)
    finish = _start(out_dir, resolved, grid, params, taus=taus)
    result = tau_sweep(solver, init, grid, params, taus)
    s1, s2 = zip(*result.stress_errors)
    rows = zip(result.taus, result.field_errors, s1, s2, result.runtimes)
    _write_csv(out_dir / "sweep.csv", "tau,field_err,s1_limit_err,s2_limit_err,runtime_s", rows)
    failures = [f for f in result.failures if f]
    _write_report(
        out_dir / "sweep_summary.txt",
        [
            f"field error log-log slope vs tau: {result.field_slope:.4g}",
            f"stress limit-relation log-log slope vs tau: {result.stress_slope:.4g}",
            f"baseline runtime: {result.baseline_runtime:.3g} s",
            f"note: {result.note}",
            *(f"FAILED member run: {f}" for f in failures),
        ],
        say,
    )
    finish(failures)
    return 0 if not failures else 3


def _cmd_check_structure(args, config, say):
    params, grid, _, _, resolved = config
    if args.seed < 0:
        raise ConfigError(f"--seed must be nonnegative, got {args.seed}")
    out_dir = Path(args.out)
    finish = _start(out_dir, resolved, grid, params, seed=args.seed)
    audit = structure_audit(n_states=1000, seed=args.seed)
    # rho != 1 so the two closed-form candidates for det/eps^2 differ
    det = noncharacteristic_report(1.2, params)
    checks = audit.checks + det["checks"]
    lines = [f"[{'PASS' if ok else 'FAIL'}] {text}" for ok, text in checks]
    for name, matched in det["candidate_matches"].items():
        lines.append(f"[INFO] det/eps^2 matches {name}: {'yes' if matched else 'no'}")
    _write_report(out_dir / "structure_report.txt", lines, say)
    all_ok = all(ok for ok, _ in checks)
    finish([] if all_ok else ["structure audit failed"])
    return 0 if all_ok else 2


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="relaxns",
        description="radial solver and verification harness for relaxed compressible flow outside the unit ball",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (
        ("run", _cmd_run),
        ("run-classical", _cmd_run_classical),
        ("sweep-tau", _cmd_sweep_tau),
        ("check-structure", _cmd_check_structure),
        ("energy-report", _cmd_energy_report),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="config file path, or 'default'")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--quiet", action="store_true")
        p.set_defaults(func=fn)
        if name == "sweep-tau":
            p.add_argument("--tau-list", default="1e-2,1e-3,1e-4", help="comma-separated taus")
        if name == "check-structure":
            p.add_argument("--seed", type=int, default=0, help="seed for the random kernel samples")
    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args, parse_config(args.config), (lambda line: None) if args.quiet else print)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, ValueError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except NumericalAbort as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return 3


def console_main():
    sys.exit(main())
