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

Unknown sections or keys are rejected with the offending line number, as are
malformed values and violated invariants.  Snapshots and diagnostics are CSV
with full double precision (17 significant digits) and LF line endings, so
identical configs reproduce byte-identical numerical outputs.
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
    """key -> (raw value, line number) per section; rejects unknown keys."""
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


def write_snapshot(state, grid, path):
    """CSV snapshot: header r,rho,v,s1,s2; one row per cell; LF endings."""
    lines = ["r,rho,v,s1,s2"]
    for i in range(grid.n_cells):
        lines.append(
            ",".join(
                _fmt(x)
                for x in (grid.centers[i], state.rho[i], state.v[i], state.s1[i], state.s2[i])
            )
        )
    Path(path).write_text("\n".join(lines) + "\n", newline="\n")


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
    eres = {}
    if energy_residual is not None:
        times, vals = energy_residual
        eres = {float(t): v for t, v in zip(times, vals)}
    lines = [_DIAG_HEADER]
    for j, snap in enumerate(series):
        row = [
            _fmt(snap.t),
            _fmt(snap.e_inst),
            _fmt(snap.e_running),
            _fmt(snap.d_inst),
            _fmt(snap.mass),
            _fmt(snap.taylor_energy),
            _fmt(snap.stress_l2),
            _fmt(eres.get(float(snap.t))),
            _fmt(mass_residual[j] if mass_residual is not None else None),
            _fmt(limit_errors[j][0] if limit_errors is not None else None),
            _fmt(limit_errors[j][1] if limit_errors is not None else None),
        ]
        lines.append(",".join(row))
    assert len(lines) == n + 1
    Path(path).write_text("\n".join(lines) + "\n", newline="\n")


class _Reporter:
    def __init__(self, quiet):
        self.quiet = quiet

    def __call__(self, msg):
        if not self.quiet:
            print(msg)


def _write_manifest(out_dir, resolved, grid, params, extra=None):
    manifest = {
        "code_version": __version__,
        "config_echo": resolved,
        "grid_summary": {"r_min": grid.r_min, "r_max": grid.r_max, "n_cells": grid.n_cells, "dr": grid.dr},
        "params_summary": asdict(params),
        "wall_time": None,
        "warnings": [],
    }
    if extra:
        manifest.update(extra)
    path = Path(out_dir) / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", newline="\n")
    return manifest, path


def _finalize_manifest(manifest, path, wall_time, warnings):
    manifest["wall_time"] = wall_time
    manifest["warnings"] = list(warnings)
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", newline="\n")


def _emit_run_outputs(traj, grid, params, out_dir, report):
    series = energy_series(traj, grid, params)
    eres = energy_identity_residual(traj, grid, params, series=series)
    mres = mass_balance_residual(traj, grid)
    lims = [limit_relation_error(s, grid, params) for s in traj.snapshots]
    for j, snap in enumerate(traj.snapshots):
        write_snapshot(snap, grid, Path(out_dir) / f"snapshot_{j:04d}.csv")
    write_diagnostics(
        series,
        Path(out_dir) / "diagnostics.csv",
        energy_residual=eres,
        mass_residual=mres,
        limit_errors=lims,
    )
    report(f"wrote {len(traj.snapshots)} snapshots and diagnostics.csv to {out_dir}")
    return series


def _cmd_run(args, report):
    params, grid, init, solver, resolved = parse_config(args.config)
    if params.tau == 0.0:
        raise ConfigError("tau = 0 selects the classical system; use the run-classical subcommand")
    out_dir = _prepare_out(args.out)
    manifest, mpath = _write_manifest(out_dir, resolved, grid, params)
    t0 = time.perf_counter()
    state = make_initial_data(init, grid, params)
    traj = run(state, grid, params, solver)
    _emit_run_outputs(traj, grid, params, out_dir, report)
    _finalize_manifest(manifest, mpath, time.perf_counter() - t0, traj.warnings)
    for w in traj.warnings:
        report(f"warning: {w}")
    return 0


def _cmd_run_classical(args, report):
    params, grid, init, solver, resolved = parse_config(args.config)
    out_dir = _prepare_out(args.out)
    manifest, mpath = _write_manifest(out_dir, resolved, grid, params)
    t0 = time.perf_counter()
    state = make_initial_data(init, grid, params)
    traj = run_classical(state.rho, state.v, grid, params, solver)
    _emit_run_outputs(traj, grid, params, out_dir, report)
    _finalize_manifest(manifest, mpath, time.perf_counter() - t0, traj.warnings)
    return 0


def _cmd_sweep_tau(args, report):
    params, grid, init, solver, resolved = parse_config(args.config)
    taus = [float(x) for x in args.tau_list.split(",") if x.strip()]
    if not taus:
        raise ConfigError("--tau-list must name at least one tau")
    out_dir = _prepare_out(args.out)
    manifest, mpath = _write_manifest(out_dir, resolved, grid, params, extra={"taus": taus})
    t0 = time.perf_counter()
    result = tau_sweep(solver, init, grid, params, taus)
    lines = ["tau,field_err,s1_limit_err,s2_limit_err,runtime_s"]
    for i, tau in enumerate(result.taus):
        lines.append(
            ",".join(
                _fmt(x)
                for x in (
                    tau,
                    result.field_errors[i],
                    result.stress_errors[i][0],
                    result.stress_errors[i][1],
                    result.runtimes[i],
                )
            )
        )
    (Path(out_dir) / "sweep.csv").write_text("\n".join(lines) + "\n", newline="\n")
    summary = [
        f"field error log-log slope vs tau: {result.field_slope:.4g}",
        f"stress limit-relation log-log slope vs tau: {result.stress_slope:.4g}",
        f"baseline runtime: {result.baseline_runtime:.3g} s",
        f"note: {result.note}",
    ]
    failures = [f for f in result.failures if f]
    for f in failures:
        summary.append(f"FAILED member run: {f}")
    (Path(out_dir) / "sweep_summary.txt").write_text("\n".join(summary) + "\n", newline="\n")
    for line in summary:
        report(line)
    _finalize_manifest(manifest, mpath, time.perf_counter() - t0, failures)
    return 0 if not failures else 3


def _cmd_check_structure(args, report):
    params, grid, init, solver, resolved = parse_config(args.config)
    out_dir = _prepare_out(args.out)
    manifest, mpath = _write_manifest(out_dir, resolved, grid, params, extra={"seed": args.seed})
    t0 = time.perf_counter()
    audit = structure_audit(n_states=1000, seed=args.seed)
    # rho != 1 so the two closed-form candidates for det/eps^2 differ
    det = noncharacteristic_report(1.2, params)

    def flag(ok):
        return "PASS" if ok else "FAIL"

    rows = [
        (audit.a0_spd, f"A0 symmetric positive definite over {audit.n_states} random states"),
        (audit.a1_symmetry_max <= 1e-14, f"A1 symmetric (max asymmetry {audit.a1_symmetry_max:.2e})"),
        (audit.speeds_max_imag <= 1e-8, f"characteristic speeds real (max imag/scale {audit.speeds_max_imag:.2e})"),
        (
            audit.kernel_form_min >= -1e-12 and audit.kernel_form_max_error <= 1e-12,
            f"kernel boundary form nonnegative and matches closed form (max err {audit.kernel_form_max_error:.2e})",
        ),
        (audit.q_form_max_error <= 1e-12, f"witness form equals -2 P'(rho) (max err {audit.q_form_max_error:.2e})"),
        (abs(det["det_eps0"]) <= 1e-12, f"boundary determinant at eps=0: {det['det_eps0']:.2e}"),
        (
            det["det_over_eps2_spread"] <= 1e-10,
            f"det/eps^2 independent of eps (rel spread {det['det_over_eps2_spread']:.2e})",
        ),
        (
            max(r["cofactor_rel_err"] for r in det["rows"]) <= 1e-12,
            "LU determinant matches the cofactor oracle",
        ),
    ]
    lines = [f"[{flag(ok)}] {text}" for ok, text in rows]
    for name, matched in det["candidate_matches"].items():
        lines.append(f"[INFO] det/eps^2 matches {name}: {'yes' if matched else 'no'}")
    text = "\n".join(lines)
    (Path(out_dir) / "structure_report.txt").write_text(text + "\n", newline="\n")
    report(text)
    all_ok = all(ok for ok, _ in rows)
    _finalize_manifest(manifest, mpath, time.perf_counter() - t0, [] if all_ok else ["structure audit failed"])
    return 0 if all_ok else 2


def _cmd_energy_report(args, report):
    params, grid, init, solver, resolved = parse_config(args.config)
    if params.tau == 0.0:
        raise ConfigError("tau = 0 selects the classical system; use the run-classical subcommand")
    out_dir = _prepare_out(args.out)
    manifest, mpath = _write_manifest(out_dir, resolved, grid, params)
    t0 = time.perf_counter()
    state = make_initial_data(init, grid, params)
    traj = run(state, grid, params, solver)
    series = _emit_run_outputs(traj, grid, params, out_dir, report)
    rep = apriori_report(traj, grid, params, series=series)
    summary = [
        f"E(0) = {rep.e0:.6g}",
        "degenerate equilibrium run" if rep.degenerate else f"[E(t)+int D]/E(0) final ratio = {rep.final_ratio:.6g}",
        f"final-quarter growth rate = {rep.growth_rate_final_quarter:.3g} per unit time",
        f"rho range [{rep.rho_min:.6g}, {rep.rho_max:.6g}] "
        + ("inside" if rep.pinch_ok else "OUTSIDE")
        + " [0.75, 1.25]",
    ]
    if params.eps > 0.0:
        tr1, tr2 = boundary_stress_trace(traj.snapshots[-1], grid, params)
        summary.append(
            f"wall stress traces at t_end (no threshold): s1-type {tr1:.6g}, s2-type {tr2:.6g}"
        )
    (Path(out_dir) / "energy_report.txt").write_text("\n".join(summary) + "\n", newline="\n")
    for line in summary:
        report(line)
    _finalize_manifest(manifest, mpath, time.perf_counter() - t0, traj.warnings)
    return 0


def _prepare_out(out):
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir


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
    report = _Reporter(args.quiet)
    try:
        return args.func(args, report)
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
