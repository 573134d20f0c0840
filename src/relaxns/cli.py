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

Blank lines and comments, from '#' or ';' to the end of a line, are skipped.
One pass reads the file and rejects, as it reads them, unknown sections or
keys, keys given twice, lines without '=' or before any [section], values
their field's type cannot convert, and values out of range (NaN and +-inf
too), which the config dataclass that owns the field judges.  So the first
fault in file order is reported, and the error names its line.  sweep-tau
only splits --tau-list; relaxation.sweep_taus judges and orders it before
--out is made.
Snapshots and diagnostics are CSV with full double precision (17 significant
digits) and LF line endings, so identical configs reproduce byte-identical
numerical outputs.
run, run-classical (run at tau = 0) and energy-report integrate with solver.run
and hand each snapshot to one forked writer (forks.Child), made at the first
snapshot, as soon as the solver records it, so the CSV formatting overlaps
the integration.  The snapshot's values go, as raw doubles, to an anonymous
temporary file (the spool), which keeps every snapshot of the run until the
command ends, about a third of their CSV bytes; a pipe carries one byte per
snapshot.  No command starts a thread or imports a process pool, and no
writer outlives its command.
"""

import argparse
import importlib
import json
import math
import os
import sys
import tempfile
import time
from dataclasses import asdict, fields, replace
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
from .forks import Child
from .model import FluidParams, InitConfig, RadialGrid, State, make_initial_data
from .relaxation import limit_relation_error, sweep_taus, tau_sweep
from .solver import SolverConfig, run
from .structure import noncharacteristic_report, structure_audit

_SECTIONS = {"params": FluidParams, "grid": RadialGrid, "init": InitConfig, "solver": SolverConfig}
_RENAMES = {"lambda_": "lambda"}  # dataclass field -> config key, where they differ
# section -> config key -> dataclass field, over the fields each constructor takes
_KEYS = {
    sec: {_RENAMES.get(f.name, f.name): f for f in fields(cls) if f.init}
    for sec, cls in _SECTIONS.items()
}


def _read_config(text):
    """(FluidParams, RadialGrid, InitConfig, SolverConfig, resolved), where
    resolved holds every setting by section and config key (the default
    where text is silent).  One pass: each line is checked, and its value
    converted by its field's type, as it is read; the section the line sets
    is then built again from the values read so far, so a value its
    dataclass refuses is reported at its own line, before any fault below.
    """
    resolved = {sec: {key: f.default for key, f in keys.items()} for sec, keys in _KEYS.items()}
    built = {}
    lines = {}
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
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KEYS[section]:
            raise ConfigError(f"unknown key {key!r} in section [{section}]", line=lineno)
        if (section, key) in lines:
            first = lines[section, key]
            raise ConfigError(f"duplicate key {key!r} in section [{section}], first set on line {first}", line=lineno)
        typ = _KEYS[section][key].type
        try:
            resolved[section][key] = typ(value)
        except ValueError:
            raise ConfigError(f"cannot parse {section}.{key} value {value!r} as {typ.__name__}", line=lineno) from None
        lines[section, key] = lineno
        try:
            built[section] = _SECTIONS[section](**{f.name: resolved[section][k] for k, f in _KEYS[section].items()})
        except FieldError as exc:
            raise ConfigError(f"invalid [{section}]: {exc}", line=lineno) from None
    return (*(built[sec] if sec in built else cls() for sec, cls in _SECTIONS.items()), resolved)


def parse_config(path):
    """Parse and validate a config file; 'default' or None gives pure defaults.

    Returns (FluidParams, RadialGrid, InitConfig, SolverConfig, resolved),
    where resolved echoes every setting by section and config key.
    """
    text = ""
    if path is not None and path != "default":
        if not Path(path).is_file():
            raise ConfigError(f"config file not found: {path}")
        text = Path(path).read_text()
    return _read_config(text)


def _fmt(x):
    if x is None or (isinstance(x, float) and math.isnan(x)):
        return ""
    return f"{x:.17g}"


def _write_csv(path, header, rows):
    """CSV with every value written by _fmt; LF endings."""
    lines = [header]
    lines.extend(",".join(_fmt(x) for x in row) for row in rows)
    Path(path).write_text("\n".join(lines) + "\n", newline="\n")


_SNAPSHOT_ROW = "%.17g,%.17g,%.17g,%.17g,%.17g\n"  # the bytes of _fmt for finite floats
_SNAPSHOT_CHUNK = 512  # rows formatted per write, so no snapshot is held as one string


def write_snapshot(state, grid, path):
    """CSV snapshot: header r,rho,v,s1,s2; one row per cell; LF endings.

    Every field has one finite value per cell: any other is refused with a
    ValueError naming it, before the file is opened.
    """
    for name in ("rho", "v", "s1", "s2"):
        values = getattr(state, name)
        if len(values) != grid.n_cells:
            raise ValueError(f"snapshot field {name} has {len(values)} values for a grid of {grid.n_cells} cells")
        if not np.isfinite(values).all():
            raise ValueError(f"snapshot field {name} at t = {state.t:.17g} is not finite")
    columns = (grid.centers, state.rho, state.v, state.s1, state.s2)
    with open(path, "w", newline="\n") as fh:
        fh.write("r,rho,v,s1,s2\n")
        for lo in range(0, grid.n_cells, _SNAPSHOT_CHUNK):
            rows = zip(*(c[lo : lo + _SNAPSHOT_CHUNK].tolist() for c in columns))
            fh.write("".join([_SNAPSHOT_ROW % row for row in rows]))


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


def _numpy_record():
    """numpy's version and the dispatch targets its kernels run on: the
    __cpu_dispatch__ targets whose __cpu_features__ flag is set."""
    core = "numpy._core" if int(np.__version__.split(".")[0]) >= 2 else "numpy.core"
    umath = importlib.import_module(f"{core}._multiarray_umath")
    features = umath.__cpu_features__
    return {"version": np.__version__, "dispatch": [t for t in umath.__cpu_dispatch__ if features.get(t)]}


def _start(out_dir, resolved, grid, params, **extra):
    """Make out_dir and write its manifest (wall_time null), then start the clock.

    Returns finish(warnings, **fields), which rewrites the manifest with the
    wall time, the warnings and any further fields.  A run that aborts in
    between keeps its config echo.
    """
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out {str(out_dir)!r} cannot be used as the output directory: {exc}") from None
    manifest = {
        "code_version": __version__,
        "config_echo": resolved,
        "grid_summary": {"r_min": grid.r_min, "r_max": grid.r_max, "n_cells": grid.n_cells, "dr": grid.dr},
        "numpy": _numpy_record(),
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

    def finish(warnings, **fields):
        manifest["wall_time"] = time.perf_counter() - t0
        manifest["warnings"] = list(warnings)
        manifest.update(fields)
        write()

    return finish


class _SnapshotWriter:
    """One forked child (forks.Child) that writes the snapshots handed to
    it, in order.

    send(snap), the run's on_snapshot, forks the child at the first
    snapshot.  Each snapshot's t, rho, v, s1 and s2 are appended, as raw
    float64, to an anonymous temporary file (the spool), opened before the
    fork and read back by the child, which names the j-th snapshot_{j:04d}.csv;
    then one byte goes to the child through a pipe.  The solver blocks only
    when the child is about a pipe buffer of snapshots behind.  The parent
    raises the child's failure with its own type and message when it reaps
    the child, or at once when a snapshot finds the pipe closed.
    """

    def __init__(self, grid, out_dir):
        self.grid, self.out_dir = grid, out_dir
        self.child = self.names = self.spool = None

    def send(self, snap):
        if self.child is None:
            self._fork()
        for values in (np.float64(snap.t), snap.rho, snap.v, snap.s1, snap.s2):
            self.spool.write(values)
        self.spool.flush()
        try:
            os.write(self.names, b"\n")
        except BrokenPipeError:  # the child has stopped
            self.join()
            raise

    def _fork(self):
        self.spool = tempfile.TemporaryFile()
        read_end, self.names = os.pipe()
        try:
            self.child = Child(self._write, read_end)
        finally:
            os.close(read_end)

    def _write(self, out, read_end):
        # the child's body.  write_snapshot is looked up in this module's
        # globals here, so the child calls whatever the parent had bound to
        # it when it forked.  The spool's offset is the parent's, so the
        # child reads at its own with os.pread
        os.close(self.names)  # so the parent's close is the pipe's end
        n = self.grid.n_cells
        size = 8 * (4 * n + 1)
        with open(read_end, "rb") as lines:
            for j, _ in enumerate(lines):
                values = np.frombuffer(os.pread(self.spool.fileno(), size, j * size), dtype=np.float64)
                state = State(*values[1:].reshape(4, n), t=float(values[0]))
                write_snapshot(state, self.grid, self.out_dir / f"snapshot_{j:04d}.csv")

    def join(self, check=True):
        """Close the pipe and reap the child once it has written every
        snapshot handed to it; with check, raise its failure, if any."""
        if self.names is not None:
            os.close(self.names)
            self.names = None
        if self.child is None or self.child.pid is None:
            return
        records, how = self.child.join()
        if check and (records or how != "exited with status 0"):
            raise records[0][2] if records else RuntimeError(f"the snapshot writer {how}")

    def close(self):
        """Kill and reap the child if it still runs; close every file."""
        if self.names is not None:
            os.close(self.names)
            self.names = None
        for owned in (self.child, self.spool):
            if owned is not None:
                owned.close()


def _step_stats(traj):
    """The manifest's step rule ("imex" or "strang"), step count and dt
    {min, mean, max} (null without steps)."""
    dts = traj.dt_history
    n = len(dts)
    dt = {"min": min(dts), "mean": math.fsum(dts) / n, "max": max(dts)} if n else dict.fromkeys(("min", "mean", "max"))
    return {"stepper": traj.stepper, "steps": n, "dt": dt}


def _run_and_emit(args, config, say, summarize=None):
    """The run command, and the path of run-classical and energy-report.

    Builds the initial state, integrates it with solver.run at the config's
    params (tau = 0 is the classical system), writes snapshot_NNNN.csv and
    diagnostics.csv, and prints the trajectory warnings.
    summarize(traj, series), if given, returns the lines of
    energy_report.txt.

    The snapshots are written by one writer process, forked when the first
    snapshot is recorded (_SnapshotWriter): each is appended to a temporary
    file as raw doubles, about a third of its CSV bytes, and a byte sent
    down a pipe as soon as the solver records it, and the writer formats it
    while the solver runs on.  No thread is started.  The diagnostics are
    computed and written here while the writer drains; the writer is then
    reaped, and a failed write raises here with its own type and message.
    A NumericalAbort waits for the writer, which finishes the snapshots
    already handed over, so the snapshots recorded before the abort are
    left; any other exception kills it.
    """
    params, grid, init, solver, resolved = config
    out_dir = Path(args.out)
    finish = _start(out_dir, resolved, grid, params)
    writer = _SnapshotWriter(grid, out_dir)
    try:
        traj = run(make_initial_data(init, grid, params), grid, params, solver, on_snapshot=writer.send)
        series = energy_series(traj, grid, params)
        write_diagnostics(
            series,
            out_dir / "diagnostics.csv",
            energy_residual=energy_identity_residual(traj, grid, params, series=series),
            mass_residual=mass_balance_residual(traj, grid),
            limit_errors=[limit_relation_error(s, grid, params) for s in traj.snapshots],
        )
        writer.join()
    except NumericalAbort:
        writer.join(check=False)
        raise
    finally:
        writer.close()
    say(f"wrote {len(traj.snapshots)} snapshots and diagnostics.csv to {out_dir}")
    for w in traj.warnings:
        say(f"warning: {w}")
    if summarize is not None:
        _write_report(out_dir / "energy_report.txt", summarize(traj, series), say)
    finish(traj.warnings, **_step_stats(traj))
    return 0


def _cmd_run_classical(args, config, say):
    return _run_and_emit(args, (replace(config[0], tau=0.0), *config[1:]), say)


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

    return _run_and_emit(args, config, say, summarize)


def _cmd_sweep_tau(args, config, say):
    params, grid, init, solver, resolved = config
    try:
        taus = sweep_taus(filter(None, (entry.strip() for entry in args.tau_list.split(","))))
    except ValueError as exc:
        raise ConfigError(f"--tau-list: {exc}") from None
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
            f"{len(result.taus) + 1} jobs on {len(result.worker_runtimes)} forked workers, "
            f"sweep wall {result.wall_time:.3g} s, busiest worker {max(result.worker_runtimes):.3g} s",
            f"time steps: baseline {result.baseline_steps}, "
            + ", ".join(f"tau={tau:g} {'aborted' if n is None else n}" for tau, n in zip(result.taus, result.steps)),
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
    if params.tau == 0.0:
        raise ConfigError("[params] tau = 0 degenerates the stress rows; check-structure needs tau > 0")
    out_dir = Path(args.out)
    finish = _start(out_dir, resolved, grid, params, seed=args.seed)
    audit = structure_audit(seed=args.seed)
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
        ("run", _run_and_emit),
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
