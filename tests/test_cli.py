import hashlib
import json
import math
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import time
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from relaxns import cli, relaxation, solver
from relaxns.cli import main, parse_config, read_snapshot, write_diagnostics, write_snapshot
from relaxns.energy import EnergySnapshot, energy_series
from relaxns.errors import ConfigError, NumericalAbort
from relaxns.model import FluidParams, InitConfig, RadialGrid, State, make_initial_data
from relaxns.solver import SolverConfig, run, run_classical
from relaxns.structure import structure_audit

from conftest import equilibrium_state


def write_cfg(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_empty_config_gives_defaults(tmp_path):
    path = write_cfg(tmp_path, "")
    params, grid, init, solver, resolved = parse_config(path)
    assert params.gamma == 1.4 and params.mu == 1.0 and params.lambda_ == 1.0
    assert params.tau == 0.01 and params.eps == 0.0 and params.a_coef == 1.0
    assert grid.r_max == 21.0 and grid.n_cells == 800
    assert solver.cfl == 0.4
    assert resolved["params"]["gamma"] == 1.4
    for section, cls in (("params", FluidParams), ("grid", RadialGrid), ("init", InitConfig), ("solver", SolverConfig)):
        defaults = {"lambda" if f.name == "lambda_" else f.name: f.default for f in fields(cls) if f.init}
        assert resolved[section] == defaults
    assert solver.output_every == SolverConfig().output_every == 50


def test_default_keyword_config():
    params, grid, init, solver, resolved = parse_config("default")
    assert grid.n_cells == 800 and params.tau == 0.01
    assert resolved == {
        "params": {"gamma": 1.4, "mu": 1.0, "lambda": 1.0, "tau": 0.01, "eps": 0.0, "a_coef": 1.0},
        "grid": {"r_max": 21.0, "n_cells": 800},
        "init": {"bump_amp": 0.0, "bump_center": 7.0, "bump_width": 1.0, "vel_amp": 0.0, "stress_perturb_amp": 0.0},
        "solver": {"cfl": 0.4, "t_end": 1.0, "outer_bc": "extrapolate", "output_every": 50, "n_outputs": 0},
    }


def test_unknown_key_rejected_with_line(tmp_path):
    path = write_cfg(tmp_path, "[params]\ngamma = 1.4\nbogus = 3\n")
    with pytest.raises(ConfigError, match="line 3"):
        parse_config(path)


def test_unknown_section_rejected(tmp_path):
    path = write_cfg(tmp_path, "[nonsense]\nx = 1\n")
    with pytest.raises(ConfigError, match="line 1"):
        parse_config(path)


def test_comments_and_blank_lines_are_skipped(tmp_path):
    # '#' and ';' start a comment that runs to the end of its line, whole or trailing
    bare = "[params]\ntau = 0.05\n[grid]\nn_cells = 64\n"
    commented = (
        "# a relaxed run\n\n[params]  ; the fluid\ntau = 0.05  # the relaxation time\n"
        "   \n; the mesh\n[grid]\nn_cells = 64;\n"
    )
    # the objects are built from resolved, which echoes every setting
    params, grid, _, _, resolved = parse_config(write_cfg(tmp_path, commented, "commented.cfg"))
    assert params.tau == 0.05 and grid.n_cells == 64
    assert resolved == parse_config(write_cfg(tmp_path, bare, "bare.cfg"))[4]


@pytest.mark.parametrize(
    "text, line, message",
    [
        ("[params]\ngamma 1.4\n", 2, "expected key = value, got 'gamma 1.4'"),
        ("tau = 0.01\n[params]\n", 1, "key = value before any [section] header"),
    ],
    ids=["no-equals", "no-section"],
)
def test_line_not_a_key_in_a_section_rejected_with_line(tmp_path, text, line, message):
    with pytest.raises(ConfigError, match=f"^line {line}: ") as info:
        parse_config(write_cfg(tmp_path, text))
    assert info.value.line == line and message in str(info.value)


def test_malformed_value_rejected_with_line(tmp_path):
    path = write_cfg(tmp_path, "[grid]\nn_cells = eight\n")
    with pytest.raises(ConfigError, match="line 2"):
        parse_config(path)


# (section, a valid key written first, the invalid line); the error must name
# the invalid line (3), not the key above it
INVALID_BELOW_ANOTHER_KEY = [
    ("params", "tau = 0.01", "gamma = 1.0"),
    ("params", "gamma = 1.4", "mu = 0"),
    ("params", "mu = 2", "lambda = -1"),
    ("params", "eps = 0", "tau = -0.01"),
    ("params", "tau = 0.01", "eps = -1"),
    ("params", "gamma = 1.4", "a_coef = 0"),
    ("grid", "n_cells = 800", "r_max = 1"),
    ("grid", "r_max = 21", "n_cells = 4"),
    ("init", "bump_width = 1", "bump_center = 0.5"),
    ("init", "bump_center = 7", "bump_width = 0"),
    ("solver", "t_end = 1", "cfl = 1.5"),
    ("solver", "cfl = 0.4", "t_end = -1"),
    ("solver", "cfl = 0.4", "outer_bc = t_end"),
    ("solver", "cfl = 0.4", "output_every = 0"),
]


@pytest.mark.parametrize(
    "section, first, bad", INVALID_BELOW_ANOTHER_KEY, ids=[bad.split()[0] for _, _, bad in INVALID_BELOW_ANOTHER_KEY]
)
def test_gamma_bound_rejected(tmp_path, section, first, bad):
    path = write_cfg(tmp_path, f"[{section}]\n{first}\n{bad}\n")
    with pytest.raises(ConfigError, match=f"^line 3: invalid \\[{section}\\]: ") as info:
        parse_config(path)
    assert info.value.line == 3
    assert bad.split()[0] in str(info.value)


@pytest.mark.parametrize(
    "text, line",
    [
        ("[solver]\nt_end = nan\n", 2),
        ("[params]\ngamma = 1.4\ntau = nan\n", 3),
        ("[init]\nbump_amp = nan\n", 2),
        ("[grid]\nn_cells = 64\nr_max = inf\n", 3),
    ],
    ids=["t_end", "tau", "bump_amp", "r_max"],
)
def test_non_finite_value_rejected_with_line(tmp_path, capsys, text, line):
    cfg = write_cfg(tmp_path, text)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert f"line {line}: " in err and "must be finite" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "tau_list, entry",
    [
        ("nan,1e-2", "nan"),
        ("inf", "inf"),
        ("1e-2,-1", "-1"),
        ("1e-2,0", "0"),
        ("1e-2, abc", "abc"),
        ("1e-2,1e-2,1e-3", "1e-2"),
        ("1e-2,1e-3,0.01", "0.01"),
    ],
    ids=["nan", "inf", "negative", "zero", "word", "repeated", "repeated-spelled-differently"],
)
def test_bad_tau_list_rejected_before_output(tmp_path, capsys, tau_list, entry):
    out = tmp_path / "o"
    assert main(["sweep-tau", "--config", "default", "--out", str(out), "--tau-list", tau_list, "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: --tau-list: tau sweep entry ") and repr(entry) in err
    assert not out.exists()
    # one rule for both entry points: tau_sweep, given the entries as
    # written, raises the message the command prints
    entries = [entry.strip() for entry in tau_list.split(",")]
    with pytest.raises(ValueError) as info:
        relaxation.tau_sweep(SolverConfig(), InitConfig(), RadialGrid(), FluidParams(), entries)
    assert err == f"config error: --tau-list: {info.value}\n"


@pytest.mark.parametrize("tau_list", [",", " , ,"], ids=["comma", "blanks"])
def test_empty_tau_list_rejected_before_output(tmp_path, capsys, tau_list):
    out = tmp_path / "o"
    assert main(["sweep-tau", "--config", "default", "--out", str(out), "--tau-list", tau_list, "--quiet"]) == 2
    assert capsys.readouterr().err == "config error: --tau-list: tau sweep needs at least one tau\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "text",
    ["[grid]\nn_cells = eight\n[nonsense]\n", "[params]\ntau = x\nbogus = 1\n", "[params]\ntau = x\ntau = 1\n"],
    ids=["then-unknown-section", "then-unknown-key", "then-duplicate-key"],
)
def test_first_fault_in_file_order_is_reported(tmp_path, capsys, text):
    # the parse fault on line 2 is read before the fault below it
    cfg = write_cfg(tmp_path, text)
    with pytest.raises(ConfigError, match="^line 2: cannot parse ") as info:
        parse_config(cfg)
    assert info.value.line == 2
    out = tmp_path / "o"
    assert main(["run", "--config", cfg, "--out", str(out), "--quiet"]) == 2
    assert capsys.readouterr().err.startswith("config error: line 2: cannot parse ")
    assert not out.exists()


@pytest.mark.parametrize(
    "text, message",
    [
        ("[solver]\ncfl = 2\n[params]\ngamma = 0.5\n", "invalid [solver]: cfl must lie in (0, 1], got 2.0"),
        ("[params]\ngamma = 0.5\nbogus = 1\n", "invalid [params]: gamma must be finite and exceed 1, got 0.5"),
        ("[grid]\nn_cells = 4\n[nonsense]\n", "invalid [grid]: n_cells must be at least 8, got 4"),
        ("[init]\nbump_width = 0\nvel_amp = x\n", "invalid [init]: bump_width must be finite and positive, got 0.0"),
    ],
    ids=["range-then-range-in-an-earlier-section", "then-unknown-key", "then-unknown-section", "then-unparsable-value"],
)
def test_range_fault_reported_before_any_fault_below_it(tmp_path, capsys, text, message):
    # a value its dataclass refuses is a fault at its own line, so it is
    # reported before a fault below it of either kind
    cfg = write_cfg(tmp_path, text)
    with pytest.raises(ConfigError) as info:
        parse_config(cfg)
    assert info.value.line == 2 and str(info.value) == f"line 2: {message}"
    out = tmp_path / "o"
    assert main(["run", "--config", cfg, "--out", str(out), "--quiet"]) == 2
    assert capsys.readouterr().err == f"config error: line 2: {message}\n"
    assert not out.exists()


def test_duplicate_key_rejected_naming_both_lines(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "[params]\ntau = 0.01\ngamma = 1.4\ntau = 0.5\n")
    out = tmp_path / "o"
    assert main(["run", "--config", cfg, "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: line 4: duplicate key 'tau'") and "first set on line 2" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "sweep-tau", "check-structure"])
def test_out_naming_a_file_rejected(tmp_path, capsys, command):
    target = tmp_path / "taken"
    target.write_bytes(b"keep me\n")
    assert main([command, "--config", "default", "--out", str(target), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: --out ") and str(target) in err
    assert target.read_bytes() == b"keep me\n"


def test_missing_file_rejected():
    with pytest.raises(ConfigError, match="not found"):
        parse_config("/no/such/file.cfg")


def test_energy_report_at_tau_zero(tmp_path):
    out = tmp_path / "o"
    assert main(["energy-report", "--config", write_cfg(tmp_path, CLASSICAL_CFG), "--out", str(out), "--quiet"]) == 0
    assert (out / "energy_report.txt").is_file()


def test_negative_n_outputs_rejected_with_line(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "[solver]\nt_end = 0.1\nn_outputs = -1\n")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "line 3: " in err and "n_outputs must be >= 0" in err
    assert not (tmp_path / "o").exists()


def test_main_run_snapshots_at_n_outputs_times(tmp_path):
    cfg = write_cfg(
        tmp_path,
        "[grid]\nr_max = 6\nn_cells = 48\n"
        "[init]\nbump_amp = 0.01\nbump_center = 3.5\nbump_width = 0.45\n"
        "[solver]\nt_end = 0.05\noutput_every = 1\nn_outputs = 3\n",
    )
    out = tmp_path / "o"
    assert main(["run", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    rows = (out / "diagnostics.csv").read_text().splitlines()[1:]
    assert [float(row.split(",")[0]) for row in rows] == np.linspace(0.0, 0.05, 4).tolist()
    assert len(list(out.glob("snapshot_*.csv"))) == 4


def test_cli_import_leaves_scipy_unloaded():
    # scipy costs about 0.3 s and 28 MiB to import; the package depends on
    # numpy alone, the reduction check's interpolation included
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    code = (
        "import sys, relaxns.cli, relaxns.reduction; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_run_classical_leaves_scipy_unloaded(tmp_path):
    # the baseline's banded solve is numpy-only: a whole run-classical in a
    # fresh interpreter imports no scipy
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    code = (
        "import sys; from relaxns.cli import main\n"
        "assert main(['run-classical', '--config', sys.argv[1], '--out', sys.argv[2], '--quiet']) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    cfg = write_cfg(tmp_path, CLASSICAL_CFG)
    args = [sys.executable, "-c", code, cfg, str(tmp_path / "o")]
    done = subprocess.run(args, env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
    assert (tmp_path / "o" / "snapshot_0001.csv").is_file()


def test_snapshot_roundtrip(tmp_path):
    grid = RadialGrid(r_max=3.0, n_cells=8)
    state = equilibrium_state(8)
    rng = np.random.default_rng(0)
    state.rho += rng.uniform(-1e-3, 1e-3, 8)
    state.v += rng.standard_normal(8) * 1e-7
    path = tmp_path / "snap.csv"
    write_snapshot(state, grid, path)
    text = path.read_text()
    assert text.splitlines()[0] == "r,rho,v,s1,s2"
    assert len(text.splitlines()) == 9
    r, rho, v, s1, s2 = read_snapshot(path)
    assert np.array_equal(r, grid.centers)
    assert np.array_equal(rho, state.rho)
    assert np.array_equal(v, state.v)
    assert np.array_equal(s1, state.s1)
    assert np.array_equal(s2, state.s2)


def test_diagnostics_zero_run(tmp_path, grid, params, equilibrium):
    traj = run(equilibrium, grid, params, SolverConfig(t_end=0.05, output_every=10))
    series = energy_series(traj, grid, params)
    path = tmp_path / "diag.csv"
    n = len(series)
    write_diagnostics(series, path, ((), ()), [None] * n, [(None, None)] * n)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("t,E_inst,E_run,")
    assert len(lines) == len(series) + 1
    e_run = [float(l.split(",")[2]) for l in lines[1:]]
    assert all(b >= a for a, b in zip(e_run, e_run[1:]))
    for line in lines[1:]:
        cols = line.split(",")
        for val in cols[1:7]:
            assert val == "" or abs(float(val)) < 1e-200 or float(val) > 0  # mass positive, rest zero
        assert float(cols[1]) == 0.0 and float(cols[3]) == 0.0


def test_main_run_and_determinism(tmp_path):
    cfg = write_cfg(
        tmp_path,
        "[params]\ntau = 0.01\n"
        "[grid]\nr_max = 11\nn_cells = 64\n"
        "[init]\nbump_amp = 0.01\nbump_center = 5.0\nbump_width = 0.7\n"
        "[solver]\nt_end = 0.2\noutput_every = 30\n",
    )
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["run", "--config", cfg, "--out", str(out1), "--quiet"]) == 0
    assert main(["run", "--config", cfg, "--out", str(out2), "--quiet"]) == 0
    for name in sorted(p.name for p in out1.glob("*.csv")):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    import json

    m1 = json.loads((out1 / "manifest.json").read_text())
    m2 = json.loads((out2 / "manifest.json").read_text())
    m1.pop("wall_time"), m2.pop("wall_time")
    assert m1 == m2


def test_main_run_classical(tmp_path):
    cfg = write_cfg(
        tmp_path,
        "[params]\ntau = 0\n"
        "[grid]\nr_max = 6\nn_cells = 48\n"
        "[init]\nbump_amp = 0.01\nbump_center = 3.5\nbump_width = 0.45\n"
        "[solver]\nt_end = 0.05\noutput_every = 100\n",
    )
    out = tmp_path / "oc"
    assert main(["run-classical", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    assert (out / "diagnostics.csv").is_file()


def test_main_check_structure(tmp_path, capsys):
    out = tmp_path / "os"
    code = main(["check-structure", "--config", "default", "--out", str(out), "--seed", "0"])
    assert code == 0
    text = capsys.readouterr().out
    assert "[PASS]" in text and "[FAIL]" not in text
    assert (out / "structure_report.txt").is_file()


def test_check_structure_rejects_negative_seed_before_output(tmp_path, capsys):
    out = tmp_path / "os"
    assert main(["check-structure", "--config", "default", "--out", str(out), "--seed", "-1", "--quiet"]) == 2
    assert "--seed" in capsys.readouterr().err
    assert not out.exists()


def test_check_structure_rejects_tau_zero_before_output(tmp_path, capsys):
    out = tmp_path / "os"
    cfg = write_cfg(tmp_path, "[params]\ntau = 0\n")
    assert main(["check-structure", "--config", cfg, "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err == "config error: [params] tau = 0 degenerates the stress rows; check-structure needs tau > 0\n"
    assert not out.exists()


def test_main_check_structure_fail_path(tmp_path, capsys, monkeypatch):
    audit = replace(structure_audit(n_states=10, seed=0), q_form_max_error=1.0)
    monkeypatch.setattr(cli, "structure_audit", lambda seed: audit)
    out = tmp_path / "os"
    assert main(["check-structure", "--config", "default", "--out", str(out)]) == 2
    failed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("[FAIL]")]
    assert failed == [f"[FAIL] {text}" for ok, text in audit.checks if not ok]
    assert failed == ["[FAIL] witness form equals -2 P'(rho) (max err 1.00e+00)"]
    assert json.loads((out / "manifest.json").read_text())["warnings"] == ["structure audit failed"]


def test_main_sweep_tau(tmp_path):
    cfg = write_cfg(
        tmp_path,
        "[params]\ntau = 0.01\n"
        "[grid]\nr_max = 11\nn_cells = 64\n"
        "[init]\nbump_amp = 0.01\nbump_center = 5.0\nbump_width = 0.7\nvel_amp = 0.01\n"
        "[solver]\nt_end = 0.2\n",
    )
    out = tmp_path / "osw"
    code = main(["sweep-tau", "--config", cfg, "--out", str(out), "--tau-list", "1e-2,1e-3", "--quiet"])
    assert code == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "tau,field_err,s1_limit_err,s2_limit_err,runtime_s"
    assert len(lines) == 3
    assert (out / "sweep_summary.txt").is_file()


def test_sweep_summary_reports_time_steps(tmp_path):
    out = tmp_path / "osw"
    cfg = write_cfg(tmp_path, "[grid]\nr_max = 11\nn_cells = 64\n[solver]\nt_end = 0.05\n")
    assert main(["sweep-tau", "--config", cfg, "--out", str(out), "--tau-list", "1e-3,1e-2", "--quiet"]) == 0
    lines = (out / "sweep_summary.txt").read_text().splitlines()
    steps = [line for line in lines if line.startswith("time steps: ")]
    assert len(steps) == 1
    m = re.fullmatch(r"time steps: baseline (\d+), tau=0\.01 (\d+), tau=0\.001 (\d+)", steps[0])
    assert m
    baseline, loose, stiff = int(m[1]), int(m[2]), int(m[3])
    # a smaller tau never takes fewer steps; the sweep steps every member
    # with ARS(2,2,2) at the acoustic step, as the baseline, so at eps = 0
    # all three take the same count
    assert min(baseline, loose, stiff) > 0 and loose <= stiff
    # the fork/join line: 3 jobs (the baseline and two members), the busiest
    # worker's summed job runtimes inside the sweep's wall time
    (forks,) = [line for line in lines if " forked workers, " in line]
    m = re.fullmatch(r"3 jobs on (\d+) forked workers, sweep wall (\S+) s, busiest worker (\S+) s", forks)
    assert m, forks
    assert 1 <= int(m[1]) <= 3 and 0.0 < float(m[3]) <= float(m[2])


def test_sweep_manifest_lists_taus_in_run_order(tmp_path):
    # sweep.csv lists the members largest tau first, as the sweep runs them,
    # and the manifest's taus follow that order, not the --tau-list order
    out = tmp_path / "osw"
    cfg = write_cfg(tmp_path, "[grid]\nr_max = 11\nn_cells = 64\n[solver]\nt_end = 0.05\n")
    assert main(["sweep-tau", "--config", cfg, "--out", str(out), "--tau-list", "1e-3,1e-2", "--quiet"]) == 0
    rows = (out / "sweep.csv").read_text().splitlines()[1:]
    assert [float(row.split(",")[0]) for row in rows] == [0.01, 0.001]
    assert json.loads((out / "manifest.json").read_text())["taus"] == [0.01, 0.001]


def test_sweep_tau_samples_at_the_config_n_outputs(tmp_path, monkeypatch):
    sweep_run = relaxation._sweep_run

    def times_reporting_run(initial, grid, params, cfg, output_times=None):
        # the baseline, at tau = 0, runs for real
        if params.tau == 0.0:
            return sweep_run(initial, grid, params, cfg, output_times=output_times)
        raise NumericalAbort(repr(output_times.tolist()))

    # the members run in forked workers, which inherit the patched binding
    monkeypatch.setattr(relaxation, "_sweep_run", times_reporting_run)
    out = tmp_path / "osw"
    cfg = write_cfg(tmp_path, "[grid]\nr_max = 11\nn_cells = 64\n[solver]\nt_end = 0.05\nn_outputs = 2\n")
    assert main(["sweep-tau", "--config", cfg, "--out", str(out), "--tau-list", "1e-2", "--quiet"]) == 3
    lines = (out / "sweep_summary.txt").read_text().splitlines()
    assert f"FAILED member run: tau=0.01: {np.linspace(0.0, 0.05, 3).tolist()!r}" in lines


def test_main_energy_report(tmp_path):
    cfg = write_cfg(
        tmp_path,
        "[params]\ntau = 0.01\n"
        "[grid]\nr_max = 11\nn_cells = 64\n"
        "[init]\nbump_amp = 0.005\nbump_center = 5.0\nbump_width = 0.7\n"
        "[solver]\nt_end = 0.3\noutput_every = 20\n",
    )
    out = tmp_path / "oe"
    assert main(["energy-report", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    assert (out / "energy_report.txt").is_file()


def test_energy_report_names_the_pinch_box(tmp_path):
    cfg = write_cfg(tmp_path, "[grid]\nr_max = 11\nn_cells = 32\n[solver]\nt_end = 0.05\n")
    out = tmp_path / "oe"
    assert main(["energy-report", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    lines = (out / "energy_report.txt").read_text().splitlines()
    assert lines[1] == "degenerate equilibrium run"
    assert lines[3] == "rho range [1, 1] inside [0.75, 1.25]"


@pytest.mark.parametrize("eps", [0.0, 0.1])
def test_energy_report_traces_the_wall_stresses_only_when_shifted(tmp_path, eps):
    cfg = write_cfg(tmp_path, f"[params]\neps = {eps}\n[grid]\nr_max = 11\nn_cells = 32\n[solver]\nt_end = 0.05\n")
    out = tmp_path / "oe"
    assert main(["energy-report", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    traces = [line for line in (out / "energy_report.txt").read_text().splitlines() if line.startswith("wall stress")]
    assert len(traces) == (eps > 0.0)
    if traces:
        assert re.fullmatch(r"wall stress traces at t_end \(no threshold\): s1-type \S+, s2-type \S+", traces[0])


def test_energy_report_prints_contamination_warning(tmp_path, capsys):
    # the pulse reaches r_max = 6 well before t_end, as in
    # test_mass_balance_flags_boundary_contamination
    cfg = write_cfg(
        tmp_path,
        "[grid]\nr_max = 6\nn_cells = 120\n"
        "[init]\nbump_amp = 0.02\nbump_center = 3.5\nbump_width = 0.45\nvel_amp = 0.02\n"
        "[solver]\nt_end = 1\noutput_every = 100\n",
    )
    out = tmp_path / "ow"
    assert main(["energy-report", "--config", cfg, "--out", str(out)]) == 0
    import json

    warnings = json.loads((out / "manifest.json").read_text())["warnings"]
    assert any("outer-boundary contamination" in w for w in warnings)
    printed = capsys.readouterr().out.splitlines()
    assert [f"warning: {w}" for w in warnings] == [line for line in printed if line.startswith("warning: ")]


def test_main_unknown_subcommand():
    assert main(["nonsense"]) == 2


def test_main_rejects_bad_config(tmp_path):
    cfg = write_cfg(tmp_path, "[params]\ngamma = 0.5\n")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "x"), "--quiet"]) == 2


def test_manifest_config_echo_reparses_identically(tmp_path):
    cfg = write_cfg(
        tmp_path,
        "[params]\ntau = 0.02\ngamma = 1.5\n"
        "[grid]\nr_max = 11\nn_cells = 64\n"
        "[solver]\nt_end = 0.05\noutput_every = 100\n",
    )
    out = tmp_path / "echo"
    assert main(["run", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    import json

    echo = json.loads((out / "manifest.json").read_text())["config_echo"]
    lines = []
    for section, entries in echo.items():
        lines.append(f"[{section}]")
        for key, value in entries.items():
            lines.append(f"{key} = {value}")
    rewritten = tmp_path / "echo.cfg"
    rewritten.write_text("\n".join(lines) + "\n")
    _, _, _, _, resolved = parse_config(str(rewritten))
    assert resolved == echo


# Exact decimals and IEEE edge cases (-0.0, the smallest subnormal, 1e300),
# built without exp or pow so the bytes depend on no libm or SIMD path; the
# digests pin the CSV bytes of both writers.
GOLDEN_STATE = (
    [1.0, 0.5, 1.25, 2.0, 1e300, 0.1, 3.0, 1.0000000000000002],
    [-0.0, 5e-324, -5e-324, 0.1, -0.3, 1e-07, 0.0, 2.5],
    [0.001, -1e-300, 123456789.0, 1e16, 1e17, -2.5e-10, 0.3, 0.0],
    [1e300, -1e300, 0.2, -0.0, 7.0, 1e-05, 0.125, 6.02214076e23],
)
GOLDEN_SERIES = [
    (0.0, 0.0, 0.0, -0.0, 1.5, 5e-324, 0.0),
    (0.25, 0.1, 0.1, 0.02, 1.5000000000000002, 1e-300, 0.3),
    (0.5, 1e300, 1e300, 3.0, 1.4999999999999998, 0.7, 12.5),
    (1.0, 0.05, 1e300, float("nan"), 1.5, 0.125, 1e-07),
]


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_snapshot_golden_bytes(tmp_path):
    path = tmp_path / "snap.csv"
    write_snapshot(State(*GOLDEN_STATE), RadialGrid(r_max=3.0, n_cells=8), path)
    assert path.read_text().splitlines()[1] == "1.125,1,-0,0.001,1.0000000000000001e+300"
    assert sha256(path) == "31eb25fd714b6a32e353bc8ae6c9f7b056344047ab52b0511681deb9f855482e"


def test_diagnostics_golden_bytes(tmp_path):
    series = [EnergySnapshot(*row, ddtt_available=True) for row in GOLDEN_SERIES]
    bare, full = tmp_path / "bare.csv", tmp_path / "full.csv"
    write_diagnostics(series, bare, ((), ()), [None] * 4, [(None, None)] * 4)
    write_diagnostics(
        series,
        full,
        energy_residual=(np.array([0.25, 0.5]), np.array([1e-05, -0.0])),
        mass_residual=[0.0, 5e-324, None, float("nan")],
        limit_errors=[(0.1, None), (float("nan"), 0.2), (1e300, -0.0), (None, None)],
    )
    assert bare.read_text().splitlines()[4] == (
        "1,0.050000000000000003,1.0000000000000001e+300,,1.5,0.125,9.9999999999999995e-08,,,,"
    )
    assert sha256(bare) == "704cb12a1586d151b09b0f9cd1d7f189fcd73d6f29f03b94e651859e8f022623"
    assert sha256(full) == "5bb6ceb25cbc8c76ccbaa7be687081c4b757ff3a5e3bc2ccc5b39e7590efe978"


def test_snapshot_bytes_match_per_value_format_across_chunks(tmp_path):
    # the row template, written chunk by chunk, must give the bytes of the
    # per-value f"{x:.17g}" join on rows that straddle every chunk boundary
    n = 3 * cli._SNAPSHOT_CHUNK + 1
    grid = RadialGrid(r_max=21.0, n_cells=n)
    rng = np.random.default_rng(20261018)
    state = State(*(rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n) for _ in range(4)))
    state.rho[0], state.v[cli._SNAPSHOT_CHUNK - 1], state.s1[cli._SNAPSHOT_CHUNK] = -0.0, 5e-324, 1e300
    state.s2[-1] = -5e-324
    path = tmp_path / "snap.csv"
    write_snapshot(state, grid, path)
    columns = (grid.centers, state.rho, state.v, state.s1, state.s2)
    want = "r,rho,v,s1,s2\n" + "".join(",".join(f"{x:.17g}" for x in row) + "\n" for row in zip(*columns))
    assert path.read_bytes() == want.encode()
    for got, col in zip(read_snapshot(path), columns):
        assert got.tobytes() == col.tobytes()


@pytest.mark.parametrize("field, value", [("v", float("nan")), ("s1", float("inf"))], ids=["nan", "inf"])
def test_snapshot_refuses_non_finite_field(tmp_path, field, value):
    state = equilibrium_state(8)
    getattr(state, field)[3] = value
    path = tmp_path / "snap.csv"
    with pytest.raises(ValueError, match=f"snapshot field {field} "):
        write_snapshot(state, RadialGrid(r_max=3.0, n_cells=8), path)
    assert not path.exists()


@pytest.mark.parametrize("n_state", [100, 300])
def test_snapshot_refuses_a_state_not_of_the_grids_length(tmp_path, n_state):
    path = tmp_path / "snap.csv"
    with pytest.raises(ValueError, match=f"^snapshot field rho has {n_state} values for a grid of 200 cells$"):
        write_snapshot(equilibrium_state(n_state), RadialGrid(r_max=3.0, n_cells=200), path)
    assert not path.exists()


# The configs of acceptance criterion 10 and of test_main_run_classical.
CRITERION_10_CFG = (
    "[params]\ntau = 0.01\n"
    "[grid]\nr_max = 11\nn_cells = 128\n"
    "[init]\nbump_amp = 0.01\nbump_center = 5.0\nbump_width = 0.7\nvel_amp = 0.01\n"
    "[solver]\nt_end = 0.3\noutput_every = 50\n"
)
CLASSICAL_CFG = (
    "[params]\ntau = 0\n"
    "[grid]\nr_max = 6\nn_cells = 48\n"
    "[init]\nbump_amp = 0.01\nbump_center = 3.5\nbump_width = 0.45\n"
    "[solver]\nt_end = 0.05\noutput_every = 100\n"
)
# tau 1e-2 on a grid coarse enough that the parabolic cap binds: run steps
# with ARS(2,2,2), 4 steps to t = 0.2
SMALL_CFG = (
    "[grid]\nr_max = 11\nn_cells = 64\n"
    "[init]\nbump_amp = 0.01\nbump_center = 5.0\nbump_width = 0.7\n"
    "[solver]\nt_end = 0.2\noutput_every = 1\n"
)


def run_digest(out):
    """SHA-256 over the names and bytes of the snapshots, in name order, then
    diagnostics.csv."""
    digest = hashlib.sha256()
    for path in sorted(out.glob("snapshot_*.csv")) + [out / "diagnostics.csv"]:
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


# Recorded when every snapshot was still written in the main process, one
# after the other, after the integration; the classical digest since the
# baseline steps its viscous term implicitly (ARS(2,2,2)) at the acoustic
# step, the relaxed one since a step left open between snapshots owes its
# closing half relaxation to the next step.  The numbers go through pow and
# exp, whose last bits depend on the SIMD kernels numpy dispatches to, so
# the digests are keyed by the list of dispatch targets (cli._numpy_record).
# Two digest sets are known: the AVX-512 one, which an AVX-512 host gives with
# its full list and under NPY_DISABLE_CPU_FEATURES="AVX512_SPR" and
# "AVX512_ICL AVX512_SPR"; and the AVX2 one, which the same host gives under
# "X86_V4 AVX512_ICL AVX512_SPR" (the list X86_V3) and under
# "X86_V3 X86_V4 AVX512_ICL AVX512_SPR" (the empty list).  So on that numpy
# build the bits split on X86_V4 alone; a list never measured still fails.
AVX512_DIGESTS = {
    "run": "a7511ce93523a09434006c97e653bc2292a6fe2e64cbfa20df35083112afb5a8",
    "classical": "2d501a527cdc17950175adcd45cd69a000a07a9a4ec04b43e9110a764cb78470",
    "classical-reflect": "d61a6690507b455f0b332e27a6c657cdb6cd2b93f7a451016b73777612475ac5",
    "imex": "09b9af8a92316e52f36d94207fb420de31f2b048b1a3f32fbcc64e85e2f026db",
    "imex-reflect": "e73234670f2516027aeb4ca07795942327043464cc22d2488b4f87257894e21c",
}
AVX2_DIGESTS = {
    "run": "61dd10da0c2daf589df54e639bf0a728508add336405c917f5637dd629140819",
    "classical": "f020515d3efd96342e0b5471b757f7252198c8e34f10ae9b4b3dce1713e1a905",
    "classical-reflect": "3b9ac11c9ae3b28cf4186d7f705fa19120b21cae838189807adc4c177e20c989",
    "imex": "4e0648e18f3474e2041b527f48587923e60a9862bc2387208629cc1caaeae677",
    "imex-reflect": "56358b7cd39bcc357b838a136f55e8c883df9175a540a0587dc09c6251640024",
}
RUN_DIGESTS = {
    ("X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR"): AVX512_DIGESTS,
    ("X86_V3", "X86_V4", "AVX512_ICL"): AVX512_DIGESTS,
    ("X86_V3", "X86_V4"): AVX512_DIGESTS,
    ("X86_V3",): AVX2_DIGESTS,
    (): AVX2_DIGESTS,
}


def pinned_digest(name):
    """The digest recorded for the pin `name` on this process's numpy
    dispatch targets; a list with no recorded set fails, naming it."""
    dispatch = tuple(cli._numpy_record()["dispatch"])
    if dispatch not in RUN_DIGESTS:
        pytest.fail(f"no whole-run digests recorded for numpy dispatch targets {list(dispatch)}")
    return RUN_DIGESTS[dispatch][name]


@pytest.mark.parametrize(
    "command, text, n_snapshots, want",
    [
        ("run", CRITERION_10_CFG, 4, "run"),
        ("run-classical", CLASSICAL_CFG, 2, "classical"),
        ("run", CLASSICAL_CFG, 2, "classical"),
        # eps moves only the stress transport, whose values the tau = 0 stage
        # replaces by eq(v): the bytes are the eps = 0 run's
        ("run", CLASSICAL_CFG.replace("tau = 0\n", "tau = 0\neps = 0.1\n"), 2, "classical"),
        (
            "run",
            CLASSICAL_CFG.replace("output_every = 100\n", "output_every = 100\nouter_bc = reflect\n"),
            2,
            "classical-reflect",
        ),
        # ARS(2,2,2) at tau > 0, where each stage probes its own bands
        ("run", SMALL_CFG, 5, "imex"),
        (
            "run",
            SMALL_CFG.replace("output_every = 1\n", "output_every = 1\nouter_bc = reflect\n"),
            5,
            "imex-reflect",
        ),
    ],
    ids=[
        "run",
        "run-classical",
        "run-at-tau-0",
        "run-at-tau-0-eps",
        "run-at-tau-0-reflect",
        "run-imex",
        "run-imex-reflect",
    ],
)
def test_whole_run_bytes_are_pinned(tmp_path, command, text, n_snapshots, want):
    out = tmp_path / "o"
    assert main([command, "--config", write_cfg(tmp_path, text), "--out", str(out), "--quiet"]) == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == ["diagnostics.csv", "manifest.json"] + [f"snapshot_{j:04d}.csv" for j in range(n_snapshots)]
    assert run_digest(out) == pinned_digest(want)


def test_run_classical_integrates_and_reports_tau_zero(tmp_path):
    # the run and its diagnostics are those of the tau = 0 config, whatever tau the config sets
    out = tmp_path / "o"
    cfg = write_cfg(tmp_path, CLASSICAL_CFG.replace("tau = 0\n", "tau = 0.05\n"))
    assert main(["run-classical", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    assert run_digest(out) == pinned_digest("classical")
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["params_summary"]["tau"] == 0.0 and manifest["config_echo"]["params"]["tau"] == 0.05


def test_abort_leaves_the_snapshots_recorded_before_it(tmp_path, capsys, monkeypatch):
    # the parabolic cap binds on this grid, so run steps with ARS(2,2,2),
    # 16 steps to t = 0.8
    cfg = write_cfg(tmp_path, SMALL_CFG.replace("t_end = 0.2\n", "t_end = 0.8\n"))
    full = tmp_path / "full"
    assert main(["run", "--config", cfg, "--out", str(full), "--quiet"]) == 0
    real_step = solver._step_classical

    def step_aborting_at_12(state, grid, params, cfg, dt, step_idx, out=None, work=None, *, owed=0.0, close=True):
        if step_idx == 12:
            raise NumericalAbort("forced abort", step=step_idx)
        return real_step(state, grid, params, cfg, dt, step_idx, out=out, work=work, owed=owed, close=close)

    monkeypatch.setattr(solver, "_step_classical", step_aborting_at_12)
    outs = [tmp_path / "a1", tmp_path / "a2"]
    for out in outs:
        assert main(["run", "--config", cfg, "--out", str(out), "--quiet"]) == 3
        assert capsys.readouterr().err == "numerical abort: forced abort\n"
        # snapshots at t = 0 and after each of the 12 steps, more than the
        # writer takes in before the abort; no diagnostics
        names = sorted(p.name for p in out.iterdir())
        assert names == ["manifest.json"] + [f"snapshot_{j:04d}.csv" for j in range(13)]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["wall_time"] is None and "steps" not in manifest
    for name in names[1:]:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes() == (full / name).read_bytes()
    assert multiprocessing.active_children() == []
    assert_no_child_left()


@pytest.mark.parametrize("dt", [0.0, math.nan], ids=["zero", "nan"])
def test_collapsed_time_step_aborts_leaving_the_first_snapshot(tmp_path, capsys, monkeypatch, dt):
    # the dt rule of the ARS(2,2,2) step, which run selects for this config
    monkeypatch.setattr(solver, "compute_dt_classical", lambda state, grid, params, cfl, work=None: dt)
    out = tmp_path / "o"
    assert main(["run", "--config", write_cfg(tmp_path, SMALL_CFG), "--out", str(out), "--quiet"]) == 3
    assert capsys.readouterr().err == f"numerical abort: time step collapsed to {dt:.3g} at t = 0\n"
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "snapshot_0000.csv"]
    assert json.loads((out / "manifest.json").read_text())["wall_time"] is None


def test_failed_snapshot_write_exits_2_with_its_message(tmp_path, capsys, monkeypatch):
    real_write = cli.write_snapshot

    def write_failing_on_2(state, grid, path):
        if Path(path).name == "snapshot_0002.csv":
            raise ValueError("refused snapshot_0002.csv")
        real_write(state, grid, path)

    # the writer process is forked after this, so it runs the patched binding
    monkeypatch.setattr(cli, "write_snapshot", write_failing_on_2)
    out = tmp_path / "o"
    assert main(["run", "--config", write_cfg(tmp_path, SMALL_CFG), "--out", str(out), "--quiet"]) == 2
    assert capsys.readouterr().err == "validation error: refused snapshot_0002.csv\n"
    assert json.loads((out / "manifest.json").read_text())["wall_time"] is None
    assert not (out / "snapshot_0002.csv").exists()
    assert multiprocessing.active_children() == []
    assert_no_child_left()


def assert_no_child_left():
    # multiprocessing.active_children() lists only the children it started;
    # this sees one forked with os.fork too
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def counting_forks(monkeypatch):
    """Wrap os.fork; returns the list the parent appends each child's pid to."""
    real_fork, pids = os.fork, []

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


def test_frequent_snapshots_are_the_bytes_of_write_snapshot_from_one_writer(tmp_path, monkeypatch):
    # one snapshot per step, 38 steps to t = 2: each file is the bytes
    # write_snapshot writes in this process for the snapshot the solver
    # recorded, and one writer wrote them all
    cfg = write_cfg(tmp_path, SMALL_CFG.replace("t_end = 0.2\n", "t_end = 2\n"))
    pids = counting_forks(monkeypatch)
    out = tmp_path / "o"
    assert main(["run", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    assert len(pids) == 1
    params, grid, init, solver_cfg, _ = parse_config(cfg)
    traj = run(make_initial_data(init, grid, params), grid, params, solver_cfg)
    assert len(traj.snapshots) == 39
    assert sorted(p.name for p in out.glob("snapshot_*.csv")) == [f"snapshot_{j:04d}.csv" for j in range(39)]
    for j, snap in enumerate(traj.snapshots):
        write_snapshot(snap, grid, tmp_path / "want.csv")
        assert (out / f"snapshot_{j:04d}.csv").read_bytes() == (tmp_path / "want.csv").read_bytes(), j
    assert_no_child_left()


def test_writer_failure_is_raised_at_the_next_snapshot_once_the_writer_is_gone(tmp_path, capsys, monkeypatch):
    # the writer refuses snapshot 0 and exits; the next snapshot's name then
    # finds the pipe closed, and the run ends there with the writer's error
    def write_refusing(state, grid, path):
        raise ValueError(f"refused {Path(path).name}")

    real_run, sent = cli.run, []

    def run_awaiting_the_writers_exit(initial, grid, params, cfg, on_snapshot):
        def send(snap):
            on_snapshot(snap)
            sent.append(snap.t)
            pid, deadline = on_snapshot.__self__.child.pid, time.monotonic() + 30
            # WNOWAIT leaves the writer for the command to reap
            flags = os.WEXITED | os.WNOHANG | os.WNOWAIT
            while os.waitid(os.P_PID, pid, flags) is None and time.monotonic() < deadline:
                time.sleep(0.001)

        return real_run(initial, grid, params, cfg, on_snapshot=send)

    monkeypatch.setattr(cli, "write_snapshot", write_refusing)
    monkeypatch.setattr(cli, "run", run_awaiting_the_writers_exit)
    out = tmp_path / "o"
    assert main(["run", "--config", write_cfg(tmp_path, SMALL_CFG), "--out", str(out), "--quiet"]) == 2
    assert capsys.readouterr().err == "validation error: refused snapshot_0000.csv\n"
    assert sent == [0.0]
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]
    assert_no_child_left()


def test_writer_killed_by_a_signal_is_raised_naming_it(tmp_path, monkeypatch):
    def write_killing_itself(state, grid, path):
        os.kill(os.getpid(), signal.SIGKILL)

    monkeypatch.setattr(cli, "write_snapshot", write_killing_itself)
    out = tmp_path / "o"
    with pytest.raises(RuntimeError, match=f"^the snapshot writer was killed by signal {int(signal.SIGKILL)}$"):
        main(["run", "--config", write_cfg(tmp_path, SMALL_CFG), "--out", str(out), "--quiet"])
    assert not list(out.glob("snapshot_*.csv"))
    assert_no_child_left()


def test_other_exception_kills_the_writer(tmp_path, capsys, monkeypatch):
    # an exception after the run, neither the writer's nor a NumericalAbort:
    # the command raises it and leaves no writer behind
    def write_blocking(state, grid, path):
        time.sleep(60)

    def diagnostics_refused(*args, **kwargs):
        raise ValueError("diagnostics refused")

    monkeypatch.setattr(cli, "write_snapshot", write_blocking)
    monkeypatch.setattr(cli, "write_diagnostics", diagnostics_refused)
    t0 = time.perf_counter()
    out = tmp_path / "o"
    assert main(["run", "--config", write_cfg(tmp_path, SMALL_CFG), "--out", str(out), "--quiet"]) == 2
    assert time.perf_counter() - t0 < 30
    assert capsys.readouterr().err == "validation error: diagnostics refused\n"
    assert_no_child_left()


def test_run_loads_no_pool_module_and_starts_no_thread(tmp_path):
    # the writer is forked directly: a fresh interpreter that runs a command
    # has imported neither concurrent.futures nor multiprocessing, and runs
    # its main thread alone
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    code = (
        "import sys, threading\n"
        "from relaxns import cli\n"
        "assert cli.main(['run', '--config', sys.argv[1], '--out', sys.argv[2], '--quiet']) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('concurrent', 'multiprocessing')), "
        "threading.active_count())"
    )
    cfg, out = write_cfg(tmp_path, SMALL_CFG), tmp_path / "o"
    args = [sys.executable, "-c", code, cfg, str(out)]
    done = subprocess.run(args, env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[] 1"
    assert len(list(out.glob("snapshot_*.csv"))) == 5


@pytest.mark.parametrize(
    "command, text, integrate",
    [
        ("run", CRITERION_10_CFG, run),
        ("run-classical", CLASSICAL_CFG, run_classical),
        ("energy-report", SMALL_CFG, run),
    ],
    ids=["run", "run-classical", "energy-report"],
)
def test_manifest_records_step_statistics(tmp_path, command, text, integrate):
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out), "--quiet"]) == 0
    params, grid, init, solver_cfg, _ = parse_config(cfg)
    dts = integrate(make_initial_data(init, grid, params), grid, params, solver_cfg).dt_history
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["steps"] == len(dts) > 0
    assert manifest["dt"] == {"min": min(dts), "mean": math.fsum(dts) / len(dts), "max": max(dts)}


@pytest.mark.parametrize(
    "command, text, want",
    [("run", CRITERION_10_CFG, "strang"), ("run-classical", CLASSICAL_CFG, "imex"), ("energy-report", SMALL_CFG, "imex")],
    ids=["run", "run-classical", "energy-report"],
)
def test_manifest_records_the_step_rule(tmp_path, command, text, want):
    # SMALL_CFG's grid is coarse enough that the parabolic cap binds at
    # tau 1e-2, so it steps with ARS(2,2,2) as the baseline does
    out = tmp_path / "o"
    assert main([command, "--config", write_cfg(tmp_path, text), "--out", str(out), "--quiet"]) == 0
    assert json.loads((out / "manifest.json").read_text())["stepper"] == want


def test_manifest_step_statistics_of_a_zero_step_run(tmp_path):
    out = tmp_path / "o"
    cfg = write_cfg(tmp_path, "[grid]\nr_max = 6\nn_cells = 48\n[solver]\nt_end = 0\n")
    assert main(["run", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["steps"] == 0 and manifest["dt"] == {"min": None, "mean": None, "max": None}
    assert sorted(p.name for p in out.glob("snapshot_*.csv")) == ["snapshot_0000.csv"]


def numpy_dispatch():
    # the dispatch targets numpy's kernels run on in this process, read
    # independently of the package
    from numpy._core import _multiarray_umath as umath

    return [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__[t]]


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--config", "{cfg}"],
        ["run-classical", "--config", "{cfg}"],
        ["energy-report", "--config", "{cfg}"],
        ["sweep-tau", "--config", "{cfg}", "--tau-list", "1e-2"],
        ["check-structure", "--config", "default"],
    ],
    ids=lambda argv: argv[0],
)
def test_every_manifest_records_numpy(tmp_path, argv):
    cfg = write_cfg(tmp_path, CLASSICAL_CFG.replace("tau = 0\n", "tau = 0.01\n"))
    out = tmp_path / "o"
    assert main([a.format(cfg=cfg) for a in argv] + ["--out", str(out), "--quiet"]) == 0
    record = json.loads((out / "manifest.json").read_text())["numpy"]
    assert record == {"version": np.__version__, "dispatch": numpy_dispatch()}


DISABLED = "X86_V4 AVX512_ICL AVX512_SPR"


@pytest.mark.skipif("X86_V4" not in numpy_dispatch(), reason="needs numpy's X86_V4 kernels")
def test_manifest_records_the_targets_left_under_npy_disable_cpu_features(tmp_path):
    # with the AVX-512 targets switched off, numpy dispatches to the rest,
    # and the manifest lists those only
    src = Path(cli.__file__).resolve().parents[1]
    pythonpath = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": pythonpath, "NPY_DISABLE_CPU_FEATURES": DISABLED}
    cfg, out = write_cfg(tmp_path, CLASSICAL_CFG), tmp_path / "o"
    args = [sys.executable, "-m", "relaxns", "run", "--config", cfg, "--out", str(out), "--quiet"]
    done = subprocess.run(args, env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    dispatch = json.loads((out / "manifest.json").read_text())["numpy"]["dispatch"]
    assert dispatch == [t for t in numpy_dispatch() if t not in DISABLED.split()]
    assert dispatch and "X86_V4" not in dispatch
