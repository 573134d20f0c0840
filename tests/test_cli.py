import hashlib
import json
from dataclasses import fields, replace

import numpy as np
import pytest

from relaxns import cli
from relaxns.cli import main, parse_config, read_snapshot, write_diagnostics, write_snapshot
from relaxns.energy import EnergySnapshot, energy_series
from relaxns.errors import ConfigError
from relaxns.model import FluidParams, InitConfig, RadialGrid, State
from relaxns.solver import SolverConfig, run
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
        "solver": {"cfl": 0.4, "t_end": 1.0, "outer_bc": "extrapolate", "output_every": 50},
    }


def test_unknown_key_rejected_with_line(tmp_path):
    path = write_cfg(tmp_path, "[params]\ngamma = 1.4\nbogus = 3\n")
    with pytest.raises(ConfigError, match="line 3"):
        parse_config(path)


def test_unknown_section_rejected(tmp_path):
    path = write_cfg(tmp_path, "[nonsense]\nx = 1\n")
    with pytest.raises(ConfigError, match="line 1"):
        parse_config(path)


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
    assert f"line {line}: " in err and "not finite" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "tau_list, entry",
    [("nan,1e-2", "nan"), ("inf", "inf"), ("1e-2,-1", "-1"), ("1e-2,0", "0"), ("1e-2, abc", "abc")],
    ids=["nan", "inf", "negative", "zero", "word"],
)
def test_bad_tau_list_rejected_before_output(tmp_path, capsys, tau_list, entry):
    out = tmp_path / "o"
    assert main(["sweep-tau", "--config", "default", "--out", str(out), "--tau-list", tau_list, "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: --tau-list entry ") and repr(entry) in err
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


def test_tau_zero_run_directs_to_classical(tmp_path, capsys):
    path = write_cfg(tmp_path, "[params]\ntau = 0\n[grid]\nn_cells = 16\nr_max = 3\n[solver]\nt_end = 0.01\n")
    code = main(["run", "--config", path, "--out", str(tmp_path / "o"), "--quiet"])
    assert code == 2
    assert "run-classical" in capsys.readouterr().err


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
    write_diagnostics(series, path)
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


def test_main_check_structure_fail_path(tmp_path, capsys, monkeypatch):
    audit = replace(structure_audit(n_states=10, seed=0), q_form_max_error=1.0)
    monkeypatch.setattr(cli, "structure_audit", lambda n_states, seed: audit)
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
    write_diagnostics(series, bare)
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
