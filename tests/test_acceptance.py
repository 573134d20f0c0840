"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Every tolerance is fixed here, not calibrated at run time.
"""

import time

import numpy as np

from relaxns.cli import main
from relaxns.energy import apriori_report, energy_identity_residual, mass_balance_residual
from relaxns.model import FluidParams, InitConfig, RadialGrid, State, make_initial_data
from relaxns.reduction import reduction_residual
from relaxns.relaxation import tau_sweep, well_prepared_deviation
from relaxns.solver import SolverConfig, run, step
from relaxns.structure import noncharacteristic_report, structure_audit

PULSE = InitConfig(bump_amp=0.01, bump_center=7.0, bump_width=1.0, vel_amp=0.01)


def report(num, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}"
    print(line)
    assert ok, line


def test_criterion_1_structure_audit():
    t0 = time.perf_counter()
    audit = structure_audit(n_states=1000, seed=0)
    elapsed = time.perf_counter() - t0
    ok = (
        audit.passed
        and audit.a0_spd
        and audit.a1_symmetry_max <= 1e-14
        and audit.speeds_max_imag <= 1e-8
        and audit.kernel_form_min >= -1e-12
        and audit.kernel_form_max_error <= 1e-12
        and audit.q_form_max_error <= 1e-12
        and elapsed < 2.0
    )
    report(
        1,
        ok,
        f"structure audit over {audit.n_states} states: A0 SPD, A1 symmetric to "
        f"{audit.a1_symmetry_max:.1e}, speeds real (imag {audit.speeds_max_imag:.1e}), "
        f"kernel form err {audit.kernel_form_max_error:.1e}, witness err "
        f"{audit.q_form_max_error:.1e}, {elapsed:.2f}s",
    )


def test_criterion_2_boundary_determinant():
    t0 = time.perf_counter()
    params = FluidParams(gamma=1.4, mu=0.7, lambda_=1.3, tau=0.3)
    rep = noncharacteristic_report(1.25, params)
    elapsed = time.perf_counter() - t0
    cof = max(r["cofactor_rel_err"] for r in rep["rows"])
    matched = [name for name, hit in rep["candidate_matches"].items() if hit]
    ok = (
        abs(rep["det_eps0"]) <= 1e-12
        and rep["det_over_eps2_spread"] <= 1e-10
        and cof <= 1e-12
        and len(matched) >= 1
        and elapsed < 1.0
    )
    report(
        2,
        ok,
        f"det(eps=0)={rep['det_eps0']:.1e}, det/eps^2 spread {rep['det_over_eps2_spread']:.1e}, "
        f"cofactor err {cof:.1e}, matches closed form(s): {', '.join(matched)}, {elapsed:.2f}s",
    )


def test_criterion_3_equilibrium_preservation():
    grid = RadialGrid(r_max=21.0, n_cells=800)
    params = FluidParams()
    n = grid.n_cells
    eq = State(np.ones(n), np.zeros(n), np.zeros(n), np.zeros(n))
    cfg = SolverConfig(t_end=1e9)
    t0 = time.perf_counter()
    state = eq
    for k in range(1000):
        state = step(state, grid, params, cfg, step_idx=k)
    elapsed = time.perf_counter() - t0
    dev = max(
        float(np.max(np.abs(state.rho - 1.0))),
        float(np.max(np.abs(state.v))),
        float(np.max(np.abs(state.s1))),
        float(np.max(np.abs(state.s2))),
    )
    ok = dev <= 1e-12 and elapsed < 5.0
    report(3, ok, f"1000 steps at n=800 move equilibrium by {dev:.1e} ({elapsed:.2f}s)")


def test_criterion_4_mass_conservation():
    grid = RadialGrid(r_max=21.0, n_cells=800)
    params = FluidParams()
    state = make_initial_data(PULSE, grid, params)
    cfg = SolverConfig(t_end=2.0, outer_bc="reflect", output_every=200)
    t0 = time.perf_counter()
    traj = run(state, grid, params, cfg)
    elapsed = time.perf_counter() - t0
    drift = float(np.max(mass_balance_residual(traj, grid)))
    ok = drift <= 1e-10 and elapsed < 30.0
    report(4, ok, f"reflect pulse to t=2, n=800: relative mass drift {drift:.1e} ({elapsed:.1f}s)")


def test_criterion_5_energy_identity_refinement():
    params = FluidParams()
    t0 = time.perf_counter()
    residuals = {}
    for n in (200, 400, 800):
        grid = RadialGrid(r_max=21.0, n_cells=n)
        state = make_initial_data(PULSE, grid, params)
        traj = run(state, grid, params, SolverConfig(t_end=1.0, output_every=20))
        _, res = energy_identity_residual(traj, grid, params)
        residuals[n] = float(np.max(res))
    elapsed = time.perf_counter() - t0
    r1 = residuals[200] / residuals[400]
    r2 = residuals[400] / residuals[800]
    ok = r1 >= 2.0 and r2 >= 2.0 and elapsed < 120.0
    report(
        5,
        ok,
        f"energy-balance residual {residuals[200]:.2e} -> {residuals[400]:.2e} -> "
        f"{residuals[800]:.2e} (factors {r1:.2f}, {r2:.2f}) ({elapsed:.1f}s)",
    )


def test_criterion_6_relaxation_limit():
    grid = RadialGrid(r_max=21.0, n_cells=800)
    params = FluidParams()
    cfg = SolverConfig(t_end=1.0)
    t0 = time.perf_counter()
    res = tau_sweep(cfg, PULSE, grid, params, [1e-2, 1e-3, 1e-4], n_outputs=10)
    elapsed = time.perf_counter() - t0
    fe = res.field_errors
    ok = (
        all(f is None for f in res.failures)
        and fe[0] > fe[1] > fe[2] > 0.0
        and res.stress_slope >= 0.5
        and elapsed < 300.0
    )
    report(
        6,
        ok,
        f"field errors {fe[0]:.2e} > {fe[1]:.2e} > {fe[2]:.2e}, stress slope "
        f"{res.stress_slope:.2f} >= 0.5 ({elapsed:.1f}s)",
    )


def test_criterion_7_well_prepared_scaling():
    grid = RadialGrid(r_max=21.0, n_cells=800)
    cfg = InitConfig(bump_amp=0.01, bump_center=7.0, bump_width=1.0, stress_perturb_amp=1.0)
    t0 = time.perf_counter()
    vals = []
    for tau in (1e-2, 1e-4):
        params = FluidParams(tau=tau)
        state = make_initial_data(cfg, grid, params)
        vals.append(well_prepared_deviation(state, grid, params))
    elapsed = time.perf_counter() - t0
    rel = max(abs(vals[0][k] - vals[1][k]) / vals[0][k] for k in range(2))
    ok = rel <= 1e-10 and elapsed < 1.0
    report(7, ok, f"deviation/sqrt(tau) tau-independent to {rel:.1e} ({elapsed:.2f}s)")


def test_criterion_8_spherical_reduction():
    params = FluidParams(tau=0.05)
    init = InitConfig(
        bump_amp=0.05, bump_center=5.0, bump_width=0.7, vel_amp=0.05, stress_perturb_amp=0.5
    )

    def orbit(radius):
        a = radius / np.sqrt(3.0)
        return [np.array([sx * a, sy * a, sz * a]) for sx in (1, -1) for sy in (1, -1) for sz in (1, -1)]

    def norms(n):
        grid = RadialGrid(r_max=11.0, n_cells=n)
        state = make_initial_data(init, grid, params)
        res = reduction_residual(state, grid, params, orbit(4.6), h=grid.dr)
        return np.array([abs(m) + np.linalg.norm(mom) for m, *mom in res])

    t0 = time.perf_counter()
    coarse, fine = norms(200), norms(400)
    elapsed = time.perf_counter() - t0
    order = float(np.log2(np.max(coarse) / np.max(fine)))
    spread = max(float(np.max(np.abs(m - m[0]))) for m in (coarse, fine))
    ok = order >= 1.8 and spread <= 1e-10 and elapsed < 30.0
    report(
        8,
        ok,
        f"3D residual order {order:.2f} >= 1.8 under dr,h halving; orbit spread "
        f"{spread:.1e} <= 1e-10 ({elapsed:.1f}s)",
    )


def test_criterion_9_apriori_boundedness():
    params = FluidParams(mu=0.5, lambda_=0.5, tau=0.01)
    grid = RadialGrid(r_max=21.0, n_cells=400)
    state = make_initial_data(InitConfig(bump_amp=0.003, bump_center=11.0, bump_width=0.7), grid, params)
    t0 = time.perf_counter()
    traj = run(state, grid, params, SolverConfig(t_end=4.0, output_every=40))
    rep = apriori_report(traj, grid, params)
    elapsed = time.perf_counter() - t0
    ok = (
        rep.pinch_ok
        and not rep.degenerate
        and np.isfinite(rep.final_ratio)
        and abs(rep.growth_rate_final_quarter) < 1e-2
        and elapsed < 60.0
    )
    report(
        9,
        ok,
        f"rho in [{rep.rho_min:.4f}, {rep.rho_max:.4f}] (pinch ok), ratio "
        f"{rep.final_ratio:.3g}, final-quarter growth {rep.growth_rate_final_quarter:.2e}/unit time "
        f"({elapsed:.1f}s)",
    )


def test_criterion_10_determinism(tmp_path):
    cfg_text = (
        "[params]\ntau = 0.01\n"
        "[grid]\nr_max = 11\nn_cells = 128\n"
        "[init]\nbump_amp = 0.01\nbump_center = 5.0\nbump_width = 0.7\nvel_amp = 0.01\n"
        "[solver]\nt_end = 0.3\noutput_every = 50\n"
    )
    cfg = tmp_path / "det.cfg"
    cfg.write_text(cfg_text)
    outs = []
    for k in (1, 2):
        out = tmp_path / f"out{k}"
        code = main(["run", "--config", str(cfg), "--out", str(out), "--quiet"])
        assert code == 0
        outs.append(out)
    names = sorted(p.name for p in outs[0].glob("*.csv"))
    identical = all((outs[0] / n).read_bytes() == (outs[1] / n).read_bytes() for n in names)
    ok = identical and len(names) >= 2
    report(10, ok, f"repeated run produced byte-identical outputs ({len(names)} CSV files)")
