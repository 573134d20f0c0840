from dataclasses import replace

import numpy as np
import pytest

from relaxns import energy, solver
from relaxns.energy import (
    apriori_report,
    energy_identity_residual,
    energy_series,
    mass_balance_residual,
    weighted_norms,
)
from relaxns.model import FluidParams, InitConfig, RadialGrid, State, make_initial_data
from relaxns.solver import SolverConfig, classical_rhs, rhs_full, run, run_classical


def bump_traj(grid, params, amp=0.01, t_end=0.5, every=10, outer_bc="extrapolate", vel_amp=0.01):
    cfg = InitConfig(bump_amp=amp, bump_center=5.0, bump_width=0.7, vel_amp=vel_amp)
    state = make_initial_data(cfg, grid, params)
    return run(state, grid, params, SolverConfig(t_end=t_end, output_every=every, outer_bc=outer_bc))


def test_equilibrium_norms_vanish(grid, params, equilibrium):
    rhs = rhs_full(equilibrium, grid, params)
    snap = weighted_norms(equilibrium, rhs, None, grid, params)
    assert snap.e_inst == 0.0
    assert snap.d_inst == 0.0
    assert snap.taylor_energy == 0.0
    assert snap.stress_l2 == 0.0
    assert not snap.ddtt_available


def test_equilibrium_residuals_zero(grid, params, equilibrium):
    traj = run(equilibrium, grid, params, SolverConfig(t_end=0.2, output_every=10))
    _, res = energy_identity_residual(traj, grid, params)
    assert len(res) > 0 and np.all(res == 0.0)
    assert np.all(mass_balance_residual(traj, grid) == 0.0)


def test_frozen_density_profile_matches_quadrature_oracle(params):
    # rho = 1 + delta * phi with everything else frozen: the k=0 part of the
    # energy is delta^2 ||r phi||_H2^2, checked against an independent
    # quadrature using analytic derivatives of phi
    grid = RadialGrid(r_max=11.0, n_cells=400)
    r = grid.centers
    c, w, delta = 5.0, 0.8, 1e-3
    phi = np.exp(-(((r - c) / w) ** 2))
    phi_p = -2.0 * (r - c) / w**2 * phi
    phi_pp = (-2.0 / w**2 + 4.0 * (r - c) ** 2 / w**4) * phi
    n = grid.n_cells
    state = State(1.0 + delta * phi, np.zeros(n), np.zeros(n), np.zeros(n))
    zeros = (np.zeros(n),) * 4
    snap = weighted_norms(state, zeros, None, grid, params)
    oracle = delta**2 * np.trapezoid(r**2 * (phi**2 + phi_p**2 + phi_pp**2), dx=grid.dr)
    # d_inst keeps the spatial-derivative parts of rho even when frozen
    assert snap.e_inst == pytest.approx(oracle, rel=5e-3)
    assert snap.mass == pytest.approx(np.sum(r**2 * state.rho) * grid.dr, rel=1e-14)


@pytest.mark.parametrize("family", ["density", "velocity"])
def test_energy_scales_quadratically(grid, params, family):
    snaps = []
    for delta in (1e-2, 1e-3):
        kw = dict(bump_amp=delta) if family == "density" else dict(vel_amp=delta)
        cfg = InitConfig(bump_center=5.0, bump_width=0.7, **kw)
        state = make_initial_data(cfg, grid, params)
        snaps.append(weighted_norms(state, rhs_full(state, grid, params), None, grid, params))
    ratio = snaps[0].e_inst / snaps[1].e_inst
    assert ratio == pytest.approx(100.0, rel=1e-2)


def test_series_running_sup_and_positivity(grid, params):
    traj = bump_traj(grid, params)
    series = energy_series(traj, grid, params)
    e_run = [s.e_running for s in series]
    assert all(b >= a for a, b in zip(e_run, e_run[1:]))
    for s in series:
        assert s.e_inst >= 0.0 and s.d_inst >= 0.0
        assert s.taylor_energy >= 0.0 and s.stress_l2 >= 0.0
    assert series[0].ddtt_available is False
    assert series[1].ddtt_available is True


def test_energy_identity_refines(params):
    # at a_coef = 2 the identity closes only if the pressure potential
    # carries a_coef
    for p in (params, replace(params, a_coef=2.0)):
        results = {}
        for n in (100, 200):
            grid = RadialGrid(r_max=11.0, n_cells=n)
            traj = bump_traj(grid, p, t_end=0.5, every=10)
            _, res = energy_identity_residual(traj, grid, p)
            results[n] = np.max(res)
        assert results[100] / results[200] >= 1.8, (p.a_coef, results)


def test_energy_identity_eps_terms(grid, bump_cfg):
    res = {}
    for eps in (0.0, 1e-3):
        p = FluidParams(tau=0.01, eps=eps)
        state = make_initial_data(bump_cfg, grid, p)
        traj = run(state, grid, p, SolverConfig(t_end=0.3, output_every=10))
        _, r = energy_identity_residual(traj, grid, p)
        res[eps] = r
    m = min(len(res[0.0]), len(res[1e-3]))
    diff = np.max(np.abs(res[0.0][:m] - res[1e-3][:m]))
    assert diff <= 50.0 * 1e-3
    assert np.max(res[1e-3]) < 0.1


def test_mass_balance_reflect_tight(grid, params):
    traj = bump_traj(grid, params, outer_bc="reflect", t_end=0.5, every=50)
    assert np.max(mass_balance_residual(traj, grid)) <= 1e-12


CONTAMINATING = InitConfig(bump_amp=0.02, bump_center=3.5, bump_width=0.45, vel_amp=0.02)


def test_mass_balance_flags_boundary_contamination(params):
    # narrow domain so the pulse reaches the outer edge: extrapolation leaks
    # mass, the snapshot-level flux integral cannot keep up, and the
    # trajectory warns once, naming the first snapshot that reached the edge
    grid = RadialGrid(r_max=6.0, n_cells=120)
    state = make_initial_data(CONTAMINATING, grid, params)
    traj = run(state, grid, params, SolverConfig(t_end=4.0, output_every=100))
    reached = [
        s for s in traj.snapshots
        if max(np.max(np.abs(s.rho[-2:] - 1.0)), *(np.max(np.abs(f[-2:])) for f in (s.v, s.s1, s.s2))) > 1e-8
    ]
    assert 0.0 < reached[0].t
    assert traj.warnings == [
        "outer-boundary contamination: fields deviate from the far-field "
        f"equilibrium within 2 cells of r_max at t = {reached[0].t:.6g}"
    ]
    res = mass_balance_residual(traj, grid)
    assert res[-1] > 1e-9


def test_reflecting_run_gives_no_contamination_warning(params):
    # the same pulse reaches a reflecting wall, where boundary interaction is
    # intended
    grid = RadialGrid(r_max=6.0, n_cells=120)
    state = make_initial_data(CONTAMINATING, grid, params)
    traj = run(state, grid, params, SolverConfig(t_end=4.0, output_every=100, outer_bc="reflect"))
    assert max(np.max(np.abs(s.v[-2:])) for s in traj.snapshots) > 1e-8
    assert traj.warnings == []


@pytest.mark.parametrize(
    "integrate, rhs", [(run, rhs_full), (run_classical, classical_rhs)], ids=["relaxed", "classical"]
)
def test_energy_series_is_weighted_norms_of_rhs_rows(grid, params, bump_cfg, integrate, rhs):
    # each entry is weighted_norms on the rows of the system's right-hand
    # side at its snapshot and, at interior snapshots, on their centered
    # differences in time, bit for bit, given the params the run integrated
    state = make_initial_data(bump_cfg, grid, params)
    # the classical step is the acoustic one, about 6 steps to t = 0.2
    traj = integrate(state, grid, params, SolverConfig(t_end=0.2, output_every=40 if integrate is run else 2))
    integrated = params if integrate is run else replace(params, tau=0.0)
    snaps, times = traj.snapshots, traj.times
    assert len(snaps) > 2
    rows = [rhs(s, grid, params, traj.outer_bc) for s in snaps]
    want = []
    for j, snap in enumerate(snaps):
        rhs_t = None
        if 0 < j < len(snaps) - 1:
            dtw = times[j + 1] - times[j - 1]
            rhs_t = tuple((b - a) / dtw for a, b in zip(rows[j - 1], rows[j + 1]))
        entry = weighted_norms(snap, rows[j], rhs_t, grid, integrated)
        if want:
            entry.e_running = max(want[-1].e_running, entry.e_inst)
        want.append(entry)
    assert energy_series(traj, grid, integrated) == want


@pytest.mark.parametrize("integrate", [run, run_classical], ids=["relaxed", "classical"])
def test_run_evaluates_no_rhs_and_energy_series_one_per_snapshot(grid, params, bump_cfg, monkeypatch, integrate):
    # energy_series evaluates rhs_full once per snapshot, at the params it is
    # given; run evaluates no right-hand side
    calls = {}

    def count(module, name):
        key = f"{module.__name__.removeprefix('relaxns.')}.{name}"
        real = getattr(module, name)
        calls[key] = []

        def rhs(state, grid, params, *args, **kwargs):
            calls[key].append((state.t, params.tau))
            return real(state, grid, params, *args, **kwargs)

        monkeypatch.setattr(module, name, rhs)

    for module, name in ((solver, "rhs_full"), (solver, "classical_rhs"), (energy, "rhs_full")):
        count(module, name)
    state = make_initial_data(bump_cfg, grid, params)
    # the classical step is the acoustic one, about 6 steps to t = 0.2
    traj = integrate(state, grid, params, SolverConfig(t_end=0.2, output_every=40 if integrate is run else 2))
    assert len(traj.snapshots) > 2
    assert all(c == [] for c in calls.values())
    integrated = params if integrate is run else replace(params, tau=0.0)
    energy_series(traj, grid, integrated)
    assert calls == {
        "solver.rhs_full": [],
        "solver.classical_rhs": [],
        "energy.rhs_full": [(s.t, integrated.tau) for s in traj.snapshots],
    }


def test_energy_series_of_run_classical_is_that_of_run_at_tau_zero(grid, params, bump_cfg):
    # the trajectory carries no system: given the params of tau = 0, the
    # series of a run_classical trajectory is that of run at tau = 0, bit for
    # bit, whatever tau the params run_classical took
    classical = replace(params, tau=0.0)
    state = make_initial_data(bump_cfg, grid, params)
    cfg = SolverConfig(t_end=0.2, output_every=2)
    want = energy_series(run(state, grid, classical, cfg), grid, classical)
    assert len(want) > 2 and params.tau > 0.0
    assert energy_series(run_classical(state, grid, params, cfg), grid, classical) == want


def test_apriori_equilibrium_degenerate(grid, params, equilibrium):
    traj = run(equilibrium, grid, params, SolverConfig(t_end=0.1, output_every=10))
    rep = apriori_report(traj, grid, params)
    assert rep.degenerate and rep.pinch_ok


def test_apriori_degenerate_report_is_zero(grid, params, equilibrium):
    traj = run(equilibrium, grid, params, SolverConfig(t_end=0.1, output_every=5))
    rep = apriori_report(traj, grid, params)
    assert rep.degenerate and rep.e0 == 0.0
    assert rep.final_ratio == 0.0 and rep.growth_rate_final_quarter == 0.0
    assert rep.rho_min == rep.rho_max == 1.0


def test_apriori_monotone_in_amplitude(grid, params):
    ratios = []
    for amp in (0.002, 0.006, 0.02):
        traj = bump_traj(grid, params, amp=amp, vel_amp=0.0, t_end=0.4, every=10)
        rep = apriori_report(traj, grid, params)
        assert not rep.degenerate
        assert rep.pinch_ok
        ratios.append(rep.final_ratio)
    assert ratios[0] < ratios[1] < ratios[2]


def test_boundary_stress_trace_reported_for_shifted_runs(grid, bump_cfg):
    from relaxns.energy import boundary_stress_trace

    p = FluidParams(tau=0.01, eps=0.1)
    state = make_initial_data(bump_cfg, grid, p)
    traj = run(state, grid, p, SolverConfig(t_end=0.2, output_every=50))
    tr1, tr2 = boundary_stress_trace(traj.snapshots[-1], grid, p)
    assert tr1 >= 0.0 and tr2 >= 0.0
    zero = boundary_stress_trace(traj.snapshots[0], grid, p)
    assert max(zero) <= 1e-30  # well-prepared data starts quiet at the wall


def test_quadrature_consistency_under_refinement(params):
    # smooth-profile norms change by O(dr^2) when n doubles
    def e_at(n):
        grid = RadialGrid(r_max=11.0, n_cells=n)
        r = grid.centers
        phi = np.exp(-(((r - 5.0) / 0.8) ** 2))
        m = grid.n_cells
        state = State(1.0 + 0.01 * phi, np.zeros(m), np.zeros(m), np.zeros(m))
        zeros = (np.zeros(m),) * 4
        return weighted_norms(state, zeros, None, grid, params).e_inst

    e1, e2, e3 = e_at(100), e_at(200), e_at(400)
    assert abs(e1 - e2) / abs(e2 - e3) >= 3.0


@pytest.mark.parametrize("outer_bc, eps", [("reflect", 0.0), ("extrapolate", 0.1)], ids=["reflect", "eps"])
def test_residual_without_series_is_the_series_residual_bit_for_bit(grid, params, monkeypatch, outer_bc, eps):
    # without series= the residual computes only the terms it reads, so it
    # builds no EnergySnapshot, and it gives the bits of the series-based one
    p = replace(params, eps=eps)
    traj = bump_traj(grid, p, t_end=0.3, every=5, outer_bc=outer_bc)
    assert len(traj.snapshots) > 3
    want = energy_identity_residual(traj, grid, p, series=energy_series(traj, grid, p))

    def refuse(*args):
        raise AssertionError("the residual built an EnergySnapshot")

    monkeypatch.setattr(energy, "weighted_norms", refuse)
    got = energy_identity_residual(traj, grid, p)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))
    assert got[1].size == len(traj.snapshots) - 2 and np.all(got[1] > 0.0)
