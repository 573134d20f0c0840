import numpy as np
import pytest

from relaxns.energy import (
    apriori_report,
    energy_identity_residual,
    energy_series,
    mass_balance_residual,
    weighted_norms,
)
from relaxns.model import FluidParams, InitConfig, RadialGrid, State, make_initial_data
from relaxns.solver import SolverConfig, rhs_full, run


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
    results = {}
    for n in (100, 200):
        grid = RadialGrid(r_max=11.0, n_cells=n)
        traj = bump_traj(grid, params, t_end=0.5, every=10)
        _, res = energy_identity_residual(traj, grid, params)
        results[n] = np.max(res)
    assert results[100] / results[200] >= 1.8


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


def test_mass_balance_flags_boundary_contamination(params):
    # narrow domain so the pulse reaches the outer edge: extrapolation leaks
    # mass, the snapshot-level flux integral cannot keep up, and the monitor
    # marks the trajectory contaminated
    grid = RadialGrid(r_max=6.0, n_cells=120)
    cfg = InitConfig(bump_amp=0.02, bump_center=3.5, bump_width=0.45, vel_amp=0.02)
    state = make_initial_data(cfg, grid, params)
    traj = run(state, grid, params, SolverConfig(t_end=4.0, output_every=100))
    assert traj.contaminated
    assert len(traj.warnings) >= 1
    res = mass_balance_residual(traj, grid)
    assert res[-1] > 1e-9


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
