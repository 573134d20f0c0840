import math
from dataclasses import replace

import numpy as np
import pytest

from relaxns import relaxation
from relaxns.errors import NumericalAbort
from relaxns.model import FluidParams, InitConfig, RadialGrid, equilibrium_stress, make_initial_data
from relaxns.numerics import weighted_l2_sq
from relaxns.relaxation import limit_relation_error, tau_sweep, well_prepared_deviation
from relaxns.solver import SolverConfig, run, run_classical

INIT = InitConfig(bump_amp=0.01, bump_center=5.0, bump_width=0.7, vel_amp=0.01)


def test_limit_relation_zero_for_equilibrium_stresses(grid, params, bump_cfg):
    state = make_initial_data(bump_cfg, grid, params)
    e1, e2 = limit_relation_error(state, grid, params)
    assert e1 == 0.0 and e2 == 0.0


def test_limit_relation_constant_offset(grid, params, bump_cfg):
    state = make_initial_data(bump_cfg, grid, params)
    c = 0.05
    a, b = 3.0, 7.0
    mask = (grid.centers >= a) & (grid.centers <= b)
    state.s1 = state.s1 + c * mask
    e1, e2 = limit_relation_error(state, grid, params)
    assert e2 == 0.0
    # same trapezoid quadrature applied to the analytic deviation
    from relaxns.numerics import weighted_l2_sq

    expected = math.sqrt(weighted_l2_sq(c * mask, grid))
    assert e1 == pytest.approx(expected, rel=1e-14)
    # and the continuum quadrature c * sqrt((b^3 - a^3)/3) up to the mask edges
    analytic = c * math.sqrt((b**3 - a**3) / 3.0)
    assert e1 == pytest.approx(analytic, rel=0.05)


def test_well_prepared_trivial_and_linearity(grid):
    p = FluidParams(tau=1e-2)
    state = make_initial_data(INIT, grid, p)
    assert well_prepared_deviation(state, grid, p) == (0.0, 0.0)
    cfg1 = InitConfig(bump_amp=0.0, bump_center=5.0, bump_width=0.7, stress_perturb_amp=1.0)
    cfg2 = InitConfig(bump_amp=0.0, bump_center=5.0, bump_width=0.7, stress_perturb_amp=2.0)
    d1 = well_prepared_deviation(make_initial_data(cfg1, grid, p), grid, p)
    d2 = well_prepared_deviation(make_initial_data(cfg2, grid, p), grid, p)
    assert d2[0] == pytest.approx(2.0 * d1[0], rel=1e-12)
    assert d2[1] == pytest.approx(2.0 * d1[1], rel=1e-12)


def test_well_prepared_tau_independent(grid):
    cfg = InitConfig(bump_amp=0.0, bump_center=5.0, bump_width=0.7, stress_perturb_amp=1.0)
    vals = []
    for tau in (1e-2, 1e-4):
        p = FluidParams(tau=tau)
        vals.append(well_prepared_deviation(make_initial_data(cfg, grid, p), grid, p))
    for k in range(2):
        assert abs(vals[0][k] - vals[1][k]) / vals[0][k] < 1e-10


def test_well_prepared_requires_relaxation(grid):
    p = FluidParams(tau=0.0)
    state = make_initial_data(INIT, grid, p)
    with pytest.raises(ValueError):
        well_prepared_deviation(state, grid, p)


def test_tau_sweep_monotone_and_slopes(grid, params):
    cfg = SolverConfig(t_end=0.4)
    res = tau_sweep(cfg, INIT, grid, params, [1e-2, 1e-3, 1e-4], n_outputs=8)
    assert res.taus == [1e-2, 1e-3, 1e-4]
    assert res.field_errors[0] > res.field_errors[1] > res.field_errors[2] > 0.0
    totals = [a + b for a, b in res.stress_errors]
    assert totals[0] > totals[1] > totals[2] > 0.0
    assert res.stress_slope >= 0.5
    assert all(f is None for f in res.failures)


def test_tau_sweep_large_tau_is_worst(grid, params):
    cfg = SolverConfig(t_end=0.3)
    res = tau_sweep(cfg, INIT, grid, params, [1.0, 1e-2, 1e-3], n_outputs=6)
    assert res.field_errors[0] > max(res.field_errors[1:])


def test_tau_sweep_single_tau_slope_undefined(grid, params):
    cfg = SolverConfig(t_end=0.2)
    res = tau_sweep(cfg, INIT, grid, params, [1e-2], n_outputs=4)
    assert math.isnan(res.field_slope) and math.isnan(res.stress_slope)


def test_tau_sweep_slopes_grid_stable(params):
    cfg = SolverConfig(t_end=0.3)
    slopes = []
    for n in (100, 200):
        g = RadialGrid(r_max=11.0, n_cells=n)
        res = tau_sweep(cfg, INIT, g, params, [1e-2, 1e-3, 1e-4], n_outputs=6)
        slopes.append(res.stress_slope)
    assert abs(slopes[0] - slopes[1]) <= 0.2


def test_tau_sweep_rejects_empty_or_nonpositive_taus(grid, params):
    for taus in ([], [1e-2, 0.0]):
        with pytest.raises(ValueError, match="^tau sweep requires one or more taus, all strictly positive$"):
            tau_sweep(SolverConfig(t_end=0.1), INIT, grid, params, taus)


def test_tau_sweep_members_run_at_the_template_eps(grid, params):
    cfg = SolverConfig(t_end=0.05)
    shifted = replace(params, eps=0.1)
    res = tau_sweep(cfg, INIT, grid, shifted, [1e-2], n_outputs=4)
    out_times = np.linspace(0.0, cfg.t_end, 5)
    member = run(make_initial_data(INIT, grid, shifted), grid, shifted, cfg, output_times=out_times)
    classical = replace(shifted, tau=0.0)
    base = run_classical(make_initial_data(INIT, grid, classical), grid, classical, cfg, output_times=out_times)
    assert len(member.snapshots) == len(base.snapshots) == 5
    expected = 0.0
    for a, b in zip(member.snapshots, base.snapshots):
        dist = math.sqrt(weighted_l2_sq(a.rho - b.rho, grid)) + math.sqrt(weighted_l2_sq(a.v - b.v, grid))
        expected = max(expected, dist)
    assert res.field_errors[0] == expected
    assert res.stress_errors[0] == limit_relation_error(member.snapshots[-1], grid, shifted)
    unshifted = tau_sweep(cfg, INIT, grid, replace(params, eps=0.0), [1e-2], n_outputs=4)
    assert unshifted.field_errors[0] != res.field_errors[0]


def test_tau_sweep_member_abort_is_its_failure_row(grid, params, monkeypatch):
    cfg = SolverConfig(t_end=0.1)
    taus = [1e-2, 1e-3, 1e-4]
    clean = tau_sweep(cfg, INIT, grid, params, taus, n_outputs=4)

    def aborting_run(initial, grid, params, cfg, output_times=None):
        if params.tau == 1e-3:
            raise NumericalAbort("rho <= 0 at cell 7", step=3, cell=7)
        return run(initial, grid, params, cfg, output_times=output_times)

    monkeypatch.setattr(relaxation, "run", aborting_run)
    res = tau_sweep(cfg, INIT, grid, params, taus, n_outputs=4)
    assert res.taus == taus
    assert math.isnan(res.field_errors[1])
    assert all(math.isnan(e) for e in res.stress_errors[1])
    assert res.failures == [None, "tau=0.001: rho <= 0 at cell 7", None]
    assert len(res.runtimes) == 3 and all(t >= 0.0 for t in res.runtimes)
    assert res.baseline_runtime >= 0.0
    for k in (0, 2):
        assert res.field_errors[k] == clean.field_errors[k]
        assert res.stress_errors[k] == clean.stress_errors[k]


def test_tau_sweep_baseline_abort_propagates(grid, params, monkeypatch):
    def aborting_baseline(*args, **kwargs):
        raise NumericalAbort("baseline collapsed")

    def unreachable_member(*args, **kwargs):
        raise AssertionError("a member ran after the baseline aborted")

    monkeypatch.setattr(relaxation, "run_classical", aborting_baseline)
    monkeypatch.setattr(relaxation, "run", unreachable_member)
    with pytest.raises(NumericalAbort, match="^baseline collapsed$"):
        tau_sweep(SolverConfig(t_end=0.1), INIT, grid, params, [1e-2, 1e-3], n_outputs=4)
