import contextlib
import math
import os
import re
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from relaxns import relaxation, solver
from relaxns.errors import NumericalAbort
from relaxns.model import FluidParams, InitConfig, RadialGrid, make_initial_data
from relaxns.numerics import weighted_l2_sq
from relaxns.relaxation import limit_relation_error, sweep_taus, tau_sweep, well_prepared_deviation
from relaxns.solver import SolverConfig, run

INIT = InitConfig(bump_amp=0.01, bump_center=5.0, bump_width=0.7, vel_amp=0.01)
# the sweep's runner as the module binds it, for stubs that replace it and
# then run the real thing
sweep_run = relaxation._sweep_run


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


def test_stiff_members_are_asymptotic_preserving_distance_linear_in_tau():
    # the acceptance grid of criterion 6, to t = 0.1.  Below tau = dr^2 rho/K
    # (2.7e-4 here) explicit Strang's fast-wave step falls under the
    # parabolic bound, and Strang ends about 2.7e-5 from the ARS run at the
    # same tau, whatever tau: its time error does not cancel against the
    # baseline's.  run steps these members with ARS(2,2,2) at the acoustic
    # step, as the baseline: asymptotic-preserving (Jin, SISC 21 (1999)
    # 441), so the distance falls like tau, with no floor from the time
    # step, and the scheme converges in dt at tau 1e-4
    grid = RadialGrid(r_max=21.0, n_cells=800)
    pulse = InitConfig(bump_amp=0.01, bump_center=7.0, bump_width=1.0, vel_amp=0.01)
    out_times = np.linspace(0.0, 0.1, 11)

    def member(tau, cfl=0.4):
        p = FluidParams(tau=tau)
        return run(make_initial_data(pulse, grid, p), grid, p, SolverConfig(t_end=0.1, cfl=cfl), out_times)

    def distance(a, b):
        return max(
            math.sqrt(weighted_l2_sq(x.rho - y.rho, grid)) + math.sqrt(weighted_l2_sq(x.v - y.v, grid))
            for x, y in zip(a.snapshots, b.snapshots, strict=True)
        )

    baseline = member(0.0)
    taus = [1e-4, 1e-5, 1e-6, 1e-8]
    members = [member(tau) for tau in taus]
    assert all(m.stepper == "imex" and len(m.dt_history) == len(baseline.dt_history) for m in members)
    distances = [distance(m, baseline) for m in members]
    slope = float(np.polyfit(np.log(taus), np.log(distances), 1)[0])
    assert 0.9 <= slope <= 1.1, distances
    # dt self-convergence at tau 1e-4: the gap falls 4.0x per cfl halving
    runs = [members[0]] + [member(1e-4, cfl) for cfl in (0.2, 0.1)]
    gaps = [distance(a, b) for a, b in zip(runs, runs[1:])]
    assert gaps[0] / gaps[1] >= 3.0, gaps
    # explicit Strang, driven directly at its fast-wave step, 1530 steps:
    # 2.7e-5 apart
    p = FluidParams(tau=1e-4)
    strang = solver._advance(
        make_initial_data(pulse, grid, p), grid, p, SolverConfig(t_end=0.1), out_times,
        "strang", solver.compute_dt, solver.step,
    )
    assert len(strang.dt_history) == 1530
    assert distance(strang, members[0]) <= 5e-5


def test_limit_constants_of_the_criterion_6_sweep_have_converged_in_dt():
    # per member, C = field error / tau at cfl 0.4 and 0.2, and the
    # Richardson estimate C* = C(0.2) + (C(0.2) - C(0.4))/3 of the dt -> 0
    # constant, which takes the dt error as second order: the constant at
    # cfl 0.4 is within 0.5% of it.  Every member steps with ARS(2,2,2), as
    # the baseline does, and reads +0.09%, +0.07%, +0.09%; with the tau 1e-2
    # and 1e-3 members on explicit Strang it read -0.36% and -3.75%
    grid = RadialGrid(r_max=21.0, n_cells=800)
    pulse = InitConfig(bump_amp=0.01, bump_center=7.0, bump_width=1.0, vel_amp=0.01)
    taus = [1e-2, 1e-3, 1e-4]
    constants = []
    for cfl in (0.4, 0.2):
        res = tau_sweep(SolverConfig(t_end=1.0, cfl=cfl), pulse, grid, FluidParams(), taus, n_outputs=10)
        constants.append([err / tau for err, tau in zip(res.field_errors, taus)])
    errors = [c4 / (c2 + (c2 - c4) / 3.0) - 1.0 for c4, c2 in zip(*constants)]
    assert all(abs(e) < 0.005 for e in errors), errors


ACCEPTANCE_PULSE = InitConfig(bump_amp=0.01, bump_center=7.0, bump_width=1.0, vel_amp=0.01)


def limit_constants(n, taus):
    # C = field error / tau of the criterion-6 sweep to t = 1, 10 outputs
    grid = RadialGrid(r_max=21.0, n_cells=n)
    res = tau_sweep(SolverConfig(t_end=1.0), ACCEPTANCE_PULSE, grid, FluidParams(), taus, n_outputs=10)
    return [err / tau for err, tau in zip(res.field_errors, taus)]


def test_limit_constants_of_the_criterion_6_sweep_have_converged_in_dr():
    # the constants at n = 400 and 800 agree within 0.5%: the figure is the
    # PDE's |U_tau - U_0| <= C tau, not the mesh's (n = 400 reads -0.20% /
    # -0.03% / -0.04% off n = 800)
    taus = [1e-1, 1e-2, 1e-3]
    coarse, fine = limit_constants(400, taus), limit_constants(800, taus)
    changes = [c / f - 1.0 for c, f in zip(coarse, fine)]
    assert all(abs(c) < 0.005 for c in changes), changes


def test_limit_constant_of_the_criterion_6_sweep_has_a_limit_as_tau_falls():
    # C(tau) settles as tau -> 0: the constants at tau 1e-4, 1e-5 and 1e-6
    # agree within 1% (they read 0.7515 / 0.7513 / 0.7513, a spread of 0.03%)
    constants = limit_constants(800, [1e-4, 1e-5, 1e-6])
    assert max(constants) / min(constants) - 1.0 < 0.01, constants


def test_tau_sweep_rejects_empty_or_nonpositive_taus(grid, params):
    for taus, message in (([], "needs at least one tau"), ([1e-2, 0.0], "entry 0.0 must be finite and positive")):
        with pytest.raises(ValueError, match=f"^tau sweep {message}$"):
            tau_sweep(SolverConfig(t_end=0.1), INIT, grid, params, taus)


def test_tau_sweep_members_run_at_the_template_eps(grid, params):
    cfg = SolverConfig(t_end=0.05)
    shifted = replace(params, eps=0.1)
    res = tau_sweep(cfg, INIT, grid, shifted, [1e-2], n_outputs=4)
    out_times = np.linspace(0.0, cfg.t_end, 5)
    member = sweep_run(make_initial_data(INIT, grid, shifted), grid, shifted, cfg, output_times=out_times)
    classical = replace(shifted, tau=0.0)
    base = sweep_run(make_initial_data(INIT, grid, classical), grid, classical, cfg, output_times=out_times)
    assert len(member.snapshots) == len(base.snapshots) == 5
    expected = 0.0
    for a, b in zip(member.snapshots, base.snapshots):
        dist = math.sqrt(weighted_l2_sq(a.rho - b.rho, grid)) + math.sqrt(weighted_l2_sq(a.v - b.v, grid))
        expected = max(expected, dist)
    assert res.field_errors[0] == expected
    assert res.stress_errors[0] == limit_relation_error(member.snapshots[-1], grid, shifted)
    unshifted = tau_sweep(cfg, INIT, grid, replace(params, eps=0.0), [1e-2], n_outputs=4)
    assert unshifted.field_errors[0] != res.field_errors[0]


def test_sweep_members_step_with_ars_where_run_would_step_with_strang():
    # the acceptance grid at tau 1e-2 and 1e-3, where run alone steps with
    # explicit Strang: the sweep's job returns the snapshots of _advance with
    # the ARS(2,2,2) rule bit for bit, and its field errors are theirs
    # against the baseline's
    grid = RadialGrid(r_max=21.0, n_cells=800)
    pulse = InitConfig(bump_amp=0.01, bump_center=7.0, bump_width=1.0, vel_amp=0.01)
    cfg = SolverConfig(t_end=0.1)
    out_times = np.linspace(0.0, cfg.t_end, 11)
    taus = [1e-2, 1e-3]
    res = tau_sweep(cfg, pulse, grid, FluidParams(), taus, n_outputs=10)

    def ars(p):
        initial = make_initial_data(pulse, grid, p)
        return solver._advance(
            solver._admit(initial, grid, p, cfg), grid, p, cfg, out_times,
            "imex", solver.compute_dt_classical, solver._step_classical,
        )

    base = ars(FluidParams(tau=0.0))
    for tau, field_error, n_steps in zip(taus, res.field_errors, res.steps, strict=True):
        p = FluidParams(tau=tau)
        initial = make_initial_data(pulse, grid, p)
        snapshots, _, job_steps = relaxation._integrate(initial, grid, p, cfg, out_times)
        want = ars(p)
        assert job_steps == n_steps == len(want.dt_history) == len(base.dt_history)
        assert len(snapshots) == len(want.snapshots) == 11
        for a, b in zip(snapshots, want.snapshots):
            assert a.t == b.t
            assert all(np.array_equal(getattr(a, f), getattr(b, f)) for f in ("rho", "v", "s1", "s2"))
        assert field_error == max(
            math.sqrt(weighted_l2_sq(a.rho - b.rho, grid)) + math.sqrt(weighted_l2_sq(a.v - b.v, grid))
            for a, b in zip(want.snapshots, base.snapshots, strict=True)
        )
        alone = run(initial, grid, p, cfg, output_times=out_times)
        assert alone.stepper == "strang" and len(alone.dt_history) > n_steps


def test_tau_sweep_member_abort_is_its_failure_row(grid, params, monkeypatch):
    cfg = SolverConfig(t_end=0.1)
    taus = [1e-2, 1e-3, 1e-4]
    clean = tau_sweep(cfg, INIT, grid, params, taus, n_outputs=4)

    def aborting_run(initial, grid, params, cfg, output_times=None):
        if params.tau == 1e-3:
            raise NumericalAbort("rho <= 0 at cell 7", step=3, cell=7)
        return sweep_run(initial, grid, params, cfg, output_times=output_times)

    monkeypatch.setattr(relaxation, "_sweep_run", aborting_run)
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
    def aborting_baseline(initial, grid, params, cfg, output_times=None):
        if params.tau == 0.0:
            raise NumericalAbort("baseline collapsed")
        raise AssertionError("a member ran after the baseline aborted")

    monkeypatch.setattr(relaxation, "_sweep_run", aborting_baseline)
    with pytest.raises(NumericalAbort, match="^baseline collapsed$"):
        tau_sweep(SolverConfig(t_end=0.1), INIT, grid, params, [1e-2, 1e-3], n_outputs=4)


def _in_process_sweep(cfg, grid, params, taus, n_outputs):
    """The sweep's errors and step counts from its runner in this process, in tau order."""
    out_times = np.linspace(0.0, cfg.t_end, n_outputs + 1)
    classical = replace(params, tau=0.0)
    base = sweep_run(make_initial_data(INIT, grid, classical), grid, classical, cfg, output_times=out_times)
    field_errors, stress_errors, steps = [], [], []
    for tau in taus:
        member_params = replace(params, tau=tau)
        member = sweep_run(make_initial_data(INIT, grid, member_params), grid, member_params, cfg, output_times=out_times)
        field_errors.append(max(
            math.sqrt(weighted_l2_sq(a.rho - b.rho, grid)) + math.sqrt(weighted_l2_sq(a.v - b.v, grid))
            for a, b in zip(member.snapshots, base.snapshots, strict=True)
        ))
        stress_errors.append(limit_relation_error(member.snapshots[-1], grid, member_params))
        steps.append(len(member.dt_history))
    return field_errors, stress_errors, steps, len(base.dt_history)


def test_tau_sweep_pool_matches_in_process_runs_bit_for_bit(grid, params):
    # six jobs (baseline + five members) against at most a few worker processes
    cfg = SolverConfig(t_end=0.1)
    taus = [1e-1, 3e-2, 1e-2, 3e-3, 1e-3]
    res = tau_sweep(cfg, INIT, grid, params, [1e-2, 1e-3, 1e-1, 3e-3, 3e-2], n_outputs=4)
    field_errors, stress_errors, steps, baseline_steps = _in_process_sweep(cfg, grid, params, taus, 4)
    assert res.taus == taus
    assert res.field_errors == field_errors
    assert res.stress_errors == stress_errors
    assert res.steps == steps and res.baseline_steps == baseline_steps
    # every member steps with ARS(2,2,2), as the baseline does, and at
    # eps = 0 takes its count
    assert steps == [baseline_steps] * 5 and baseline_steps > 0
    assert len(res.runtimes) == 5 and all(t >= 0.0 for t in res.runtimes)


def test_tau_sweep_is_the_same_on_one_worker_as_on_two(grid, params, monkeypatch):
    # the schedule changes which worker runs a job and when, never its bits;
    # each member's row stays at its tau, with one member's abort in its row
    def aborting_run(initial, grid, params, cfg, output_times=None):
        if params.tau == 3e-2:
            raise NumericalAbort("rho <= 0", step=3, cell=7)
        return sweep_run(initial, grid, params, cfg, output_times=output_times)

    monkeypatch.setattr(relaxation, "_sweep_run", aborting_run)
    sweeps = []
    for cpus in (1, 2):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)), raising=False)
        sweeps.append(tau_sweep(SolverConfig(t_end=0.05), INIT, grid, params, [1e-3, 1e-1, 3e-2, 1e-2], n_outputs=4))
    one, two = sweeps
    assert one.taus == two.taus == [1e-1, 3e-2, 1e-2, 1e-3]
    for field in ("field_errors", "stress_errors"):
        a, b = (np.array(getattr(res, field), dtype=float) for res in sweeps)
        assert np.array_equal(a, b, equal_nan=True), field
    assert math.isnan(one.field_errors[1]) and not math.isnan(one.field_errors[2])
    assert one.baseline_steps == two.baseline_steps > 0
    assert one.steps == two.steps == [one.baseline_steps, None, one.baseline_steps, one.baseline_steps]
    assert one.failures == two.failures == [None, "tau=0.03: rho <= 0", None, None]


def test_tau_sweep_member_abort_in_worker_is_its_failure_row(grid, params, monkeypatch):
    parent = os.getpid()

    def aborting_run(initial, grid, params, cfg, output_times=None):
        if params.tau == 1e-3:
            raise NumericalAbort(f"rho <= 0 in process {os.getpid()}", step=3, cell=7)
        return sweep_run(initial, grid, params, cfg, output_times=output_times)

    monkeypatch.setattr(relaxation, "_sweep_run", aborting_run)
    res = tau_sweep(SolverConfig(t_end=0.05), INIT, grid, params, [1e-2, 1e-3], n_outputs=2)
    assert res.failures[0] is None and res.steps[0] > 0
    prefix = "tau=0.001: rho <= 0 in process "
    assert res.failures[1].startswith(prefix) and int(res.failures[1][len(prefix):]) != parent
    assert math.isnan(res.field_errors[1]) and res.steps[1] is None
    assert res.runtimes[1] >= 0.0


def _times_reporting_run(initial, grid, params, cfg, output_times=None):
    # a member that reports the output times it was given as its failure;
    # the baseline, at tau = 0, runs for real
    if params.tau == 0.0:
        return sweep_run(initial, grid, params, cfg, output_times=output_times)
    raise NumericalAbort(repr(output_times.tolist()))


@pytest.mark.parametrize("cfg_n, arg_n, want", [(0, None, 10), (2, None, 2), (2, 3, 3)])
def test_tau_sweep_output_times_from_the_call_then_the_config(grid, params, monkeypatch, cfg_n, arg_n, want):
    monkeypatch.setattr(relaxation, "_sweep_run", _times_reporting_run)
    res = tau_sweep(SolverConfig(t_end=0.05, n_outputs=cfg_n), INIT, grid, params, [1e-2], n_outputs=arg_n)
    assert res.failures == [f"tau=0.01: {np.linspace(0.0, 0.05, want + 1).tolist()!r}"]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_tau_sweep_rejects_non_finite_tau_before_any_run(grid, params, monkeypatch, bad):
    def unreachable(*args, **kwargs):
        raise AssertionError("an integration ran")

    monkeypatch.setattr(relaxation, "_sweep_run", unreachable)
    with pytest.raises(ValueError, match=f"^tau sweep entry {bad!r} must be finite and positive$"):
        tau_sweep(SolverConfig(t_end=0.1), INIT, grid, params, [1e-2, bad])


@pytest.mark.parametrize("taus", [[1e-2, 1e-2], [1e-2, 1e-3, 0.01]], ids=["adjacent", "spelled-differently"])
def test_tau_sweep_rejects_a_repeated_tau_before_any_run(grid, params, monkeypatch, taus):
    def unreachable(*args, **kwargs):
        raise AssertionError("an integration ran")

    monkeypatch.setattr(relaxation, "_sweep_run", unreachable)
    with pytest.raises(ValueError, match=r"^tau sweep entry 0\.01 repeats entry 0\.01$"):
        tau_sweep(SolverConfig(t_end=0.1), INIT, grid, params, taus)


def test_sweep_taus_orders_largest_first_and_names_entries_as_given():
    assert sweep_taus(["1e-3", "1e-2", 1e-4]) == [1e-2, 1e-3, 1e-4]
    assert all(type(tau) is float for tau in sweep_taus([np.float32(0.5), 1, "2"]))
    for taus, message in (
        (["1e-2", "0.01"], "entry '0.01' repeats entry '1e-2'"),
        (["1e-2", "-0"], "entry '-0' must be finite and positive"),
        (["1e-2", None], "entry None is not a number"),
        ((), "needs at least one tau"),
    ):
        with pytest.raises(ValueError, match=f"^tau sweep {re.escape(message)}$"):
            sweep_taus(taus)


@pytest.mark.parametrize("bad, message", [(-1, "n_outputs must be >= 0, got -1"), (2.5, "n_outputs must be an integer, got 2.5")])
def test_tau_sweep_rejects_a_bad_n_outputs_before_any_run(grid, params, monkeypatch, bad, message):
    def unreachable(*args, **kwargs):
        raise AssertionError("an integration ran")

    monkeypatch.setattr(relaxation, "_sweep_run", unreachable)
    with pytest.raises(ValueError, match=f"^{message}$"):
        tau_sweep(SolverConfig(t_end=0.1), INIT, grid, params, [1e-2], n_outputs=bad)


@contextlib.contextmanager
def _deadline(seconds):
    """Raise TimeoutError in the enclosed code once `seconds` have passed,
    so a sweep that hangs fails instead.  The timer is not inherited by a
    forked worker."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _failing_run(case):
    """A sweep runner that fails as `case` says and otherwise runs for real."""

    def runner(initial, grid, params, cfg, output_times=None):
        if case == "baseline-abort" and params.tau == 0.0:
            raise NumericalAbort("baseline collapsed")
        if params.tau == 1e-3:
            if case == "member-abort":
                raise NumericalAbort("rho <= 0", step=3, cell=7)
            if case == "member-raises":
                raise ValueError("boom")
            if case == "member-exits":
                os._exit(3)
        return sweep_run(initial, grid, params, cfg, output_times=output_times)

    return runner


@pytest.mark.parametrize(
    "case, error, message",
    [
        ("success", None, None),
        ("member-abort", None, None),
        ("baseline-abort", NumericalAbort, "baseline collapsed"),
        ("member-raises", ValueError, "boom"),
        ("member-exits", RuntimeError, "tau sweep job at tau=0.001 got no result: its worker exited with status 3"),
    ],
)
def test_tau_sweep_fails_as_its_job_did_and_leaves_no_worker(grid, params, monkeypatch, case, error, message):
    monkeypatch.setattr(relaxation, "_sweep_run", _failing_run(case))

    def sweep():
        return tau_sweep(SolverConfig(t_end=0.05), INIT, grid, params, [1e-2, 1e-3], n_outputs=2)

    fds = os.listdir("/dev/fd")
    with _deadline(60):
        if error is None:
            res = sweep()
            assert res.failures == [None, "tau=0.001: rho <= 0" if case == "member-abort" else None]
            assert len(res.worker_runtimes) == min(3, len(os.sched_getaffinity(0)))
            assert 0.0 < max(res.worker_runtimes) <= res.wall_time
        else:
            with pytest.raises(error, match=f"^{re.escape(message)}$"):
                sweep()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert os.listdir("/dev/fd") == fds


def test_tau_sweep_baseline_abort_on_one_worker_skips_the_members_queued_behind_it(grid, params, monkeypatch):
    # the worker stops after the abort it writes, so the sweep raises it
    # without waiting for the member next in the worker's queue
    def runner(initial, grid, params, cfg, output_times=None):
        if params.tau == 0.0:
            raise NumericalAbort("baseline collapsed")
        time.sleep(30.0)
        raise AssertionError("a member ran after the baseline aborted")

    monkeypatch.setattr(relaxation, "_sweep_run", runner)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    with _deadline(10), pytest.raises(NumericalAbort, match="^baseline collapsed$"):
        tau_sweep(SolverConfig(t_end=0.05), INIT, grid, params, [1e-2], n_outputs=2)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_tau_sweep_reads_a_record_cut_short_as_no_result(grid, params, monkeypatch):
    # one worker runs all three jobs; the last one's record ends early, as
    # when a worker dies while it writes
    real = relaxation.record

    def cut(index, kind, payload):
        data = real(index, kind, payload)
        return data[: len(data) // 2] if index == 2 else data

    monkeypatch.setattr(relaxation, "record", cut)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    message = "tau sweep job at tau=0.001 got no result: its worker exited with status 0"
    with _deadline(60), pytest.raises(RuntimeError, match=f"^{re.escape(message)}$"):
        tau_sweep(SolverConfig(t_end=0.05), INIT, grid, params, [1e-2, 1e-3], n_outputs=2)


def test_tau_sweep_judges_the_baseline_before_an_earlier_member_error(grid, params, monkeypatch):
    # one worker per job: the member's error reaches the parent first, and
    # the baseline's abort, which comes later, is what the sweep raises
    def runner(initial, grid, params, cfg, output_times=None):
        if params.tau == 0.0:
            time.sleep(0.2)
            raise NumericalAbort("baseline collapsed")
        raise ValueError("boom")

    monkeypatch.setattr(relaxation, "_sweep_run", runner)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    with _deadline(60), pytest.raises(NumericalAbort, match="^baseline collapsed$"):
        tau_sweep(SolverConfig(t_end=0.05), INIT, grid, params, [1e-2, 1e-3], n_outputs=2)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_tau_sweep_sends_an_exception_that_will_not_pickle_as_its_text(grid, params, monkeypatch):
    class Local(Exception):  # a local class: pickle cannot find it by name
        pass

    def runner(initial, grid, params, cfg, output_times=None):
        raise Local("not picklable")

    monkeypatch.setattr(relaxation, "_sweep_run", runner)
    with _deadline(60), pytest.raises(RuntimeError, match="^Local: not picklable$"):
        tau_sweep(SolverConfig(t_end=0.05), INIT, grid, params, [1e-2], n_outputs=2)


def test_tau_sweep_loads_no_pool_module():
    # the sweep forks its workers itself: a fresh interpreter that runs one
    # has imported neither concurrent.futures nor multiprocessing
    src = Path(relaxation.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    code = (
        "import sys\n"
        "from relaxns.model import FluidParams, InitConfig, RadialGrid\n"
        "from relaxns.relaxation import tau_sweep\n"
        "from relaxns.solver import SolverConfig\n"
        "init = InitConfig(bump_amp=0.01, bump_center=5.0, bump_width=0.7)\n"
        "grid = RadialGrid(r_max=11.0, n_cells=32)\n"
        "res = tau_sweep(SolverConfig(t_end=0.01), init, grid, FluidParams(), [1e-2, 1e-3], n_outputs=2)\n"
        "assert res.failures == [None, None], res.failures\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('concurrent', 'multiprocessing')))"
    )
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
