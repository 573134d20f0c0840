"""Relaxation-limit studies: tau sweeps against the classical baseline.

Runs the relaxed solver over a descending list of relaxation times from one
shared (rho0, v0) with well-prepared stresses, measures the sup-in-time
weighted L2 distance to the classical solution on a common snapshot grid, and
the end-time defect of the stress limit relations

    s1 -> 2 mu (dv/dr - v/r),    s2 -> lambda (dv/dr + 2 v/r).

Log-log slopes of the errors against tau are fitted but asserted nowhere
here; the lab reports, the acceptance tests judge.
"""

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import NumericalAbort
from .model import equilibrium_stress, make_initial_data
from .numerics import weighted_h1_sq, weighted_l2_sq
from .solver import run, run_classical


def limit_relation_error(state, grid, params):
    """Weighted L2 defects (||r(s1 - eq1)||, ||r(s2 - eq2)||)."""
    eq1, eq2 = equilibrium_stress(state.v, grid, params)
    return (
        math.sqrt(weighted_l2_sq(state.s1 - eq1, grid)),
        math.sqrt(weighted_l2_sq(state.s2 - eq2, grid)),
    )


def well_prepared_deviation(initial, grid, params):
    """Weighted H1 stress deviations divided by sqrt(tau).

    For data built by the generator this is tau-independent: the deviation is
    sqrt(tau) times a fixed profile.
    """
    if params.tau <= 0.0:
        raise ValueError("well_prepared_deviation requires tau > 0")
    eq1, eq2 = equilibrium_stress(initial.v, grid, params)
    root = math.sqrt(params.tau)
    return (
        math.sqrt(weighted_h1_sq(initial.s1 - eq1, grid)) / root,
        math.sqrt(weighted_h1_sq(initial.s2 - eq2, grid)) / root,
    )


@dataclass
class SweepResult:
    taus: list
    field_errors: list
    stress_errors: list  # (s1, s2) pairs at t_end
    field_slope: float
    stress_slope: float
    runtimes: list
    baseline_runtime: float
    failures: list = field(default_factory=list)
    note: str = (
        "errors measured on a truncated radial domain in strong norms; "
        "the fitted slopes are empirical observations, not guaranteed rates"
    )


def _loglog_slope(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    good = np.isfinite(y) & (y > 0.0)
    if np.sum(good) < 2:
        return float("nan")
    return float(np.polyfit(np.log(x[good]), np.log(y[good]), 1)[0])


def tau_sweep(base_cfg, init_cfg, grid, params_template, taus, n_outputs=10):
    """Run the sweep; returns a SweepResult and asserts nothing itself.

    All members share (rho0, v0) and the template's eps; stresses are rebuilt
    well-prepared for each tau.  The baseline comes from run_classical on the
    same grid, and every run is sampled at the same output times (the stepper
    lands on them exactly), so no temporal interpolation enters the errors.
    A member's NumericalAbort becomes its failure row; a baseline abort
    propagates.
    """
    taus = sorted(float(t) for t in taus)
    taus = taus[::-1]
    if not taus or any(t <= 0.0 for t in taus):
        raise ValueError("tau sweep requires one or more taus, all strictly positive")
    out_times = np.linspace(0.0, base_cfg.t_end, n_outputs + 1)
    runtimes = []  # the baseline's first, then one per member

    def integrate(solver, params):
        initial = make_initial_data(init_cfg, grid, params)
        t0 = time.perf_counter()
        try:
            return solver(initial, grid, params, base_cfg, output_times=out_times).snapshots
        finally:
            runtimes.append(time.perf_counter() - t0)

    baseline = integrate(run_classical, replace(params_template, tau=0.0))
    field_errors, stress_errors, failures = [], [], []
    for tau in taus:
        params = replace(params_template, tau=tau)
        try:
            snapshots = integrate(run, params)
        except NumericalAbort as exc:
            field_errors.append(float("nan"))
            stress_errors.append((float("nan"), float("nan")))
            failures.append(f"tau={tau:g}: {exc}")
            continue
        field_errors.append(
            max(
                math.sqrt(weighted_l2_sq(srel.rho - sbase.rho, grid))
                + math.sqrt(weighted_l2_sq(srel.v - sbase.v, grid))
                for srel, sbase in zip(snapshots, baseline, strict=True)
            )
        )
        stress_errors.append(limit_relation_error(snapshots[-1], grid, params))
        failures.append(None)

    stress_totals = [e[0] + e[1] for e in stress_errors]
    return SweepResult(
        taus=taus,
        field_errors=field_errors,
        stress_errors=stress_errors,
        field_slope=_loglog_slope(taus, field_errors),
        stress_slope=_loglog_slope(taus, stress_totals),
        runtimes=runtimes[1:],
        baseline_runtime=runtimes[0],
        failures=failures,
    )
