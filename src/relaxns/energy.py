"""Weighted energy/dissipation functionals and conservation diagnostics.

The instantaneous energy collects r-weighted Sobolev norms of the deviations
from the constant equilibrium (rho - 1, v, sqrt(tau) s1, sqrt(tau) s2):
H^2 of the fields, H^1 of their first time derivatives, and tau^2 times the
L^2 of the second time derivatives.  The dissipation functional gathers the
first- and second-order derivatives of (rho, v) plus the stress norms without
the sqrt(tau) weight.  Spatial derivatives use central stencils (one-sided at
the ends); time derivatives come from the cached right-hand sides, and second
time derivatives from differencing those caches across snapshots (interior
snapshot times only).

Also computes the exact lower-order energy balance

    d/dt INT [ r^2 Pi(rho) + r^2 rho v^2/2
               + tau r^2 rho s1^2/(6 mu) + tau r^2 rho s2^2/(2 lambda) ] dr
    - eps INT (tau r^2 /(3 mu)) rho (s1^2/2)_r dr
    - eps INT (tau r^2 / lambda) rho (s2^2/2)_r dr
    + INT [ r^2 s1^2/(3 mu) + r^2 s2^2/lambda ] dr  =  0

(Pi is the nonnegative pressure potential of the gamma-law) as a normalized
residual, plus the flux-form mass balance and the a-priori boundedness report
used by the small-data monitoring.
"""

from dataclasses import dataclass

import numpy as np

from .model import face_value, taylor_potential
from .numerics import (
    cell_sum_r2,
    derivative,
    integrate_r2,
    second_derivative,
    weighted_h1_sq,
    weighted_h2_sq,
    weighted_l2_sq,
)

_FLOOR = 1e-30
PINCH_BOX = (0.75, 1.25)  # the density range the a-priori report checks


@dataclass
class EnergySnapshot:
    t: float
    e_inst: float
    e_running: float
    d_inst: float
    mass: float
    taylor_energy: float
    stress_l2: float
    ddtt_available: bool


def weighted_norms(state, rhs, rhs_t, grid, params):
    """One EnergySnapshot from a state, its time derivatives, and (optionally)
    second time derivatives.  rhs_t=None flags the tau^2 terms unavailable."""
    st = np.sqrt(params.tau)
    rho, v, s1, s2 = state.rho, state.v, state.s1, state.s2
    drho, dv, ds1, ds2 = rhs

    e = 0.0
    for f in (rho - 1.0, v, st * s1, st * s2):
        e += weighted_h2_sq(f, grid)
    for f in (drho, dv, st * ds1, st * ds2):
        e += weighted_h1_sq(f, grid)

    d = 0.0
    for f, df in ((rho, drho), (v, dv)):
        d += weighted_l2_sq(df, grid)
        d += weighted_l2_sq(derivative(f, grid.dr), grid)
        d += weighted_l2_sq(derivative(df, grid.dr), grid)  # d/dr of d/dt
        d += weighted_l2_sq(second_derivative(f, grid.dr), grid)
    d += weighted_h2_sq(s1, grid) + weighted_h2_sq(s2, grid)
    d += weighted_h1_sq(ds1, grid) + weighted_h1_sq(ds2, grid)

    available = rhs_t is not None
    if available:
        ddrho, ddv, dds1, dds2 = rhs_t
        tau2 = params.tau**2
        for f in (ddrho, ddv, st * dds1, st * dds2):
            e += tau2 * weighted_l2_sq(f, grid)
        d += tau2 * (weighted_l2_sq(ddrho, grid) + weighted_l2_sq(ddv, grid))
        d += tau2 * (weighted_l2_sq(dds1, grid) + weighted_l2_sq(dds2, grid))

    mass = cell_sum_r2(rho, grid)
    taylor = integrate_r2(
        taylor_potential(rho, params)
        + 0.5 * rho * v**2
        + params.tau * rho * s1**2 / (6.0 * params.mu)
        + params.tau * rho * s2**2 / (2.0 * params.lambda_),
        grid,
    )
    stress = integrate_r2(s1**2 / (3.0 * params.mu) + s2**2 / params.lambda_, grid)
    return EnergySnapshot(
        t=state.t,
        e_inst=e,
        e_running=e,
        d_inst=d,
        mass=mass,
        taylor_energy=taylor,
        stress_l2=stress,
        ddtt_available=available,
    )


def energy_series(traj, grid, params):
    """EnergySnapshot per trajectory snapshot, with the running sup filled in.

    Second time derivatives are centered differences of the cached right-hand
    sides, defined at interior snapshot times only.
    """
    times = traj.times
    out = []
    for j, state in enumerate(traj.snapshots):
        rhs_t = None
        if 0 < j < len(traj.snapshots) - 1:
            dtw = times[j + 1] - times[j - 1]
            rhs_t = tuple(
                (traj.rhs_cache[j + 1][k] - traj.rhs_cache[j - 1][k]) / dtw for k in range(4)
            )
        snap = weighted_norms(state, traj.rhs_cache[j], rhs_t, grid, params)
        if out:
            snap.e_running = max(out[-1].e_running, snap.e_inst)
        out.append(snap)
    return out


def energy_identity_residual(traj, grid, params, series=None):
    """Normalized residual of the exact lower-order energy balance.

    Defined at interior snapshot times; the d/dt term is a centered
    difference of the taylor_energy series.  Returns (times, residuals).
    """
    if series is None:
        series = energy_series(traj, grid, params)
    if len(series) < 3:
        return np.array([]), np.array([])
    times = traj.times
    taylor = np.array([s.taylor_energy for s in series])
    res_t, res = [], []
    for j in range(1, len(series) - 1):
        dedt = (taylor[j + 1] - taylor[j - 1]) / (times[j + 1] - times[j - 1])
        state = traj.snapshots[j]
        eps_term = 0.0
        if params.eps != 0.0:
            half1 = derivative(0.5 * state.s1**2, grid.dr)
            half2 = derivative(0.5 * state.s2**2, grid.dr)
            eps_term += params.eps * integrate_r2(
                params.tau * state.rho * half1 / (3.0 * params.mu), grid
            )
            eps_term += params.eps * integrate_r2(
                params.tau * state.rho * half2 / params.lambda_, grid
            )
        raw = dedt - eps_term + series[j].stress_l2
        scale = max(series[j].stress_l2, series[j].e_inst, _FLOOR)
        res_t.append(times[j])
        res.append(abs(raw) / scale)
    return np.array(res_t), np.array(res)


def boundary_stress_trace(state, grid, params):
    """Wall traces (tau eps/(8 mu)) s1(t,1)^2 and (tau eps/(2 lambda)) s2(t,1)^2.

    Reported for eps > 0 runs only; these carry no acceptance threshold.  The
    face values come from quadratic extrapolation of the first three cells.
    """
    s1_face = face_value(state.s1, grid)
    s2_face = face_value(state.s2, grid)
    coef = params.tau * params.eps
    return (
        coef / (8.0 * params.mu) * s1_face**2,
        coef / (2.0 * params.lambda_) * s2_face**2,
    )


def _cumulative_trapezoid(f, t):
    """Trapezoid-rule integral of f over t from t[0] to each t[j]; 0 at t[0]."""
    f = np.asarray(f, dtype=float)
    acc = np.zeros_like(f)
    acc[1:] = np.cumsum(0.5 * (f[1:] + f[:-1]) * np.diff(t))
    return acc


def mass_balance_residual(traj, grid):
    """|mass(t) - mass(0) + accumulated outer-face flux| / mass(0).

    The flux term is reconstructed from the snapshots (trapezoid in time of
    the outer-face flux), so it vanishes identically for the reflecting
    outer wall and degrades when under-resolved waves cross the boundary.
    """
    series_mass = np.array([cell_sum_r2(s.rho, grid) for s in traj.snapshots])
    times = traj.times
    if traj.outer_bc == "reflect":
        flux = np.zeros_like(series_mass)
    else:
        flux = np.array(
            [grid.face_r2[-1] * s.rho[-1] * s.v[-1] for s in traj.snapshots]
        )
    acc = _cumulative_trapezoid(flux, times)
    return np.abs(series_mass - series_mass[0] + acc) / series_mass[0]


@dataclass
class AprioriReport:
    e0: float
    final_ratio: float
    growth_rate_final_quarter: float
    rho_min: float
    rho_max: float
    pinch_ok: bool
    degenerate: bool


def apriori_report(traj, grid, params, series=None):
    """Boundedness monitoring of [E(t) + int_0^t D]/E(0) and the density pinch.

    No hard constant is asserted; the report exposes the final ratio, its
    relative growth rate per unit time over the last quarter of the run, and
    whether rho stayed inside PINCH_BOX.  An equilibrium run (E(0) ~ 0) is a
    degenerate pass with ratio 0 throughout.
    """
    if series is None:
        series = energy_series(traj, grid, params)
    times = traj.times
    e_run = np.array([s.e_running for s in series])
    int_d = _cumulative_trapezoid([s.d_inst for s in series], times)
    e0 = series[0].e_inst
    rho_min = min(float(np.min(s.rho)) for s in traj.snapshots)
    rho_max = max(float(np.max(s.rho)) for s in traj.snapshots)
    degenerate = bool(e0 < _FLOOR)
    ratios = np.zeros_like(times) if degenerate else (e_run + int_d) / e0
    t0, t1 = times[0], times[-1]
    tq = t1 - 0.25 * (t1 - t0)
    mask = times >= tq - 1e-12 * max(1.0, t1)
    rate = 0.0
    if np.sum(mask) >= 2 and t1 > tq:
        rq = ratios[mask][0]
        rate = (ratios[-1] - rq) / (max(rq, _FLOOR) * (t1 - times[mask][0]))
    return AprioriReport(
        e0=e0,
        final_ratio=float(ratios[-1]),
        growth_rate_final_quarter=float(rate),
        rho_min=rho_min,
        rho_max=rho_max,
        pinch_ok=PINCH_BOX[0] <= rho_min and rho_max <= PINCH_BOX[1],
        degenerate=degenerate,
    )
