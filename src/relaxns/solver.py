"""Time integration of the relaxed radial system and the classical baseline.

Method of lines on the cell-centered mesh with two ghost cells per side:

* mass in flux form, r^2 rho_t + d/dr(r^2 rho v) = 0, with |v|-upwind face
  diffusion plus a fourth-difference dissipation at the acoustic speed; the
  flux form makes the discrete mass telescope exactly, so reflecting outer
  walls conserve it to rounding;
* first-order upwind convection for v dv/dr and (v - eps) ds/dr, second-order
  central differences for the pressure and stress gradients;
* SSP-RK2 for the transport part, composed with the exact exponential
  relaxation substep (Strang by default, Lie available for diagnostics).

The substep solves ds/dt = (eq - s)/(tau rho) with rho, v held fixed, which is
the exact flow of the relaxation operator, so the composition stays stable for
any dt/tau ratio and drives the stresses to equilibrium as tau -> 0.

The classical (tau = 0) baseline integrates mass and momentum with the stress
fields pinned to their Newtonian equilibrium values, sharing every spatial
operator and the SSP-RK2 stage with the relaxed path.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import FieldError, NumericalAbort
from .model import State, equilibrium_stress, pressure, pressure_prime
from .structure import max_char_speed

_OUTER_BCS = ("extrapolate", "reflect")
_TIME_EPS = 1e-12


@dataclass(frozen=True)
class SolverConfig:
    cfl: float = 0.4
    t_end: float = 1.0
    splitting: str = "strang"
    outer_bc: str = "extrapolate"
    output_every: int = 50

    def __post_init__(self):
        if not 0.0 < self.cfl <= 1.0:
            raise FieldError("cfl", f"cfl must lie in (0, 1], got {self.cfl}")
        if self.t_end < 0.0:
            raise FieldError("t_end", f"t_end must be nonnegative, got {self.t_end}")
        if self.splitting not in ("strang", "lie"):
            raise FieldError("splitting", f"splitting must be strang or lie, got {self.splitting!r}")
        if self.outer_bc not in _OUTER_BCS:
            raise FieldError("outer_bc", f"outer_bc must be one of {_OUTER_BCS}, got {self.outer_bc!r}")
        if self.output_every < 1:
            raise FieldError("output_every", f"output_every must be >= 1, got {self.output_every}")


@dataclass
class Trajectory:
    snapshots: list = field(default_factory=list)
    dt_history: list = field(default_factory=list)
    rhs_cache: list = field(default_factory=list)
    outer_bc: str = "extrapolate"
    warnings: list = field(default_factory=list)
    contaminated: bool = False

    @property
    def times(self):
        return np.array([s.t for s in self.snapshots])


def apply_bc(state, grid, params, outer_bc="extrapolate"):
    """Ghost-augmented (rho, v, s1, s2), two ghost cells per side.

    Inner face r = 1: v odd-reflected (v = 0 at the face), the rest
    even-reflected.  Outer face: zero-order extrapolation, or mirror
    reflection with the v sign flipped.
    """
    if outer_bc not in _OUTER_BCS:
        raise ValueError(f"outer_bc must be one of {_OUTER_BCS}, got {outer_bc!r}")

    def extend(f, odd):
        g = np.empty(f.size + 4)
        g[2:-2] = f
        sign = -1.0 if odd else 1.0
        g[1] = sign * f[0]
        g[0] = sign * f[1]
        if outer_bc == "extrapolate":
            g[-2] = f[-1]
            g[-1] = f[-1]
        else:
            g[-2] = sign * f[-1]
            g[-1] = sign * f[-2]
        return g

    return (
        extend(state.rho, False),
        extend(state.v, True),
        extend(state.s1, False),
        extend(state.s2, False),
    )


def _central(g, dr):
    # first derivative at the n interior cells of a ghost-augmented array
    return (g[3:-1] - g[1:-3]) / (2.0 * dr)


def _upwind(a, g, dr):
    # a: interior speeds (n,); g: ghost-augmented field (n+4,)
    backward = (g[2:-2] - g[1:-3]) / dr
    forward = (g[3:-1] - g[2:-2]) / dr
    return np.maximum(a, 0.0) * backward + np.minimum(a, 0.0) * forward


_KAPPA4 = 1.0 / 16.0  # fourth-difference dissipation strength


def _mass_rhs(rho_e, v_e, params, grid):
    # flux-form mass update: central face flux, |v|-upwind diffusion for the
    # convective part, and a fourth-difference dissipation at the acoustic
    # speed.  The last term damps the density checkerboard that the central
    # pressure gradient cannot see (it annihilates odd-even modes) while
    # staying O(dr^3) on smooth fields.  Odd v / even rho ghosts zero every
    # boundary face flux exactly, so the cell sum of r^2 rho telescopes.
    m = rho_e * v_e
    ml, mr = m[1:-2], m[2:-1]
    rl, rr = rho_e[1:-2], rho_e[2:-1]
    v_face = 0.5 * (v_e[1:-2] + v_e[2:-1])
    c_face = np.sqrt(pressure_prime(0.5 * (rl + rr), params))
    d3 = rho_e[3:] - 3.0 * rho_e[2:-1] + 3.0 * rho_e[1:-2] - rho_e[:-3]
    flux = grid.face_r2 * (
        0.5 * (ml + mr)
        - 0.5 * np.abs(v_face) * (rr - rl)
        + 0.5 * (np.abs(v_face) + c_face) * _KAPPA4 * d3
    )
    return -(flux[1:] - flux[:-1]) / (grid.center_r2 * grid.dr)


def rhs_nonstiff(state, grid, params, outer_bc="extrapolate", include_production=True):
    """Discrete time derivatives of all terms except the -s/(tau rho) decay.

    With include_production=False the stress rows carry transport only; the
    split integrator uses that variant and hands the whole relaxation source
    to relax_substep.
    """
    dr = grid.dr
    r = grid.centers
    rho, v, s1, s2 = state.rho, state.v, state.s1, state.s2
    rho_e, v_e, s1_e, s2_e = apply_bc(state, grid, params, outer_bc)

    drho = _mass_rhs(rho_e, v_e, params, grid)

    dp = _central(pressure(rho_e, params), dr)
    ds1_dr = _central(s1_e, dr)
    ds2_dr = _central(s2_e, dr)
    dv = -_upwind(v, v_e, dr) + (-dp + (2.0 / 3.0) * ds1_dr + 2.0 * s1 / r + ds2_dr) / rho

    a = v - params.eps
    ds1 = -_upwind(a, s1_e, dr)
    ds2 = -_upwind(a, s2_e, dr)
    if include_production:
        eq1, eq2 = equilibrium_stress(v, grid, params)
        trho = params.tau * rho
        ds1 = ds1 + eq1 / trho
        ds2 = ds2 + eq2 / trho
    return drho, dv, ds1, ds2


def rhs_full(state, grid, params, outer_bc="extrapolate"):
    """Complete discrete right-hand side including the relaxation sources."""
    drho, dv, ds1, ds2 = rhs_nonstiff(state, grid, params, outer_bc, include_production=True)
    trho = params.tau * state.rho
    return drho, dv, ds1 - state.s1 / trho, ds2 - state.s2 / trho


def relax_substep(state, dt, grid, params):
    """Exact exponential solve of ds/dt = (eq - s)/(tau rho) at frozen rho, v.

    Unconditionally stable; the stresses land exactly on equilibrium as
    dt/(tau rho) -> infinity.
    """
    if params.tau <= 0.0:
        raise ValueError("relax_substep requires tau > 0")
    eq1, eq2 = equilibrium_stress(state.v, grid, params)
    decay = np.exp(-dt / (params.tau * state.rho))
    out = state.copy()
    out.s1 = eq1 + (state.s1 - eq1) * decay
    out.s2 = eq2 + (state.s2 - eq2) * decay
    return out


def compute_dt(state, grid, params, cfl):
    """CFL step from the fastest characteristic speed over all cells."""
    smax = max_char_speed(state.rho, state.v, params)
    if smax <= 0.0:
        raise NumericalAbort("vanishing characteristic speeds; cannot set dt")
    return cfl * grid.dr / smax


def compute_dt_classical(rho, v, grid, params, cfl):
    """Acoustic CFL combined with the explicit parabolic bound for the baseline."""
    c = np.sqrt(pressure_prime(rho, params))
    adv = grid.dr / float(np.max(np.abs(v) + c))
    diff = grid.dr**2 * float(np.min(rho)) / (2.0 * (4.0 * params.mu / 3.0 + params.lambda_))
    return cfl * min(adv, diff)


def _check(state, step_idx, stage):
    bad = ~np.isfinite(state.rho) | ~np.isfinite(state.v) | ~np.isfinite(state.s1) | ~np.isfinite(state.s2)
    if np.any(bad):
        cell = int(np.argmax(bad))
        raise NumericalAbort(
            f"non-finite field after {stage} at step {step_idx}, cell {cell}",
            step=step_idx,
            cell=cell,
        )
    if np.any(state.rho <= 0.0):
        cell = int(np.argmin(state.rho))
        raise NumericalAbort(
            f"rho = {state.rho[cell]:.3g} <= 0 after {stage} at step {step_idx}, cell {cell}",
            step=step_idx,
            cell=cell,
        )


def _rk2_transport(state, dt, grid, params, outer_bc, step_idx, project=None):
    # SSP-RK2 (Heun) on the non-stiff part, production excluded; project, if
    # given, adjusts each stage in place before it is checked
    def l(s):
        return rhs_nonstiff(s, grid, params, outer_bc, include_production=False)

    k1 = l(state)
    mid = State(
        state.rho + dt * k1[0],
        state.v + dt * k1[1],
        state.s1 + dt * k1[2],
        state.s2 + dt * k1[3],
        state.t,
    )
    if project is not None:
        project(mid)
    _check(mid, step_idx, "rk2 stage 1")
    k2 = l(mid)
    out = State(
        0.5 * (state.rho + mid.rho + dt * k2[0]),
        0.5 * (state.v + mid.v + dt * k2[1]),
        0.5 * (state.s1 + mid.s1 + dt * k2[2]),
        0.5 * (state.s2 + mid.s2 + dt * k2[3]),
        state.t,
    )
    if project is not None:
        project(out)
    _check(out, step_idx, "rk2 stage 2")
    return out


def step(state, grid, params, cfg, dt=None, step_idx=0):
    """Advance one time step with the configured splitting."""
    if dt is None:
        dt = compute_dt(state, grid, params, cfg.cfl)
    if cfg.splitting == "strang":
        out = relax_substep(state, 0.5 * dt, grid, params)
        out = _rk2_transport(out, dt, grid, params, cfg.outer_bc, step_idx)
        out = relax_substep(out, 0.5 * dt, grid, params)
    else:  # lie
        out = _rk2_transport(state, dt, grid, params, cfg.outer_bc, step_idx)
        out = relax_substep(out, dt, grid, params)
    _check(out, step_idx, "step")
    out.t = state.t + dt
    return out


def _wavefront_clear(state, grid):
    tail = slice(-2, None)
    dev = max(
        float(np.max(np.abs(state.rho[tail] - 1.0))),
        float(np.max(np.abs(state.v[tail]))),
        float(np.max(np.abs(state.s1[tail]))),
        float(np.max(np.abs(state.s2[tail]))),
    )
    return dev <= 1e-8


def _record(traj, state, grid, rhs_fn):
    traj.snapshots.append(state.copy())
    traj.rhs_cache.append(rhs_fn(state))
    # boundary interaction is intended with a reflecting outer wall; the
    # monitor guards the interpretation of extrapolating (open) runs only
    if traj.outer_bc == "reflect":
        return
    if not traj.contaminated and not _wavefront_clear(state, grid):
        traj.contaminated = True
        traj.warnings.append(
            f"outer-boundary contamination: fields deviate from the far-field "
            f"equilibrium within 2 cells of r_max at t = {state.t:.6g}"
        )


def _advance(initial, grid, cfg, t_end, output_times, dt_fn, step_fn, rhs_fn):
    traj = Trajectory(outer_bc=cfg.outer_bc)
    state = initial.copy()
    _check(state, 0, "initial state")
    _record(traj, state, grid, rhs_fn)

    pending = None
    if output_times is not None:
        pending = [t for t in sorted(output_times) if t > state.t + _TIME_EPS]
    horizon = max(t_end, 1.0)
    step_idx = 0
    while state.t < t_end - _TIME_EPS * horizon:
        dt = dt_fn(state)
        if not np.isfinite(dt) or dt <= _TIME_EPS * horizon:
            raise NumericalAbort(
                f"time step collapsed to {dt:.3g} at t = {state.t:.6g}", step=step_idx
            )
        target = pending[0] if pending else t_end
        dt = min(dt, max(target - state.t, 0.0), t_end - state.t)
        state = step_fn(state, dt, step_idx)
        step_idx += 1
        traj.dt_history.append(dt)
        hit_output = pending and state.t >= pending[0] - _TIME_EPS * horizon
        if hit_output:
            pending.pop(0)
        at_end = state.t >= t_end - _TIME_EPS * horizon
        if output_times is not None:
            if hit_output or at_end:
                _record(traj, state, grid, rhs_fn)
        elif step_idx % cfg.output_every == 0 or at_end:
            _record(traj, state, grid, rhs_fn)
    return traj


def run(initial, grid, params, cfg, output_times=None):
    """Integrate the relaxed system to cfg.t_end and collect snapshots.

    Snapshots are taken every cfg.output_every steps plus the final time, or
    exactly at the requested output_times (the step size is clipped to land
    on them, so sweeps share a common snapshot grid without interpolation).
    """
    if params.tau <= 0.0:
        raise ValueError("run requires tau > 0; use run_classical for tau = 0")

    def dt_fn(state):
        return compute_dt(state, grid, params, cfg.cfl)

    def step_fn(state, dt, k):
        return step(state, grid, params, cfg, dt=dt, step_idx=k)

    def rhs_fn(state):
        return rhs_full(state, grid, params, cfg.outer_bc)

    return _advance(initial, grid, cfg, cfg.t_end, output_times, dt_fn, step_fn, rhs_fn)


def classical_rhs(rho, v, grid, params, outer_bc="extrapolate"):
    """(drho/dt, dv/dt) for the classical system: stresses at equilibrium.

    Reuses the relaxed momentum operator with s1, s2 replaced by the
    Newtonian values, so the baseline is spatially identical to the
    relaxed scheme's tau -> 0 limit.
    """
    eq1, eq2 = equilibrium_stress(v, grid, params)
    temp = State(rho, v, eq1, eq2)
    drho, dv, _, _ = rhs_nonstiff(temp, grid, params, outer_bc, include_production=False)
    return drho, dv


def run_classical(rho0, v0, grid, params, cfg, output_times=None):
    """Integrate the classical baseline (mass + Newtonian momentum).

    tau is ignored; snapshots store the equilibrium stresses so trajectories
    from both solvers share one format.
    """
    eq1, eq2 = equilibrium_stress(np.asarray(v0, dtype=float), grid, params)
    initial = State(np.asarray(rho0, dtype=float), np.asarray(v0, dtype=float), eq1, eq2, t=0.0)

    def dt_fn(state):
        return compute_dt_classical(state.rho, state.v, grid, params, cfg.cfl)

    def pin_stresses(s):
        s.s1, s.s2 = equilibrium_stress(s.v, grid, params)

    def step_fn(state, dt, k):
        out = _rk2_transport(state, dt, grid, params, cfg.outer_bc, k, project=pin_stresses)
        out.t = state.t + dt
        return out

    def rhs_fn(state):
        drho, dv = classical_rhs(state.rho, state.v, grid, params, cfg.outer_bc)
        de1, de2 = equilibrium_stress(dv, grid, params)  # d/dt of eq(v) by linearity
        return drho, dv, de1, de2

    return _advance(initial, grid, cfg, cfg.t_end, output_times, dt_fn, step_fn, rhs_fn)
