"""Consistency check of the radial reduction against the full 3D balance laws.

Under the spherically symmetric ansatz

    u(x) = v(r) x/r,   S1_ij = s1(r) (x_i x_j / r^2 - delta_ij / 3),
    S2 = s2(r),        rho(x) = rho(r),       r = |x|,

the 3D mass and momentum equations reduce to the radial system.  This module
evaluates the raw 3D equations at sample points by central Cartesian finite
differences of the ansatz fields (radial profiles interpolated with cubic
splines) and reports the residuals; they vanish at second order as the mesh
spacing and the Cartesian step h are refined together.
"""

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import DomainError
from .model import pressure, time_derivatives


def reduction_residual(state, grid, params, sample_points, h=None):
    """Residual 4-tuples (mass, mom_x, mom_y, mom_z) at each sample point.

    The time derivatives are the central evaluation of the radial right-hand
    side; h defaults to the mesh spacing.
    """
    h = grid.dr if h is None else float(h)
    pts = [np.asarray(p, dtype=float) for p in sample_points]
    lo = 1.0 + 2.0 * grid.dr
    hi = grid.r_max - 2.0 * grid.dr
    for p in pts:
        radius = float(np.linalg.norm(p))
        if not lo < radius < hi:
            raise DomainError(
                f"sample point at radius {radius:.6g} outside the safe interior "
                f"({lo:.6g}, {hi:.6g})"
            )
    drho_dt, dv_dt = time_derivatives(state, grid, params)[:2]

    r = grid.centers
    sp = {
        "rho": CubicSpline(r, state.rho),
        "v": CubicSpline(r, state.v),
        "s1": CubicSpline(r, state.s1),
        "s2": CubicSpline(r, state.s2),
        "drho": CubicSpline(r, drho_dt),
        "dv": CubicSpline(r, dv_dt),
    }
    return [_residual_at(p, h, sp, params) for p in pts]


def _fields(points, sp, params):
    """Evaluate rho, v, s1, s2, P at an (m, 3) array of points."""
    radii = np.linalg.norm(points, axis=-1)
    rho = sp["rho"](radii)
    return radii, rho, sp["v"](radii), sp["s1"](radii), sp["s2"](radii), pressure(rho, params)


def _residual_at(x, h, sp, params):
    r0 = float(np.linalg.norm(x))
    rho0 = float(sp["rho"](r0))
    v0 = float(sp["v"](r0))
    drho0 = float(sp["drho"](r0))
    dv0 = float(sp["dv"](r0))

    # 6-point stencil x +- h e_j
    eye = np.eye(3)
    plus = x[None, :] + h * eye
    minus = x[None, :] - h * eye
    rp, rhop, vp, s1p, s2p, pp = _fields(plus, sp, params)
    rm, rhom, vm, s1m, s2m, pm = _fields(minus, sp, params)

    # mass: drho/dt + div(rho v x/r)
    def mom_flux(pts, radii, rho, v):
        return rho * v * pts / radii[:, None]  # rows: F at x + h e_j, columns: components

    fp = mom_flux(plus, rp, rhop, vp)
    fm = mom_flux(minus, rm, rhom, vm)
    div_rho_u = np.sum((fp[np.arange(3), np.arange(3)] - fm[np.arange(3), np.arange(3)])) / (2.0 * h)
    mass_res = drho0 + div_rho_u

    # momentum: d/dt(rho u) + div(rho u (x) u + P I - S1 - S2 I)
    def stress_tensor(pts, radii, rho, v, s1, s2, p):
        # G_ij = rho v^2 x_i x_j / r^2 + P delta_ij - s1 (x_i x_j/r^2 - delta_ij/3) - s2 delta_ij
        xi_xj = pts[:, :, None] * pts[:, None, :] / radii[:, None, None] ** 2
        iso = np.eye(3)[None, :, :]
        return (
            (rho * v**2)[:, None, None] * xi_xj
            + p[:, None, None] * iso
            - s1[:, None, None] * (xi_xj - iso / 3.0)
            - s2[:, None, None] * iso
        )

    gp = stress_tensor(plus, rp, rhop, vp, s1p, s2p, pp)
    gm = stress_tensor(minus, rm, rhom, vm, s1m, s2m, pm)
    # div_j G_ij by central differences: stencil row j differentiates direction j
    div_g = np.sum((gp[np.arange(3), :, np.arange(3)] - gm[np.arange(3), :, np.arange(3)]), axis=0) / (
        2.0 * h
    )
    dt_momentum = (drho0 * v0 + rho0 * dv0) * x / r0
    mom_res = dt_momentum + div_g
    return (float(mass_res), float(mom_res[0]), float(mom_res[1]), float(mom_res[2]))
