"""Finite-difference stencils and r^2-weighted quadrature on the radial mesh."""

import numpy as np


def derivative(f, dr, out=None):
    """d/dr by second-order central differences, one-sided second-order at the ends.

    out, an array of f's shape that is not f, receives the result in place
    of a new array.
    """
    f = np.asarray(f, dtype=float)
    if out is None:
        out = np.empty_like(f)
    inner = out[1:-1]
    np.subtract(f[2:], f[:-2], out=inner)
    np.divide(inner, 2.0 * dr, out=inner)
    out[0] = (-3.0 * f[0] + 4.0 * f[1] - f[2]) / (2.0 * dr)
    out[-1] = (3.0 * f[-1] - 4.0 * f[-2] + f[-3]) / (2.0 * dr)
    return out


def second_derivative(f, dr):
    """d^2/dr^2, central with one-sided second-order stencils at the ends."""
    f = np.asarray(f, dtype=float)
    out = np.empty_like(f)
    out[1:-1] = (f[2:] - 2.0 * f[1:-1] + f[:-2]) / dr**2
    out[0] = (2.0 * f[0] - 5.0 * f[1] + 4.0 * f[2] - f[3]) / dr**2
    out[-1] = (2.0 * f[-1] - 5.0 * f[-2] + 4.0 * f[-3] - f[-4]) / dr**2
    return out


def integrate_r2(f, grid):
    """Trapezoid rule for the weighted integral of r^2 f over the cell centers."""
    return float(np.trapezoid(grid.center_r2 * np.asarray(f, dtype=float), dx=grid.dr))


def cell_sum_r2(f, grid):
    """Midpoint-rule integral of r^2 f.

    This is the quantity that telescopes exactly against flux-form updates, so
    it is the right functional for conservation bookkeeping.
    """
    return float(np.sum(grid.center_r2 * np.asarray(f, dtype=float)) * grid.dr)


def weighted_l2_sq(f, grid):
    f = np.asarray(f, dtype=float)
    return integrate_r2(f * f, grid)


def weighted_h1_sq(f, grid):
    return weighted_l2_sq(f, grid) + weighted_l2_sq(derivative(f, grid.dr), grid)


def weighted_h2_sq(f, grid):
    return weighted_h1_sq(f, grid) + weighted_l2_sq(second_derivative(f, grid.dr), grid)
