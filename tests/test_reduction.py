import numpy as np
import pytest

from relaxns.errors import DomainError
from relaxns.model import FluidParams, InitConfig, RadialGrid, State, make_initial_data
from relaxns.reduction import reduction_residual

PARAMS = FluidParams(tau=0.05)
INIT = InitConfig(bump_amp=0.05, bump_center=5.0, bump_width=0.7, vel_amp=0.05, stress_perturb_amp=0.5)


def octahedral_orbit(radius):
    a = radius / np.sqrt(3.0)
    return [np.array([sx * a, sy * a, sz * a]) for sx in (1, -1) for sy in (1, -1) for sz in (1, -1)]


def magnitudes(res):
    return np.array([abs(m) + np.linalg.norm(mom) for m, *mom in res])


def test_equilibrium_residual_vanishes():
    grid = RadialGrid(r_max=11.0, n_cells=100)
    n = grid.n_cells
    eq = State(np.ones(n), np.zeros(n), np.zeros(n), np.zeros(n))
    res = reduction_residual(eq, grid, PARAMS, [np.array([4.6, 0.0, 0.0])])
    assert magnitudes(res)[0] <= 1e-13


def test_residual_second_order_under_refinement():
    # tau = 0 is the classical system, its stresses at eq(v)
    def norm(n, params):
        grid = RadialGrid(r_max=11.0, n_cells=n)
        state = make_initial_data(INIT, grid, params)
        res = reduction_residual(state, grid, params, octahedral_orbit(4.6), h=grid.dr)
        return np.max(magnitudes(res))

    for params in (PARAMS, FluidParams(tau=0.0)):
        e1, e2 = norm(200, params), norm(400, params)
        assert e1 / e2 >= 3.5, (params.tau, e1, e2)


def test_rotational_invariance():
    grid = RadialGrid(r_max=11.0, n_cells=200)
    state = make_initial_data(INIT, grid, PARAMS)
    # full diagonal orbit: identical residual magnitudes
    mags = magnitudes(reduction_residual(state, grid, PARAMS, octahedral_orbit(4.6)))
    assert np.max(np.abs(mags - mags[0])) <= 1e-10
    # axis-aligned pair at one radius
    res = reduction_residual(
        state, grid, PARAMS, [np.array([4.6, 0.0, 0.0]), np.array([0.0, 4.6, 0.0])]
    )
    m = magnitudes(res)
    assert abs(m[0] - m[1]) <= 1e-10


def test_out_of_range_points_rejected():
    grid = RadialGrid(r_max=11.0, n_cells=100)
    state = make_initial_data(INIT, grid, PARAMS)
    with pytest.raises(DomainError):
        reduction_residual(state, grid, PARAMS, [np.array([1.05, 0.0, 0.0])])
    with pytest.raises(DomainError):
        reduction_residual(state, grid, PARAMS, [np.array([10.95, 0.0, 0.0])])
