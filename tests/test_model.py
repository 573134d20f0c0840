import math
from dataclasses import replace

import numpy as np
import pytest

from relaxns.errors import DomainError, FieldError
from relaxns.model import (
    FluidParams,
    InitConfig,
    RadialGrid,
    State,
    compatibility_residual,
    equilibrium_stress,
    face_value,
    make_initial_data,
    pressure,
    pressure_prime,
    taylor_potential,
)
from relaxns.numerics import weighted_h1_sq
from relaxns.solver import SolverConfig


def test_pressure_identity_state():
    assert pressure(1.0, FluidParams(gamma=2.0)) == 1.0
    for gamma in (1.1, 1.4, 2.0, 3.0):
        assert pressure(1.0, FluidParams(gamma=gamma)) == 1.0


def test_pressure_log_exp_oracle():
    p = FluidParams(gamma=1.4)
    oracle = math.exp(1.4 * math.log(1.1))
    assert pressure(1.1, p) == pytest.approx(oracle, rel=1e-14)
    # integer exponent: repeated multiplication
    p3 = FluidParams(gamma=3.0)
    assert pressure(1.3, p3) == pytest.approx(1.3 * 1.3 * 1.3, rel=1e-15)


def test_pressure_rejects_nonpositive_density(params):
    with pytest.raises(DomainError):
        pressure(0.0, params)
    with pytest.raises(DomainError):
        pressure_prime(-0.5, params)
    with pytest.raises(DomainError):
        taylor_potential(0.0, params)


@pytest.mark.parametrize("fn", [pressure, pressure_prime, taylor_potential])
def test_pressure_rejects_nan_density(fn, params):
    # NaN compares false with 0, so a guard written as any(rho <= 0) lets it through
    for rho in (math.nan, np.array([1.0, math.nan])):
        with pytest.raises(DomainError, match="requires rho > 0"):
            fn(rho, params)


def test_pressure_prime_values():
    assert pressure_prime(1.0, FluidParams(gamma=2.0)) == 2.0
    assert pressure_prime(1.0, FluidParams(gamma=1.4)) == pytest.approx(1.4, rel=1e-15)
    p = FluidParams(gamma=1.4)
    assert pressure_prime(1.2, p) == pytest.approx(1.4 * 1.2**0.4, rel=1e-14)


def test_pressure_prime_matches_finite_differences(params):
    h = 1e-6
    rho = np.linspace(0.5, 2.0, 151)
    fd = (pressure(rho + h, params) - pressure(rho - h, params)) / (2 * h)
    assert np.allclose(fd, pressure_prime(rho, params), rtol=1e-8)


def test_taylor_potential_examples():
    assert taylor_potential(1.0, FluidParams(gamma=1.7)) == 0.0
    # gamma = 2 closed form (rho - 1)^2
    assert taylor_potential(1.5, FluidParams(gamma=2.0)) == pytest.approx(0.25, rel=1e-14)
    # the potential of P = a_coef rho^gamma carries a_coef
    assert taylor_potential(1.5, FluidParams(gamma=2.0, a_coef=3.0)) == 0.75


def test_taylor_potential_bracket_oracle():
    # rho^g - 1 - g(rho-1) = g(g-1)/2 * xi^(g-2) (rho-1)^2 for xi between rho and 1
    p = FluidParams(gamma=1.4)
    rho = 0.9
    val = taylor_potential(rho, p)
    assert val > 0.0
    lo_xi, hi_xi = 0.9, 1.0
    bound_a = 0.5 * p.gamma * lo_xi ** (p.gamma - 2.0) * (rho - 1.0) ** 2
    bound_b = 0.5 * p.gamma * hi_xi ** (p.gamma - 2.0) * (rho - 1.0) ** 2
    assert min(bound_a, bound_b) <= val <= max(bound_a, bound_b)


def test_taylor_potential_nonnegative_random(params):
    rng = np.random.default_rng(1)
    rho = rng.uniform(0.5, 2.0, size=10_000)
    vals = taylor_potential(rho, params)
    assert np.all(vals >= 0.0)
    assert np.all(vals[np.abs(rho - 1.0) > 1e-3] > 0.0)


def test_equilibrium_stress_zero_velocity(grid, params):
    s1, s2 = equilibrium_stress(np.zeros(grid.n_cells), grid, params)
    assert np.all(s1 == 0.0) and np.all(s2 == 0.0)


def test_equilibrium_stress_linear_profile(grid):
    p = FluidParams(mu=0.7, lambda_=1.3)
    c = 0.2
    s1, s2 = equilibrium_stress(c * grid.centers, grid, p)
    # dv/dr - v/r = 0 and dv/dr + 2v/r = 3c, exactly (stencils exact on linears)
    assert np.allclose(s1, 0.0, atol=1e-14)
    assert np.allclose(s2, 3.0 * p.lambda_ * c, rtol=1e-13)


def test_equilibrium_stress_inverse_square_convergence(params):
    # v = 1/r^2: s1 = -6 mu / r^3, s2 = 0; sampled at fixed interior radii the
    # discrete result converges at 2nd order
    samples = (2.0, 4.5, 8.0)

    def err(n):
        g = RadialGrid(r_max=11.0, n_cells=n)
        s1, s2 = equilibrium_stress(1.0 / g.centers**2, g, params)
        exact1 = -6.0 * params.mu / g.centers**3
        idx = [int(np.argmin(np.abs(g.centers - s))) for s in samples]
        return max(np.max(np.abs((s1 - exact1)[idx])), np.max(np.abs(s2[idx])))

    e1, e2 = err(100), err(200)
    assert e1 / e2 >= 3.5


def test_equilibrium_stress_linearity(grid, params):
    rng = np.random.default_rng(2)
    v1 = rng.standard_normal(grid.n_cells)
    v2 = rng.standard_normal(grid.n_cells)
    a, b = 0.7, -1.9
    lhs = equilibrium_stress(a * v1 + b * v2, grid, params)
    rhs1 = equilibrium_stress(v1, grid, params)
    rhs2 = equilibrium_stress(v2, grid, params)
    for k in range(2):
        combo = a * rhs1[k] + b * rhs2[k]
        scale = np.max(np.abs(combo)) + 1e-30
        assert np.max(np.abs(lhs[k] - combo)) / scale < 1e-12


def test_equilibrium_stress_rejects_a_velocity_not_of_the_grids_length(grid, params):
    with pytest.raises(ValueError, match="^velocity array does not match the grid$"):
        equilibrium_stress(np.zeros(grid.n_cells + 1), grid, params)


@pytest.mark.parametrize("short", ["rho", "v", "s1", "s2"])
def test_state_rejects_fields_of_different_lengths(short):
    fields = {name: np.zeros(3 if name == short else 4) for name in ("rho", "v", "s1", "s2")}
    with pytest.raises(ValueError, match="^state fields must share one length$"):
        State(**fields)


def test_make_initial_data_equilibrium(grid, params):
    state = make_initial_data(InitConfig(), grid, params)
    assert np.all(state.rho == 1.0)
    assert np.all(state.v == 0.0)
    assert np.all(state.s1 == 0.0) and np.all(state.s2 == 0.0)


def test_make_initial_data_density_bump_only(grid, params):
    cfg = InitConfig(bump_amp=0.01, bump_center=5.0, bump_width=0.7)
    state = make_initial_data(cfg, grid, params)
    assert np.max(state.rho) > 1.0
    assert np.all(state.v == 0.0)
    assert np.all(state.s1 == 0.0) and np.all(state.s2 == 0.0)


def test_make_initial_data_sqrt_tau_scaling(grid):
    cfg = InitConfig(bump_amp=0.0, bump_center=5.0, bump_width=0.7, stress_perturb_amp=1.0)
    norms = []
    for tau in (1e-2, 1e-3, 1e-4):
        p = FluidParams(tau=tau)
        state = make_initial_data(cfg, grid, p)
        eq1, eq2 = equilibrium_stress(state.v, grid, p)
        n1 = math.sqrt(weighted_h1_sq(state.s1 - eq1, grid)) / math.sqrt(tau)
        norms.append(n1)
    base = norms[0]
    for n in norms[1:]:
        assert abs(n - base) / base < 1e-10


def test_make_initial_data_rejects_bad_configs(grid, params):
    with pytest.raises(DomainError):
        make_initial_data(InitConfig(bump_amp=-1.5, bump_center=5.0, bump_width=0.7), grid, params)
    with pytest.raises(DomainError, match="tail"):
        make_initial_data(InitConfig(bump_amp=0.01, bump_center=2.0, bump_width=0.7), grid, params)


def test_initial_velocity_vanishes_at_face(grid, params, bump_cfg):
    state = make_initial_data(bump_cfg, grid, params)
    assert abs(face_value(state.v, grid)) <= 1e-12


def test_compatibility_residual_scales_with_dr(params, bump_cfg):
    # admissible data keeps the boundary quiet: residual at the tail scale,
    # far below any dr^2 tolerance, for the relaxed and the classical
    # (tau = 0) system
    for p in (params, replace(params, tau=0.0)):
        for n in (100, 200):
            g = RadialGrid(r_max=11.0, n_cells=n)
            state = make_initial_data(bump_cfg, g, p)
            assert compatibility_residual(state, g, p) <= 1e-6 * g.dr**2 + 1e-11, (p.tau, n)


def test_grid_invariants():
    g = RadialGrid(r_max=21.0, n_cells=800)
    assert g.centers[0] > 1.0
    assert np.all(np.diff(g.centers) > 0)
    assert abs(g.dr * g.n_cells - (g.r_max - g.r_min)) <= 1e-12 * g.r_max
    with pytest.raises(ValueError):
        RadialGrid(r_max=1.0, n_cells=100)
    with pytest.raises(ValueError):
        RadialGrid(r_max=5.0, n_cells=4)


def test_grids_compare_and_hash_by_extent_and_cell_count():
    # the derived mesh arrays take no part: equal grids compare and hash
    # equal without comparing arrays, and a grid is a dict key
    a, b = RadialGrid(n_cells=64), RadialGrid(n_cells=64)
    assert a == b and hash(a) == hash(b)
    assert a != RadialGrid(n_cells=65) and a != RadialGrid(r_max=11.0, n_cells=64)
    assert {a: 1}[b] == 1


def test_params_invariants():
    with pytest.raises(ValueError):
        FluidParams(gamma=1.0)
    with pytest.raises(ValueError):
        FluidParams(mu=0.0)
    with pytest.raises(ValueError):
        FluidParams(lambda_=-1.0)
    with pytest.raises(ValueError):
        FluidParams(tau=-1e-3)
    with pytest.raises(ValueError):
        FluidParams(eps=-0.1)
    with pytest.raises(ValueError):
        FluidParams(a_coef=0.0)


@pytest.mark.parametrize(
    "cls, field",
    [
        (FluidParams, "gamma"),
        (FluidParams, "mu"),
        (FluidParams, "lambda_"),
        (FluidParams, "tau"),
        (FluidParams, "eps"),
        (FluidParams, "a_coef"),
        (RadialGrid, "r_max"),
        (InitConfig, "bump_amp"),
        (InitConfig, "bump_center"),
        (InitConfig, "bump_width"),
        (InitConfig, "vel_amp"),
        (InitConfig, "stress_perturb_amp"),
        (SolverConfig, "cfl"),
        (SolverConfig, "t_end"),
    ],
)
def test_nan_rejected_by_validator(cls, field):
    # every bound is written so that NaN and inf fail it, naming its own field
    for value in (math.nan, math.inf):
        with pytest.raises(FieldError) as info:
            cls(**{field: value})
        assert info.value.field == field


@pytest.mark.parametrize("value", [800.5, 800.0, math.nan, math.inf], ids=["fraction", "integral-float", "nan", "inf"])
@pytest.mark.parametrize(
    "cls, field", [(RadialGrid, "n_cells"), (SolverConfig, "output_every"), (SolverConfig, "n_outputs")]
)
def test_integer_field_rejects_non_integers(cls, field, value):
    # 800.5 would build 801 centres; 800.0 would reach numpy as a float size
    with pytest.raises(FieldError, match=f"^{field} must be an integer") as info:
        cls(**{field: value})
    assert info.value.field == field


def test_integer_field_accepts_numpy_integers():
    grid = RadialGrid(n_cells=np.int64(64))
    assert type(grid.n_cells) is int and grid.centers.size == 64
    assert type(SolverConfig(output_every=np.int32(5)).output_every) is int
