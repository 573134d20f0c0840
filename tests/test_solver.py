import ast
import gc
import inspect
import math
import sys
import threading
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from relaxns import solver
from relaxns.errors import FieldError, NumericalAbort
from relaxns.model import (
    FluidParams,
    InitConfig,
    RadialGrid,
    State,
    equilibrium_stress,
    make_initial_data,
    pressure_prime,
)
from relaxns.numerics import cell_sum_r2, weighted_l2_sq
from relaxns.relaxation import tau_sweep
from relaxns.solver import (
    SolverConfig,
    Workspace,
    _Ghosted,
    _check,
    _implicit_stage,
    _outer_boundary,
    _solve_pentadiagonal,
    _step_classical,
    _stress_divergence,
    _viscous_bands,
    apply_bc,
    classical_rhs,
    compute_dt,
    compute_dt_classical,
    relax_substep,
    rhs_full,
    rhs_nonstiff,
    run,
    run_classical,
    step,
)
from relaxns.structure import char_speeds, max_char_speed

from conftest import equilibrium_state


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def same_state(a, b):
    return a.t == b.t and all(same_bits(getattr(a, f), getattr(b, f)) for f in ("rho", "v", "s1", "s2"))


def poisoned_workspace(grid, outer_bc="extrapolate"):
    # every buffer starts as NaN, so a value read before it is written shows
    w = Workspace(grid, outer_bc)
    imex = w.imex
    imex_groups = (imex.bands, imex.solve, (imex.stage_v,), imex.stage_s, imex.acc, imex.relax, (imex.load,))
    combs = imex.combs
    comb_groups = (combs.eq, combs.weighted, (combs.probe, combs.faces[1].all), [g.all for g in combs.ghosted])
    for group in (w.ghost, w.face, w.cell, w.k, w.stress, *imex_groups, *comb_groups):
        for buf in group:
            buf.fill(np.nan)
    return w


def gaussian_state(grid, amp=0.1, vamp=0.05, s1a=0.03, s2a=0.02, center=5.0, width=0.7):
    r = grid.centers
    g = np.exp(-(((r - center) / width) ** 2))
    return State(1.0 + amp * g, vamp * (r - 1.0) * g, s1a * g, s2a * g), g


def analytic_rhs(grid, params, amp, vamp, s1a, s2a, center, width, production=True, decay=True):
    """Hand-derived right-hand side for the Gaussian manufactured state."""
    r = grid.centers
    g = np.exp(-(((r - center) / width) ** 2))
    gp = -2.0 * (r - center) / width**2 * g
    rho = 1.0 + amp * g
    rho_r = amp * gp
    v = vamp * (r - 1.0) * g
    v_r = vamp * (g + (r - 1.0) * gp)
    s1 = s1a * g
    s1_r = s1a * gp
    s2 = s2a * g
    s2_r = s2a * gp
    p_r = params.a_coef * params.gamma * rho ** (params.gamma - 1.0) * rho_r
    drho = -(v * rho_r + rho * v_r) - 2.0 * rho * v / r
    dv = -v * v_r + (-p_r + (2.0 / 3.0) * s1_r + 2.0 * s1 / r + s2_r) / rho
    a = v - params.eps
    ds1 = -a * s1_r
    ds2 = -a * s2_r
    if production:
        eq1 = 2.0 * params.mu * (v_r - v / r)
        eq2 = params.lambda_ * (v_r + 2.0 * v / r)
        ds1 = ds1 + eq1 / (params.tau * rho)
        ds2 = ds2 + eq2 / (params.tau * rho)
    if decay:
        ds1 = ds1 - s1 / (params.tau * rho)
        ds2 = ds2 - s2 / (params.tau * rho)
    return drho, dv, ds1, ds2


def ghosted(f, odd, outer_bc):
    # two ghost cells per side: mirror at r = 1 (v odd), and at r_max either
    # zero-order extrapolation or a mirror
    sign = -1.0 if odd else 1.0
    outer = [f[-1], f[-1]] if outer_bc == "extrapolate" else [sign * f[-1], sign * f[-2]]
    return np.concatenate(([sign * f[1], sign * f[0]], f, outer))


def reference_rhs_nonstiff(state, grid, params, outer_bc, include_production):
    """rhs_nonstiff written term by term as its formulas read, allocating each.

    The oracle for the workspace kernel, which folds the constant factors of
    these formulas into fewer passes: the two agree to rounding.
    """
    dr, r = grid.dr, grid.centers
    rho, v, s1, s2 = state.rho, state.v, state.s1, state.s2
    rho_e, v_e = ghosted(rho, False, outer_bc), ghosted(v, True, outer_bc)
    s1_e, s2_e = ghosted(s1, False, outer_bc), ghosted(s2, False, outer_bc)
    left, right = slice(1, -2), slice(2, -1)  # the two cells of each face

    m = rho_e * v_e
    v_f = 0.5 * (v_e[left] + v_e[right])
    c_f = np.sqrt(params.a_coef * params.gamma * (0.5 * (rho_e[left] + rho_e[right])) ** (params.gamma - 1.0))
    d3 = rho_e[3:] - 3.0 * rho_e[2:-1] + 3.0 * rho_e[1:-2] - rho_e[:-3]
    kappa4 = 1.0 / 16.0
    flux = grid.face_r2 * (
        0.5 * (m[left] + m[right])
        - 0.5 * np.abs(v_f) * (rho_e[right] - rho_e[left])
        + 0.5 * (np.abs(v_f) + c_f) * kappa4 * d3
    )
    drho = -(flux[1:] - flux[:-1]) / (grid.center_r2 * dr)

    def central(g):
        return (g[3:-1] - g[1:-3]) / (2.0 * dr)

    def upwind(a, g):
        backward = (g[2:-2] - g[1:-3]) / dr
        forward = (g[3:-1] - g[2:-2]) / dr
        return np.maximum(a, 0.0) * backward + np.minimum(a, 0.0) * forward

    p = params.a_coef * rho_e**params.gamma
    dv = -upwind(v, v_e) + (-central(p) + (2.0 / 3.0) * central(s1_e) + 2.0 * s1 / r + central(s2_e)) / rho
    a = v - params.eps
    ds1 = -upwind(a, s1_e)
    ds2 = -upwind(a, s2_e)
    if include_production:
        eq1, eq2 = equilibrium_stress(v, grid, params)
        ds1 = ds1 + eq1 / (params.tau * rho)
        ds2 = ds2 + eq2 / (params.tau * rho)
    return drho, dv, ds1, ds2


def reference_rhs(kind, state, grid, params, outer_bc):
    if kind in ("transport", "production"):
        return reference_rhs_nonstiff(state, grid, params, outer_bc, kind == "production")
    if kind == "full":
        drho, dv, ds1, ds2 = reference_rhs_nonstiff(state, grid, params, outer_bc, True)
        trho = params.tau * state.rho
        return drho, dv, ds1 - state.s1 / trho, ds2 - state.s2 / trho
    pinned = State(state.rho, state.v, *equilibrium_stress(state.v, grid, params))
    drho, dv, _, _ = reference_rhs_nonstiff(pinned, grid, params, outer_bc, False)
    return (drho, dv, *equilibrium_stress(dv, grid, params))


def rough_state(n, seed=11):
    # O(1) values up to both walls, so every ghost cell and both upwind
    # directions carry weight
    rng = np.random.default_rng(seed)
    return State(1.0 + 0.3 * rng.random(n), *(0.2 * rng.standard_normal(n) for _ in range(3)))


@pytest.mark.parametrize("n", [8, 800])
@pytest.mark.parametrize("eps", [0.0, 0.1])
@pytest.mark.parametrize("outer_bc", ["extrapolate", "reflect"])
@pytest.mark.parametrize("kind", ["transport", "production", "full", "classical"])
def test_rhs_matches_term_by_term_reference(kind, outer_bc, eps, n):
    grid = RadialGrid(r_max=11.0, n_cells=n)
    p = FluidParams(gamma=1.4, tau=0.01, eps=eps, a_coef=1.3)
    state = rough_state(n)
    if kind == "classical":
        got = classical_rhs(state, grid, p, outer_bc)
    elif kind == "full":
        got = rhs_full(state, grid, p, outer_bc)
    else:
        got = rhs_nonstiff(state, grid, p, outer_bc, include_production=kind == "production")
    want = reference_rhs(kind, state, grid, p, outer_bc)
    for row, (a, b) in zip(("rho", "v", "s1", "s2"), zip(got, want)):
        scale = np.max(np.abs(b))
        assert scale > 0.0
        assert np.max(np.abs(a - b)) <= 1e-12 * scale, row


def test_apply_bc_ghost_layout(grid, params):
    state, _ = gaussian_state(grid)
    rho_e, v_e, s1_e, s2_e = apply_bc(state, grid, params, "extrapolate")
    assert rho_e.size == grid.n_cells + 4
    assert v_e[1] == -state.v[0] and v_e[0] == -state.v[1]
    assert rho_e[1] == state.rho[0] and rho_e[0] == state.rho[1]
    assert s1_e[1] == state.s1[0] and s2_e[0] == state.s2[1]
    assert v_e[-2] == state.v[-1] and v_e[-1] == state.v[-1]
    rho_r, v_r, _, _ = apply_bc(state, grid, params, "reflect")
    assert v_r[-2] == -state.v[-1] and v_r[-1] == -state.v[-2]
    assert rho_r[-2] == state.rho[-1] and rho_r[-1] == state.rho[-2]


@pytest.mark.parametrize("outer_bc", ["extrapolate", "reflect"])
@pytest.mark.parametrize("odd", [False, True], ids=["even", "odd"])
def test_boundary_ghost_fill_matches_the_reference(outer_bc, odd):
    # the rule's object fills the ghosts of one field in an (n+4,) buffer and
    # of five at once in a (5, n+4) one, as the reference pads each field
    n = 9
    rng = np.random.default_rng(7)
    boundary = _outer_boundary(outer_bc)
    f, rows = rng.standard_normal(n), rng.standard_normal((5, n))
    one = _Ghosted(np.full(n + 4, np.nan), boundary)
    assert same_bits(one.load(f, odd), ghosted(f, odd, outer_bc))
    five = _Ghosted(np.full((5, n + 4), np.nan), boundary)
    assert same_bits(five.load(rows, odd), np.array([ghosted(row, odd, outer_bc) for row in rows]))


@pytest.mark.parametrize(
    "call",
    [
        lambda state, grid, p, bc: SolverConfig(outer_bc=bc),
        lambda state, grid, p, bc: apply_bc(state, grid, p, bc),
        lambda state, grid, p, bc: rhs_nonstiff(state, grid, p, bc),
        lambda state, grid, p, bc: rhs_full(state, grid, p, bc),
        lambda state, grid, p, bc: rhs_full(state, grid, replace(p, tau=0.0), bc),
        lambda state, grid, p, bc: classical_rhs(state, grid, p, bc),
        lambda state, grid, p, bc: rhs_full(state, grid, p, bc, work=Workspace(grid)),
    ],
    ids=["SolverConfig", "apply_bc", "rhs_nonstiff", "rhs_full", "rhs_full-tau-0", "classical_rhs", "rhs_full-work"],
)
@pytest.mark.parametrize("name", ["absorbing", "Reflect", None, ["reflect"]], ids=repr)
def test_unknown_outer_bc_raises_field_error(grid, params, equilibrium, call, name):
    with pytest.raises(FieldError, match="^outer_bc must be one of \\('extrapolate', 'reflect'\\)") as info:
        call(equilibrium, grid, params, name)
    assert info.value.field == "outer_bc"


def test_only_the_entry_points_take_outer_bc():
    # inside the solver the boundary rule is an object: no kernel and no
    # _Ghosted method has an outer_bc parameter.  The public entry points
    # take the string, and Workspace, _workspace and _outer_boundary look it
    # up
    entry = {"apply_bc", "rhs_nonstiff", "rhs_full", "classical_rhs", "__init__", "_workspace", "_outer_boundary"}
    tree = ast.parse(inspect.getsource(solver))
    takers = {
        node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
        and "outer_bc" in [a.arg for a in node.args.args + node.args.kwonlyargs]
    }
    assert takers == entry
    assert inspect.signature(Workspace).parameters["outer_bc"].default == "extrapolate"
    assert "outer_bc" not in inspect.signature(_Ghosted.load).parameters


@pytest.mark.parametrize("built, asked", [("extrapolate", "reflect"), ("reflect", "extrapolate")])
def test_a_workspace_built_for_one_rule_is_refused_by_the_other(grid, params, equilibrium, built, asked):
    work = Workspace(grid, built)
    cfg = SolverConfig(outer_bc=asked)
    calls = [
        lambda: rhs_nonstiff(equilibrium, grid, params, asked, work=work),
        lambda: rhs_full(equilibrium, grid, params, asked, work=work),
        lambda: classical_rhs(equilibrium, grid, params, asked, work=work),
        lambda: step(equilibrium, grid, params, cfg, 1e-3, work=work),
        lambda: _step_classical(equilibrium, grid, replace(params, tau=0.0), cfg, 1e-3, 0, work=work),
    ]
    message = f"^work was built for outer_bc {built!r}, not {asked!r}$"
    for call in calls:
        with pytest.raises(ValueError, match=message):
            call()
    # the rule it was built for is served
    assert all(np.isfinite(row).all() for row in rhs_full(equilibrium, grid, params, built, work=work))


def test_apply_bc_constant_state_reflect(grid, params):
    n = grid.n_cells
    state = State(np.full(n, 1.3), np.full(n, 0.2), np.full(n, 0.5), np.full(n, -0.4))
    rho_e, v_e, s1_e, s2_e = apply_bc(state, grid, params, "reflect")
    assert np.all(rho_e == 1.3) and np.all(s1_e == 0.5) and np.all(s2_e == -0.4)
    assert v_e[0] == -0.2 and v_e[1] == -0.2 and v_e[-1] == -0.2 and v_e[-2] == -0.2
    assert np.all(v_e[2:-2] == 0.2)


def test_apply_bc_face_value_and_gradient(grid, params):
    # linear v = c (r - 1): odd ghost continuation keeps the face value 0 and
    # the face gradient exact
    c = 0.37
    n = grid.n_cells
    state = State(np.ones(n), c * (grid.centers - 1.0), np.zeros(n), np.zeros(n))
    _, v_e, _, _ = apply_bc(state, grid, params, "extrapolate")
    face = 0.5 * (v_e[1] + v_e[2])
    grad = (v_e[2] - v_e[1]) / grid.dr
    assert face == 0.0
    assert grad == pytest.approx(c, rel=1e-14)


def test_rhs_zero_at_equilibrium(grid, params, equilibrium):
    for out in rhs_nonstiff(equilibrium, grid, params):
        assert np.all(out == 0.0)
    for out in rhs_full(equilibrium, grid, params):
        assert np.all(out == 0.0)


def test_rhs_constant_deviatoric_stress(grid, params):
    n = grid.n_cells
    c = 0.3
    state = State(np.ones(n), np.zeros(n), np.full(n, c), np.zeros(n))
    drho, dv, ds1, ds2 = rhs_nonstiff(state, grid, params, include_production=True)
    assert np.all(drho == 0.0)
    assert np.allclose(dv, 2.0 * c / grid.centers, rtol=1e-14)
    assert np.all(ds1 == 0.0) and np.all(ds2 == 0.0)


def test_rhs_converges_to_manufactured_solution(params):
    kw = dict(amp=0.1, vamp=0.05, s1a=0.03, s2a=0.02, center=6.0, width=0.8)

    def err(n):
        g = RadialGrid(r_max=11.0, n_cells=n)
        state, _ = gaussian_state(g, **kw)
        got = rhs_full(state, g, params)
        want = analytic_rhs(g, params, **kw)
        return max(np.max(np.abs(a - b)) for a, b in zip(got, want))

    e = [err(n) for n in (200, 400, 800)]
    orders = [np.log2(e[i] / e[i + 1]) for i in range(2)]
    assert min(orders) >= 0.9  # upwind convection limits the formal order


def test_rhs_second_order_without_upwinding(params):
    # v = 0 keeps the upwind terms quiet; the momentum and stress rows are
    # pure central stencils and converge at 2nd order (the mass row keeps its
    # acoustic face diffusion and stays 1st order by design)
    kw = dict(amp=0.1, vamp=0.0, s1a=0.03, s2a=0.02, center=6.0, width=0.8)

    def err(n):
        g = RadialGrid(r_max=11.0, n_cells=n)
        state, _ = gaussian_state(g, **kw)
        got = rhs_full(state, g, params)
        want = analytic_rhs(g, params, **kw)
        return max(np.max(np.abs(a - b)) for a, b in zip(got[1:], want[1:]))

    e = [err(n) for n in (200, 400)]
    assert np.log2(e[0] / e[1]) >= 1.9


def test_relax_substep_fixed_point(grid, params):
    state, _ = gaussian_state(grid, s1a=0.0, s2a=0.0)
    eq1, eq2 = equilibrium_stress(state.v, grid, params)
    state.s1, state.s2 = eq1.copy(), eq2.copy()
    out = relax_substep(state, 0.123, grid, params)
    assert np.array_equal(out.s1, eq1) and np.array_equal(out.s2, eq2)


def test_relax_substep_infinite_step_hits_equilibrium(grid, params):
    state, _ = gaussian_state(grid)
    eq1, eq2 = equilibrium_stress(state.v, grid, params)
    out = relax_substep(state, 1e9, grid, params)
    assert np.allclose(out.s1, eq1, atol=1e-15)
    assert np.allclose(out.s2, eq2, atol=1e-15)


def test_relax_substep_half_life(grid, params):
    n = grid.n_cells
    state = State(np.ones(n), np.zeros(n), np.full(n, 0.4), np.full(n, -0.2))
    dt = params.tau * 1.0 * np.log(2.0)
    out = relax_substep(state, dt, grid, params)
    # equilibrium is 0 here; deviation halves exactly
    assert np.allclose(out.s1, 0.2, rtol=1e-14)
    assert np.allclose(out.s2, -0.1, rtol=1e-14)


def test_relax_substep_matches_ode_oracle(grid, params):
    state, _ = gaussian_state(grid)
    dt = 0.05
    out = relax_substep(state, dt, grid, params)
    eq1, _ = equilibrium_stress(state.v, grid, params)
    i = grid.n_cells // 2
    sol = solve_ivp(
        lambda t, y: (eq1[i] - y) / (params.tau * state.rho[i]),
        (0.0, dt),
        [state.s1[i]],
        rtol=1e-12,
        atol=1e-14,
    )
    assert out.s1[i] == pytest.approx(sol.y[0, -1], abs=1e-10)


def test_compute_dt_matches_eigenvalue_oracle():
    p = FluidParams(gamma=2.0, tau=1.0, mu=1.0, lambda_=1.0)
    g = RadialGrid(r_max=1.0 + 0.05 * 100, n_cells=100)  # dr = 0.05
    eq = equilibrium_state(100)
    smax = np.max(np.abs(char_speeds(1.0, 0.0, p)))
    dt = compute_dt(eq, g, p, cfl=0.4)
    assert dt == pytest.approx(0.4 * 0.05 / smax, rel=1e-12)
    # eps > 0: the speed is an upper bound at most eps above the eigensolve,
    # on a state whose v takes both signs
    p = replace(p, eps=0.1)
    rng = np.random.default_rng(12)
    rho, v = rng.uniform(0.9, 1.1, size=100), rng.uniform(-0.3, 0.3, size=100)
    state = State(rho, v, np.zeros(100), np.zeros(100))
    exact = max(np.max(np.abs(char_speeds(r, w, p))) for r, w in zip(rho, v))
    dt = compute_dt(state, g, p, cfl=0.4)
    assert 0.4 * 0.05 / (exact + p.eps) * (1.0 - 1e-12) <= dt <= 0.4 * 0.05 / exact * (1.0 + 1e-12)


def test_compute_dt_at_eps_zero_is_the_acoustic_plus_stress_speed_bit_for_bit(grid, params):
    # the eps = 0 step of every relaxed run: cfl dr / max(|v| + sqrt(P' + K/(tau rho^2)));
    # one ulp moves the maximum of one state only now and then, so try many
    rng = np.random.default_rng(13)
    n = grid.n_cells
    k = 4.0 * params.mu / 3.0 + params.lambda_
    for _ in range(32):
        state = State(rng.uniform(0.8, 1.2, size=n), rng.uniform(-0.3, 0.3, size=n), np.zeros(n), np.zeros(n))
        speed = np.abs(state.v) + np.sqrt(pressure_prime(state.rho, params) + k / (params.tau * state.rho**2))
        expected = 0.4 * grid.dr / float(speed.max())
        assert compute_dt(state, grid, params, 0.4) == expected
        assert compute_dt(state, grid, params, 0.4, work=poisoned_workspace(grid)) == expected


def test_compute_dt_scalings(params):
    eq = equilibrium_state(100)
    g1 = RadialGrid(r_max=11.0, n_cells=100)
    g2 = RadialGrid(r_max=11.0, n_cells=200)
    assert compute_dt(eq, g2, params, 0.4) == pytest.approx(0.5 * compute_dt(eq, g1, params, 0.4), rel=1e-14)
    stiff = FluidParams(tau=params.tau / 100.0)
    assert compute_dt(eq, g1, stiff, 0.4) < compute_dt(eq, g1, params, 0.4)


def test_compute_dt_is_the_fast_wave_step_bit_for_bit():
    # explicit Strang's step is cfl dr / max_char_speed at every tau > 0 and
    # eps, on fine and coarse grids and at a low viscosity, where the
    # parabolic bound dr^2 rho_min / K would be larger or smaller
    rng = np.random.default_rng(17)
    for r_max, n, mu in ((11.0, 100, 1.0), (21.0, 40, 0.1)):
        grid = RadialGrid(r_max=r_max, n_cells=n)
        for tau in (1e-1, 1e-2, 1e-3, 1e-4, 1e-6, 1e-8):
            for eps in (0.0, 0.1):
                p = FluidParams(tau=tau, eps=eps, mu=mu, lambda_=mu)
                for _ in range(4):
                    rho, v = rng.uniform(0.8, 1.2, size=n), rng.uniform(-0.3, 0.3, size=n)
                    state = State(rho, v, np.zeros(n), np.zeros(n))
                    expected = 0.4 * grid.dr / max_char_speed(rho, v, p)
                    assert compute_dt(state, grid, p, 0.4) == expected
                    assert compute_dt(state, grid, p, 0.4, work=poisoned_workspace(grid)) == expected


def step_jacobian_at_rest(grid, params, cfg, dt, h=1e-7):
    # forward-difference Jacobian of one Strang step at rho = 1, v = s = 0,
    # in the stacked fields (rho, v, s1, s2)
    n = grid.n_cells
    work, out = Workspace(grid), State(*(np.empty(n) for _ in range(4)))

    def stepped(x):
        s = step(State(*np.split(x, 4)), grid, params, cfg, dt=dt, out=out, work=work)
        return np.concatenate([s.rho, s.v, s.s1, s.s2])

    x0 = np.concatenate([np.ones(n), np.zeros(3 * n)])
    f0 = stepped(x0)
    jac = np.empty((4 * n, 4 * n))
    for j in range(4 * n):
        x = x0.copy()
        x[j] += h
        jac[:, j] = (stepped(x) - f0) / h
    return jac


@pytest.mark.parametrize("n", [64, 65])
def test_strang_step_is_stable_at_the_compute_dt_step(n):
    # linearized per mode, the stiff part of the step is a 2x2 map of
    # det exp(-dt/(tau rho)), stable iff dt K sigma^2/rho <= 2 coth(dt/(2 tau rho)):
    # the fast-wave step lies inside (coth(x) >= 1/x), so at compute_dt's
    # step no mode grows faster than the open boundary's own slow mode (a
    # rate of about 0.007-0.009 here), for tau from the fast-wave regime
    # (1e-1) to far below dr^2 rho/K (0.04).  Where run steps with Strang at
    # rest (tau 1e-1 here), 6x that step blows up
    grid = RadialGrid(r_max=21.0, n_cells=n)
    rest = equilibrium_state(n)
    strang_taus = set()
    for tau in (1e-1, 1e-2, 1e-4, 1e-8):
        p = FluidParams(tau=tau)
        for cfl in (0.4, 1.0):
            cfg = SolverConfig(cfl=cfl)
            dt = compute_dt(rest, grid, p, cfl)
            cases = [(1.0, True)]
            if solver._step_rules(rest, grid, p, cfl)[0] == "strang":
                strang_taus.add(tau)
                cases.append((6.0, False))
            for factor, stable in cases:
                radius = np.abs(np.linalg.eigvals(step_jacobian_at_rest(grid, p, cfg, factor * dt))).max()
                rate = math.log(radius) / (factor * dt)
                assert rate <= 0.02 if stable else rate >= 1.0, (tau, cfl, factor, rate)
    assert strang_taus == {1e-1}


def test_step_keeps_equilibrium_bit_exact(grid, params, equilibrium):
    cfg = SolverConfig(t_end=1.0)
    state = equilibrium
    for k in range(200):
        state = step(state, grid, params, cfg, step_idx=k)
    assert np.array_equal(state.rho, equilibrium.rho)
    assert np.array_equal(state.v, equilibrium.v)
    assert np.array_equal(state.s1, equilibrium.s1)
    assert np.array_equal(state.s2, equilibrium.s2)


def test_step_first_order_consistency(grid, params):
    # u(dt) - u - dt * full_rhs(u) = O(dt^2)
    state, _ = gaussian_state(grid, amp=0.01, vamp=0.01)
    cfg = SolverConfig(t_end=1.0)
    full = rhs_full(state, grid, params)

    def defect(dt):
        out = step(state, grid, params, cfg, dt=dt)
        parts = (
            out.rho - state.rho - dt * full[0],
            out.v - state.v - dt * full[1],
            out.s1 - state.s1 - dt * full[2],
            out.s2 - state.s2 - dt * full[3],
        )
        return max(np.max(np.abs(p)) for p in parts)

    d1, d2 = defect(1e-4), defect(5e-5)
    assert d1 / d2 >= 3.0


def test_imex_step_at_tau_above_zero_is_consistent_with_rhs_full(grid, params):
    # u(dt) - u - dt * full_rhs(u) = O(dt^2) for the ARS(2,2,2) step of all
    # four fields too, on a state with every row nonzero (stresses off
    # equilibrium, so the transport and the relaxation both act).  dt is far
    # below tau rho, where a term missing from the stress rows, such as the
    # transport, would leave a defect of order dt that the relaxation's dt^2
    # defect does not hide
    state, _ = gaussian_state(grid, amp=0.01, vamp=0.01)
    cfg = SolverConfig(t_end=1.0)
    full = rhs_full(state, grid, params)

    def defect(dt):
        out = _step_classical(state, grid, params, cfg, dt, 0)
        return max(np.max(np.abs(o - f - dt * k)) for o, f, k in zip(
            (out.rho, out.v, out.s1, out.s2), (state.rho, state.v, state.s1, state.s2), full
        ))

    d1, d2 = defect(1e-6), defect(5e-7)
    assert d1 / d2 >= 3.0


def test_strang_self_convergence_order(grid, params, bump_cfg):
    state = make_initial_data(bump_cfg, grid, params)
    finals = []
    for cfl in (0.4, 0.2, 0.1):
        cfg = SolverConfig(cfl=cfl, t_end=0.1)
        traj = run(state, grid, params, cfg, output_times=[0.1])
        finals.append(traj.snapshots[-1])
    e1 = max(
        np.max(np.abs(getattr(finals[0], f) - getattr(finals[1], f))) for f in ("rho", "v", "s1", "s2")
    )
    e2 = max(
        np.max(np.abs(getattr(finals[1], f) - getattr(finals[2], f))) for f in ("rho", "v", "s1", "s2")
    )
    assert np.log2(e1 / e2) >= 1.5


def test_run_zero_horizon_returns_initial(grid, params, bump_cfg):
    state = make_initial_data(bump_cfg, grid, params)
    traj = run(state, grid, params, SolverConfig(t_end=0.0))
    assert len(traj.snapshots) == 1
    assert np.array_equal(traj.snapshots[0].rho, state.rho)


def test_run_equilibrium_stationary(grid, params, equilibrium):
    traj = run(equilibrium, grid, params, SolverConfig(t_end=0.3, output_every=25))
    for snap in traj.snapshots:
        assert np.array_equal(snap.rho, equilibrium.rho)
        assert np.array_equal(snap.v, equilibrium.v)
    assert np.all(np.diff(traj.times) > 0.0)


def test_run_small_bump_no_blowup(grid, params, bump_cfg):
    state = make_initial_data(bump_cfg, grid, params)
    traj = run(state, grid, params, SolverConfig(t_end=0.5, output_every=1000))
    amp0 = np.max(np.abs(state.rho - 1.0))
    ampT = np.max(np.abs(traj.snapshots[-1].rho - 1.0))
    assert ampT <= 2.0 * amp0


def test_run_mass_conservation_reflect(grid, params, bump_cfg):
    state = make_initial_data(bump_cfg, grid, params)
    cfg = SolverConfig(t_end=0.5, outer_bc="reflect", output_every=500)
    traj = run(state, grid, params, cfg)
    m0 = cell_sum_r2(state.rho, grid)
    mT = cell_sum_r2(traj.snapshots[-1].rho, grid)
    assert abs(mT - m0) <= 1e-12 * m0


def test_eps_continuity(grid, bump_cfg):
    base = FluidParams(tau=0.01, eps=0.0)
    shifted = FluidParams(tau=0.01, eps=1e-8)
    state = make_initial_data(bump_cfg, grid, base)
    out = {}
    for p in (base, shifted):
        traj = run(state, grid, p, SolverConfig(t_end=0.3), output_times=[0.3])
        out[p.eps] = traj.snapshots[-1]
    diff = max(
        np.max(np.abs(getattr(out[0.0], f) - getattr(out[1e-8], f))) for f in ("rho", "v", "s1", "s2")
    )
    assert diff <= 1e-6


def test_step_aborts_on_nan(grid, params, equilibrium):
    state = equilibrium.copy()
    state.v[5] = np.nan
    with pytest.raises(NumericalAbort):
        step(state, grid, params, SolverConfig(t_end=1.0), dt=1e-3)


def test_step_aborts_on_vacuum(grid, params):
    n = grid.n_cells
    rho = np.ones(n)
    v = np.zeros(n)
    rho[40:60] = 1e-3  # huge pressure gradient, then an absurd forced step
    state = State(rho, v, np.zeros(n), np.zeros(n))
    with pytest.raises(NumericalAbort) as err:
        step(state, grid, params, SolverConfig(t_end=1.0), dt=50.0)
    assert err.value.cell is not None


def test_check_passes_a_huge_finite_state(grid):
    # the sum of squares overflows; the exact test finds nothing wrong
    n = grid.n_cells
    _check((np.ones(n), np.zeros(n), np.full(n, 1e200), np.full(n, -1e200)), 4, "rk2 stage 1")


def test_check_raises_no_floating_point_error(grid):
    # the sum of squares of a huge finite state overflows silently, under any
    # numpy error state
    n = grid.n_cells
    fields = (np.ones(n), np.full(n, 1e200), np.full(n, 1e200), np.full(n, -1e200))
    with np.errstate(all="raise"):
        _check(fields, 4, "rk2 stage 1")
        fields[3][3] = np.inf
        with pytest.raises(NumericalAbort, match="^non-finite field after rk2 stage 1 at step 4, cell 3$"):
            _check(fields, 4, "rk2 stage 1")


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("name", ["rho", "v", "s1", "s2"])
def test_check_names_the_non_finite_cell(grid, name, value):
    for cell in (0, grid.n_cells // 2, grid.n_cells - 1):
        state = equilibrium_state(grid.n_cells)
        getattr(state, name)[cell] = value
        with pytest.raises(NumericalAbort) as err:
            _check((state.rho, state.v, state.s1, state.s2), 7, "rk2 stage 2")
        assert str(err.value) == f"non-finite field after rk2 stage 2 at step 7, cell {cell}"
        assert err.value.step == 7 and err.value.cell == cell


@pytest.mark.parametrize("value, text", [(0.0, "0"), (-1e-300, "-1e-300")], ids=["zero", "negative"])
def test_check_names_the_non_positive_density(grid, value, text):
    for cell in (0, grid.n_cells // 2, grid.n_cells - 1):
        state = equilibrium_state(grid.n_cells)
        state.rho[cell] = value
        with pytest.raises(NumericalAbort) as err:
            _check((state.rho, state.v, state.s1, state.s2), 2, "step")
        assert str(err.value) == f"rho = {text} <= 0 after step at step 2, cell {cell}"
        assert err.value.step == 2 and err.value.cell == cell


def test_classical_stage_checks_name_the_cell():
    # the ARS stages check the stage values they computed, the transported
    # stresses included, which the tau = 0 stage then replaces by eq(v)
    grid = RadialGrid(r_max=21.0, n_cells=200)
    p = FluidParams(tau=0.0)
    n = grid.n_cells
    rho = np.ones(n)
    rho[40:60] = 1e-3
    state = State(rho, np.zeros(n), np.zeros(n), np.zeros(n))
    with pytest.raises(NumericalAbort) as err:
        _step_classical(state, grid, p, SolverConfig(), 5.0, 3)
    assert str(err.value) == "rho = -0.491 <= 0 after imex stage 1 at step 3, cell 39"
    assert err.value.step == 3 and err.value.cell == 39
    state = equilibrium_state(n)
    state.v[50] = np.nan
    with pytest.raises(NumericalAbort) as err:
        _step_classical(state, grid, p, SolverConfig(), 1e-3, 3)
    # the mass flux carries the NaN to cell 49
    assert str(err.value) == "non-finite field after imex stage 1 at step 3, cell 49"
    assert err.value.step == 3 and err.value.cell == 49
    state = equilibrium_state(n)
    state.s1[70] = np.nan
    with pytest.raises(NumericalAbort) as err:
        _step_classical(state, grid, p, SolverConfig(), 1e-3, 3)
    # the upwind transport carries the NaN to cell 69
    assert str(err.value) == "non-finite field after imex stage 1 at step 3, cell 69"
    assert err.value.step == 3 and err.value.cell == 69


def test_classical_equilibrium_stationary(grid):
    p = FluidParams(tau=0.0)
    n = grid.n_cells
    traj = run_classical(equilibrium_state(n), grid, p, SolverConfig(t_end=0.2, output_every=100))
    for snap in traj.snapshots:
        assert np.array_equal(snap.rho, np.ones(n))
        assert np.array_equal(snap.v, np.zeros(n))


def test_classical_linear_velocity_has_no_viscous_force(grid):
    # v = c r makes both Newtonian stresses constant, so the momentum equation
    # reduces to pure convection away from the boundary stencils
    p = FluidParams(tau=0.0, mu=0.8, lambda_=1.7)
    c = 0.1
    n = grid.n_cells
    v = c * grid.centers
    drho, dv, _, _ = classical_rhs(State(np.ones(n), v, np.zeros(n), np.zeros(n)), grid, p)
    expected = -v * c  # -v dv/dr with P constant
    assert np.allclose(dv[1:], expected[1:], atol=1e-13)


def test_classical_viscous_decay(grid):
    p = FluidParams(tau=0.0)
    cfg = SolverConfig(t_end=0.5, output_every=1000)
    init = make_initial_data(
        InitConfig(bump_amp=0.0, bump_center=5.0, bump_width=0.7, vel_amp=0.02), grid, p
    )
    traj = run_classical(init, grid, p, cfg)
    assert np.linalg.norm(traj.snapshots[-1].v) < np.linalg.norm(init.v)


def test_classical_ignores_initial_stresses(grid, bump_cfg):
    # the classical system has no stress unknowns: run_classical starts from
    # the Newtonian values of the initial velocity whatever s1, s2 hold
    p = FluidParams(tau=0.0)
    cfg = SolverConfig(t_end=0.05, output_every=1)
    init = make_initial_data(bump_cfg, grid, p)
    perturbed = init.copy()
    perturbed.s1 = perturbed.s1 + 0.3
    perturbed.s2 = -2.0 * perturbed.s2 + np.linspace(0.0, 1.0, grid.n_cells)
    a, b = run_classical(init, grid, p, cfg), run_classical(perturbed, grid, p, cfg)
    assert len(a.snapshots) == len(b.snapshots) > 2
    assert a.dt_history == b.dt_history
    for sa, sb in zip(a.snapshots, b.snapshots):
        for f in ("rho", "v", "s1", "s2"):
            assert np.array_equal(getattr(sa, f), getattr(sb, f))


@pytest.mark.parametrize("output_times", [None, [0.01, 0.03, 0.05]], ids=["output_every", "output_times"])
def test_run_at_tau_zero_is_run_classical_bit_for_bit(grid, bump_cfg, output_times):
    p = FluidParams(tau=0.0)
    state = make_initial_data(InitConfig(**{**vars(bump_cfg), "stress_perturb_amp": 0.5}), grid, FluidParams())
    cfg = SolverConfig(t_end=0.05, output_every=1)
    got = run(state, grid, p, cfg, output_times)
    # run_classical ignores params.tau
    for classical in (p, FluidParams(tau=1e-2)):
        want = run_classical(state, grid, classical, cfg, output_times)
        assert got.dt_history == want.dt_history and len(got.dt_history) > 0
        assert len(got.snapshots) == len(want.snapshots) > 2
        assert all(same_state(a, b) for a, b in zip(got.snapshots, want.snapshots))


@pytest.mark.parametrize("integrate", [run, run_classical], ids=["relaxed", "classical"])
@pytest.mark.parametrize("n_state", [32, 128])
def test_run_refuses_a_state_not_of_the_grids_length(integrate, n_state):
    grid = RadialGrid(r_max=11.0, n_cells=64)
    p = FluidParams(tau=0.01 if integrate is run else 0.0)
    seen = []
    with pytest.raises(ValueError, match=f"^initial state has {n_state} values per field for a grid of 64 cells$"):
        integrate(equilibrium_state(n_state), grid, p, SolverConfig(t_end=0.05), on_snapshot=seen.append)
    assert seen == []


@pytest.mark.parametrize("eps", [0.0, 0.1])
@pytest.mark.parametrize("outer_bc", ["extrapolate", "reflect"])
def test_rhs_full_at_tau_zero_is_classical_rhs_bit_for_bit(grid, outer_bc, eps):
    # one right-hand side for every tau >= 0: at tau = 0 rhs_full gives the
    # classical rows, which classical_rhs gives whatever tau its params
    # carry, in a fresh workspace and in a poisoned one
    state = rough_state(grid.n_cells)
    want = classical_rhs(state, grid, FluidParams(tau=1e-2, eps=eps), outer_bc)
    for work in (None, poisoned_workspace(grid, outer_bc)):
        got = rhs_full(state, grid, FluidParams(tau=0.0, eps=eps), outer_bc, work=work)
        assert len(got) == 4
        assert all(same_bits(a, b) for a, b in zip(got, want))


def test_step_refuses_tau_zero(grid, equilibrium):
    with pytest.raises(ValueError, match="^step requires tau > 0; use run for tau = 0$"):
        step(equilibrium, grid, FluidParams(tau=0.0), SolverConfig(), dt=1e-3)


def test_relax_substep_refuses_tau_zero(grid, equilibrium):
    with pytest.raises(ValueError, match="^relax_substep requires tau > 0; use run for tau = 0$"):
        relax_substep(equilibrium, 1e-3, grid, FluidParams(tau=0.0))


def test_rhs_nonstiff_refuses_production_at_tau_zero():
    # the production divides by tau rho; it is refused before the workspace
    # is touched, while the transport-only rows stay available at tau = 0
    grid = RadialGrid(r_max=3.0, n_cells=16)
    p = FluidParams(tau=0.0)
    work = Workspace(grid)
    for row in work.k:
        row.fill(7.0)
    message = "^rhs_nonstiff with include_production=True requires tau > 0; use rhs_full for tau = 0$"
    with pytest.raises(ValueError, match=message):
        rhs_nonstiff(equilibrium_state(16), grid, p, work=work)
    assert all((row == 7.0).all() for row in work.k)
    rows = rhs_nonstiff(equilibrium_state(16), grid, p, include_production=False)
    assert all((row == 0.0).all() for row in rows)


def test_compute_dt_classical_is_the_acoustic_step_bit_for_bit(grid):
    # the viscous term is implicit, so the acoustic CFL step alone is the
    # rule, rounded as the rule rounds: cfl times the step
    p = FluidParams(tau=0.0)
    rest = compute_dt_classical(equilibrium_state(grid.n_cells), grid, p, 0.4)
    assert rest == 0.4 * (grid.dr / math.sqrt(1.4))
    assert rest > 10.0 * 0.4 * grid.dr**2 / (4.0 / 3.0 + 1.0)  # the explicit parabolic bound
    rng = np.random.default_rng(23)
    n = grid.n_cells
    for _ in range(4):
        rho, v = rng.uniform(0.8, 1.2, size=n), rng.uniform(-0.3, 0.3, size=n)
        state = State(rho, v, np.zeros(n), np.zeros(n))
        expected = 0.4 * (grid.dr / float((np.abs(v) + np.sqrt(pressure_prime(rho, p))).max()))
        assert compute_dt_classical(state, grid, p, 0.4) == expected
        assert compute_dt_classical(state, grid, p, 0.4, work=poisoned_workspace(grid)) == expected


def test_compute_dt_classical_at_eps_zero_is_the_acoustic_step_bit_for_bit(grid):
    # at tau > 0 and eps = 0 the stress transport speed |v| never exceeds
    # |v| + sqrt(P'), so the general rule gives the acoustic step's bits;
    # one ulp moves the maximum of one state only now and then, so try many
    rng = np.random.default_rng(29)
    n = grid.n_cells
    for tau in (1e-2, 1e-4):
        p = FluidParams(tau=tau, eps=0.0)
        for _ in range(16):
            rho, v = rng.uniform(0.8, 1.2, size=n), rng.uniform(-0.3, 0.3, size=n)
            state = State(rho, v, np.zeros(n), np.zeros(n))
            expected = 0.4 * (grid.dr / float((np.abs(v) + np.sqrt(pressure_prime(rho, p))).max()))
            assert compute_dt_classical(state, grid, p, 0.4) == expected
            assert compute_dt_classical(state, grid, p, 0.4, work=poisoned_workspace(grid)) == expected


def test_compute_dt_classical_counts_the_stress_transport_speed_at_tau_above_zero(grid):
    # a relaxed run that steps with ARS(2,2,2) transports its stresses at
    # v - eps explicitly, so |v - eps| bounds its step where it exceeds
    # |v| + sqrt(P'); at tau = 0 each stage replaces the transported
    # stresses by eq(v), so the transport bounds nothing and eps is ignored
    rest = equilibrium_state(grid.n_cells)
    for tau, want in ((1e-4, grid.dr / 3.0), (0.0, grid.dr / math.sqrt(1.4))):
        p = FluidParams(tau=tau, eps=3.0)
        assert compute_dt_classical(rest, grid, p, 0.4) == 0.4 * want
        assert compute_dt_classical(rest, grid, p, 0.4, work=poisoned_workspace(grid)) == 0.4 * want


def jacobian_at_rest(rows, n, h=1e-6, fields=2):
    # central-difference Jacobian of rows(rho, v, ...) -> (rho row, v row, ...)
    # in the first `fields` of (rho, v, s1, s2) at rest, rho = 1 and the rest
    # 0; the classical stresses are pinned to eq(v), so (rho, v) is the whole
    # classical state
    x0 = np.concatenate([np.ones(n), np.zeros((fields - 1) * n)])
    jac = np.empty((fields * n, fields * n))
    for j in range(fields * n):
        cols = []
        for sign in (1.0, -1.0):
            x = x0.copy()
            x[j] += sign * h
            cols.append(np.concatenate(rows(*np.split(x, fields))))
        jac[:, j] = (cols[0] - cols[1]) / (2.0 * h)
    return jac


@pytest.mark.parametrize("outer_bc", ["extrapolate", "reflect"])
@pytest.mark.parametrize("n", [64, 65])
def test_classical_step_is_heun_stable_at_cfl_one(n, outer_bc):
    # the momentum row's viscous term is a central difference of central
    # differences, the stride-2 Laplacian of radius K/(rho dr^2).  The
    # baseline steps it implicitly (ARS(2,2,2)) at the acoustic cfl = 1 step,
    # where dt K/(rho dr^2) is about 25, 12 times Heun's real limit 2.  No mode
    # of the step's amplification may grow faster than the operator's own
    # fastest mode, exp(z) with z = max Re(lambda) dt, up to the scheme's
    # third-order local error: for real z > 0 the ARS(2,2,2) amplification
    # (1 + (1 - 2 gamma) z)/(1 - gamma z)^2 exceeds exp(z) by about 0.04 z^3.
    # With a reflecting wall z is positive (0.13 here) and does not shrink
    # with dt
    grid = RadialGrid(r_max=6.0, n_cells=n)
    p = FluidParams(tau=0.0)
    viscous_radius = (4.0 * p.mu / 3.0 + p.lambda_) / grid.dr**2
    dt = compute_dt_classical(equilibrium_state(n), grid, p, 1.0)
    assert dt * viscous_radius > 20.0
    cfg = SolverConfig(cfl=1.0, outer_bc=outer_bc)
    zero = np.zeros(n)

    def rhs_rows(rho, v):
        return classical_rhs(State(rho, v, zero, zero), grid, p, outer_bc)[:2]

    def step_rows(rho, v):
        stepped = _step_classical(State(rho, v, zero, zero), grid, p, cfg, dt, 0)
        return stepped.rho, stepped.v

    lam = np.linalg.eigvals(jacobian_at_rest(rhs_rows, n))
    assert np.abs(lam).max() <= 1.05 * viscous_radius
    amplification = np.linalg.eigvals(jacobian_at_rest(step_rows, n))
    z = max(lam.real.max() * dt, 0.0)
    assert np.abs(amplification).max() <= math.exp(z) * (1.0 + z**3) + 1e-9


@pytest.mark.xfail(
    strict=True,
    reason="the reflecting outer wall's ghost closure gives the operator at rest a growing mode (ROADMAP item 1)",
)
@pytest.mark.parametrize("tau", [0.0, 1e-1, 1e-2, 1e-4], ids=["classical", "1e-1", "1e-2", "1e-4"])
@pytest.mark.parametrize("n", [64, 65])
def test_reflecting_wall_has_no_growing_mode_at_rest(n, tau):
    # the state at rest is an equilibrium of both systems, and nothing in the
    # model grows there: the largest real part of the eigenvalues of the
    # right-hand side's Jacobian may not exceed rounding
    grid = RadialGrid(r_max=6.0, n_cells=n)
    p = FluidParams(tau=tau)
    zero = np.zeros(n)
    if tau == 0.0:
        jac = jacobian_at_rest(lambda rho, v: classical_rhs(State(rho, v, zero, zero), grid, p, "reflect")[:2], n)
    else:
        jac = jacobian_at_rest(lambda *fields: rhs_full(State(*fields), grid, p, "reflect"), n, fields=4)
    assert np.linalg.eigvals(jac).real.max() <= 1e-10


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the reflecting outer wall's ghost closure lets the wall cells' spurious mode grow (ROADMAP item 1)",
)
@pytest.mark.parametrize("n", [400, 800])
def test_reflecting_run_of_the_acceptance_pulse_decays_by_t_12(n):
    # the criterion-6 pulse between two walls at tau = 0 (ARS(2,2,2)): by
    # t = 12 max |rho - 1| is below its initial value (about 0.01).  Only
    # the end is bounded: spherical focusing at r = 1 lifts it above that
    # early on (0.025 near t = 2.5 at both n)
    grid = RadialGrid(r_max=21.0, n_cells=n)
    p = FluidParams(tau=0.0)
    initial = make_initial_data(InitConfig(bump_amp=0.01, bump_center=7.0, bump_width=1.0, vel_amp=0.01), grid, p)
    traj = run(initial, grid, p, SolverConfig(t_end=12.0, outer_bc="reflect"), np.array([0.0, 12.0]))
    assert traj.times[-1] == 12.0
    assert np.abs(traj.snapshots[-1].rho - 1.0).max() < np.abs(initial.rho - 1.0).max()


def dense_columns(apply, n):
    # the matrix of the linear map apply, column by column from the unit
    # vectors: no band structure assumed
    cols = np.empty((n, n))
    for j in range(n):
        unit = np.zeros(n)
        unit[j] = 1.0
        cols[:, j] = apply(unit)
    return cols


def dense_viscous_operator(grid, p, outer_bc, weight):
    # G W E column by column: E = eq, W = diag(weight), G the stress
    # divergence of the momentum row
    n, scratch = grid.n_cells, Workspace(grid, outer_bc)

    def apply(u):
        s1, s2 = equilibrium_stress(u, grid, p)
        return _stress_divergence(np.zeros(n), weight * s1, weight * s2, grid, scratch)

    return dense_columns(apply, n)


@pytest.mark.parametrize("outer_bc", ["extrapolate", "reflect"])
@pytest.mark.parametrize("n", [8, 9, 10, 11, 12, 800, 801])
def test_probed_bands_reproduce_the_viscous_term(n, outer_bc):
    # every residue of n mod 5.  The column-by-column matrix reads each
    # entry through the same closure and stencil as the comb probe, and a
    # comb meets each row's stencil at one cell, so the bands are its
    # diagonals bit for bit, for a random weight at tau > 0 and W = 1 at
    # tau = 0.  One workspace serves every call, across (mu, lambda) and
    # across tau = 0 and tau > 0, so a stale cached E c_k or tau = 0 band
    # set shows
    grid = RadialGrid(r_max=21.0, n_cells=n)
    rng = np.random.default_rng(n)
    work = poisoned_workspace(grid, outer_bc)
    default, other = FluidParams(tau=0.0), FluidParams(tau=0.0, mu=0.8, lambda_=1.7)
    calls = [(default, 0.0), (default, 1e-3), (other, 1e-3), (other, 0.0), (other, 1e-2), (default, 0.0)]
    for p, tau in calls:
        weight = rng.uniform(0.1, 1.0, n) if tau > 0.0 else np.ones(n)
        bands = _viscous_bands(grid, replace(p, tau=tau), work, weight)
        dense = dense_viscous_operator(grid, p, outer_bc, weight)
        # A is pentadiagonal
        assert not np.triu(dense, 3).any() and not np.tril(dense, -3).any()
        for band, offset in zip(bands, range(-2, 3)):
            inside = slice(max(-offset, 0), n - max(offset, 0))
            assert same_bits(band[inside], np.diagonal(dense, offset).copy()), (p, tau, offset)
            # entries outside the matrix are 0
            assert not band[: max(-offset, 0)].any() and not band[n - max(offset, 0) :].any()


SOLVE_CASES = [
    (n, outer_bc, tau)
    for tau in (0.0, 1e-2, 1e-4, 1e-8, 1e-300)
    for n in (8, 9, 800, 801)
    for outer_bc in ("extrapolate", "reflect")
]


@pytest.mark.parametrize(
    "n, outer_bc, tau",
    SOLVE_CASES,
    ids=[f"{n}-{bc}" + (f"-tau-{tau:.0e}" if tau else "") for n, bc, tau in SOLVE_CASES],
)
def test_implicit_stage_solve_matches_a_dense_solve(n, outer_bc, tau):
    # rho v = rho v* + h G s, s = s* + h (eq(v) - s)/(tau rho) for random
    # admissible rho, with h from far below to the cfl = 1 step:
    # s = a s* + W E v, a = tau rho/(tau rho + h), W = h/(tau rho + h), and
    # (diag(rho) - h G W E) v = rho v* + h G(a s*), with the stress
    # divergence G = (G1, G2) and the strain map E = eq = (E1, E2) each built
    # densely from unit vectors.  At tau = 0, a = 0 and W = 1
    grid = RadialGrid(r_max=21.0, n_cells=n)
    p = FluidParams(tau=tau)
    rng = np.random.default_rng(n + 1)
    work = poisoned_workspace(grid, outer_bc)
    dt = compute_dt_classical(equilibrium_state(n), grid, p, 1.0)

    def close(got, want):
        return np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    scratch, zero = Workspace(grid, outer_bc), np.zeros(n)
    e1 = dense_columns(lambda u: equilibrium_stress(u, grid, p)[0], n)
    e2 = dense_columns(lambda u: equilibrium_stress(u, grid, p)[1], n)
    g1 = dense_columns(lambda u: _stress_divergence(np.zeros(n), u, zero, grid, scratch), n)
    g2 = dense_columns(lambda u: _stress_divergence(np.zeros(n), zero, u, grid, scratch), n)
    for h in (1e-4 * dt, 1e-2 * dt, dt):
        rho, vstar = rng.uniform(0.5, 1.5, size=n), rng.standard_normal(n)
        s1star, s2star = rng.standard_normal(n), rng.standard_normal(n)
        keep, weight = tau * rho / (tau * rho + h), h / (tau * rho + h)
        gwe = g1 @ (weight[:, None] * e1) + g2 @ (weight[:, None] * e2)
        load = g1 @ (keep * s1star) + g2 @ (keep * s2star)
        v = np.linalg.solve(np.diag(rho) - h * gwe, rho * vstar + h * load)
        out = State(*(np.full(n, np.nan) for _ in range(4)))
        _implicit_stage((rho, vstar, s1star, s2star), h, grid, p, work, out)
        assert close(out.v, v), h
        assert close(out.s1, keep * s1star + weight * (e1 @ v)), h
        assert close(out.s2, keep * s2star + weight * (e2 @ v)), h
        if tau == 1e-300:
            # no step divides by tau: the stage is finite and is the tau = 0
            # stage, s = eq(v), to rounding
            classical = FluidParams(tau=0.0)
            want = State(*(np.empty(n) for _ in range(4)))
            _implicit_stage((rho, vstar, s1star, s2star), h, grid, classical, Workspace(grid, outer_bc), want)
            assert all(np.isfinite(f).all() for f in (out.v, out.s1, out.s2))
            assert np.abs(out.v - want.v).max() <= 1e-14 * np.abs(want.v).max(), h
            for got, eq in zip((out.s1, out.s2), equilibrium_stress(want.v, grid, classical)):
                assert np.abs(got - eq).max() <= 1e-14 * np.abs(eq).max(), h


def row_by_row_solve(lo2, lo1, diag, up1, up2, f):
    # _solve_pentadiagonal's elimination one row per pass, in the same
    # arithmetic and order: (x, u0, u1), the reference bits
    n = len(f)
    x, u0, u1 = [0.0] * n, [0.0] * n, [0.0] * n
    p0, p1, p2, py = q0, q1, q2, qy = 1.0, 0.0, 0.0, 0.0
    for i, (e, c, d, a, b, y) in enumerate(zip(*(band.tolist() for band in (lo2, lo1, diag, up1, up2, f)))):
        m2 = e / p0
        m1 = (c - m2 * p1) / q0
        d = d - m2 * p2 - m1 * q1
        a = a - m1 * q2
        y = y - m2 * py - m1 * qy
        u0[i], u1[i], x[i] = d, a, y
        p0, p1, p2, py, q0, q1, q2, qy = q0, q1, q2, qy, d, a, b, y
    x1 = x2 = 0.0
    for i in reversed(range(n)):
        x1, x2 = (x[i] - u1[i] * x1 - float(up2[i]) * x2) / u0[i], x1
        x[i] = x1
    return np.array(x), np.array(u0), np.array(u1)


@pytest.mark.parametrize("n", [8, 9, 10, 11, 800, 801])
def test_banded_solve_matches_row_by_row_elimination_and_a_dense_solve(n):
    # odd n leave a last row after the loop's pairs.  The diagonal dominates,
    # so no pivot is needed; the entries outside the matrix are random too,
    # and ignored
    rng = np.random.default_rng(n)
    lo2, lo1, up1, up2, f = (rng.standard_normal(n) for _ in range(5))
    diag = (np.abs(lo2) + np.abs(lo1) + np.abs(up1) + np.abs(up2) + 1.0) * rng.choice([-1.0, 1.0], size=n)
    x, u0, u1 = (np.full(n, np.nan) for _ in range(3))
    _solve_pentadiagonal(lo2, lo1, diag, up1, up2, f, x, u0, u1)
    assert all(same_bits(got, want) for got, want in zip((x, u0, u1), row_by_row_solve(lo2, lo1, diag, up1, up2, f)))
    dense = np.diag(diag) + np.diag(lo1[1:], -1) + np.diag(lo2[2:], -2) + np.diag(up1[:-1], 1) + np.diag(up2[:-2], 2)
    want = np.linalg.solve(dense, f)
    assert np.abs(x - want).max() <= 1e-12 * np.abs(want).max()


CRITERION_6_PULSE = InitConfig(bump_amp=0.01, bump_center=7.0, bump_width=1.0, vel_amp=0.01)


def classical_pulse_run(n, cfl, t_end, n_outputs=10):
    grid = RadialGrid(r_max=21.0, n_cells=n)
    p = FluidParams(tau=0.0)
    cfg = SolverConfig(t_end=t_end, cfl=cfl, n_outputs=n_outputs, output_every=10**6)
    return run_classical(make_initial_data(CRITERION_6_PULSE, grid, p), grid, p, cfg), grid


def field_distance(a, b, grid):
    return math.sqrt(weighted_l2_sq(a.rho - b.rho, grid)) + math.sqrt(weighted_l2_sq(a.v - b.v, grid))


def test_classical_step_is_second_order_in_time():
    # self-convergence on the criterion-6 pulse at n = 800: the sup-in-time
    # distance between runs at cfl 0.4 / 0.2 / 0.1 falls by about 4 per halving
    runs = [classical_pulse_run(800, cfl, 0.1) for cfl in (0.4, 0.2, 0.1)]
    grid = runs[0][1]
    gaps = [
        max(field_distance(a, b, grid) for a, b in zip(coarse.snapshots, fine.snapshots, strict=True))
        for (coarse, _), (fine, _) in zip(runs, runs[1:])
    ]
    assert 3.0 <= gaps[0] / gaps[1] <= 5.0, gaps


def explicit_classical_baseline(initial, grid, p, cfl, t_end):
    # the classical system stepped explicitly: Heun on classical_rhs at
    # cfl min(acoustic step, dr^2 rho_min / K), the stride-2 viscous
    # operator's stability bound
    n = grid.n_cells
    zero = np.zeros(n)
    rho, v, t = initial.rho.copy(), initial.v.copy(), 0.0
    viscosity = 4.0 * p.mu / 3.0 + p.lambda_
    while t < t_end - 1e-12:
        acoustic = grid.dr / float((np.abs(v) + np.sqrt(pressure_prime(rho, p))).max())
        dt = min(cfl * min(acoustic, grid.dr**2 * float(rho.min()) / viscosity), t_end - t)
        drho, dv, _, _ = classical_rhs(State(rho, v, zero, zero), grid, p)
        rho1, v1 = rho + dt * drho, v + dt * dv
        drho, dv, _, _ = classical_rhs(State(rho1, v1, zero, zero), grid, p)
        rho, v = 0.5 * (rho + rho1 + dt * drho), 0.5 * (v + v1 + dt * dv)
        t += dt
    return State(rho, v, zero, zero, t)


def test_classical_imex_run_agrees_with_the_explicit_baseline():
    # n = 800 to t = 0.1: the explicit step is dr^2 rho_min / K (about 930
    # steps), the IMEX step the acoustic one (13 steps); the two differ by
    # their time errors, 3.3e-5 here
    traj, grid = classical_pulse_run(800, 0.4, 0.1, n_outputs=0)
    p = FluidParams(tau=0.0)
    explicit = explicit_classical_baseline(make_initial_data(CRITERION_6_PULSE, grid, p), grid, p, 0.4, 0.1)
    assert field_distance(traj.snapshots[-1], explicit, grid) <= 1e-4


def test_classical_steps_grow_like_n_not_n_squared():
    steps = [len(classical_pulse_run(n, 0.4, 1.0, n_outputs=0)[0].dt_history) for n in (400, 800)]
    assert 1.8 <= steps[1] / steps[0] <= 2.2 and steps[1] <= 140, steps


@pytest.mark.parametrize("integrate", [run, run_classical], ids=["relaxed", "classical"])
def test_duplicate_output_times_take_no_zero_step(grid, bump_cfg, integrate):
    p = FluidParams(tau=0.01 if integrate is run else 0.0)
    state = make_initial_data(bump_cfg, grid, FluidParams(tau=0.01))
    cfg = SolverConfig(t_end=0.05)
    unique = integrate(state, grid, p, cfg, output_times=[0.01, 0.02, 0.05])
    repeated = integrate(state, grid, p, cfg, output_times=[0.0, 0.01, 0.02, 0.02, 0.02 + 1e-14, 0.05])
    assert all(dt > 0.0 for dt in repeated.dt_history)
    assert repeated.dt_history == unique.dt_history
    assert len(repeated.snapshots) == len(unique.snapshots) == 4
    for a, b in zip(repeated.snapshots, unique.snapshots):
        assert same_state(a, b)


@pytest.mark.parametrize("integrate", [run, run_classical], ids=["relaxed", "classical"])
def test_run_snapshots_replay_through_allocating_step(grid, bump_cfg, integrate):
    # the driver steps in place between two buffers; every snapshot must be
    # its own copy, equal to a replay through the allocating public step,
    # and initial must come back untouched
    relaxed = integrate is run
    p = FluidParams(tau=0.01 if relaxed else 0.0)
    # about 4 steps either way: the classical step is the acoustic one
    cfg = SolverConfig(t_end=0.006 if relaxed else 0.15, output_every=1)
    initial = make_initial_data(InitConfig(**{**vars(bump_cfg), "stress_perturb_amp": 0.5}), grid, FluidParams())
    before = initial.copy()
    traj = integrate(initial, grid, p, cfg)
    assert same_state(initial, before)
    assert len(traj.snapshots) == len(traj.dt_history) + 1 > 3
    state = initial if relaxed else State(initial.rho, initial.v, *equilibrium_stress(initial.v, grid, p))
    assert same_state(traj.snapshots[0], state)
    for k, (dt, snap) in enumerate(zip(traj.dt_history, traj.snapshots[1:])):
        if relaxed:
            state = step(state, grid, p, cfg, dt=dt, step_idx=k)
        else:
            state = _step_classical(state, grid, p, cfg, dt, k)
        assert same_state(snap, state)


def fused_run_case(grid, tau, eps):
    # a pulse with its stresses off equilibrium, so that every relaxation
    # substep moves them
    p = FluidParams(tau=tau, eps=eps)
    init = make_initial_data(
        InitConfig(bump_amp=0.01, bump_center=5.0, bump_width=0.7, vel_amp=0.01, stress_perturb_amp=0.5),
        grid,
        FluidParams(tau=0.01),
    )
    return p, init


def strang_run(initial, grid, params, cfg, output_times=None):
    # run's driver on explicit Strang's rules, whichever rule run selects:
    # on the fixture's grid it selects ARS(2,2,2) at tau 3e-3 and below
    return solver._advance(initial, grid, params, cfg, output_times, "strang", compute_dt, step)


FUSED_CASES = [(1e-2, 0.0), (1e-4, 0.0), (1e-2, 0.1)]
FUSED_IDS = ["tau-1e-2", "tau-1e-4", "eps-0.1"]


@pytest.mark.parametrize("tau, eps", FUSED_CASES[1:], ids=FUSED_IDS[1:])
def test_run_snapshotting_every_step_is_the_public_step_loop_bit_for_bit(grid, tau, eps):
    # a snapshot closes its step, so a run that snapshots every step relaxes
    # twice per step, as the public step does (tau 1e-2 at eps = 0 is
    # test_run_snapshots_replay_through_allocating_step)
    p, init = fused_run_case(grid, tau, eps)
    cfg = SolverConfig(t_end=0.02, output_every=1)
    traj = strang_run(init, grid, p, cfg)
    assert len(traj.snapshots) == len(traj.dt_history) + 1 > 3
    state = init
    for k, (dt, snap) in enumerate(zip(traj.dt_history, traj.snapshots[1:])):
        state = step(state, grid, p, cfg, dt=dt, step_idx=k)
        assert same_state(snap, state)


@pytest.mark.parametrize("tau, eps", FUSED_CASES, ids=FUSED_IDS)
def test_fused_relaxation_changes_the_final_state_by_rounding_only(grid, tau, eps):
    # between snapshots each step's closing half relaxation is fused into the
    # next step's opening half: exp(-a) exp(-b) = exp(-(a + b)) to rounding.
    # dt reads only rho and v, which the relaxation leaves alone, so the
    # steps are the same
    p, init = fused_run_case(grid, tau, eps)
    every, fused = (strang_run(init, grid, p, SolverConfig(t_end=0.05, output_every=n)) for n in (1, 10**6))
    assert len(fused.snapshots) == 2
    assert len(fused.dt_history) == len(every.dt_history) > 10
    a, b = every.snapshots[-1], fused.snapshots[-1]
    assert a.t == b.t
    for f in ("rho", "v", "s1", "s2"):
        dev = float(np.max(np.abs(getattr(a, f) - getattr(init, f))))
        assert dev > 0.0
        assert float(np.max(np.abs(getattr(a, f) - getattr(b, f)))) <= 1e-11 * dev, f


def test_fused_relaxation_is_exact_in_the_stiff_limit(grid):
    # at tau = 1e-8 every relaxation lands the stresses on equilibrium
    p, init = fused_run_case(grid, 1e-8, 0.0)
    every, fused = (strang_run(init, grid, p, SolverConfig(t_end=0.02, output_every=n)) for n in (1, 10**6))
    assert every.dt_history == fused.dt_history
    assert same_state(every.snapshots[-1], fused.snapshots[-1])


@pytest.mark.parametrize("output_every", [1, 7, 10**6])
def test_run_takes_each_relaxed_step_through_the_public_step(grid, monkeypatch, output_every):
    # one solver.step call per step, whether or not it closes on a snapshot
    p, init = fused_run_case(grid, 1e-2, 0.0)
    real_step, closes = solver.step, []

    def counted(*args, close=True, **kwargs):
        closes.append(close)
        return real_step(*args, close=close, **kwargs)

    monkeypatch.setattr(solver, "step", counted)
    traj = run(init, grid, p, SolverConfig(t_end=0.05, output_every=output_every))
    assert len(closes) == len(traj.dt_history) > 10
    assert sum(closes) == len(traj.snapshots) - 1


def test_open_step_owes_its_closing_half_relaxation(grid, params):
    # a step left open, then relaxed over dt/2, is the full Strang step
    state, _ = gaussian_state(grid)
    cfg = SolverConfig(t_end=1.0)
    dt = 1e-3
    full = step(state, grid, params, cfg, dt=dt, step_idx=3)
    open_ = step(state, grid, params, cfg, dt=dt, step_idx=3, close=False)
    assert same_state(relax_substep(open_, 0.5 * dt, grid, params), full)
    assert not same_bits(open_.s1, full.s1)
    # an owed half is paid by the next step's opening relaxation
    owed = step(state, grid, params, cfg, dt=dt, step_idx=3, owed=0.25 * dt)
    first = relax_substep(state, 0.25 * dt, grid, params)
    paid = step(first, grid, params, cfg, dt=dt, step_idx=3)
    for f in ("rho", "v", "s1", "s2"):
        assert np.allclose(getattr(owed, f), getattr(paid, f), rtol=0.0, atol=1e-15)


@pytest.mark.parametrize(
    "stepper, tau",
    [(step, 0.01), (_step_classical, 0.0), (_step_classical, 0.01)],
    ids=["relaxed", "classical", "relaxed-imex"],
)
def test_step_into_buffers_matches_allocating_step(grid, params, stepper, tau):
    params = replace(params, tau=tau)
    state, _ = gaussian_state(grid)
    if tau == 0.0:
        state = State(state.rho, state.v, *equilibrium_stress(state.v, grid, params))
    before = state.copy()
    cfg = SolverConfig(t_end=1.0, outer_bc="reflect")
    want = stepper(state, grid, params, cfg, 1e-3, 3)
    work = poisoned_workspace(grid, "reflect")
    for _ in range(2):  # the second pass starts from a used workspace
        out = State(*(np.full(grid.n_cells, np.nan) for _ in range(4)))
        got = stepper(state, grid, params, cfg, 1e-3, 3, out=out, work=work)
        assert got is out
        assert same_state(got, want)
        assert same_state(state, before)


@pytest.mark.parametrize("outer_bc", ["extrapolate", "reflect"])
@pytest.mark.parametrize("eps", [0.0, 0.1])
def test_tau_zero_stage_is_exact_and_the_band_cache_follows_tau(grid, eps, outer_bc):
    # at tau = 0 the stage's stresses are a s* + W eq(v) with a = 0 and W = 1:
    # finite input stresses that are not eq(v) change no output bit
    p = FluidParams(tau=0.0, eps=eps)
    cfg = SolverConfig(outer_bc=outer_bc)
    state, _ = gaussian_state(grid)
    newtonian = State(state.rho, state.v, *equilibrium_stress(state.v, grid, p))
    assert not np.array_equal(state.s1, newtonian.s1)
    assert same_state(_step_classical(state, grid, p, cfg, 1e-3, 3), _step_classical(newtonian, grid, p, cfg, 1e-3, 3))
    # one workspace keeps the bands of tau = 0 only: stepped at tau 0, then
    # 1e-4, then 0 again, it gives a fresh workspace's bits at each step
    work = Workspace(grid, outer_bc)
    for tau in (0.0, 1e-4, 0.0):
        q = replace(p, tau=tau)
        got = _step_classical(state, grid, q, cfg, 1e-3, 3, work=work)
        assert same_state(got, _step_classical(state, grid, q, cfg, 1e-3, 3)), tau


@pytest.mark.parametrize("eps", [0.0, 0.1])
@pytest.mark.parametrize(
    "rhs, outer_bc",
    [
        (lambda s, g, p, w: rhs_nonstiff(s, g, p, "reflect", include_production=False, work=w), "reflect"),
        (lambda s, g, p, w: rhs_nonstiff(s, g, p, "reflect", include_production=True, work=w), "reflect"),
        (lambda s, g, p, w: rhs_full(s, g, p, "extrapolate", work=w), "extrapolate"),
        (lambda s, g, p, w: classical_rhs(s, g, p, "extrapolate", work=w), "extrapolate"),
    ],
    ids=["transport", "production", "full", "classical"],
)
def test_rhs_in_workspace_matches_allocating_call(grid, rhs, outer_bc, eps):
    p = FluidParams(tau=0.01, eps=eps)
    state, _ = gaussian_state(grid)
    before = state.copy()
    want = [row.copy() for row in rhs(state, grid, p, None)]
    got = rhs(state, grid, p, poisoned_workspace(grid, outer_bc))
    assert len(got) == 4
    assert all(same_bits(a, b) for a, b in zip(got, want))
    assert same_state(state, before)


def test_one_workspace_serves_states_that_come_and_go(grid):
    # the workspace keeps no view of a caller's array: each call on a second
    # State, allocated after the first was deleted, gives the bits of a call
    # with a fresh workspace, as the calls on the first did
    p = FluidParams(tau=0.01, eps=0.1)
    cfg = SolverConfig(outer_bc="reflect")
    calls = [
        ("reflect", lambda s, w: State(*(row.copy() for row in rhs_nonstiff(s, grid, p, "reflect", work=w)))),
        ("extrapolate", lambda s, w: State(*(row.copy() for row in rhs_full(s, grid, p, "extrapolate", work=w)))),
        ("reflect", lambda s, w: step(s, grid, p, cfg, 1e-3, 0, work=w)),
        ("reflect", lambda s, w: _step_classical(s, grid, p, cfg, 1e-3, 0, work=w)),
    ]
    works = {bc: Workspace(grid, bc) for bc in ("extrapolate", "reflect")}
    first, _ = gaussian_state(grid)
    for bc, call in calls:
        assert same_state(call(first, works[bc]), call(first, None))
    del first
    second, _ = gaussian_state(grid, amp=0.05, vamp=-0.03, center=4.0)
    for bc, call in calls:
        assert same_state(call(second, works[bc]), call(second, None))


@pytest.mark.parametrize("eps", [0.0, 0.1])
@pytest.mark.parametrize("dt_rule", [compute_dt, compute_dt_classical], ids=["relaxed", "classical"])
def test_dt_rule_in_workspace_matches_allocating_call(grid, dt_rule, eps):
    p = FluidParams(tau=0.01, eps=eps)
    state, _ = gaussian_state(grid)
    before = state.copy()
    want = dt_rule(state, grid, p, 0.4)
    work = poisoned_workspace(grid)
    for _ in range(2):  # the second pass starts from a used workspace
        got = dt_rule(state, grid, p, 0.4, work=work)
        assert same_bits(np.float64(got), np.float64(want))
    assert same_state(state, before)


@pytest.mark.parametrize("eps", [0.0, 0.1])
@pytest.mark.parametrize(
    "dt_rule, stepper, tau",
    [
        (compute_dt, step, 0.01),
        (compute_dt, step, 1e-8),
        (compute_dt_classical, _step_classical, 0.0),
        (compute_dt_classical, _step_classical, 1e-8),
    ],
    ids=["relaxed", "relaxed-stiff", "classical", "relaxed-imex"],
)
def test_dt_rule_and_step_allocate_less_than_one_field(dt_rule, stepper, tau, eps):
    # the driver's per-step work: one dt-rule call and one step, both in the
    # run's workspace and into the spare State
    grid = RadialGrid(r_max=21.0, n_cells=6400)
    p = FluidParams(tau=tau, eps=eps)
    init = make_initial_data(InitConfig(bump_amp=0.01, vel_amp=0.01), grid, FluidParams(tau=0.01))
    state = init if tau > 0.0 else State(init.rho, init.v, *equilibrium_stress(init.v, grid, p))
    cfg = SolverConfig(t_end=1.0)
    work, spare = Workspace(grid), State(*(np.empty(grid.n_cells) for _ in range(4)))
    stepper(state, grid, p, cfg, dt_rule(state, grid, p, cfg.cfl, work=work), 0, out=spare, work=work)
    tracemalloc.start()
    try:
        dt = dt_rule(state, grid, p, cfg.cfl, work=work)
        stepper(state, grid, p, cfg, dt, 1, out=spare, work=work)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * grid.n_cells


def fields(state):
    return (state.rho, state.v, state.s1, state.s2)


@pytest.mark.parametrize("outer_bc", ["extrapolate", "reflect"])
@pytest.mark.parametrize("n", [8, 9, 801, 6400])
def test_stepper_buffers_start_on_a_cache_line(monkeypatch, n, outer_bc):
    # dr is small enough at every n for run to step with Strang at tau = 100
    grid = RadialGrid(r_max=2.0, n_cells=n)
    cfg = SolverConfig(t_end=1e-3, outer_bc=outer_bc)
    rest = equilibrium_state(n)
    w = Workspace(grid, outer_bc)
    _step_classical(rest, grid, FluidParams(tau=0.01), cfg, 1e-4, 0, work=w)
    imex, combs = w.imex, w.imex.combs
    buffers = {
        "ghost": w.ghost,
        "face": w.face,
        "cell": w.cell,
        "k": w.k,
        "stress": w.stress,
        "imex": (imex.bands, imex.stage_v, *imex.stage_s, *imex.acc, *imex.solve, *imex.relax, imex.load),
        "combs": (*combs.eq, *combs.weighted, combs.probe, *(g.all for g in combs.ghosted), combs.faces[1].all),
        "_empty_state": fields(solver._empty_state(n)),
    }
    # the state and out that run hands its step rule, under either rule
    for stepper, rule, tau in (("strang", "step", 100.0), ("imex", "_step_classical", 0.0)):
        seen = []
        real = getattr(solver, rule)

        def spy(state, grid, params, cfg, dt, step_idx, out=None, work=None, real=real, seen=seen, **kw):
            seen.append(fields(state) + fields(out))
            return real(state, grid, params, cfg, dt, step_idx, out=out, work=work, **kw)

        monkeypatch.setattr(solver, rule, spy)
        assert run(rest, grid, FluidParams(tau=tau), cfg).stepper == stepper
        assert seen
        buffers[stepper] = [a for arrays in seen for a in arrays]
    for name, arrays in buffers.items():
        assert [a.ctypes.data % 64 for a in arrays] == [0] * len(arrays), name


@pytest.mark.parametrize("outer_bc", ["extrapolate", "reflect"])
@pytest.mark.parametrize(
    "tau, eps, stepper",
    [(0.01, 0.0, "strang"), (0.01, 0.1, "strang"), (0.0, 0.0, "imex"), (1e-3, 0.0, "imex")],
    ids=["strang", "strang-eps", "imex-tau-0", "imex-capped"],
)
def test_run_does_not_depend_on_where_the_initial_fields_start(grid, bump_cfg, outer_bc, tau, eps, stepper):
    # the fields are views starting 8, 16, ..., 56 bytes past a cache line;
    # the reference run starts from contiguous copies
    p = FluidParams(tau=tau, eps=eps)
    init = make_initial_data(bump_cfg, grid, FluidParams(tau=0.01))
    cfg = SolverConfig(t_end=0.2, output_every=2, outer_bc=outer_bc)
    want = run(init.copy(), grid, p, cfg)
    assert want.stepper == stepper and len(want.snapshots) > 2
    n = grid.n_cells
    for offset in range(1, 8):
        shifted = []
        for f in fields(init):
            raw = np.empty(n + 16)
            start = -raw.ctypes.data % 64 // 8 + offset
            view = raw[start : start + n]
            view[...] = f
            assert view.ctypes.data % 64 == 8 * offset
            shifted.append(view)
        got = run(State(*shifted, init.t), grid, p, cfg)
        assert got.dt_history == want.dt_history
        for a, b in zip(got.snapshots, want.snapshots, strict=True):
            assert a.t == b.t
            for x, y in zip(fields(a), fields(b)):
                assert np.array_equal(x.view(np.int64), y.view(np.int64))


@pytest.mark.parametrize("integrate", [run, run_classical], ids=["relaxed", "classical"])
def test_n_outputs_snapshots_fall_on_linspace(grid, bump_cfg, integrate):
    p = FluidParams(tau=0.01 if integrate is run else 0.0)
    state = make_initial_data(bump_cfg, grid, FluidParams(tau=0.01))
    want = np.linspace(0.0, 0.2, 5)
    for every in (1, 7, 50):
        traj = integrate(state, grid, p, SolverConfig(t_end=0.2, output_every=every, n_outputs=4))
        assert same_bits(traj.times, want)
    # an explicit output_times wins over n_outputs
    traj = integrate(state, grid, p, SolverConfig(t_end=0.2, n_outputs=4), output_times=[0.1])
    assert same_bits(traj.times, np.array([0.0, 0.1, 0.2]))


def test_step_rejects_writing_its_input(grid, params, equilibrium):
    with pytest.raises(ValueError):
        step(equilibrium, grid, params, SolverConfig(t_end=1.0), dt=1e-3, out=equilibrium)


@pytest.mark.parametrize("integrate", [run, run_classical], ids=["relaxed", "classical"])
@pytest.mark.parametrize("output_times", [None, [0.01, 0.03, 0.05]], ids=["output_every", "output_times"])
def test_on_snapshot_sees_each_snapshot_as_recorded(grid, bump_cfg, integrate, output_times):
    p = FluidParams(tau=0.01 if integrate is run else 0.0)
    state = make_initial_data(bump_cfg, grid, FluidParams(tau=0.01))
    cfg = SolverConfig(t_end=0.05, output_every=7 if integrate is run else 1)
    seen = []

    def on_snapshot(snap):
        seen.append(snap)

    traj = integrate(state, grid, p, cfg, output_times=output_times, on_snapshot=on_snapshot)
    assert len(seen) == len(traj.snapshots) > 2
    assert all(a is b for a, b in zip(seen, traj.snapshots))
    assert seen[0].t == 0.0 and seen[-1].t == traj.snapshots[-1].t
    # the hook changes nothing of the run
    plain = integrate(state, grid, p, cfg, output_times=output_times)
    assert plain.dt_history == traj.dt_history
    assert all(same_state(a, b) for a, b in zip(plain.snapshots, traj.snapshots, strict=True))


@pytest.mark.parametrize("integrate", [run, run_classical], ids=["relaxed", "classical"])
def test_on_snapshot_exception_ends_the_run(grid, bump_cfg, integrate):
    p = FluidParams(tau=0.01 if integrate is run else 0.0)
    state = make_initial_data(bump_cfg, grid, FluidParams(tau=0.01))
    times = []

    def on_snapshot(snap):
        times.append(snap.t)
        if len(times) == 3:
            raise KeyError("stop after the third snapshot")

    cfg = SolverConfig(t_end=0.05, output_every=2) if integrate is run else SolverConfig(t_end=0.2, output_every=1)
    with pytest.raises(KeyError, match="stop after the third snapshot"):
        integrate(state, grid, p, cfg, on_snapshot=on_snapshot)
    assert len(times) == 3 and times[0] == 0.0 < times[1] < times[2] < cfg.t_end


def test_run_selects_imex_exactly_where_the_parabolic_cap_binds_at_t0(bump_cfg):
    # run's one rule: ARS(2,2,2) at tau = 0 and wherever explicit Strang's
    # step would be the parabolic cap at the initial state, that is where
    # cfl dr^2 rho_min / K exceeds the fast-wave step cfl dr / max_char_speed;
    # explicit Strang elsewhere.  The choice is made once, at t = 0, so a
    # run to t_end = 0 shows it
    chosen = set()
    for r_max, n, eps, init_cfg in ((11.0, 100, 0.0, bump_cfg), (21.0, 800, 0.0, CRITERION_6_PULSE),
                                    (21.0, 800, 0.1, CRITERION_6_PULSE), (21.0, 6400, 0.1, CRITERION_6_PULSE)):
        grid = RadialGrid(r_max=r_max, n_cells=n)
        for tau in (0.0, 1e-1, 1e-2, 3e-3, 1e-3, 3e-4, 1e-4, 1e-6):
            p = FluidParams(tau=tau, eps=eps)
            init = make_initial_data(init_cfg, grid, p)
            traj = run(init, grid, p, SolverConfig(t_end=0.0))
            if tau == 0.0:
                want = "imex"
            else:
                fast = 0.4 * grid.dr / max_char_speed(init.rho, init.v, p)
                cap = 0.4 * (grid.dr**2 * float(init.rho.min()) / (4.0 * p.mu / 3.0 + p.lambda_))
                want = "imex" if cap > fast else "strang"
            assert traj.stepper == want, (n, eps, tau)
            chosen.add(want)
    assert chosen == {"imex", "strang"}


def test_benchmark_members_keep_their_step_rules():
    # perfbench's workloads: the sweep (n = 800) steps every member with
    # ARS(2,2,2), as the baseline, in as many steps as it (run alone would
    # step tau 1e-2 and 1e-3 with explicit Strang, in 160 and 490 steps); the
    # large run (n = 51200) and the eps = 0.1 command-line run (n = 6400) at
    # tau 1e-2 go through run and stay on explicit Strang
    grid = RadialGrid(r_max=21.0, n_cells=800)
    res = tau_sweep(SolverConfig(t_end=0.1), CRITERION_6_PULSE, grid, FluidParams(), [1e-2, 1e-3, 1e-4], n_outputs=10)
    assert res.steps == [20, 20, 20] and res.baseline_steps == 20
    for n, eps in ((51200, 0.0), (6400, 0.1)):
        grid = RadialGrid(r_max=21.0, n_cells=n)
        p = FluidParams(tau=1e-2, eps=eps)
        assert run(make_initial_data(CRITERION_6_PULSE, grid, p), grid, p, SolverConfig(t_end=0.0)).stepper == "strang"


def test_imex_run_at_eps_is_finite_and_meets_strang_as_cfl_falls():
    # tau 1e-4, eps 0.1 at n = 200, where run selects ARS(2,2,2): against
    # explicit Strang at the same cfl, 2.7e-5 apart at cfl 0.1 and 7.7e-6 at
    # cfl 0.05 (the sup-in-time field distance; the pulse's own is 0.56)
    grid = RadialGrid(r_max=21.0, n_cells=200)
    p = FluidParams(tau=1e-4, eps=0.1)
    init = make_initial_data(CRITERION_6_PULSE, grid, p)
    out_times = np.linspace(0.0, 0.1, 6)
    gaps = []
    for cfl in (0.1, 0.05):
        cfg = SolverConfig(t_end=0.1, cfl=cfl)
        imex = run(init, grid, p, cfg, out_times)
        assert imex.stepper == "imex"
        assert all(np.isfinite(getattr(s, f)).all() for s in imex.snapshots for f in ("rho", "v", "s1", "s2"))
        strang = strang_run(init, grid, p, cfg, out_times)
        gaps.append(max(field_distance(a, b, grid) for a, b in zip(imex.snapshots, strang.snapshots, strict=True)))
    assert gaps[1] <= 5e-5 and gaps[1] <= 0.5 * gaps[0], gaps


def test_imex_relaxed_run_replays_through_the_allocating_step(grid):
    # tau 1e-4 on this grid steps with ARS(2,2,2) in all four fields: every
    # snapshot is a replay through the allocating step, the stresses
    # off equilibrium relax, and the state at rest stays there exactly
    p, init = fused_run_case(grid, 1e-4, 0.0)
    cfg = SolverConfig(t_end=0.15, output_every=1)
    traj = run(init, grid, p, cfg)
    assert traj.stepper == "imex"
    assert len(traj.snapshots) == len(traj.dt_history) + 1 > 3
    state = init
    for k, (dt, snap) in enumerate(zip(traj.dt_history, traj.snapshots[1:])):
        state = _step_classical(state, grid, p, cfg, dt, k)
        assert same_state(snap, state)
    eq1, eq2 = equilibrium_stress(init.v, grid, p)
    assert np.abs(init.s1 - eq1).max() > 1e3 * np.abs(state.s1 - equilibrium_stress(state.v, grid, p)[0]).max()
    rest = run(equilibrium_state(grid.n_cells), grid, p, cfg)
    assert rest.stepper == "imex"
    for snap in rest.snapshots:
        assert all(np.array_equal(getattr(snap, f), getattr(rest.snapshots[0], f)) for f in ("rho", "v", "s1", "s2"))


def force_tiles(monkeypatch, n, tiles):
    # a Strang run of n cells steps on the given number of tiles, whatever
    # the host's CPUs
    monkeypatch.setattr(solver, "_usable_cpus", lambda: tiles)
    monkeypatch.setattr(solver, "_TILE_CELLS", n // tiles)
    assert len(solver._tile_bounds(n)) == tiles + 1


def tiled_case(n, eps, outer_bc, output_every):
    # about 20 Strang steps of the fused-relaxation pulse on n cells
    grid = RadialGrid(r_max=11.0, n_cells=n)
    p, init = fused_run_case(grid, 1e-2, eps)
    cfg = SolverConfig(t_end=0.1 if n < 100 else 0.007, output_every=output_every, outer_bc=outer_bc)
    return grid, p, init, cfg


def in_thread(fn):
    # (fn()'s result, None), or (None, the exception it raised); fn runs in a
    # thread of its own, joined with a timeout, so that a tile left waiting
    # fails the test instead of hanging it
    done = []

    def body():
        try:
            done.append((fn(), None))
        except BaseException as e:
            done.append((None, e))

    thread = threading.Thread(target=body)
    thread.start()
    thread.join(timeout=120)
    assert not thread.is_alive()
    return done[0]


@pytest.mark.parametrize("output_every", [1, 1000])
@pytest.mark.parametrize("eps", [0.0, 0.1])
@pytest.mark.parametrize("outer_bc", ["extrapolate", "reflect"])
@pytest.mark.parametrize("n", [48, 801])
def test_tiled_strang_run_is_the_one_tile_run_bit_for_bit(monkeypatch, n, outer_bc, eps, output_every):
    # 2, 3 and 4 tiles of uneven sizes (n = 48 on 4 tiles: 8, 16, 8 and 16
    # cells), more than the host has CPUs, with the interpreter switching
    # threads every microsecond: every snapshot and step is one tile's.
    # output_every 1 closes every step, 1000 fuses every relaxation
    grid, p, init, cfg = tiled_case(n, eps, outer_bc, output_every)
    want = strang_run(init, grid, p, cfg)
    assert len(want.dt_history) > 15
    assert len(want.snapshots) == (len(want.dt_history) + 1 if output_every == 1 else 2)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for tiles in (2, 3, 4):
            force_tiles(monkeypatch, n, tiles)
            got, error = in_thread(lambda: strang_run(init, grid, p, cfg))
            assert error is None
            assert got.dt_history == want.dt_history, tiles
            for a, b in zip(got.snapshots, want.snapshots, strict=True):
                assert same_state(a, b), (tiles, a.t)
    finally:
        sys.setswitchinterval(switch)


def seed_fault(monkeypatch, cell, kernel, call, poison):
    # wrap the solver's kernel (_relax or _flow_rows, whose sixth argument
    # is the workspace): after the call-th call by the workspace that holds
    # cell, poison(args, returned, cell, index of cell in the workspace)
    # writes the fault.  Returns the list of threads that wrote it
    real, calls, seeded = getattr(solver, kernel), {}, []

    def wrapped(*args):
        got = real(*args)
        w = args[5]
        if w.own.start <= cell < w.own.stop:
            calls[id(w)] = calls.get(id(w), 0) + 1
            if calls[id(w)] == call:
                poison(args, got, cell, cell - w.own.start)
                seeded.append(threading.current_thread())
        return got

    monkeypatch.setattr(solver, kernel, wrapped)
    return seeded


def stress_value(value):
    # poison for _relax: its out s1, which spans the grid, holds value at
    # the cell
    def poison(args, got, cell, i):
        args[6][0][cell] = value

    return poison


def vacuum_rows(args, got, cell, i):
    # poison for _flow_rows: a mass row that takes the stage's density far
    # below zero at the cell
    got[0][i] = -1e300


# (kernel, call, poison): the third step's opening relaxation or first
# stage; an inf in s1 meets the upwind coefficient 0 (0 * inf), which numpy
# reports as an invalid value
FAULTS = {
    "nan": ("_relax", 3, stress_value(np.nan)),
    "vacuum": ("_flow_rows", 5, vacuum_rows),
    "warning": ("_relax", 3, stress_value(np.inf)),
    "errstate": ("_relax", 3, stress_value(np.inf)),
    "on_snapshot": None,
}


def run_with_fault(monkeypatch, fault, tiles):
    # (error, seeded, seen) of a Strang run of 801 cells on tiles tiles with
    # fault in cell 798, on the last tile: the exception it raised, the
    # threads that wrote the fault, and the caller's thread with the thread
    # counts before the run, at the first on_snapshot call and after the run
    n, cell = 801, 798
    grid, p, init, cfg = tiled_case(n, 0.0, "reflect", 1 if fault == "on_snapshot" else 1000)
    force_tiles(monkeypatch, n, tiles)
    seeded = seed_fault(monkeypatch, cell, *FAULTS[fault]) if FAULTS[fault] else []
    seen, snaps = {}, []

    def on_snapshot(snap):
        seen.setdefault("first on_snapshot", threading.active_count())
        snaps.append(snap.t)
        if fault == "on_snapshot" and len(snaps) == 3:
            raise KeyError("stop after the third snapshot")

    def go():
        seen["caller"], seen["before"] = threading.current_thread(), threading.active_count()
        try:
            with warnings.catch_warnings(), np.errstate(all="raise" if fault == "errstate" else None):
                if fault == "warning":
                    warnings.simplefilter("error", RuntimeWarning)
                solver._advance(init, grid, p, cfg, None, "strang", compute_dt, step, on_snapshot)
        finally:
            seen["after"] = threading.active_count()

    return in_thread(go)[1], seeded, seen


@pytest.mark.parametrize("fault", list(FAULTS))
def test_a_fault_in_a_worker_tile_reaches_the_caller_as_on_one_tile(monkeypatch, fault):
    # a NaN and a density below zero raise one tile's NumericalAbort; a
    # RuntimeWarning that a filter makes an error, a FloatingPointError
    # under the caller's np.errstate and an exception of on_snapshot reach
    # the caller.  No tile thread outlives the run, and none runs at the
    # first on_snapshot call (where the command line forks its writer)
    want, _, _ = run_with_fault(monkeypatch, fault, 1)
    monkeypatch.undo()
    got, seeded, seen = run_with_fault(monkeypatch, fault, 3)
    kinds = {"warning": RuntimeWarning, "errstate": FloatingPointError, "on_snapshot": KeyError}
    assert type(want) is type(got) is kinds.get(fault, NumericalAbort)
    assert str(got) == str(want)
    if isinstance(want, NumericalAbort):
        assert (got.step, got.cell) == (want.step, want.cell) == (2, want.cell)
        assert want.cell >= 797
    assert seen["after"] == seen["before"] == seen["first on_snapshot"]
    assert all(thread is not seen["caller"] for thread in seeded)
    assert len(seeded) == (0 if fault == "on_snapshot" else 1)


def test_a_tiled_run_frees_its_buffers_when_it_returns(monkeypatch):
    # with the cyclic garbage collector off, nothing of a tiled run outlives
    # it but what it returns: the tiles' workspaces, the two States and the
    # shared stresses (about 24 fields) are freed by reference counting
    n = 801
    grid, p, init, cfg = tiled_case(n, 0.0, "extrapolate", 1000)
    force_tiles(monkeypatch, n, 3)
    strang_run(init, grid, p, cfg)
    enabled = gc.isenabled()
    gc.disable()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        traj = strang_run(init, grid, p, cfg)
        kept = sum(getattr(s, f).nbytes for s in traj.snapshots for f in ("rho", "v", "s1", "s2"))
        left = tracemalloc.get_traced_memory()[0] - before - kept
    finally:
        tracemalloc.stop()
        if enabled:
            gc.enable()
    assert len(traj.snapshots) == 2
    assert left < 8 * n
