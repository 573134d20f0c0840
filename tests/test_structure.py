from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relaxns.errors import DomainError, StructureError
from relaxns.model import FluidParams, pressure_prime
from relaxns.structure import (
    A1_SYMMETRY_TOL,
    FORM_TOL,
    SPEEDS_IMAG_TOL,
    StructureAuditReport,
    assemble_a0,
    assemble_a1,
    assemble_b,
    boundary_char_det,
    boundary_matrix,
    char_speeds,
    det4_cofactor,
    max_char_speed,
    max_nonneg_check,
    noncharacteristic_report,
    structure_audit,
)


def test_a0_read_off_entries():
    a0 = assemble_a0(1.0, FluidParams(gamma=2.0, tau=0.1, mu=1.0, lambda_=1.0))
    assert np.allclose(np.diag(a0), [2.0, 1.0, 0.1 / 3.0, 0.1], atol=1e-15)
    a0 = assemble_a0(1.0, FluidParams(gamma=1.4, tau=1.0, mu=0.5, lambda_=2.0))
    assert np.allclose(np.diag(a0), [1.4, 1.0, 2.0 / 3.0, 0.5], atol=1e-15)


def test_a0_positive_eigenvalues_random():
    rng = np.random.default_rng(3)
    for _ in range(200):
        p = FluidParams(
            gamma=rng.uniform(1.1, 2.0),
            mu=rng.uniform(0.1, 2.0),
            lambda_=rng.uniform(0.1, 2.0),
            tau=10.0 ** rng.uniform(-4, 0),
        )
        a0 = assemble_a0(rng.uniform(0.75, 1.25), p)
        assert np.all(np.diag(a0) > 0.0)


def test_a0_requires_relaxed_params():
    with pytest.raises(StructureError):
        assemble_a0(1.0, FluidParams(tau=0.0))
    with pytest.raises(DomainError):
        assemble_a0(-1.0, FluidParams(tau=0.1))


def test_b_requires_r_at_least_one():
    p = FluidParams(tau=0.1)
    assert np.isfinite(assemble_b(1.0, 1.0, p)).all()
    with pytest.raises(DomainError, match="^assemble_b requires r >= 1$"):
        assemble_b(1.0, np.nextafter(1.0, 0.0), p)


def test_a1_boundary_display():
    a1 = assemble_a1(1.0, 0.0, FluidParams(gamma=2.0, tau=0.1, eps=0.0))
    expected = np.array(
        [
            [0.0, 2.0, 0.0, 0.0],
            [2.0, 0.0, -2.0 / 3.0, -1.0],
            [0.0, -2.0 / 3.0, 0.0, 0.0],
            [0.0, -1.0, 0.0, 0.0],
        ]
    )
    assert np.array_equal(a1, expected)


def test_a1_exactly_symmetric_random():
    rng = np.random.default_rng(4)
    for _ in range(100):
        p = FluidParams(
            gamma=rng.uniform(1.1, 2.0),
            tau=10.0 ** rng.uniform(-4, 0),
            eps=rng.uniform(0.0, 0.5),
        )
        a1 = assemble_a1(rng.uniform(0.75, 1.25), rng.uniform(-0.3, 0.3), p)
        assert np.array_equal(a1, a1.T)


def test_a1_shifted_diagonal_entries():
    p = FluidParams(tau=0.2, mu=1.0, lambda_=1.0, eps=0.1)
    a1 = assemble_a1(1.0, 0.3, p)
    assert a1[2, 2] == pytest.approx(0.2 * 1.0 * 0.2 / 3.0, rel=1e-15)
    assert a1[3, 3] == pytest.approx(0.2 * 0.2, rel=1e-15)


def test_b_display_and_scaling():
    p = FluidParams(gamma=2.0, mu=1.0, lambda_=1.0)
    b = assemble_b(1.0, 1.0, p)
    expected = np.zeros((4, 4))
    expected[0, 1] = 4.0
    expected[1, 2] = -2.0
    expected[2, 1] = 2.0 / 3.0
    expected[2, 2] = 1.0 / 3.0
    expected[3, 1] = -2.0
    expected[3, 3] = 1.0
    assert np.allclose(b, expected, atol=1e-15)
    # geometric entries scale like 1/r; relaxation diagonals do not
    b2 = assemble_b(1.0, 2.0, p)
    for i, j in ((0, 1), (1, 2), (2, 1), (3, 1)):
        assert b2[i, j] == pytest.approx(0.5 * b[i, j], rel=1e-15)
    big = assemble_b(1.0, 1e12, p)
    assert abs(big[0, 1]) < 1e-11 and abs(big[1, 2]) < 1e-11
    assert big[2, 2] == b[2, 2] and big[3, 3] == b[3, 3]


def test_char_speeds_antisymmetric_at_rest(params):
    # sorted spectrum at v = 0, eps = 0 pairs up as {-s, 0, 0, s}
    s = char_speeds(1.0, 0.0, params)
    assert np.max(np.abs(s + s[::-1])) < 1e-10


def test_char_speeds_acoustic_limit_for_large_tau():
    devs = []
    for tau in (1e2, 1e4, 1e6):
        p = FluidParams(gamma=1.4, tau=tau)
        s = char_speeds(1.0, 0.0, p)
        devs.append(abs(np.max(np.abs(s)) - np.sqrt(pressure_prime(1.0, p))))
    assert devs[0] > devs[1] > devs[2]
    assert devs[2] < 1e-6


def test_char_speeds_convective_floor():
    rng = np.random.default_rng(5)
    for _ in range(1000):
        p = FluidParams(
            gamma=rng.uniform(1.1, 2.0),
            mu=rng.uniform(0.1, 2.0),
            lambda_=rng.uniform(0.1, 2.0),
            tau=10.0 ** rng.uniform(-4, 0),
            eps=rng.uniform(0.0, 0.5),
        )
        v = rng.uniform(-0.3, 0.3)
        s = char_speeds(rng.uniform(0.75, 1.25), v, p)
        assert np.max(np.abs(s)) >= abs(v)
        assert np.all(np.isreal(s))


def assert_weyl_sandwich(bound, brute, eps):
    # max |s| <= bound <= max |s| + eps, to rounding of the spectral radius
    assert brute * (1.0 - 1e-12) <= bound <= (brute + eps) * (1.0 + 1e-12)


@pytest.mark.parametrize("tau", [1.0, 1e-2, 1e-4, 1e-8])
@pytest.mark.parametrize("eps", [0.0, 0.1, 0.5])
def test_max_char_speed_matches_eigensolve(eps, tau):
    # exact at eps = 0 (eps = 0, tau = 1e-2 is the `params` fixture), an upper
    # bound at most eps above the eigensolve for eps > 0
    params = FluidParams(gamma=1.4, mu=1.0, lambda_=1.0, tau=tau, eps=eps, a_coef=1.0)
    rng = np.random.default_rng(6)
    rho = rng.uniform(0.75, 1.25, size=50)
    v = rng.uniform(-0.3, 0.3, size=50)
    brute = max(np.max(np.abs(char_speeds(r, w, params))) for r, w in zip(rho, v))
    bound = max_char_speed(rho, v, params)
    if eps == 0.0:
        assert bound == pytest.approx(brute, rel=1e-12)
    else:
        assert_weyl_sandwich(bound, brute, eps)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    gamma=st.floats(1.1, 2.0),
    mu=st.floats(0.1, 2.0),
    lambda_=st.floats(0.1, 2.0),
    log_tau=st.floats(-8.0, 0.0),
    eps=st.one_of(st.just(0.0), st.floats(0.0, 0.5)),
    cells=st.lists(st.tuples(st.floats(0.75, 1.25), st.floats(-0.3, 0.3)), min_size=1, max_size=8),
)
def test_max_char_speed_is_a_weyl_bound(gamma, mu, lambda_, log_tau, eps, cells):
    params = FluidParams(gamma=gamma, mu=mu, lambda_=lambda_, tau=10.0**log_tau, eps=eps)
    rho, v = np.array(cells).T
    brute = max(np.max(np.abs(char_speeds(r, w, params))) for r, w in cells)
    assert_weyl_sandwich(max_char_speed(rho, v, params), brute, eps)


def test_char_speeds_split_into_shift_and_cubic():
    # the pencil's spectrum is v - eps and v + the roots of a cubic in rho, an
    # independent check of char_speeds (max_char_speed only bounds it)
    rng = np.random.default_rng(9)
    for _ in range(200):
        p = FluidParams(
            gamma=rng.uniform(1.1, 2.0),
            mu=rng.uniform(0.1, 2.0),
            lambda_=rng.uniform(0.1, 2.0),
            tau=10.0 ** rng.uniform(-8, 0),
            eps=rng.uniform(0.0, 0.5),
        )
        rho = rng.uniform(0.75, 1.25)
        v = rng.uniform(-0.3, 0.3)
        speeds = char_speeds(rho, v, p)
        k = int(np.argmin(np.abs(speeds - (v - p.eps))))
        assert abs(speeds[k] - (v - p.eps)) <= 1e-12 * np.max(np.abs(speeds))
        dp = pressure_prime(rho, p)
        s = dp + (4.0 * p.mu / 3.0 + p.lambda_) / (p.tau * rho**2)
        # eigvalsh is accurate to rounding of the spectral radius, so bound the
        # Newton step |f/f'| to the nearest root, not |f| itself
        for y in np.delete(speeds, k) - v:
            f = y**3 + p.eps * y**2 - s * y - dp * p.eps
            df = 3.0 * y**2 + 2.0 * p.eps * y - s
            assert abs(f / df) <= 1e-10 * np.max(np.abs(speeds))


def test_max_char_speed_shifted_rejects_bad_input():
    p = FluidParams(tau=0.01, eps=0.1)
    with pytest.raises(DomainError):
        max_char_speed(np.array([1.0, 0.0, 1.0]), np.zeros(3), p)
    with pytest.raises(StructureError):
        max_char_speed(np.ones(3), np.zeros(3), FluidParams(tau=0.0, eps=0.1))


@pytest.mark.parametrize("eps", [0.0, 0.1])
def test_max_char_speed_rejects_bad_input(eps):
    for rho in ([1.0, 0.0, 1.0], [1.0, -0.5, 1.0]):
        with pytest.raises(DomainError):
            max_char_speed(np.array(rho), np.zeros(3), FluidParams(tau=0.01, eps=eps))
    with pytest.raises(StructureError):
        max_char_speed(np.ones(3), np.zeros(3), FluidParams(tau=0.0, eps=eps))


def test_boundary_matrix_kernel():
    bm = boundary_matrix()
    assert bm.nu == -1.0
    for e in (np.eye(4)[0], np.eye(4)[2], np.eye(4)[3]):
        assert np.all(bm.m @ e == 0.0)
    assert np.any(bm.m @ np.eye(4)[1] != 0.0)


def test_boundary_det_characteristic_at_eps_zero(params):
    assert abs(boundary_char_det(1.0, params)) <= 1e-12


def test_boundary_det_eps2_scaling():
    p = FluidParams(gamma=2.0, tau=0.3, mu=0.7, lambda_=1.3, eps=0.1)
    d1 = boundary_char_det(1.0, p)
    assert d1 < 0.0
    rep = noncharacteristic_report(1.0, p)
    assert rep["det_over_eps2_spread"] <= 1e-10
    assert all(r["cofactor_rel_err"] <= 1e-12 for r in rep["rows"])


def test_boundary_det_matches_reference_formula_not_rho_variant():
    p = FluidParams(gamma=1.4, tau=0.3, mu=0.7, lambda_=1.3)
    rep = noncharacteristic_report(1.25, p)
    assert rep["candidate_matches"]["-P'(rho)*eps^2"]
    assert not rep["candidate_matches"]["-P'(rho)*eps^2/rho"]


def test_det4_cofactor_against_lu():
    rng = np.random.default_rng(7)
    for _ in range(50):
        m = rng.standard_normal((4, 4))
        assert det4_cofactor(m) == pytest.approx(float(np.linalg.det(m)), rel=1e-10)


def test_max_nonneg_examples():
    # xi = (1, 0, 0, 0): form vanishes
    p = FluidParams(gamma=2.0, tau=0.1, mu=1.0, lambda_=1.0, eps=0.5)
    nu = boundary_matrix().nu
    a1 = assemble_a1(1.0, 0.0, p)
    xi = np.array([1.0, 0.0, 0.0, 0.0])
    assert abs(nu * xi @ a1 @ xi) <= 1e-15
    xi = np.array([0.0, 0.0, 1.0, 0.0])
    assert nu * xi @ a1 @ xi == pytest.approx(0.1 * 1.0 * 0.5 / 3.0, rel=1e-13)
    q = np.array([1.0, 1.0, 0.0, 0.0])
    assert nu * q @ a1 @ q == pytest.approx(-4.0, rel=1e-14)


def test_max_nonneg_check_passes():
    rng = np.random.default_rng(8)
    for _ in range(50):
        p = FluidParams(
            gamma=rng.uniform(1.1, 2.0),
            mu=rng.uniform(0.1, 2.0),
            lambda_=rng.uniform(0.1, 2.0),
            tau=10.0 ** rng.uniform(-4, 0),
            eps=rng.uniform(0.0, 0.5),
        )
        rep = max_nonneg_check(rng.uniform(0.75, 1.25), p, n_samples=8, seed=int(rng.integers(1 << 31)))
        assert rep.passed


def test_structure_audit_small():
    rep = structure_audit(n_states=200, seed=0)
    assert rep.passed
    assert rep.a1_symmetry_max == 0.0


CLEAN_AUDIT = StructureAuditReport(
    n_states=1,
    a0_spd=True,
    a1_symmetry_max=0.0,
    speeds_max_imag=0.0,
    kernel_form_min=0.0,
    kernel_form_max_error=0.0,
    q_form_max_error=0.0,
)

# (field, value at its tolerance, value just past it)
AUDIT_LIMITS = [
    ("a0_spd", True, False),
    ("a1_symmetry_max", A1_SYMMETRY_TOL, np.nextafter(A1_SYMMETRY_TOL, np.inf)),
    ("speeds_max_imag", SPEEDS_IMAG_TOL, np.nextafter(SPEEDS_IMAG_TOL, np.inf)),
    ("kernel_form_min", -FORM_TOL, np.nextafter(-FORM_TOL, -np.inf)),
    ("kernel_form_max_error", FORM_TOL, np.nextafter(FORM_TOL, np.inf)),
    ("q_form_max_error", FORM_TOL, np.nextafter(FORM_TOL, np.inf)),
]


@pytest.mark.parametrize("field, at, past", AUDIT_LIMITS, ids=[f for f, _, _ in AUDIT_LIMITS])
def test_audit_verdict_flips_just_past_each_tolerance(field, at, past):
    assert replace(CLEAN_AUDIT, **{field: at}).passed
    rep = replace(CLEAN_AUDIT, **{field: past})
    assert not rep.passed
    assert [ok for ok, _ in rep.checks].count(False) == 1
