"""Quasilinear symmetric form of the first-order system.

Assembles the 4x4 coefficient matrices A0 (diagonal, SPD), A1 (symmetric) and
the lower-order matrix B for the unknown vector V = (rho, v, s1, s2), together
with the boundary matrix M picking out v at r = 1.  Provides characteristic
speeds for CFL control and the two boundary certificates: the
non-characteristic determinant of (A0)^-1 A1 at the wall and the maximal
nonnegativity of the boundary condition.
"""

import time
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, StructureError
from .model import FluidParams, pressure_prime


@dataclass(frozen=True)
class BoundaryMatrix:
    """Boundary operator M (only entry (2,2) nonzero) and outward normal nu = -1."""

    m: np.ndarray
    nu: float = -1.0


def boundary_matrix():
    m = np.zeros((4, 4))
    m[1, 1] = 1.0
    return BoundaryMatrix(m=m)


def _require_relaxed(params):
    if params.tau <= 0.0:
        raise StructureError("tau = 0 degenerates the stress rows; matrices need tau > 0")


def assemble_a0(rho, params):
    """diag(P'(rho)/rho, rho, tau*rho/(3 mu), tau*rho/lambda)."""
    _require_relaxed(params)
    if rho <= 0.0:
        raise DomainError("assemble_a0 requires rho > 0")
    dp = pressure_prime(rho, params)
    return np.diag(
        [dp / rho, rho, params.tau * rho / (3.0 * params.mu), params.tau * rho / params.lambda_]
    )


def assemble_a1(rho, v, params):
    """Symmetric convective-coupling matrix at state (rho, v)."""
    if rho <= 0.0:
        raise DomainError("assemble_a1 requires rho > 0")
    dp = pressure_prime(rho, params)
    shifted = params.tau * rho * (v - params.eps)
    a1 = np.zeros((4, 4))
    a1[0, 0] = dp * v / rho
    a1[0, 1] = a1[1, 0] = dp
    a1[1, 1] = rho * v
    a1[1, 2] = a1[2, 1] = -2.0 / 3.0
    a1[1, 3] = a1[3, 1] = -1.0
    a1[2, 2] = shifted / (3.0 * params.mu)
    a1[3, 3] = shifted / params.lambda_
    return a1


def assemble_b(rho, r, params):
    """Geometric/relaxation lower-order matrix at radius r."""
    if rho <= 0.0:
        raise DomainError("assemble_b requires rho > 0")
    if r < 1.0:
        raise DomainError("assemble_b requires r >= 1")
    dp = pressure_prime(rho, params)
    b = np.zeros((4, 4))
    b[0, 1] = 2.0 * dp / r
    b[1, 2] = -2.0 / r
    b[2, 1] = 2.0 / (3.0 * r)
    b[2, 2] = 1.0 / (3.0 * params.mu)
    b[3, 1] = -2.0 / r
    b[3, 3] = 1.0 / params.lambda_
    return b


def _sym_pencil(rho, v, params):
    """Symmetrized pencil D^-1/2 A1 D^-1/2 with D = A0 (diagonal Cholesky).

    Its eigenvalues are the characteristic speeds; rho and v may be arrays,
    giving a batched (..., 4, 4) result.
    """
    rho = np.asarray(rho, dtype=float)
    v = np.asarray(v, dtype=float)
    a = np.sqrt(pressure_prime(rho, params))
    b = np.sqrt(4.0 * params.mu / (3.0 * params.tau)) / rho
    c = np.sqrt(params.lambda_ / params.tau) / rho
    shifted = v - params.eps
    m = np.zeros(rho.shape + (4, 4))
    m[..., 0, 0] = v
    m[..., 0, 1] = m[..., 1, 0] = a
    m[..., 1, 1] = v
    m[..., 1, 2] = m[..., 2, 1] = -b
    m[..., 1, 3] = m[..., 3, 1] = -c
    m[..., 2, 2] = shifted
    m[..., 3, 3] = shifted
    return m


def char_speeds(rho, v, params):
    """The four real characteristic speeds at state (rho, v), sorted ascending.

    Solves A1 x = s A0 x on the symmetrized pencil (A0 is diagonal, so its
    Cholesky factor is the square-root diagonal), guaranteeing a real
    spectrum numerically.
    """
    _require_relaxed(params)
    if rho <= 0.0:
        raise DomainError("char_speeds requires rho > 0")
    return np.linalg.eigvalsh(_sym_pencil(float(rho), float(v), params))


def max_char_speed(rho, v, params):
    """max |s| over all cells; vectorized for per-step CFL control.

    For eps = 0 the pencil spectrum is v + {0, 0, +-m} with
    m = sqrt(P' + (4mu/3 + lambda)/(tau rho^2)), so the maximum is closed
    form; otherwise fall back to the batched symmetric eigensolve.
    """
    _require_relaxed(params)
    rho = np.atleast_1d(np.asarray(rho, dtype=float))
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if params.eps == 0.0:
        m = np.sqrt(
            pressure_prime(rho, params)
            + (4.0 * params.mu / 3.0 + params.lambda_) / (params.tau * rho**2)
        )
        return float(np.max(np.abs(v) + m))
    speeds = np.linalg.eigvalsh(_sym_pencil(rho, v, params))
    return float(np.max(np.abs(speeds)))


def det4_cofactor(m):
    """4x4 determinant by cofactor expansion along the first row.

    Deliberately independent of the LU/eigen code paths so it can serve as a
    cross-oracle for the boundary determinant.
    """
    m = np.asarray(m, dtype=float)

    def det3(a):
        return (
            a[0, 0] * (a[1, 1] * a[2, 2] - a[1, 2] * a[2, 1])
            - a[0, 1] * (a[1, 0] * a[2, 2] - a[1, 2] * a[2, 0])
            + a[0, 2] * (a[1, 0] * a[2, 1] - a[1, 1] * a[2, 0])
        )

    total = 0.0
    cols = np.arange(4)
    for j in range(4):
        minor = m[1:][:, cols != j]
        total += (-1.0) ** j * m[0, j] * det3(minor)
    return float(total)


def boundary_char_det(rho, params):
    """det((A0)^-1 A1) at the boundary state v = 0, computed by LU.

    Vanishes exactly when eps = 0 (characteristic boundary); nonzero for
    eps > 0.
    """
    a0 = assemble_a0(rho, params)
    a1 = assemble_a1(rho, 0.0, params)
    return float(np.linalg.det(a1 / np.diag(a0)[:, None]))


def noncharacteristic_report(rho, params, eps_values=(1e-1, 1e-2, 1e-3)):
    """Scaling study of the boundary determinant in the shift speed eps.

    Reports det/eps^2 per eps, agreement with the cofactor oracle, and which
    closed-form candidate matches: -P'(rho) eps^2 or -P'(rho) eps^2 / rho.
    """
    dp = pressure_prime(rho, params)
    rows = []
    for eps in eps_values:
        p_eps = replace(params, eps=eps)
        a0 = assemble_a0(rho, p_eps)
        a1 = assemble_a1(rho, 0.0, p_eps)
        scaled = a1 / np.diag(a0)[:, None]
        det_lu = float(np.linalg.det(scaled))
        det_cof = det4_cofactor(scaled)
        rows.append(
            {
                "eps": eps,
                "det_lu": det_lu,
                "det_cofactor": det_cof,
                "det_over_eps2": det_lu / eps**2,
                "cofactor_rel_err": abs(det_lu - det_cof) / max(abs(det_cof), 1e-300),
            }
        )
    ratios = np.array([r["det_over_eps2"] for r in rows])
    spread = float(np.max(np.abs(ratios - ratios[0])) / max(abs(ratios[0]), 1e-300))
    candidates = {
        "-P'(rho)*eps^2": -dp,
        "-P'(rho)*eps^2/rho": -dp / rho,
    }
    matches = {
        name: bool(abs(ratios[0] - val) / max(abs(val), 1e-300) < 1e-9)
        for name, val in candidates.items()
    }
    det_at_zero = boundary_char_det(rho, params if params.eps == 0.0 else replace(params, eps=0.0))
    return {
        "rho": rho,
        "det_eps0": det_at_zero,
        "rows": rows,
        "det_over_eps2_spread": spread,
        "candidate_values": candidates,
        "candidate_matches": matches,
    }


@dataclass(frozen=True)
class BoundaryCheckReport:
    passed: bool
    min_kernel_form: float
    max_kernel_form_error: float
    q_form: float
    q_form_error: float
    n_samples: int


def max_nonneg_check(rho, params, n_samples=16, seed=0):
    """Certify maximal nonnegativity of the boundary condition at v = 0.

    (i) On ker M = span{e1, e3, e4} the boundary quadratic form
    xi^T (A1 nu) xi must be nonnegative and equal the closed form
    tau rho eps/(3 mu) xi2^2 + tau rho eps/lambda xi3^2 (kernel coordinates
    xi = (xi1, 0, xi2, xi3)); (ii) the strict-subspace witness q = (1,1,0,0)
    must give exactly -2 P'(rho).
    """
    nu = boundary_matrix().nu
    w = nu * assemble_a1(rho, 0.0, params)
    rng = np.random.default_rng(seed)
    basis = np.eye(3)
    coeffs = np.vstack([basis, rng.standard_normal((n_samples, 3))])
    norms = np.linalg.norm(coeffs, axis=1, keepdims=True)
    coeffs = coeffs / np.where(norms == 0.0, 1.0, norms)
    xi = np.zeros((coeffs.shape[0], 4))
    xi[:, 0] = coeffs[:, 0]
    xi[:, 2] = coeffs[:, 1]
    xi[:, 3] = coeffs[:, 2]
    forms = np.einsum("ki,ij,kj->k", xi, w, xi)
    closed = params.tau * rho * params.eps * (
        coeffs[:, 1] ** 2 / (3.0 * params.mu) + coeffs[:, 2] ** 2 / params.lambda_
    )
    q = np.array([1.0, 1.0, 0.0, 0.0])
    q_form = float(q @ w @ q)
    q_err = abs(q_form + 2.0 * pressure_prime(rho, params))
    min_form = float(np.min(forms))
    max_err = float(np.max(np.abs(forms - closed)))
    passed = min_form >= -1e-12 and max_err <= 1e-12 and q_err <= 1e-12
    return BoundaryCheckReport(
        passed=passed,
        min_kernel_form=min_form,
        max_kernel_form_error=max_err,
        q_form=q_form,
        q_form_error=q_err,
        n_samples=coeffs.shape[0],
    )


@dataclass(frozen=True)
class StructureAuditReport:
    n_states: int
    a0_spd: bool
    a1_symmetry_max: float
    speeds_max_imag: float
    kernel_form_min: float
    kernel_form_max_error: float
    q_form_max_error: float
    passed: bool
    elapsed_s: float


def structure_audit(n_states=1000, seed=0):
    """Randomized audit of the symmetric-hyperbolic structure.

    Samples admissible states (rho in [3/4, 5/4], |v| <= 0.3,
    tau in [1e-4, 1], mu, lambda in [0.1, 2], eps in [0, 0.5]) and checks:
    A0 SPD, A1 symmetric, real characteristic speeds, and the boundary
    quadratic-form identities.
    """
    rng = np.random.default_rng(seed)
    t0 = time.perf_counter()
    a0_spd = True
    a1_sym = 0.0
    max_imag = 0.0
    form_min = np.inf
    form_err = 0.0
    q_err = 0.0
    for k in range(n_states):
        params = _sample_params(rng)
        rho = rng.uniform(0.75, 1.25)
        v = rng.uniform(-0.3, 0.3)
        a0 = assemble_a0(rho, params)
        a1 = assemble_a1(rho, v, params)
        if np.any(np.diag(a0) <= 0.0):
            a0_spd = False
        a1_sym = max(a1_sym, float(np.max(np.abs(a1 - a1.T))))
        eigs = np.linalg.eigvals(a1 / np.diag(a0)[:, None])
        scale = max(1.0, float(np.max(np.abs(eigs))))
        max_imag = max(max_imag, float(np.max(np.abs(eigs.imag))) / scale)
        chk = max_nonneg_check(rho, params, n_samples=4, seed=int(rng.integers(1 << 31)))
        form_min = min(form_min, chk.min_kernel_form)
        form_err = max(form_err, chk.max_kernel_form_error)
        q_err = max(q_err, chk.q_form_error)
    elapsed = time.perf_counter() - t0
    passed = (
        a0_spd
        and a1_sym <= 1e-14
        and max_imag <= 1e-8
        and form_min >= -1e-12
        and form_err <= 1e-12
        and q_err <= 1e-12
    )
    return StructureAuditReport(
        n_states=n_states,
        a0_spd=a0_spd,
        a1_symmetry_max=a1_sym,
        speeds_max_imag=max_imag,
        kernel_form_min=float(form_min),
        kernel_form_max_error=form_err,
        q_form_max_error=q_err,
        passed=passed,
        elapsed_s=elapsed,
    )


def _sample_params(rng):
    return FluidParams(
        gamma=rng.uniform(1.1, 2.0),
        mu=rng.uniform(0.1, 2.0),
        lambda_=rng.uniform(0.1, 2.0),
        tau=10.0 ** rng.uniform(-4, 0),
        eps=rng.uniform(0.0, 0.5),
        a_coef=1.0,
    )
