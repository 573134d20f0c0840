"""Quasilinear symmetric form of the first-order system.

Assembles the 4x4 coefficient matrices A0 (diagonal, SPD), A1 (symmetric) and
the lower-order matrix B for the unknown vector V = (rho, v, s1, s2), together
with the boundary matrix M picking out v at r = 1.  `assemble_a0` and
`assemble_a1` are the only place the pencil's entries are written:
`char_speeds`, the wall matrix (A0)^-1 A1 and the audits all start from
them.  The CFL speed `max_char_speed` is Weyl's closed-form upper bound of
the largest |speed|, exact at eps = 0 and at most eps above it otherwise;
it is checked against `char_speeds`.  `weyl_speed_bound` is the same bound
without the admissibility checks, for the solver's dt rule, which brings
its own P'.  Provides the two boundary certificates: the non-characteristic
determinant of (A0)^-1 A1 at the wall and the maximal nonnegativity of the
boundary condition.

Every structural tolerance is named once below.  `StructureAuditReport` and
`noncharacteristic_report` each carry their verdicts as (ok, description)
checks, which `check-structure` prints as they are.
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, StructureError
from .model import FluidParams, pressure_prime

A1_SYMMETRY_TOL = 1e-14  # max |A1 - A1^T|
SPEEDS_IMAG_TOL = 1e-8  # max |Im s| / max(1, |s|) of the eigenvalues of (A0)^-1 A1
FORM_TOL = 1e-12  # boundary quadratic forms: kernel sign, closed form, witness
DET_EPS0_TOL = 1e-12  # |det((A0)^-1 A1)| at the wall for eps = 0
DET_SPREAD_TOL = 1e-10  # relative spread of det/eps^2 over eps
COFACTOR_TOL = 1e-12  # relative LU vs cofactor determinant mismatch
CANDIDATE_RTOL = 1e-9  # relative match of det/eps^2 to a closed-form candidate


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
    dp = pressure_prime(rho, params)
    return np.diag(
        [dp / rho, rho, params.tau * rho / (3.0 * params.mu), params.tau * rho / params.lambda_]
    )


def assemble_a1(rho, v, params):
    """Symmetric convective-coupling matrix at state (rho, v)."""
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


def char_speeds(rho, v, params):
    """The four real characteristic speeds at state (rho, v), sorted ascending.

    Solves A1 x = s A0 x as the eigenvalues of D A1 D with D = diag(A0)^-1/2
    (A0 is diagonal, so D is its inverse Cholesky factor).  D A1 D is
    symmetric, which keeps the spectrum real numerically.
    """
    d = 1.0 / np.sqrt(np.diag(assemble_a0(rho, params)))
    return np.linalg.eigvalsh(d[:, None] * assemble_a1(rho, v, params) * d)


def max_char_speed(rho, v, params):
    """An upper bound of max |s| over all cells; vectorized for per-step CFL control.

    The scaled pencil D A1 D of `char_speeds` is diag(v, v, v - eps, v - eps)
    plus an arrow matrix with the off-diagonals a = sqrt(P'), -b and -c of
    row 2, b = sqrt(4mu/(3tau))/rho and c = sqrt(lambda/tau)/rho.  The arrow
    matrix has eigenvalues {0, 0, +-sqrt(S)} with
    S = a^2 + b^2 + c^2 = P' + (4mu/3 + lambda)/(tau rho^2), so by Weyl's
    inequalities (Horn & Johnson, Matrix Analysis, Thm 4.3.1) every speed
    lies in [v - eps - sqrt(S), v + sqrt(S)], and

        max |s| <= sqrt(S) + |v - eps/2| + eps/2 <= max |s| + eps.

    At eps = 0 the bound is the exact |v| + sqrt(S).
    """
    _require_relaxed(params)
    rho = np.atleast_1d(np.asarray(rho, dtype=float))
    v = np.atleast_1d(np.asarray(v, dtype=float))
    shape = np.broadcast_shapes(rho.shape, v.shape)
    return weyl_speed_bound(rho, v, pressure_prime(rho, params), params, (np.empty(shape), np.empty(shape)))


def weyl_speed_bound(rho, v, dp, params, out):
    """max_char_speed given dp = P'(rho), without its checks: for arrays
    already known admissible, at tau > 0; the same bits.  out = (a, b), two
    arrays of the shape of rho and v distinct from both (a may be dp
    itself), serves as scratch, so nothing of their length is allocated."""
    a, b = out
    # b = sqrt(S), S = P' + (4mu/3 + lambda) / (tau rho^2)
    np.square(rho, out=b)
    np.multiply(params.tau, b, out=b)
    np.divide(4.0 * params.mu / 3.0 + params.lambda_, b, out=b)
    s = np.sqrt(np.add(dp, b, out=b), out=b)
    half = params.eps / 2.0
    np.abs(np.subtract(v, half, out=a), out=a)
    return float(np.add(a, s, out=a).max()) + half


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


def _wall_matrix(rho, params):
    """(A0)^-1 A1 at the boundary state v = 0."""
    return assemble_a1(rho, 0.0, params) / np.diag(assemble_a0(rho, params))[:, None]


def boundary_char_det(rho, params):
    """det((A0)^-1 A1) at the boundary state v = 0, computed by LU.

    Vanishes exactly when eps = 0 (characteristic boundary); nonzero for
    eps > 0.
    """
    return float(np.linalg.det(_wall_matrix(rho, params)))


def noncharacteristic_report(rho, params, eps_values=(1e-1, 1e-2, 1e-3)):
    """Scaling study of the boundary determinant in the shift speed eps.

    Reports det/eps^2 per eps, agreement with the cofactor oracle, and which
    closed-form candidate matches: -P'(rho) eps^2 or -P'(rho) eps^2 / rho.
    "checks" holds the (ok, description) verdicts on these numbers.
    """
    dp = pressure_prime(rho, params)
    rows = []
    for eps in eps_values:
        scaled = _wall_matrix(rho, replace(params, eps=eps))
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
        name: bool(abs(ratios[0] - val) / max(abs(val), 1e-300) < CANDIDATE_RTOL)
        for name, val in candidates.items()
    }
    det_at_zero = boundary_char_det(rho, replace(params, eps=0.0))
    cofactor_err = max(r["cofactor_rel_err"] for r in rows)
    return {
        "rho": rho,
        "det_eps0": det_at_zero,
        "rows": rows,
        "det_over_eps2_spread": spread,
        "candidate_values": candidates,
        "candidate_matches": matches,
        "checks": [
            (abs(det_at_zero) <= DET_EPS0_TOL, f"boundary determinant at eps=0: {det_at_zero:.2e}"),
            (spread <= DET_SPREAD_TOL, f"det/eps^2 independent of eps (rel spread {spread:.2e})"),
            (cofactor_err <= COFACTOR_TOL, "LU determinant matches the cofactor oracle"),
        ],
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
    passed = min_form >= -FORM_TOL and max_err <= FORM_TOL and q_err <= FORM_TOL
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

    @property
    def checks(self):
        """One (ok, description) verdict per audited property."""
        return [
            (self.a0_spd, f"A0 symmetric positive definite over {self.n_states} random states"),
            (self.a1_symmetry_max <= A1_SYMMETRY_TOL, f"A1 symmetric (max asymmetry {self.a1_symmetry_max:.2e})"),
            (
                self.speeds_max_imag <= SPEEDS_IMAG_TOL,
                f"characteristic speeds real (max imag/scale {self.speeds_max_imag:.2e})",
            ),
            (
                self.kernel_form_min >= -FORM_TOL and self.kernel_form_max_error <= FORM_TOL,
                f"kernel boundary form nonnegative and matches closed form (max err {self.kernel_form_max_error:.2e})",
            ),
            (self.q_form_max_error <= FORM_TOL, f"witness form equals -2 P'(rho) (max err {self.q_form_max_error:.2e})"),
        ]

    @property
    def passed(self):
        return all(ok for ok, _ in self.checks)


def structure_audit(n_states=1000, seed=0):
    """Randomized audit of the symmetric-hyperbolic structure.

    Samples admissible states (rho in [3/4, 5/4], |v| <= 0.3,
    tau in [1e-4, 1], mu, lambda in [0.1, 2], eps in [0, 0.5]) and checks:
    A0 SPD, A1 symmetric, real characteristic speeds, and the boundary
    quadratic-form identities.
    """
    rng = np.random.default_rng(seed)
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
    return StructureAuditReport(
        n_states=n_states,
        a0_spd=a0_spd,
        a1_symmetry_max=a1_sym,
        speeds_max_imag=max_imag,
        kernel_form_min=float(form_min),
        kernel_form_max_error=form_err,
        q_form_max_error=q_err,
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
