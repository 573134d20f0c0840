"""Physical model for spherically symmetric relaxed compressible flow.

Holds the parameter set, the truncated radial mesh on [1, r_max], the state
fields (rho, v, s1, s2), the gamma-law pressure, the Newtonian equilibrium
stress relations, and the well-prepared initial-data generator.

The velocity is the radial component v(t, r); s1 and s2 are the scalar radial
profiles of the deviatoric and spherical stress parts.  The stresses relax
toward their Newtonian equilibrium values

    eq1 = 2 mu (dv/dr - v/r),      eq2 = lambda (dv/dr + 2 v/r)

over the relaxation time tau.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, FieldError
from .numerics import derivative


@dataclass(frozen=True)
class FluidParams:
    """Model constants.

    gamma-law pressure P = a_coef * rho**gamma; shear viscosity mu; bulk
    viscosity lambda_; relaxation time tau; boundary-regularization shift
    speed eps.  tau = 0 is only admissible on the classical solver path.
    """

    gamma: float = 1.4
    mu: float = 1.0
    lambda_: float = 1.0
    tau: float = 0.01
    eps: float = 0.0
    a_coef: float = 1.0

    def __post_init__(self):
        if not self.gamma > 1.0:
            raise FieldError("gamma", f"gamma must exceed 1, got {self.gamma}")
        if not self.mu > 0.0:
            raise FieldError("mu", f"mu must be positive, got {self.mu}")
        if not self.lambda_ > 0.0:
            raise FieldError("lambda_", f"lambda_ must be positive, got {self.lambda_}")
        if self.tau < 0.0:
            raise FieldError("tau", f"tau must be nonnegative, got {self.tau}")
        if self.eps < 0.0:
            raise FieldError("eps", f"eps must be nonnegative, got {self.eps}")
        if not self.a_coef > 0.0:
            raise FieldError("a_coef", f"a_coef must be positive, got {self.a_coef}")


@dataclass(frozen=True)
class RadialGrid:
    """Uniform cell-centered mesh on [1, r_max] with n_cells cells."""

    r_max: float = 21.0
    n_cells: int = 800
    r_min: float = field(default=1.0, init=False)
    dr: float = field(init=False)
    centers: np.ndarray = field(init=False, repr=False)
    faces: np.ndarray = field(init=False, repr=False)
    center_r2: np.ndarray = field(init=False, repr=False)
    face_r2: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not self.r_max > self.r_min:
            raise FieldError("r_max", f"r_max must exceed {self.r_min}, got {self.r_max}")
        if self.n_cells < 8:
            raise FieldError("n_cells", f"n_cells must be at least 8, got {self.n_cells}")
        dr = (self.r_max - self.r_min) / self.n_cells
        object.__setattr__(self, "dr", dr)
        centers = self.r_min + (np.arange(self.n_cells) + 0.5) * dr
        faces = self.r_min + np.arange(self.n_cells + 1) * dr
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "faces", faces)
        object.__setattr__(self, "center_r2", centers**2)
        object.__setattr__(self, "face_r2", faces**2)


@dataclass
class State:
    """Cell-centered fields (rho, v, s1, s2) at one time level."""

    rho: np.ndarray
    v: np.ndarray
    s1: np.ndarray
    s2: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        self.rho = np.asarray(self.rho, dtype=float)
        self.v = np.asarray(self.v, dtype=float)
        self.s1 = np.asarray(self.s1, dtype=float)
        self.s2 = np.asarray(self.s2, dtype=float)
        n = self.rho.size
        if not (self.v.size == self.s1.size == self.s2.size == n):
            raise ValueError("state fields must share one length")

    def copy(self):
        return State(self.rho.copy(), self.v.copy(), self.s1.copy(), self.s2.copy(), self.t)


@dataclass(frozen=True)
class InitConfig:
    """Gaussian-bump initial data family.

    rho0 = 1 + bump_amp * g(r),  v0 = vel_amp * (r - 1) * g(r) with
    g(r) = exp(-((r - bump_center)/bump_width)^2); stresses start at their
    Newtonian equilibrium plus stress_perturb_amp * sqrt(tau) * g(r).
    The (r - 1) factor makes v0 vanish identically at the inner face.
    """

    bump_amp: float = 0.0
    bump_center: float = 7.0
    bump_width: float = 1.0
    vel_amp: float = 0.0
    stress_perturb_amp: float = 0.0

    def __post_init__(self):
        if not self.bump_center > 1.0:
            raise FieldError("bump_center", f"bump_center must exceed 1, got {self.bump_center}")
        if not self.bump_width > 0.0:
            raise FieldError("bump_width", f"bump_width must be positive, got {self.bump_width}")


TAIL_TOL = 1e-12


def pressure(rho, params):
    """gamma-law pressure P = a_coef * rho**gamma (scalar or array)."""
    rho = np.asarray(rho, dtype=float)
    if np.any(rho <= 0.0):
        raise DomainError("pressure requires rho > 0")
    p = params.a_coef * rho**params.gamma
    return float(p) if p.ndim == 0 else p


def pressure_prime(rho, params):
    """dP/drho = a_coef * gamma * rho**(gamma-1); strictly positive."""
    rho = np.asarray(rho, dtype=float)
    if np.any(rho <= 0.0):
        raise DomainError("pressure_prime requires rho > 0")
    dp = params.a_coef * params.gamma * rho ** (params.gamma - 1.0)
    return float(dp) if dp.ndim == 0 else dp


def taylor_potential(rho, params):
    """Pressure potential (rho**gamma - 1 - gamma*(rho - 1)) / (gamma - 1).

    Nonnegative, vanishing only at rho = 1; the caller supplies the r^2
    weight when integrating.
    """
    rho = np.asarray(rho, dtype=float)
    if np.any(rho <= 0.0):
        raise DomainError("taylor_potential requires rho > 0")
    g = params.gamma
    val = (rho**g - 1.0 - g * (rho - 1.0)) / (g - 1.0)
    return float(val) if val.ndim == 0 else val


def equilibrium_stress(v, grid, params):
    """Newtonian equilibrium stresses (2mu(dv/dr - v/r), lambda(dv/dr + 2v/r)).

    The derivative uses second-order central differences with one-sided
    stencils at the array ends.
    """
    v = np.asarray(v, dtype=float)
    if v.size != grid.n_cells:
        raise ValueError("velocity array does not match the grid")
    dv = derivative(v, grid.dr)
    r = grid.centers
    s1 = 2.0 * params.mu * (dv - v / r)
    s2 = params.lambda_ * (dv + 2.0 * v / r)
    return s1, s2


def make_initial_data(cfg, grid, params):
    """Build a well-prepared initial state from a Gaussian-bump config.

    Rejects configurations whose density is not positive or whose fields do
    not decay below TAIL_TOL at both ends of the truncated domain.
    """
    r = grid.centers
    g = np.exp(-(((r - cfg.bump_center) / cfg.bump_width) ** 2))
    rho = 1.0 + cfg.bump_amp * g
    if np.any(rho <= 0.0):
        raise DomainError(
            f"initial density not positive (min {rho.min():.3g}); reduce bump_amp"
        )
    v = cfg.vel_amp * (r - 1.0) * g
    s1, s2 = equilibrium_stress(v, grid, params)
    pert = cfg.stress_perturb_amp * np.sqrt(params.tau) * g
    state = State(rho, v, s1 + pert, s2 + pert, t=0.0)
    _check_tails(state, cfg)
    return state


def _check_tails(state, cfg):
    for name, dev in (
        ("rho", state.rho - 1.0),
        ("v", state.v),
        ("s1", state.s1),
        ("s2", state.s2),
    ):
        for side, idx in (("inner", 0), ("outer", -1)):
            if abs(dev[idx]) > TAIL_TOL:
                raise DomainError(
                    f"initial {name} tail {abs(dev[idx]):.3g} at the {side} boundary "
                    f"exceeds {TAIL_TOL:g}; move bump_center={cfg.bump_center} or "
                    f"shrink bump_width={cfg.bump_width}"
                )


def face_value(f, grid):
    """Quadratic extrapolation of a cell-centered field to the inner face r = 1."""
    x = (grid.centers[:3] - grid.r_min) / grid.dr  # 0.5, 1.5, 2.5
    f0, f1, f2 = f[0], f[1], f[2]
    # Lagrange basis at x = 0
    l0 = (0 - x[1]) * (0 - x[2]) / ((x[0] - x[1]) * (x[0] - x[2]))
    l1 = (0 - x[0]) * (0 - x[2]) / ((x[1] - x[0]) * (x[1] - x[2]))
    l2 = (0 - x[0]) * (0 - x[1]) / ((x[2] - x[0]) * (x[2] - x[1]))
    return float(l0 * f0 + l1 * f1 + l2 * f2)


def time_derivatives(state, grid, params):
    """Pointwise time derivatives of all four fields from the governing equations.

    Central second-order stencils with one-sided ends; no ghost cells and no
    upwinding.  This is the diagnostic evaluation used by the reduction check
    and the compatibility test, not the time-integration path.
    """
    if params.tau <= 0.0:
        raise DomainError("time_derivatives requires tau > 0")
    r = grid.centers
    dr = grid.dr
    rho, v, s1, s2 = state.rho, state.v, state.s1, state.s2
    drho_dr = derivative(rho, dr)
    dv_dr = derivative(v, dr)
    ds1_dr = derivative(s1, dr)
    ds2_dr = derivative(s2, dr)
    dp_dr = derivative(pressure(rho, params), dr)

    drho = -(v * drho_dr + rho * dv_dr) - 2.0 * rho * v / r
    dv = -v * dv_dr + (-dp_dr + (2.0 / 3.0) * ds1_dr + 2.0 * s1 / r + ds2_dr) / rho
    eq1, eq2 = equilibrium_stress(v, grid, params)
    a = v - params.eps
    trho = params.tau * rho
    ds1 = -a * ds1_dr + (eq1 - s1) / trho
    ds2 = -a * ds2_dr + (eq2 - s2) / trho
    return drho, dv, ds1, ds2


def compatibility_residual(state, grid, params):
    """|dv/dt| extrapolated to the inner face r = 1.

    Admissible initial data must make this vanish (the boundary holds v = 0
    for all time); discretely it is O(dr^2) plus the field tails.
    """
    _, dv, _, _ = time_derivatives(state, grid, params)
    return abs(face_value(dv, grid))
