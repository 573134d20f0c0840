"""Time integration of the relaxed radial system and the classical baseline.

Method of lines on the cell-centered mesh with two ghost cells per side:

* mass in flux form, r^2 rho_t + d/dr(r^2 rho v) = 0, with |v|-upwind face
  diffusion plus a fourth-difference dissipation at the acoustic speed; the
  flux form makes the discrete mass telescope exactly, so reflecting outer
  walls conserve it to rounding;
* first-order upwind convection for v dv/dr and (v - eps) ds/dr, second-order
  central differences for the pressure and stress gradients;
* in time, one of two step rules per run: explicit Strang (SSP-RK2 for the
  transport part, Strang-composed with the exact exponential relaxation
  substep), or ARS(2,2,2) IMEX, with the stiff terms implicit.

The substep solves ds/dt = (eq - s)/(tau rho) with rho, v held fixed, which is
the exact flow of the relaxation operator, so the composition stays stable for
any dt/tau ratio and drives the stresses to equilibrium as tau -> 0.

The driver relaxes once per step (first-same-as-last, as in Strang, SINUM 5
(1968) 506).  The closing half of one step and the opening half of the next
act on the same frozen rho and v, so they compose into one exact solve over
(dt_n + dt_n+1)/2, equal to the two to rounding.  A step closes only when it
ends on a snapshot or at t_end, so every snapshot is a full Strang state; a
run that snapshots every step is a loop of public step calls bit for bit.
dt_n+1 can be computed before step n is closed because the dt rules read only
rho and v, which the relaxation leaves unchanged: the steps are the same
whether or not the relaxation is fused.

The explicit relaxed step is the fast-wave CFL step, cfl dr / max_char_speed.
Linearized per Fourier mode of wave number sigma <= 1/dr, the stiff coupling
of v and the stresses over one Strang step is a 2x2 map with
det = exp(-dt/(tau rho)), stable iff

    dt K sigma^2 / rho <= 2 coth(dt / (2 tau rho)),  K = 4 mu/3 + lambda,

and since coth(x) >= 1/x the fast-wave step lies in that region (the
Stormer-Verlet, or asymptotic-preserving, argument: Hairer, Lubich & Wanner,
Acta Numerica 12 (2003) 399; Jin, SISC 21 (1999) 441).  Below tau of about
dr^2 rho / K (2.7e-4 at n = 800) the fast-wave step falls under the
parabolic bound cfl dr^2 rho_min / K of an explicit classical scheme and
keeps shrinking like tau^1/2 (on the criterion-6 pulse at n = 800, 4840
steps to t = 0.1 at tau 1e-5, against ARS's 20), while Strang's time error
does not cancel against the ARS baseline's (there Strang ends 2.7e-5 from
the ARS run at every tau from 1e-3 to 1e-5), so its distance to the
baseline would not fall like tau.  run steps such runs with ARS(2,2,2)
instead.

ARS(2,2,2) is the stiffly accurate IMEX Runge-Kutta scheme of Ascher, Ruuth
& Spiteri (APNUM 25 (1997) 151; Pareschi & Russo, J. Sci. Comput. 25 (2005)
129), gamma = 1 - 1/sqrt(2), one step for every tau >= 0.  The mass row,
convection, pressure and the stress transport (v - eps) ds/dr are explicit:
_flow_rows without the stress divergence, and _stress_rows.  The momentum
stress divergence G s / rho, G s = 2/3 ds1/dr + 2 s1/r + ds2/dr, and the
relaxation (eq(v) - s)/(tau rho) are implicit.  Each stage gets rho from its
explicit part, so the stage is linear in (v, s) and the stress rows solve
for s = a s* + W eq(v), a = tau rho/(tau rho + h), W = h/(tau rho + h),
h = gamma dt.  One pentadiagonal system in v is left,
(diag(rho) - h G W E) v = rho v* + h G(a s*), E = eq (eq(v) takes central
differences of v, and the momentum row central differences of the
stresses); its five bands are probed through the same stress closure and
stencil, five combs in one pass over (5, n) arrays, and one banded
elimination without pivoting, two rows per loop pass, solves it.  The
stage-1 implicit terms are recovered as (U1 - U*)/h, and nothing is
divided by tau, so the step is the same at tau = 1e-300 as at tau = 0 to
rounding: it is asymptotic-preserving (Jin, SISC 21 (1999) 441), its
distance to the baseline falls like tau.  One stage serves every
tau >= 0, and the baseline is its tau = 0 case: there a = 0 and W = h/h = 1 exactly, so the
stage's stresses are the Newtonian values eq(v) whatever the transported
s* holds, and the system is (diag(rho) - h V) v = rho v* with the viscous
operator V = G E.  V's bands depend on the grid, mu, lambda and the
boundary rule only, so a workspace probes them once and keeps them while
tau = 0; at tau > 0, W changes with each stage's rho, and the bands are
probed per stage from the combs' stresses E c_k, which the workspace
keeps per (mu, lambda).  The step is the acoustic CFL step with the stress
transport speed, cfl dr / max(|v| + sqrt(P'), |v - eps|), eps counted only
at tau > 0: the stiff terms, of spectral radius up to K/(rho dr^2) and the
fast stress wave's speed, set no bound on the implicit part, which is
L-stable, and at tau = 0 the transported stresses are replaced by eq(v).
That step is about K / (rho c dr) times the parabolic bound
dr^2 rho_min / K, c the sound speed (about 79 at n = 800 and rho = 1: a run
to t = 1 takes 122 steps, not 9405); each costs two banded solves in
Python floats, about 0.4 ms each at n = 800 and 3.1 ms at n = 6400 (the
fastest of repeated calls on one core of an x86-64 server).

run picks the step rule of a single run: ARS(2,2,2) at tau = 0
(run_classical is run at tau = 0), and at every tau > 0 where the
fast-wave step compute_dt falls under the parabolic bound at the initial
state; explicit Strang elsewhere.  A
tau sweep steps every job with ARS(2,2,2) (_ars_rules), so its members
share the baseline's rule; it admits the initial state as run does
(_admit).  Both rules run through one driver,
_advance, and differ only in two module-level rules with one signature per
role: the CFL step dt_rule(state, grid, params, cfl, work=) (compute_dt,
compute_dt_classical) and the step step_rule(state, grid, params, cfg, dt,
step_idx, out=, work=, owed=, close=) (step, _step_classical, which owes
nothing).  _advance records only the snapshots, the step sizes and the step
rule's name ("imex" or "strang").  The system is params.tau's and the outer
boundary rule's alone: rhs_full(state, grid, params, outer_bc) is its
right-hand side at every tau >= 0, the classical rows at tau = 0, and
readers derive the rest from the snapshots and rhs_full at the params the
run integrated.

The outer boundary rule is a string, SolverConfig.outer_bc, only at the
entry points, which look up its one object (_OuterBoundary): it fills the
outer ghost cells, gives the kernels eq(v), and gives the diagnostics the
wall terms (the mass flux through r_max, the open-boundary warning).

The driver builds one Workspace per run, for the grid and that rule (one
per tile on tiles, below), and the dt rule and every stage compute into its
buffers with out= ufuncs; two State
buffers take turns as a step's input and output, so neither the dt rule nor a
step allocates a field.  The workspace also owns every view the stage kernels
read, cut once when it is built: its ghost-augmented copies of the fields
with their stencils (the two cells of each face, the two neighbours of each
cell, the ghost fill's mirrors) and the two halves of the flux and speed
face arrays.  A kernel reads a caller's array whole, through such a copy,
or through the slice of the workspace's cells it cuts for the call, so no
view outlives the array it was cut from; eq(v) is the rule's, today
model.equilibrium_stress, which slices v itself.  The stage kernel folds the
constant factors of its formulas (the 0.5 of the mass flux and of the face
density, 1/dr, 1/(2 dr), 2/3, -a_coef, 2/r, the upwind minus sign) into one
scalar or one coefficient array built with the Workspace, so each term costs
one pass over the grid; it agrees with the formulas as written to rounding.  An allocating public
entry point (compute_dt, compute_dt_classical, rhs_nonstiff, rhs_full,
classical_rhs, relax_substep, step without out= and work=) runs the same
kernel in a fresh Workspace, so it and the driver give the same bits; a
work= built for another outer_bc is refused.

Every buffer a step writes, the workspace's and the two States', starts on a
64-byte cache line (_aligned_empty), and the driver copies the caller's
initial fields into such a State.  On an AVX-512 x86-64 server a ufunc pass
whose output starts off a line took about twice as long as an aligned one
(np.add: 5.1 against 2.8 us at n = 6400, 36 against 16 us at n = 51200), and
plain np.empty puts a buffer 0, 16, 32 or 48 bytes past a line.  Two
stores of a Strang step stay off a line: a ghost buffer's n cells, 16 bytes
past its start, which a copy fills in the same time at either offset; and
the interior of eq(v)'s derivative, 8 bytes past, 2 of the ~150 passes of a
step and its dt rule, which only one more buffer could move (about 14 of
5500 us a step at n = 51200).  Only the layout changed: the kernels give
the same bits at every offset.

A Strang run of n cells steps on T = min(usable CPUs, n // _TILE_CELLS)
contiguous tiles of the grid, at least one, one thread per tile
(_Tiles); the usable CPUs are the process's affinity mask, so a run pinned
to one CPU, a run below 2 * _TILE_CELLS cells, and every ARS run (whose
banded solve is serial) take the one-tile path above, unchanged.  Each
tile has a Workspace for its cells and a two-cell halo, and the tiles'
workspaces replace the grid's.  The kernels compute a tile's cells from the
fields, which span the grid: a ghost pair at a tile edge holds the
neighbour's two cells, so a tile computes every face of its cells, a face
two tiles share with the same inputs in both, and eq(v) takes central
differences through the halo, one-sided ones only at r = 1 and r_max.
Every operation is elementwise, and the dt rule and the checks are a max
and a min over cells, so the tiles give one tile's bits: every snapshot,
every dt, and every NumericalAbort's stage, step, cell and message.  The
phases of a step (_strang_stages) meet at one threading.Barrier: after the
opening relaxation, whose stresses the next phase reads at the neighbours'
cells; after each RK stage, where the barrier's action checks the stage
(each tile tests its own cells, and a fault found anywhere is named by
_check over the whole arrays); before the second stage writes its values
over the first stage's, which the neighbours read; and after a closing
relaxation.  At the end of a step the action takes the driver's turn: it
records dt and plans the next step from the tiles' fast speeds.  The
calling thread steps the first tile, and copies each snapshot and calls
on_snapshot while the other tiles start the next step, which does not
write that state.  The threads start after the t = 0 snapshot, where the
command line forks its snapshot writer, so no fork sees them, and run joins
them before it returns; each runs in a copy of the caller's context,
numpy's error state included.  An exception in any tile breaks the
barrier and reaches the caller of run.  _TILE_CELLS is the smallest tile
at which two tiles beat one in at least 9 of 10 alternating process pairs
on a 2-vCPU AVX-512 x86-64 server (one explicit Strang run of the
benchmark's large pulse at tau 1e-2, the fastest of 3 runs per process,
us per step):

    cells   tile   one tile (median)   two tiles (median)   two win
    12800   6400        1236                 2640             0 / 10
    25600  12800        2585                 3355             0 / 10
    38400  19200        4270                 3602             8 / 10
    51200  25600        6164                 3827            10 / 10

A second 10 pairs per size, with the host busier, read 1, 8 and 10 wins at
25600, 38400 and 51200 cells.  Below the crossover, the two threads'
interpreter-lock hand-offs (about 4 us per ufunc call that two threads make
at once, a step's ~170 calls per tile) and four barrier crossings (20-36 us
each) cost more than the halved passes save.
"""

import contextvars
import math
import os
import threading
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .errors import FieldError, NumericalAbort
from .model import State, admissible_pressure_prime, equilibrium_stress, integer_field
from .structure import weyl_speed_bound

_TIME_EPS = 1e-12


@dataclass(frozen=True)
class SolverConfig:
    cfl: float = 0.4
    t_end: float = 1.0
    outer_bc: str = "extrapolate"
    output_every: int = 50
    n_outputs: int = 0

    def __post_init__(self):
        if not 0.0 < self.cfl <= 1.0:
            raise FieldError("cfl", f"cfl must lie in (0, 1], got {self.cfl}")
        if not 0.0 <= self.t_end < math.inf:
            raise FieldError("t_end", f"t_end must be finite and nonnegative, got {self.t_end}")
        _outer_boundary(self.outer_bc)
        object.__setattr__(self, "output_every", integer_field("output_every", self.output_every))
        if self.output_every < 1:
            raise FieldError("output_every", f"output_every must be >= 1, got {self.output_every}")
        object.__setattr__(self, "n_outputs", integer_field("n_outputs", self.n_outputs))
        if self.n_outputs < 0:
            raise FieldError("n_outputs", f"n_outputs must be >= 0, got {self.n_outputs}")

    def snapshot_times(self):
        """The times linspace(0, t_end, n_outputs + 1); None when n_outputs is 0
        (snapshots by output_every)."""
        return np.linspace(0.0, self.t_end, self.n_outputs + 1) if self.n_outputs > 0 else None


@dataclass
class Trajectory:
    outer_bc: str
    stepper: str  # the step rule that ran: "imex" (ARS(2,2,2)) or "strang"
    snapshots: list = field(default_factory=list)
    dt_history: list = field(default_factory=list)

    @property
    def times(self):
        return np.array([s.t for s in self.snapshots])

    @property
    def warnings(self):
        return _outer_boundary(self.outer_bc).warnings(self.snapshots)


class _OuterBoundary:
    # a rule for the outer face r = r_max, one instance per rule (see the
    # module docstring); the kernels reach it through their Workspace
    def equilibrium_stress(self, v, grid, params, out=None):
        # model.equilibrium_stress, one-sided at both ends under either rule
        return equilibrium_stress(v, grid, params, out=out)


class _Extrapolate(_OuterBoundary):
    # the open face: waves and mass may leave through it
    name = "extrapolate"

    def fill_outer(self, g, odd):
        # the outer ghosts of the _Ghosted g repeat cell n-1
        g.outer[...] = g.last

    def mass_flux(self, state, grid):
        # r^2 rho v through the outer face
        return grid.face_r2[-1] * state.rho[-1] * state.v[-1]

    def warnings(self, snapshots):
        # the check that guards the interpretation of an open run: every
        # field within 1e-8 of the far-field equilibrium in the last 2 cells
        for state in snapshots:
            tails = (state.rho[-2:] - 1.0, state.v[-2:], state.s1[-2:], state.s2[-2:])
            if not max(float(np.max(np.abs(f))) for f in tails) <= 1e-8:
                return [
                    f"outer-boundary contamination: fields deviate from the far-field "
                    f"equilibrium within 2 cells of r_max at t = {state.t:.6g}"
                ]
        return []


class _Reflect(_OuterBoundary):
    # the closed wall: no mass crosses it, and waves meeting it are intended
    name = "reflect"

    def fill_outer(self, g, odd):
        # the outer ghosts mirror cells n-1, n-2, an odd field's sign flipped
        if odd:
            np.negative(g.outer_mirror, out=g.outer)
        else:
            g.outer[...] = g.outer_mirror

    def mass_flux(self, state, grid):
        return 0.0

    def warnings(self, snapshots):
        return []


_OUTER_BOUNDARIES = {b.name: b for b in (_Extrapolate(), _Reflect())}


def _outer_boundary(outer_bc):
    # the rule named outer_bc; the one lookup of the string
    boundary = _OUTER_BOUNDARIES.get(outer_bc) if isinstance(outer_bc, str) else None
    if boundary is None:
        raise FieldError("outer_bc", f"outer_bc must be one of {tuple(_OUTER_BOUNDARIES)}, got {outer_bc!r}")
    return boundary


_CACHE_LINE = 64  # bytes


def _aligned_empty(*shape):
    # an uninitialized float array of shape whose first value starts on a
    # cache line (see the module docstring): a view into a buffer one line
    # longer
    size = math.prod(shape)
    raw = np.empty(size + _CACHE_LINE // 8)
    start = -raw.ctypes.data % _CACHE_LINE // 8
    return raw[start : start + size].reshape(shape)


class Workspace:
    """Scratch arrays for one grid and outer boundary rule, reused by every
    stage of a run.

    rhs_nonstiff, rhs_full, classical_rhs and step take one as work= and
    then allocate no field; the rows the right-hand sides return live in
    work.k and are overwritten by the next call that uses the workspace.
    It also owns the views the kernels read and the boundary rule they
    apply (see the module docstring); a call for another outer_bc refuses
    it with a ValueError.  Each buffer starts on a 64-byte cache line,
    where a ufunc pass writing it runs about twice as fast as one starting
    off a line; the grid's arrays and the two coefficient arrays, which
    the kernels only read, are left where numpy puts them.

    cells = (lo, hi) builds a tile's workspace instead: its buffers are the
    size of the cells lo..hi-1 and their halos, and the kernels given it
    compute those cells alone, reading the fields they are passed, which
    span the grid, at the tile and its halo.  A tile has no stress pair:
    the tiles of a run share one that spans the grid.
    """

    def __init__(self, grid, outer_bc=SolverConfig.outer_bc, cells=None):
        lo, hi = (0, grid.n_cells) if cells is None else cells
        n = hi - lo
        self.boundary = _outer_boundary(outer_bc)
        # the workspace's cells of an array that spans the grid
        self.own = slice(lo, hi)
        self.ghost = tuple(_aligned_empty(n + 4) for _ in range(3))
        self.face = tuple(_aligned_empty(n + 1) for _ in range(4))
        self.cell = tuple(_aligned_empty(n) for _ in range(3))
        self.k = tuple(_aligned_empty(n) for _ in range(4))
        # the stresses of the first Strang half step, the Newtonian
        # stresses eq(v) of rhs_full at tau = 0, or the kept part a s* of
        # an ARS stage's stresses
        self.stress = (_aligned_empty(n), _aligned_empty(n)) if cells is None else None
        self.ghosted = tuple(_Ghosted(g, self.boundary, (lo, hi, grid.n_cells)) for g in self.ghost)
        # the halves of the flux and speed face buffers, which the kernels
        # read by halves
        self.faces = tuple(_Faces(f) for f in self.face[:2])
        # constant coefficients of rhs_nonstiff: the divisor of the mass row,
        # which carries the flux's 0.5 and the minus sign (scaling by 2 is
        # exact), and the 2/r of the momentum row; and r^2 at the faces
        self.mass_div = -2.0 * grid.dr * grid.center_r2[lo:hi]
        self.two_over_r = 2.0 / grid.centers[lo:hi]
        self.face_r2 = grid.face_r2[lo : hi + 1]
        # eq(v) at the workspace's cells (equilibrium_stress), computed in
        # the ghost buffers on its cells and the halo cell each side that
        # lies inside the grid
        a, b = lo - (lo > 0), hi + (hi < grid.n_cells)
        self._eq_take, self._eq_grid = slice(a, b), _Span(b - a, grid.dr, grid.centers[a:b])
        self._eq_out = tuple(g[: b - a] for g in self.ghost)
        self._eq = tuple(g[lo - a : hi - a] for g in self.ghost[:2])

    @cached_property
    def imex(self):
        # the ARS step's buffers, made on its first use so that a run that
        # steps with Strang does not hold them
        return _ImexBuffers(self.k[0].size, self.two_over_r, self.boundary)

    def equilibrium_stress(self, v, params):
        # eq(v) of the v that spans the grid, at the workspace's cells: the
        # pair (s1, s2) in its scratch.  A tile's derivative takes central
        # differences through the neighbours' cells at its edges, and
        # one-sided ones only at r = 1 and r_max, as the grid's does
        self.boundary.equilibrium_stress(v[self._eq_take], self._eq_grid, params, out=self._eq_out)
        return self._eq


@dataclass(frozen=True)
class _Span:
    # the cells of a tile and its halo, as model.equilibrium_stress reads a
    # grid: their number, dr and their centers, the grid's own floats
    n_cells: int
    dr: float
    centers: np.ndarray


def _workspace(grid, outer_bc, work):
    # work, refused with a ValueError unless built for the rule outer_bc, or
    # a new Workspace for it when work is None
    w = Workspace(grid, outer_bc) if work is None else work
    if w.boundary is not _outer_boundary(outer_bc):
        raise ValueError(f"work was built for outer_bc {w.boundary.name!r}, not {outer_bc!r}")
    return w


class _Ghosted:
    # one field with two ghost cells per side in the (n+4,) buffer g, and
    # the views of g that its fill and the stencils read.  The views slice
    # the last axis, so a (5, n+4) g holds five fields, filled and read at
    # once (_viscous_bands).  tile = (lo, hi, n_cells) makes g a tile's: its
    # n = hi - lo cells are lo..hi-1 of the grid, and a ghost pair at a tile
    # edge holds the neighbour's two cells; None makes it the whole grid's
    def __init__(self, g, boundary, tile=None):
        self.all = g
        self.cells = g[..., 2:-2]
        # the inner ghosts mirror cells 1, 0; the outer ones are boundary's,
        # which reads its mirrors of cells n-1, n-2 or cell n-1 itself
        self.inner, self.inner_mirror = g[..., :2], g[..., 3:1:-1]
        self.outer, self.outer_mirror, self.last = g[..., -2:], g[..., -3:-5:-1], g[..., -3:-2]
        self.fill_outer = boundary.fill_outer
        # what load copies: the field's slice take into the view put of g,
        # the cells plus the ghosts at tile edges, and which walls it then
        # fills
        lo, hi, n_cells = (0, g.shape[-1] - 4, g.shape[-1] - 4) if tile is None else tile
        self.at_inner, self.at_outer = lo == 0, hi == n_cells
        self.take = slice(lo - 2 * (not self.at_inner), hi + 2 * (not self.at_outer))
        self.put = g[..., 2 * self.at_inner : g.shape[-1] - 2 * self.at_outer]
        # the cells left and right of each of the n+1 faces, and the cells
        # one further out
        self.left, self.right = g[..., 1:-2], g[..., 2:-1]
        self.far_left, self.far_right = g[..., :-3], g[..., 3:]
        # the two neighbours of each of the n cells
        self.west, self.east = g[..., 1:-3], g[..., 3:-1]

    def load(self, f, odd):
        # the field f, which spans the grid, at g's cells and their ghost
        # cells (see apply_bc); returns g
        self.put[...] = f[..., self.take]
        if self.at_inner:
            if odd:
                np.negative(self.inner_mirror, out=self.inner)
            else:
                self.inner[...] = self.inner_mirror
        if self.at_outer:
            self.fill_outer(self, odd)
        return self.all


class _Faces:
    # an (n+1,) buffer of face values and its views at the faces left and
    # right of each of the n cells, on the last axis as in _Ghosted
    def __init__(self, f):
        self.all, self.left, self.right = f, f[..., :-1], f[..., 1:]


class _ImexBuffers:
    # the bands of the implicit stage's operator, the rows of one (5, n)
    # array, which are those of the viscous operator V at tau = 0 for the
    # (mu, lambda) of key (None when they are not); the five comb probes
    # that give them (_Combs); the explicit stage values of v and of the
    # stresses; the accumulators of rho, v, s1, s2; the stage solve's
    # diagonal, right-hand side and factor rows; the stage's a and W (see
    # _implicit_stage); and its load G(a s*)
    def __init__(self, n, two_over_r, boundary):
        self.bands = _aligned_empty(5, n)
        self.key = None
        self.combs = _Combs(n, two_over_r, boundary)
        self.stage_v = _aligned_empty(n)
        self.stage_s = (_aligned_empty(n), _aligned_empty(n))
        self.acc = tuple(_aligned_empty(n) for _ in range(4))
        self.solve = tuple(_aligned_empty(n) for _ in range(4))
        self.relax = (_aligned_empty(n), _aligned_empty(n))
        self.load = _aligned_empty(n)


class _Combs:
    # the five comb probes of _viscous_bands, one per row of (5, n) arrays:
    # eq holds the stresses E c_k of the combs for the (mu, lambda) of key
    # (None before the first probe), weighted the W E c_k and probe the
    # G W E c_k.  ghosted, faces and two_over_r are what _stress_divergence
    # reads of a Workspace (it takes its scratch from faces[1]), five rows
    # deep, so the one stencil probes all five combs at once.  Row i of band
    # o + 2, A[i, i+o], is probe[(i+o) mod 5, i], the flat index gather[o+2, i]
    def __init__(self, n, two_over_r, boundary):
        self.eq = (_aligned_empty(5, n), _aligned_empty(5, n))
        self.key = None
        self.weighted = (_aligned_empty(5, n), _aligned_empty(5, n))
        self.probe = _aligned_empty(5, n)
        self.flat_probe = self.probe.reshape(-1)
        self.ghosted = tuple(_Ghosted(_aligned_empty(5, n + 4), boundary) for _ in range(2))
        self.faces = (None, _Faces(_aligned_empty(5, n + 1)))
        self.two_over_r = two_over_r
        cells = np.arange(n)
        self.gather = (cells + np.arange(-2, 3)[:, None]) % 5 * n + cells


def _empty_state(n):
    return State(*(_aligned_empty(n) for _ in range(4)))


def apply_bc(state, grid, params, outer_bc=SolverConfig.outer_bc):
    """Ghost-augmented (rho, v, s1, s2), two ghost cells per side.

    Inner face r = 1: v odd-reflected (v = 0 at the face), the rest
    even-reflected, under every outer_bc.  Outer face, the rule outer_bc
    names: "extrapolate" repeats the last cell (zero-order extrapolation),
    "reflect" mirrors like the inner face, v with its sign flipped.
    """
    boundary = _outer_boundary(outer_bc)
    n = grid.n_cells
    return tuple(
        _Ghosted(np.empty(n + 4), boundary).load(f, odd)
        for f, odd in ((state.rho, False), (state.v, True), (state.s1, False), (state.s2, False))
    )


def _refuse_tau_zero(name, params, instead):
    if params.tau <= 0.0:
        raise ValueError(f"{name} requires tau > 0; use {instead} for tau = 0")


_KAPPA4 = 1.0 / 16.0  # fourth-difference dissipation strength


def _upwind_split(a, dr, lo, hi):
    # lo <- -max(a, 0) / dr and hi <- -min(a, 0) / dr, the coefficients of
    # _upwind_into; a may be hi itself
    np.multiply(-1.0 / dr, a, out=hi)
    np.minimum(hi, 0.0, out=lo)
    np.maximum(hi, 0.0, out=hi)


def _upwind_into(out, lo, hi, g, diff, tmp):
    # out <- -a dg/dr upwinded, lo * backward + hi * forward, for the
    # _Ghosted field g with lo, hi from _upwind_split; the backward and
    # forward differences are the two halves of one one-sided difference
    # at the faces, the _Faces diff
    np.subtract(g.right, g.left, out=diff.all)
    np.multiply(lo, diff.left, out=out)
    np.multiply(hi, diff.right, out=tmp)
    np.add(out, tmp, out=out)


def _central_into(out, g, scale):
    # scale times the undivided central difference at the n cells of the
    # _Ghosted field g; scale carries the 1/(2 dr)
    np.subtract(g.east, g.west, out=out)
    np.multiply(scale, out, out=out)


def _flow_rows(rho, v, stresses, grid, params, w):
    # the mass and momentum rows at w's cells into w.k[:2], returned; the
    # fields span the grid.  The momentum row
    # carries the stress divergence only when stresses is a pair (s1, s2);
    # with None it is the classical step's explicit part.  Given stresses, it
    # leaves them ghost-augmented in w.ghost[:2]; either way it leaves the
    # upwind split of v in w.cell[1:] for _stress_rows
    gamma = params.gamma
    # each buffer is reused once the value it holds is spent, so a name
    # below may alias an earlier one (tmp is speed[:n], face_tmp is g2[:n+1]).
    # Every constant factor rides in one scalar or coefficient array, so each
    # term costs one pass over the grid
    rho_e, v_e, g2 = w.ghosted
    flux, speed, sound, jump = w.face
    flux_f, speed_f = w.faces
    grad, lo, hi = w.cell
    drho, dv = w.k[:2]
    tmp = speed_f.left
    rho_e.load(rho, False)
    v_e.load(v, True)

    # flux-form mass update: central face flux, |v|-upwind diffusion for the
    # convective part, and a fourth-difference dissipation at the acoustic
    # speed.  The last term damps the density checkerboard that the central
    # pressure gradient cannot see (it annihilates odd-even modes) while
    # staying O(dr^3) on smooth fields.  Odd v / even rho ghosts zero every
    # boundary face flux exactly, so the cell sum of r^2 rho telescopes.
    #   flux = 0.5 face_r2 ((m_l + m_r) - |v_f| (rho_r - rho_l)
    #                       + KAPPA4 (|v_f| + c_f) d3)
    # with m = rho v, v_f = 0.5 (v_l + v_r), c_f = sqrt(P'(0.5 (rho_l + rho_r)))
    # and d3 = (rho[i+2] - rho[i-1]) - 3 (rho_r - rho_l), the third
    # difference of rho across the face;
    #   drho = -(flux_right - flux_left) / (r^2 dr)
    # c_f is sqrt(a gamma 0.5^(gamma-1)) (rho_l + rho_r)^((gamma-1)/2), and
    # the 0.5 of the flux rides in w.mass_div
    np.multiply(rho_e.all, v_e.all, out=g2.all)  # m
    np.add(g2.left, g2.right, out=flux)
    np.add(v_e.left, v_e.right, out=speed)
    np.multiply(0.5, speed, out=speed)
    np.abs(speed, out=speed)
    np.add(rho_e.left, rho_e.right, out=sound)
    np.power(sound, 0.5 * (gamma - 1.0), out=sound)
    np.multiply(math.sqrt(params.a_coef * gamma * 0.5 ** (gamma - 1.0)), sound, out=sound)
    face_tmp = g2.far_left
    np.subtract(rho_e.right, rho_e.left, out=jump)
    np.multiply(speed, jump, out=face_tmp)
    np.subtract(flux, face_tmp, out=flux)
    d3 = face_tmp
    np.subtract(rho_e.far_right, rho_e.far_left, out=d3)
    np.multiply(3.0, jump, out=jump)
    np.subtract(d3, jump, out=d3)
    np.add(speed, sound, out=sound)
    np.multiply(_KAPPA4, sound, out=sound)
    np.multiply(sound, d3, out=sound)
    np.add(flux, sound, out=flux)
    np.multiply(w.face_r2, flux, out=flux)
    np.subtract(flux_f.right, flux_f.left, out=drho)
    np.divide(drho, w.mass_div, out=drho)

    # momentum: dv = -(v dv/dr)_upwind + (-dP/dr + 2/3 ds1/dr + 2 s1/r + ds2/dr) / rho
    np.power(rho_e.all, gamma, out=g2.all)  # p
    _central_into(grad, g2, -params.a_coef / (2.0 * grid.dr))
    _upwind_split(v_e.cells, grid.dr, lo, hi)
    _upwind_into(dv, lo, hi, v_e, flux_f, tmp)
    if stresses is not None:
        _stress_divergence(grad, *stresses, grid, w)
    np.divide(grad, rho[w.own], out=grad)
    np.add(dv, grad, out=dv)
    return drho, dv


def _stress_divergence(acc, s1, s2, grid, w):
    # acc += 2/3 ds1/dr + 2 s1/r + ds2/dr, the stress terms of the momentum
    # row times rho at w's cells, by central differences through the
    # stresses' ghost cells, which it leaves in w.ghost[:2]; acc is neither
    # of those nor w.face[1], whose first n values are scratch
    tmp = w.faces[1].left
    s1_e, s2_e = w.ghosted[:2]
    s1_e.load(s1, False)
    s2_e.load(s2, False)
    _central_into(tmp, s1_e, 1.0 / (3.0 * grid.dr))  # 2/3 times 1/(2 dr)
    np.add(acc, tmp, out=acc)
    np.multiply(w.two_over_r, s1_e.cells, out=tmp)
    np.add(acc, tmp, out=acc)
    _central_into(tmp, s2_e, 0.5 / grid.dr)
    np.add(acc, tmp, out=acc)
    return acc


def _stress_rows(v, grid, params, w):
    # the stress transport at speed v - eps at w's cells into w.k[2:],
    # returned; it reads the stresses' ghost-augmented arrays in w.ghost[:2]
    # and what _flow_rows, called on the same v and workspace, left in w.
    # At eps = 0 the speed is v itself, whose upwind split is already there
    s1_e, s2_e = w.ghosted[:2]
    flux_f, speed_f = w.faces
    lo, hi = w.cell[1:]
    ds1, ds2 = w.k[2:]
    tmp = speed_f.left
    if params.eps != 0.0:
        np.subtract(v[w.own], params.eps, out=hi)
        _upwind_split(hi, grid.dr, lo, hi)
    _upwind_into(ds1, lo, hi, s1_e, flux_f, tmp)
    _upwind_into(ds2, lo, hi, s2_e, flux_f, tmp)
    return ds1, ds2


def rhs_nonstiff(state, grid, params, outer_bc=SolverConfig.outer_bc, include_production=True, work=None):
    """Discrete time derivatives of all terms except the -s/(tau rho) decay.

    With include_production=False the stress rows carry transport only; the
    split integrator uses that variant and hands the whole relaxation source
    to relax_substep.  The production needs tau > 0: at tau = 0 it is refused
    with a ValueError.  Returns the four rows; with work= they are work.k.
    """
    if include_production:
        _refuse_tau_zero("rhs_nonstiff with include_production=True", params, "rhs_full")
    w = _workspace(grid, outer_bc, work)
    _flow_rows(state.rho, state.v, (state.s1, state.s2), grid, params, w)
    ds1, ds2 = _stress_rows(state.v, grid, params, w)
    if include_production:
        grad, lo, hi = w.cell
        eq1, eq2 = w.boundary.equilibrium_stress(state.v, grid, params, out=(lo, hi, w.faces[1].left))
        trho = np.multiply(params.tau, state.rho, out=grad)
        np.divide(eq1, trho, out=eq1)
        np.add(ds1, eq1, out=ds1)
        np.divide(eq2, trho, out=eq2)
        np.add(ds2, eq2, out=ds2)
    return w.k


def rhs_full(state, grid, params, outer_bc=SolverConfig.outer_bc, work=None):
    """Complete discrete right-hand side of the system at params.tau >= 0.

    At tau > 0 the relaxed rows with the relaxation sources.  At tau = 0 the
    classical rows: the relaxed momentum row with s1, s2 replaced by eq(v),
    so the baseline is spatially the relaxed scheme's tau -> 0 limit, and
    stress rows eq(dv/dt), the time derivative of eq(v) by linearity.  With
    work= the rows are work.k.
    """
    w = _workspace(grid, outer_bc, work)
    if params.tau == 0.0:
        stresses = w.boundary.equilibrium_stress(state.v, grid, params, out=(*w.stress, w.cell[0]))
        drho, dv = _flow_rows(state.rho, state.v, stresses, grid, params, w)
        ds1, ds2 = w.boundary.equilibrium_stress(dv, grid, params, out=(*w.k[2:], w.cell[0]))
        return drho, dv, ds1, ds2
    drho, dv, ds1, ds2 = rhs_nonstiff(state, grid, params, outer_bc, include_production=True, work=w)
    trho, decay = w.cell[:2]
    np.multiply(params.tau, state.rho, out=trho)
    np.divide(state.s1, trho, out=decay)
    np.subtract(ds1, decay, out=ds1)
    np.divide(state.s2, trho, out=decay)
    np.subtract(ds2, decay, out=ds2)
    return drho, dv, ds1, ds2


def _relax(rho, v, stresses, dt, params, w, out):
    # out <- the exact relaxation of the pair stresses over dt at frozen
    # rho, v, at w's cells; every array spans the grid, only w's cells of
    # the pair out are written, and out may be stresses itself
    own = w.own
    eq1, eq2 = w.equilibrium_stress(v, params)
    decay = w.k[3]
    np.divide(-dt / params.tau, rho[own], out=decay)
    np.exp(decay, out=decay)
    for s, dst, eq in zip(stresses, out, (eq1, eq2)):
        dst = dst[own]
        np.subtract(s[own], eq, out=dst)
        np.multiply(dst, decay, out=dst)
        np.add(eq, dst, out=dst)


def relax_substep(state, dt, grid, params):
    """Exact exponential solve of ds/dt = (eq - s)/(tau rho) at frozen rho, v.

    Unconditionally stable; the stresses land exactly on equilibrium as
    dt/(tau rho) -> infinity.  At tau = 0 it is refused with a ValueError.
    """
    _refuse_tau_zero("relax_substep", params, "run")
    out = state.copy()
    _relax(state.rho, state.v, (state.s1, state.s2), dt, params, Workspace(grid), (out.s1, out.s2))
    return out


def _dt_scratch(rho, params, work):
    # (P', a, b): P' of rho, and two scratch arrays, in work.k or fresh.
    # rho has passed _check, so rho > 0 is not tested again
    dp, a, b = (np.empty(rho.size) for _ in range(3)) if work is None else work.k[:3]
    return admissible_pressure_prime(rho, params, out=dp), a, b


def _fast_speed(rho, v, params, work):
    # max_char_speed of the admissible rho, v (weyl_speed_bound), the speed
    # of compute_dt; a max, so the tiles' maxima give the grid's bit for bit
    dp, a, b = _dt_scratch(rho, params, work)
    return weyl_speed_bound(rho, v, dp, params, out=(a, b))


def compute_dt(state, grid, params, cfl, work=None):
    """Explicit Strang's step: the fast-wave CFL step cfl dr / max_char_speed.

    max_char_speed is the exact speed at eps = 0 and at most eps above it
    otherwise.  The step is stable: per Fourier mode sigma <= 1/dr the stiff
    part of a Strang step is a 2x2 map of det exp(-dt/(tau rho)), stable iff
    dt K sigma^2 / rho <= 2 coth(dt / (2 tau rho)), K = 4 mu/3 + lambda, and
    coth(x) >= 1/x.  rho > 0 is not tested: the driver's states have passed
    its admissibility check.  With work= the speeds are computed in work.k
    and nothing of the grid's length is allocated.
    """
    _refuse_tau_zero("compute_dt", params, "compute_dt_classical")
    return cfl * grid.dr / _fast_speed(state.rho, state.v, params, work)


def compute_dt_classical(state, grid, params, cfl, work=None):
    """The ARS(2,2,2) step's CFL step, cfl dr / max(|v| + sqrt(P'), |v - eps|).

    At tau = 0 each stage replaces the transported stresses by eq(v), so
    the transport bounds nothing there and the step is the acoustic step
    cfl dr / max(|v| + sqrt(P')) whatever eps is; a relaxed run that steps
    with ARS(2,2,2) counts the stress transport speed |v - eps| too.
    The stiff terms are implicit, so neither the viscous bound nor the fast
    stress wave bounds it.  rho > 0 is not tested, as in compute_dt.  With
    work= the speeds are computed in work.k.
    """
    dp, c, speed = _dt_scratch(state.rho, params, work)
    np.sqrt(dp, out=c)
    np.add(np.abs(state.v, out=speed), c, out=speed)
    if params.tau > 0.0:
        np.abs(np.subtract(state.v, params.eps, out=c), out=c)
        np.maximum(speed, c, out=speed)
    return cfl * (grid.dr / float(speed.max()))


_MIN, _MAX = np.minimum.reduce, np.maximum.reduce


def _admissible(fields):
    # the four arrays fields, the ones a stage computed with rho first,
    # finite, and rho > 0: the min and max of each field.  Both propagate a
    # NaN and pass on an inf, do no arithmetic, so they raise no
    # floating-point error under any numpy error state, and call no BLAS.
    # The ufuncs' reductions are called directly, unrolled: at n = 800 the
    # eight calls are most of a check's cost
    rho, v, s1, s2 = fields
    finite = math.isfinite
    return (
        _MIN(rho) > 0.0
        and finite(_MAX(rho))
        and finite(_MIN(v))
        and finite(_MAX(v))
        and finite(_MIN(s1))
        and finite(_MAX(s1))
        and finite(_MIN(s2))
        and finite(_MAX(s2))
    )


def _check(fields, step_idx, stage):
    # fields admissible (_admissible), or a NumericalAbort that names the
    # first non-finite cell, or else the least density
    if _admissible(fields):
        return
    bad = ~np.all([np.isfinite(f) for f in fields], axis=0)
    if np.any(bad):
        cell = int(np.argmax(bad))
        raise NumericalAbort(
            f"non-finite field after {stage} at step {step_idx}, cell {cell}",
            step=step_idx,
            cell=cell,
        )
    rho = fields[0]
    cell = int(np.argmin(rho))
    raise NumericalAbort(
        f"rho = {rho[cell]:.3g} <= 0 after {stage} at step {step_idx}, cell {cell}",
        step=step_idx,
        cell=cell,
    )


def _strang_stages(state, out, stress, dt, grid, params, w, owed, close):
    # one Strang step (see step) at w's cells, from the State state into the
    # State out, with the opening relaxation's stresses in the pair stress.
    # Every array spans the grid, and only w's cells of out and stress are
    # written.  It yields after each phase the name of the check then due
    # on out, or None where tiles only wait for each other: after the
    # opening relaxation, whose stresses the next phase reads at the
    # neighbours' cells, and before the second stage writes the first
    # stage's values in place, which the neighbours read.  state is not
    # written, and out.t is left to the caller
    own = w.own
    rho, v = state.rho, state.v
    _relax(rho, v, (state.s1, state.s2), owed + 0.5 * dt, params, w, stress)
    yield None
    # SSP-RK2 (Heun) on the non-stiff part, production excluded, to t + dt
    # into out, which holds the middle stage on the way
    fields = (rho, v, *stress)
    stage = (out.rho, out.v, out.s1, out.s2)
    _flow_rows(rho, v, stress, grid, params, w)
    _stress_rows(v, grid, params, w)
    for f, g, k in zip(fields, stage, w.k):
        np.multiply(dt, k, out=k)
        np.add(f[own], k, out=g[own])
    yield "rk2 stage 1"
    _flow_rows(out.rho, out.v, stage[2:], grid, params, w)
    _stress_rows(out.v, grid, params, w)
    yield None
    for f, g, k in zip(fields, stage, w.k):
        g = g[own]
        np.add(f[own], g, out=g)
        np.multiply(dt, k, out=k)
        np.add(g, k, out=g)
        np.multiply(0.5, g, out=g)
    yield "rk2 stage 2"
    if close:
        _relax(out.rho, out.v, stage[2:], 0.5 * dt, params, w, stage[2:])
        yield "step"


def step(state, grid, params, cfg, dt=None, step_idx=0, out=None, work=None, *, owed=0.0, close=True):
    """Advance one Strang step: half relaxation, transport, half relaxation.

    dt defaults to the CFL step of compute_dt.  The new state is written to
    out (a State of the grid's length, not state itself) when given, and to a
    new State otherwise; state is never written.

    owed and close let a driver relax once per step.  The opening relaxation
    runs over owed + dt/2, where owed is the closing half that the step
    before left out; with close=False this step leaves its own closing half
    out, and out holds the transported state, which owes dt/2.  Both halves
    act on the same frozen rho and v, so they compose into one exact solve,
    to rounding.  The defaults are the full Strang step.  Each transport
    stage is checked, and so is a closed state.  At tau = 0
    it is refused with a ValueError: run steps the classical baseline there.
    """
    _refuse_tau_zero("step", params, "run")
    if out is state:
        raise ValueError("step cannot write its input state")
    w = _workspace(grid, cfg.outer_bc, work)
    if dt is None:
        dt = compute_dt(state, grid, params, cfg.cfl, work=w)
    out = _empty_state(grid.n_cells) if out is None else out
    for stage in _strang_stages(state, out, w.stress, dt, grid, params, w, owed, close):
        if stage is not None:
            _check((out.rho, out.v, out.s1, out.s2), step_idx, stage)
    out.t = state.t + dt
    return out


# ARS(2,2,2): gamma = 1 - 1/sqrt(2), delta = 1 - 1/(2 gamma)
_ARS_GAMMA = 1.0 - math.sqrt(0.5)
_ARS_DELTA = 1.0 - 0.5 / _ARS_GAMMA


def _viscous_bands(grid, params, w, weight):
    # the bands (A[i, i-2], A[i, i-1], A[i, i], A[i, i+1], A[i, i+2]) of the
    # pentadiagonal A = G W E at row i, the rows of a (5, n) array: E = eq,
    # G the stress divergence (times rho) of the momentum row, and
    # W = diag(weight); entries outside the matrix are 0.  A couples cells
    # at most two apart, so the comb c_k, 1 at the cells j = k mod 5, meets
    # each row's stencil at one cell, and (A c_k)[i] is A[i, j] there: five
    # probes give every band, through the one stress closure, and they run
    # as one pass over (5, n) arrays.  The E c_k depend on the grid, mu and
    # lambda only, and w.imex.combs keeps them.  W changes with each stage's
    # rho, so A is probed on every call, except at tau = 0: there W is
    # exactly 1, A is the viscous operator V = G E, which depends on the
    # grid, mu, lambda and w's boundary rule only, and w.imex keeps its bands
    imex = w.imex
    key = (params.mu, params.lambda_) if params.tau == 0.0 else None
    if key is not None and imex.key == key:
        return imex.bands
    combs = imex.combs
    probe = combs.probe
    eq1, eq2 = combs.eq
    s1, s2 = combs.weighted
    if combs.key != (params.mu, params.lambda_):
        probe.fill(0.0)
        for k in range(5):
            probe[k, k::5] = 1.0
            w.boundary.equilibrium_stress(probe[k], grid, params, out=(eq1[k], eq2[k], s1[k]))
        combs.key = (params.mu, params.lambda_)
    np.multiply(weight, eq1, out=s1)
    np.multiply(weight, eq2, out=s2)
    probe.fill(0.0)
    _stress_divergence(probe, s1, s2, grid, combs)
    # mode="raise" would buffer its output
    np.take(combs.flat_probe, combs.gather, out=imex.bands, mode="clip")
    imex.key = key
    return imex.bands


def _solve_pentadiagonal(lo2, lo1, diag, up1, up2, f, x, u0, u1):
    # x <- A^-1 f for the pentadiagonal A with A[i, i-2] = lo2[i],
    # A[i, i-1] = lo1[i], A[i, i] = diag[i], A[i, i+1] = up1[i] and
    # A[i, i+2] = up2[i]; entries outside the matrix, if finite, are
    # ignored.  Gaussian elimination without pivoting, over memoryviews in
    # Python floats, so nothing of the grid's length is allocated; u0 and u1
    # receive the upper factor's diagonal and first superdiagonal (its
    # second is up2), and x the eliminated right-hand side on the way
    n = len(f)
    lo2, lo1, diag, up1, up2, f, x, u0, u1 = map(memoryview, (lo2, lo1, diag, up1, up2, f, x, u0, u1))
    # pivot, superdiagonals and right-hand side of the rows i-2 (p) and i-1
    # (q), eliminated; before row 0 they are inert.  The forward loop
    # eliminates the rows i and i+1 per pass, so p and q swap roles instead
    # of shifting, and an odd last row is eliminated after it
    p0, p1, p2, py = q0, q1, q2, qy = 1.0, 0.0, 0.0, 0.0
    rows = (band[start::2] for start in (0, 1) for band in (lo2, lo1, diag, up1, up2, f))
    for i, e, c, d, a, b, y, e1, c1, d1, a1, b1, y1 in zip(range(0, n, 2), *rows):
        m2 = e / p0
        m1 = (c - m2 * p1) / q0
        p0 = d - m2 * p2 - m1 * q1
        p1 = a - m1 * q2
        p2, py = b, y - m2 * py - m1 * qy
        m2 = e1 / q0
        m1 = (c1 - m2 * q1) / p0
        q0 = d1 - m2 * q2 - m1 * p1
        q1 = a1 - m1 * p2
        q2, qy = b1, y1 - m2 * qy - m1 * py
        u0[i] = p0
        u1[i] = p1
        x[i] = py
        u0[i + 1] = q0
        u1[i + 1] = q1
        x[i + 1] = qy
    if n % 2:
        m2 = lo2[-1] / p0
        m1 = (lo1[-1] - m2 * p1) / q0
        u0[-1] = diag[-1] - m2 * p2 - m1 * q1
        u1[-1] = up1[-1] - m1 * q2
        x[-1] = f[-1] - m2 * py - m1 * qy
    # back substitution, the rows i and i-1 per pass after an odd last row;
    # x1 and x2 hold the solution at the rows i+1 and i+2
    x1 = x2 = 0.0
    if n % 2:
        x[-1] = x1 = (x[-1] - u1[-1] * x1 - up2[-1] * x2) / u0[-1]
    top = n - n % 2 - 1
    rows = (band[start::-2] for start in (top, top - 1) for band in (x, u1, up2, u0))
    for i, y, a, b, d, y1, a1, b1, d1 in zip(range(top, 0, -2), *rows):
        x2 = (y - a * x1 - b * x2) / d
        x1 = (y1 - a1 * x2 - b1 * x1) / d1
        x[i] = x2
        x[i - 1] = x1
    return x


def _implicit_stage(star, h, grid, params, w, out):
    # out.v, out.s1, out.s2 <- the implicit part of an ARS stage with the
    # stage values star = (rho*, v*, s1*, s2*), rho* the stage density:
    #   rho v = rho v* + h G s,   s = s* + h (eq(v) - s) / (tau rho).
    # The second is s = a s* + W eq(v), a = tau rho / (tau rho + h),
    # W = h / (tau rho + h), and eliminating s leaves one pentadiagonal
    # system, (diag(rho) - h G W E) v = rho v* + h G(a s*), solved as
    # (G W E - diag(rho/h)) v = -(rho/h) v* - G(a s*).  Nothing is divided
    # by tau: at tau = 0, a = 0 and W = h/h = 1 exactly, so s = eq(v) and
    # the finite s* change no bit
    rho, vstar, *sstar = star
    imex = w.imex
    keep, weight = imex.relax
    np.multiply(params.tau, rho, out=keep)
    np.add(keep, h, out=weight)
    np.divide(keep, weight, out=keep)
    np.divide(h, weight, out=weight)
    bands = _viscous_bands(grid, params, w, weight)
    kept = w.stress  # a s*
    for s, k in zip(sstar, kept):
        np.multiply(keep, s, out=k)
    load = imex.load
    load.fill(0.0)
    _stress_divergence(load, *kept, grid, w)
    diag, f, u0, u1 = imex.solve
    np.divide(rho, -h, out=f)
    np.add(bands[2], f, out=diag)
    np.multiply(f, vstar, out=f)
    np.subtract(f, load, out=f)
    _solve_pentadiagonal(bands[0], bands[1], diag, bands[3], bands[4], f, out.v, u0, u1)
    w.boundary.equilibrium_stress(out.v, grid, params, out=(out.s1, out.s2, w.cell[0]))
    for s, k in zip((out.s1, out.s2), kept):
        np.multiply(weight, s, out=s)
        np.add(k, s, out=s)


def _explicit_rows(rho, v, stresses, grid, params, w):
    # the explicit rows of an ARS stage into w.k, returned: mass, momentum
    # without the stress divergence, and the stresses' transport at speed
    # v - eps
    rows = _flow_rows(rho, v, None, grid, params, w)
    for s, g in zip(stresses, w.ghosted):
        g.load(s, False)
    return rows + _stress_rows(v, grid, params, w)


def _step_classical(state, grid, params, cfg, dt, step_idx, out=None, work=None, *, owed=0.0, close=True):
    # one ARS(2,2,2) step of the system at params.tau >= 0, see the module
    # docstring; owed and close are step's, and an ARS step owes nothing.
    # The stage-1 implicit terms, needed by stage 2, are (U1 - U*)/h, not a
    # second operator call
    w = _workspace(grid, cfg.outer_bc, work)
    out = _empty_state(grid.n_cells) if out is None else out
    imex = w.imex
    h = _ARS_GAMMA * dt
    # the stage values U* (out.rho is the stage density) and the
    # accumulators of the stage-2 explicit part
    star = (out.rho, imex.stage_v, *imex.stage_s)

    rows = _explicit_rows(state.rho, state.v, (state.s1, state.s2), grid, params, w)
    for f, k, u, a in zip((state.rho, state.v, state.s1, state.s2), rows, star, imex.acc):
        np.multiply(h, k, out=u)
        np.add(f, u, out=u)
        np.multiply(_ARS_DELTA * dt, k, out=a)
        np.add(f, a, out=a)
    _check(star, step_idx, "imex stage 1")
    _implicit_stage(star, h, grid, params, w, out)
    # (1 - gamma) dt times the stage-1 implicit terms (U1 - U*)/h
    for u1, u, a in zip((out.v, out.s1, out.s2), star[1:], imex.acc[1:]):
        np.subtract(u1, u, out=u)
        np.multiply((1.0 - _ARS_GAMMA) / _ARS_GAMMA, u, out=u)
        np.add(a, u, out=a)

    rows = _explicit_rows(out.rho, out.v, (out.s1, out.s2), grid, params, w)
    for k, u, a in zip(rows, star, imex.acc):
        np.multiply((1.0 - _ARS_DELTA) * dt, k, out=k)
        np.add(a, k, out=u)
    _check(star, step_idx, "imex stage 2")
    _implicit_stage(star, h, grid, params, w, out)
    out.t = state.t + dt
    _check((out.rho, out.v, out.s1, out.s2), step_idx, "step")
    return out


def classical_rhs(state, grid, params, outer_bc=SolverConfig.outer_bc, work=None):
    """rhs_full at tau = 0, whatever params.tau is: the classical system's rows."""
    return rhs_full(state, grid, replace(params, tau=0.0), outer_bc, work)


def _record(traj, state, on_snapshot):
    snap = state.copy()
    traj.snapshots.append(snap)
    if on_snapshot is not None:
        on_snapshot(snap)


class _Clock:
    # when a run's steps end and which of them close on a snapshot: every
    # cfg.output_every steps and at t_end, or at the output times (cfg's
    # snapshot_times() when None is given)
    def __init__(self, cfg, output_times, t0):
        if output_times is None:
            output_times = cfg.snapshot_times()
        self.t_end, self.every = cfg.t_end, cfg.output_every
        self.tol = _TIME_EPS * max(cfg.t_end, 1.0)
        self.pending = None
        if output_times is not None:
            # times within tol of the start or of an earlier time would ask
            # for a step of (nearly) zero length
            self.pending = []
            for t in sorted(output_times):
                if t > (self.pending[-1] if self.pending else t0) + self.tol:
                    self.pending.append(t)

    def done(self, t):
        return not t < self.t_end - self.tol

    def next(self, t, dt, step_idx):
        # (dt, snap) for the step step_idx from t that the dt rule proposed
        # as dt: clipped to land on the next output time and on t_end, and
        # whether it closes on a snapshot.  A dt that is not finite or
        # within tol of 0 is a NumericalAbort
        if not math.isfinite(dt) or dt <= self.tol:
            raise NumericalAbort(f"time step collapsed to {dt:.3g} at t = {t:.6g}", step=step_idx)
        pending = self.pending
        dt = min(dt, max((pending[0] if pending else self.t_end) - t, 0.0), self.t_end - t)
        # the step's end time, as the step computes it
        t_next = t + dt
        at_end = t_next >= self.t_end - self.tol
        if pending is None:
            return dt, (step_idx + 1) % self.every == 0 or at_end
        hit_output = bool(pending) and t_next >= pending[0] - self.tol
        if hit_output:
            pending.pop(0)
        return dt, hit_output or at_end


def _advance(initial, grid, params, cfg, output_times, stepper, dt_rule, step_rule, on_snapshot=None):
    # the one driver: dt_rule(state, grid, params, cfl, work=) proposes the
    # step, step_rule(state, grid, params, cfg, dt, step_idx, out=, work=,
    # owed=, close=) takes it, and the Trajectory records the step rule's
    # name stepper; on_snapshot, if given, is called with each snapshot as it
    # is recorded.  initial has passed _admit.  Two State buffers take
    # turns as the step's input and output, and one Workspace, for cfg's
    # boundary rule, serves the dt rule and every stage (its k rows are free
    # between steps), so a step allocates no field.  A step is closed only
    # when it ends on a snapshot or at t_end; otherwise its closing half
    # relaxation is owed to the next step's opening half.  The dt rule may
    # run on an open state: it reads rho and v only, which the relaxation
    # leaves unchanged.  A "strang" run that _tile_bounds cuts into more
    # than one tile takes its steps on the tiles (_Tiles) instead of through
    # dt_rule and step_rule, with the same bits
    clock = _Clock(cfg, output_times, initial.t)
    traj = Trajectory(outer_bc=cfg.outer_bc, stepper=stepper)
    # the caller's arrays may start anywhere: copy them into aligned ones
    state = _empty_state(grid.n_cells)
    state.t = initial.t
    for name in ("rho", "v", "s1", "s2"):
        getattr(state, name)[...] = getattr(initial, name)
    spare = _empty_state(grid.n_cells)
    _record(traj, state, on_snapshot)
    bounds = _tile_bounds(grid.n_cells) if stepper == "strang" else None
    if bounds is not None and len(bounds) > 2 and not clock.done(state.t):
        _Tiles(bounds, grid, params, cfg, clock, traj, on_snapshot).run(state, spare)
        return traj
    work = Workspace(grid, cfg.outer_bc)
    step_idx = 0
    owed = 0.0
    while not clock.done(state.t):
        dt, snap = clock.next(state.t, dt_rule(state, grid, params, cfg.cfl, work=work), step_idx)
        state, spare = (
            step_rule(state, grid, params, cfg, dt, step_idx, out=spare, work=work, owed=owed, close=snap),
            state,
        )
        owed = 0.0 if snap else 0.5 * dt
        step_idx += 1
        traj.dt_history.append(dt)
        if snap:
            _record(traj, state, on_snapshot)
    return traj


# the fewest cells per tile that a Strang run is cut into tiles for; below
# two of them a run steps on one tile (see the module docstring)
_TILE_CELLS = 25600


def _usable_cpus():
    # the CPUs this process may run on; 1 where the platform keeps no
    # affinity mask
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return 1


def _tile_bounds(n):
    # the edges lo_0 = 0 < lo_1 < ... < lo_T = n of the T = min(usable CPUs,
    # n // _TILE_CELLS) tiles, at least one, that a Strang run of n cells
    # steps on; each inner edge is a multiple of 8 cells, so that every
    # tile's cells of the grid's arrays start on a cache line
    tiles = max(1, min(_usable_cpus(), n // _TILE_CELLS))
    return [0, *(n * k // (8 * tiles) * 8 for k in range(1, tiles)), n]


class _Tiles:
    # the explicit Strang steps of one run on the tiles bounds cuts, one
    # thread per tile, the calling thread stepping the first; see the module
    # docstring.  run(state, spare) takes the steps from state, the two
    # States taking turns as in _advance, and records into traj
    def __init__(self, bounds, grid, params, cfg, clock, traj, on_snapshot):
        self.grid, self.params, self.cfg = grid, params, cfg
        self.clock, self.traj, self.on_snapshot = clock, traj, on_snapshot
        self.works = [Workspace(grid, cfg.outer_bc, cells) for cells in zip(bounds, bounds[1:])]
        self.stress = (_aligned_empty(grid.n_cells), _aligned_empty(grid.n_cells))
        # per tile: its cells of out admissible after the last phase
        self.ok = [True] * len(self.works)

    def _speed(self, i, state):
        w = self.works[i]
        return _fast_speed(state.rho[w.own], state.v[w.own], self.params, w)

    def _plan(self):
        # the next step's (dt, close) from the tiles' speeds of self.state,
        # or None at t_end
        t = self.state.t
        if self.clock.done(t):
            return None
        dt = self.cfg.cfl * self.grid.dr / max(self.speed)
        return self.clock.next(t, dt, self.step_idx)

    def run(self, state, spare):
        self.state, self.spare, self.step_idx, self.owed, self.snap = state, spare, 0, 0.0, None
        # per tile: its fast speed of the state a step starts from
        self.speed = [self._speed(i, state) for i in range(len(self.works))]
        self.plan = self._plan()
        errors = [None] * len(self.works)
        # the barrier holds self (its action), so self must not hold it: the
        # run's buffers are freed when run returns, not at the next garbage
        # collection
        barrier = threading.Barrier(len(self.works), action=self._sync)
        # each worker runs in a copy of the caller's context, so that numpy's
        # error state (a context variable) is the caller's in every tile
        threads = [
            threading.Thread(
                target=contextvars.copy_context().run, args=(self._tile, i, barrier, errors), name=f"relaxns-tile-{i}"
            )
            for i in range(1, len(self.works))
        ]
        try:
            for thread in threads:
                thread.start()
            self._tile(0, barrier, errors)
        except BaseException:
            # a thread that could not start: the others leave the barrier
            barrier.abort()
            raise
        finally:
            for thread in threads:
                if thread.ident is not None:
                    thread.join()
        # a tile's own error, in tile order, over the broken barrier the
        # others then met
        raised = [e for e in errors if e is not None]
        if raised:
            raise next((e for e in raised if not isinstance(e, threading.BrokenBarrierError)), raised[0])

    def _tile(self, i, barrier, errors):
        # the steps at tile i, until the plan is None; an exception is kept
        # in errors[i] and breaks the barrier, which ends every other tile.
        # The calling thread, tile 0, records the snapshot the last step
        # closed on while the others start the next step, which does not
        # write it; so every snapshot is copied, and on_snapshot called, in
        # the caller's thread, as on one tile
        w = self.works[i]
        try:
            while True:
                if i == 0 and self.snap is not None:
                    _record(self.traj, self.snap, self.on_snapshot)
                    self.snap = None
                if self.plan is None:
                    return
                dt, close = self.plan
                out = self.spare
                phases = _strang_stages(self.state, out, self.stress, dt, self.grid, self.params, w, self.owed, close)
                for stage in phases:
                    if stage is not None:
                        own = [f[w.own] for f in (out.rho, out.v, out.s1, out.s2)]
                        self.ok[i] = _admissible(own)
                        if self.ok[i] and stage == "rk2 stage 2":
                            self.speed[i] = self._speed(i, out)
                    self.stage = stage
                    barrier.wait()
        except BaseException as e:
            errors[i] = e
            barrier.abort()

    def _sync(self):
        # the barrier's action, run by one thread while the others wait:
        # the check that is due, over the whole arrays when a tile found a
        # fault, so that the NumericalAbort is one tile's; and at the end of
        # a step the driver's bookkeeping, the snapshot for tile 0 to record,
        # and the next plan
        stage = self.stage
        if stage is None:
            return
        out = self.spare
        if not all(self.ok):
            _check((out.rho, out.v, out.s1, out.s2), self.step_idx, stage)
        dt, close = self.plan
        if stage != ("step" if close else "rk2 stage 2"):
            return
        out.t = self.state.t + dt
        self.state, self.spare = out, self.state
        self.owed = 0.0 if close else 0.5 * dt
        self.step_idx += 1
        self.traj.dt_history.append(dt)
        self.snap = out if close else None
        self.plan = self._plan()


def _admit(initial, grid, params, cfg):
    # the initial state that _advance may start from: of the grid's length
    # (else a ValueError), with the Newtonian stresses of cfg's boundary rule
    # at tau = 0, and admissible (else a NumericalAbort)
    if initial.rho.size != grid.n_cells:
        raise ValueError(f"initial state has {initial.rho.size} values per field for a grid of {grid.n_cells} cells")
    if params.tau == 0.0:
        eq = _outer_boundary(cfg.outer_bc).equilibrium_stress(initial.v, grid, params)
        initial = State(initial.rho, initial.v, *eq, initial.t)
    _check((initial.rho, initial.v, initial.s1, initial.s2), 0, "initial state")
    return initial


def _ars_rules():
    # the ARS(2,2,2) (stepper, dt_rule, step_rule), looked up when called,
    # so that a rule rebound on this module after import is the one used
    return "imex", compute_dt_classical, _step_classical


def _step_rules(initial, grid, params, cfl):
    # run's (stepper, dt_rule, step_rule) for the admissible initial state:
    # ARS(2,2,2) at tau = 0 and wherever explicit Strang's step, compute_dt,
    # falls under the parabolic bound cfl dr^2 rho_min / K, K = 4 mu/3 +
    # lambda, one over the spectral radius K/(rho dr^2) of the stride-2
    # viscous operator of the momentum row; explicit Strang elsewhere
    if params.tau == 0.0:
        return _ars_rules()
    cap = cfl * (grid.dr**2 * float(initial.rho.min()) / (4.0 * params.mu / 3.0 + params.lambda_))
    if cap > compute_dt(initial, grid, params, cfl):
        return _ars_rules()
    return "strang", compute_dt, step


def run(initial, grid, params, cfg, output_times=None, on_snapshot=None):
    """Integrate the system at params.tau to cfg.t_end and collect snapshots.

    At tau = 0 this is the classical baseline (mass + Newtonian momentum):
    the stresses of initial are ignored, and start, and stay, at their
    Newtonian values, so trajectories from both systems share one format.
    The run steps with ARS(2,2,2) at tau = 0 and wherever explicit Strang's
    fast-wave step falls under the parabolic bound cfl dr^2 rho_min / K at
    the initial state, and with explicit Strang otherwise; traj.stepper
    names the rule ("imex" or "strang").  An initial state not of the grid's length is
    refused with a ValueError, and one that is not admissible (a non-finite
    value, rho <= 0) with a NumericalAbort.
    Snapshots are taken every cfg.output_every steps plus the final time, or
    exactly at the requested output_times (the step size is clipped to land
    on them, so sweeps share a common snapshot grid without interpolation).
    Without output_times, cfg.n_outputs > 0 requests cfg.snapshot_times().
    on_snapshot(state), if given, is called with each snapshot, from t = 0
    to the final one, as soon as it is recorded, while the integration goes
    on; an exception it raises ends the run: the command line hands each
    snapshot to its writer process this way, so an aborted run leaves them.
    """
    initial = _admit(initial, grid, params, cfg)
    return _advance(initial, grid, params, cfg, output_times, *_step_rules(initial, grid, params, cfg.cfl), on_snapshot)


def run_classical(initial, grid, params, cfg, output_times=None, on_snapshot=None):
    """run at tau = 0, whatever params.tau is: the classical baseline."""
    return run(initial, grid, replace(params, tau=0.0), cfg, output_times, on_snapshot)
