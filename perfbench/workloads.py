"""The three benchmark workloads: seeded inputs, set-up, one timed instance,
and the checks on its outputs.

Module-level imports are standard library only: the set-up probe imports this
module before it starts its clock, and the package import (which pulls in
numpy) must fall inside the timed set-up.  numpy and relaxns are imported
inside the functions that need them.
"""

import hashlib
import json
import math
import random
import shutil
from pathlib import Path

R_MAX = 21.0

# Seed 0 is the acceptance-suite pulse.  Other seeds draw each field uniformly
# from a box around it.  Over the whole box the fields stay below the 1e-12
# tail tolerance of make_initial_data at both ends of [1, 21]: the bump edge
# is at least (6.8 - 1) / 1.0 = 5.8 widths from the wall, exp(-5.8^2) < 3e-15.
PULSE = {"bump_amp": 0.01, "bump_center": 7.0, "bump_width": 1.0, "vel_amp": 0.01}
PULSE_BOX = {
    "bump_amp": (0.008, 0.012),
    "bump_center": (6.8, 7.2),
    "bump_width": (0.96, 1.0),
    "vel_amp": (0.008, 0.012),
}


def pulse(seed):
    """Gaussian-pulse parameters for a seed; the solver sees only these."""
    if seed == 0:
        return dict(PULSE)
    rng = random.Random(seed)
    return {key: rng.uniform(lo, hi) for key, (lo, hi) in PULSE_BOX.items()}


def tau_label(tau):
    mantissa, exponent = f"{tau:.0e}".split("e")
    return f"tau_{mantissa}e{int(exponent)}"


class Workload:
    """One workload at one seed.

    prepare() writes any input files, setup() builds the solver inputs (the
    part timed as setup_s), instance() is the timed unit of work, and
    check(out) returns the output checks as (name, ok, detail) tuples plus
    the workload's err_energy when the instance produced it (else None).
    """

    name = ""
    n_cells = 0

    def __init__(self, seed, run_dir):
        self.seed = seed
        self.run_dir = Path(run_dir)
        self.pulse = pulse(seed)

    def prepare(self):
        pass

    def cleanup(self, out):
        pass

    def output_digest(self):
        """(SHA-256 of the output files, bytes written); no files here."""
        return None, 0

    def rhs_probe(self):
        """(state, grid, params, outer_bc) for the allocation probe."""
        return self.initial, self.grid, self.params, self.cfg.outer_bc


class Sweep(Workload):
    """relaxation.tau_sweep at n = 800 over three taus plus the classical
    baseline, ten shared output times, no file output."""

    name = "sweep"
    n_cells = 800
    taus = (1e-2, 1e-3, 1e-4)
    t_end = 0.1
    n_outputs = 10
    # members at t_end = 1 in the plain-run baseline table of ROADMAP.md
    reference_steps_t1 = {"tau_1e-2": 1546, "tau_1e-3": 4871, "tau_1e-4": 15394, "classical": 18809}

    def setup(self):
        from relaxns.model import FluidParams, InitConfig, RadialGrid, make_initial_data
        from relaxns.solver import SolverConfig
        import relaxns.relaxation  # noqa: F401  (the module instance() calls)

        self.grid = RadialGrid(r_max=R_MAX, n_cells=self.n_cells)
        self.params = FluidParams(tau=self.taus[0])
        self.init = InitConfig(**self.pulse)
        self.cfg = SolverConfig(t_end=self.t_end)
        self.initial = make_initial_data(self.init, self.grid, self.params)

    def instance(self):
        from relaxns import relaxation

        return relaxation.tau_sweep(
            self.cfg, self.init, self.grid, self.params, self.taus, n_outputs=self.n_outputs
        )

    def check(self, res):
        checks = [
            (f"member {tau_label(tau)}", failure is None, failure or "ran")
            for tau, failure in zip(res.taus, res.failures)
        ]
        fe = res.field_errors
        checks.append((
            "field errors strictly decrease with tau",
            all(a > b for a, b in zip(fe, fe[1:])) and fe[-1] > 0.0,
            " > ".join(f"{e:.3e}" for e in fe),
        ))
        checks.append((
            "stress slope >= 0.5",
            res.stress_slope >= 0.5,
            f"{res.stress_slope:.3f}",
        ))
        return checks, None

    def extra_err_energy(self):
        """Energy-identity residual of the tau = 1e-2 member, re-run once
        outside the timed region: tau_sweep keeps no trajectories."""
        import numpy as np
        from relaxns import energy, solver

        out_times = np.linspace(0.0, self.t_end, self.n_outputs + 1)
        traj = solver.run(self.initial, self.grid, self.params, self.cfg, output_times=out_times)
        _, res = energy.energy_identity_residual(traj, self.grid, self.params)
        return float(np.max(res))


class Large(Workload):
    """One relaxed solver.run at n = 51200, tau = 1e-2, eps = 0 with four
    snapshots, then the energy-identity residual."""

    name = "large"
    n_cells = 51200
    t_end = 0.0015
    output_every = 50
    # Observed residuals are near 1e-6 at this resolution; a scheme that
    # breaks the discrete energy balance lands orders of magnitude higher.
    err_energy_tol = 1e-4

    def setup(self):
        from relaxns.model import FluidParams, InitConfig, RadialGrid, make_initial_data
        from relaxns.solver import SolverConfig
        import relaxns.energy  # noqa: F401  (the module instance() calls)

        self.grid = RadialGrid(r_max=R_MAX, n_cells=self.n_cells)
        self.params = FluidParams(tau=1e-2)
        self.cfg = SolverConfig(t_end=self.t_end, output_every=self.output_every)
        self.initial = make_initial_data(InitConfig(**self.pulse), self.grid, self.params)

    def instance(self):
        from relaxns import energy, solver

        traj = solver.run(self.initial, self.grid, self.params, self.cfg)
        _, res = energy.energy_identity_residual(traj, self.grid, self.params)
        return traj, res

    def check(self, out):
        import numpy as np

        traj, res = out
        snaps = traj.snapshots
        finite = all(np.all(np.isfinite(f)) for s in snaps for f in (s.rho, s.v, s.s1, s.s2))
        rho_min = min(float(np.min(s.rho)) for s in snaps)
        rho_max = max(float(np.max(s.rho)) for s in snaps)
        err = float(np.max(res)) if res.size else math.nan
        checks = [
            ("all fields finite", finite, f"{len(snaps)} snapshots"),
            ("rho inside [0.75, 1.25]", 0.75 <= rho_min and rho_max <= 1.25, f"[{rho_min:.6f}, {rho_max:.6f}]"),
            (f"err_energy < {self.err_energy_tol:g}", err < self.err_energy_tol, f"{err:.3e}"),
        ]
        return checks, err


DIAGNOSTICS_HEADER = (
    "t,E_inst,E_run,D_inst,mass,taylor_energy,stress_l2,"
    "energy_residual,mass_residual,s1_limit_err,s2_limit_err"
)


class CliEps(Workload):
    """relaxns energy-report through cli.main in-process, eps = 0.1 at
    n = 6400, writing CSV snapshots, diagnostics, report and manifest."""

    name = "cli-eps"
    n_cells = 6400
    tau = 1e-2
    eps = 0.1
    t_end = 0.02
    output_every = 50

    def __init__(self, seed, run_dir):
        super().__init__(seed, run_dir)
        self.config_path = self.run_dir / "pulse.cfg"
        self.out_dir = self.run_dir / "out"

    def prepare(self):
        init = "\n".join(f"{key} = {value!r}" for key, value in self.pulse.items())
        self.config_path.write_text(
            f"[params]\ntau = {self.tau!r}\neps = {self.eps!r}\n\n"
            f"[grid]\nr_max = {R_MAX!r}\nn_cells = {self.n_cells}\n\n"
            f"[init]\n{init}\n\n"
            f"[solver]\nt_end = {self.t_end!r}\noutput_every = {self.output_every}\n"
        )

    def setup(self):
        from relaxns import cli
        from relaxns.model import make_initial_data

        self.params, self.grid, init, self.cfg, _ = cli.parse_config(str(self.config_path))
        self.initial = make_initial_data(init, self.grid, self.params)

    def instance(self):
        from relaxns import cli

        return cli.main(
            ["energy-report", "--config", str(self.config_path), "--out", str(self.out_dir), "--quiet"]
        )

    def check(self, rc):
        checks = [("exit code 0", rc == 0, f"exit code {rc}")]
        diag = self.out_dir / "diagnostics.csv"
        lines = diag.read_text().splitlines() if diag.is_file() else []
        checks.append((
            "diagnostics.csv header",
            bool(lines) and lines[0] == DIAGNOSTICS_HEADER,
            lines[0] if lines else "missing",
        ))
        rows = [line.split(",") for line in lines[1:]]
        col = DIAGNOSTICS_HEADER.split(",").index("energy_residual")
        try:
            times = [float(row[0]) for row in rows]
            residuals = [float(row[col]) for row in rows if len(row) > col and row[col]]
        except ValueError:
            times, residuals = [], []
        n_snap = len(list(self.out_dir.glob("snapshot_*.csv")))
        expected = [f"snapshot_{j:04d}.csv" for j in range(len(rows))]
        count_ok = (
            len(times) >= 3
            and n_snap == len(times)
            and all((self.out_dir / f).is_file() for f in expected)
            and times[0] == 0.0
            and abs(times[-1] - self.t_end) <= 1e-12
            and all(a < b for a, b in zip(times, times[1:]))
        )
        checks.append((
            "snapshot count",
            count_ok,
            f"{n_snap} snapshot files, {len(rows)} diagnostics rows from t = 0 to t_end",
        ))
        try:
            json.loads((self.out_dir / "manifest.json").read_text())
            manifest_ok, detail = True, "parses"
        except (OSError, ValueError) as exc:
            manifest_ok, detail = False, str(exc)
        checks.append(("manifest.json parses", manifest_ok, detail))
        return checks, (max(residuals) if residuals else math.nan)

    def output_digest(self):
        """SHA-256 over the output files except manifest.json, which carries
        the wall time, and total bytes written (manifest included)."""
        digest = hashlib.sha256()
        total = 0
        for path in sorted(self.out_dir.iterdir()):
            data = path.read_bytes()
            total += len(data)
            if path.name != "manifest.json":
                digest.update(path.name.encode())
                digest.update(data)
        return digest.hexdigest(), total

    def cleanup(self, out):
        shutil.rmtree(self.out_dir, ignore_errors=True)


WORKLOADS = {cls.name: cls for cls in (Sweep, Large, CliEps)}
