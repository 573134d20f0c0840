"""Relaxation-limit studies: tau sweeps against the classical baseline.

Runs the relaxed solver over a descending list of relaxation times from one
shared (rho0, v0) with well-prepared stresses, measures the sup-in-time
weighted L2 distance to the classical solution on a common snapshot grid, and
the end-time defect of the stress limit relations

    s1 -> 2 mu (dv/dr - v/r),    s2 -> lambda (dv/dr + 2 v/r).

Log-log slopes of the errors against tau are fitted but asserted nowhere
here; the lab reports, the acceptance tests judge.  sweep_taus owns the
tau-list rule, for tau_sweep and the sweep-tau command alike.

The baseline is the template at tau = 0, and every job, the baseline and
each member, steps with ARS(2,2,2) (Ascher, Ruuth & Spiteri, APNUM 25
(1997) 151), whatever rule run would pick for a member alone.  The errors
are distances to the baseline, which only ARS(2,2,2) steps, so a member
stepped with the same rule shares the baseline's time error to leading
order and what is left is the relaxation's: the step divides nothing by
tau and is asymptotic-preserving (Jin, SISC 21 (1999) 441).  A member on
explicit Strang would add a time error of its own (3.75% of the tau = 1e-3
limit constant at n = 800, cfl 0.4).  The step, cfl dr / max(|v| +
sqrt(P'), |v - eps|), reads no stress, and eps only at tau > 0, so at
eps = 0 every job's first step is the baseline's, and at eps > 0 a member
takes at least as many steps as the baseline.  The baseline and the
members do not depend on each other, so tau_sweep runs them at the same
time in forked workers (forks.Child): as many as there are jobs or CPUs
this process may use, whichever is fewer, worker k running jobs k, k + K,
... of the K workers, the baseline as job 0.  A worker records each job's
result as soon as the job ends, so it never waits on the parent, and it
stops after a result that fails the sweep.  The parent reaps the workers
in order and judges the results in job order, so a baseline abort is
raised before anything a member did, and it kills the members still
running; no worker outlives the sweep.  Each member's runtime is its own
wall time in its worker.
"""

import math
import os
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import NumericalAbort
from .forks import Child, record
from .model import equilibrium_stress, make_initial_data
from .numerics import weighted_h1_sq, weighted_l2_sq
from .solver import _admit, _advance, _ars_rules


def limit_relation_error(state, grid, params):
    """Weighted L2 defects (||r(s1 - eq1)||, ||r(s2 - eq2)||)."""
    eq1, eq2 = equilibrium_stress(state.v, grid, params)
    return (
        math.sqrt(weighted_l2_sq(state.s1 - eq1, grid)),
        math.sqrt(weighted_l2_sq(state.s2 - eq2, grid)),
    )


def well_prepared_deviation(initial, grid, params):
    """Weighted H1 stress deviations divided by sqrt(tau).

    For data built by the generator this is tau-independent: the deviation is
    sqrt(tau) times a fixed profile.
    """
    if params.tau <= 0.0:
        raise ValueError("well_prepared_deviation requires tau > 0")
    eq1, eq2 = equilibrium_stress(initial.v, grid, params)
    root = math.sqrt(params.tau)
    return (
        math.sqrt(weighted_h1_sq(initial.s1 - eq1, grid)) / root,
        math.sqrt(weighted_h1_sq(initial.s2 - eq2, grid)) / root,
    )


@dataclass
class SweepResult:
    taus: list
    field_errors: list
    stress_errors: list  # (s1, s2) pairs at t_end
    field_slope: float
    stress_slope: float
    runtimes: list  # each member's own wall time in its worker
    baseline_runtime: float
    steps: list  # time steps per member; None for an aborted member
    baseline_steps: int
    worker_runtimes: list  # per forked worker, the sum of its jobs' runtimes
    wall_time: float  # the whole tau_sweep call
    failures: list = field(default_factory=list)
    note: str = (
        "errors measured on a truncated radial domain in strong norms; "
        "the fitted slopes are empirical observations, not guaranteed rates"
    )


def _loglog_slope(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    good = np.isfinite(y) & (y > 0.0)
    if np.sum(good) < 2:
        return float("nan")
    return float(np.polyfit(np.log(x[good]), np.log(y[good]), 1)[0])


def _sweep_run(initial, grid, params, cfg, output_times):
    """One sweep job's trajectory: run's admission of initial, then
    ARS(2,2,2) at params.tau, whatever rule run would pick."""
    return _advance(_admit(initial, grid, params, cfg), grid, params, cfg, output_times, *_ars_rules())


def _integrate(initial, grid, params, cfg, out_times):
    """One sweep job: (snapshots, runtime, steps), or (abort, runtime, None).

    `_sweep_run` is looked up in this module's globals where the job runs,
    so a forked worker runs whatever the parent had bound to it when it
    forked.
    """
    t0 = time.perf_counter()
    try:
        traj = _sweep_run(initial, grid, params, cfg, output_times=out_times)
    except NumericalAbort as exc:
        return exc, time.perf_counter() - t0, None
    return traj.snapshots, time.perf_counter() - t0, len(traj.dt_history)


def _worker(out, jobs, mine):
    """A forked worker's body (forks.Child): it runs jobs[i] for i in mine
    through _integrate and appends each result to out as soon as the job
    ends.  It stops after job 0's NumericalAbort, so a baseline abort ends
    the sweep at once, and at a job's exception, which becomes the worker's
    failure record."""
    for index in mine:
        result = _integrate(*jobs[index])
        out.write(record(index, "ok", result))
        out.flush()
        if index == 0 and isinstance(result[0], NumericalAbort):
            break


def _fork_join(jobs, workers):
    """Run every job in `workers` forked children; returns (outcomes, busy).

    outcomes[i] is _integrate's result for jobs[i]; busy[k] is the sum of
    worker k's job runtimes.  Worker k is a forks.Child that runs jobs k,
    k + workers, ... in that order.  The parent reaps the workers in order,
    reads each one's records once it has exited, and judges the results in
    job order.  A worker's failure record goes to its first job without a
    result.  The first failure in job order raises here: job 0's
    NumericalAbort, an exception a job raised (its own type and message),
    or a worker that ended before a job's result (a RuntimeError naming the
    job's tau and how the worker ended).  On the way out, whatever the
    outcome, every worker still running is killed and reaped, and every
    file is closed.
    """
    children = []
    try:
        for k in range(workers):
            children.append(Child(_worker, jobs, range(k, len(jobs), workers)))
        outcomes = [None] * len(jobs)
        busy = [0.0] * workers
        decided = 0
        for k, child in enumerate(children):
            records, how = child.join()
            failure = None
            for index, kind, payload in records:
                if index is None:  # the worker's failure record
                    failure = payload
                    continue
                outcomes[index] = (kind, payload)
                if kind == "ok":
                    busy[k] += payload[1]
            lost = next((i for i in range(k, len(jobs), workers) if outcomes[i] is None), None)
            if lost is not None:  # running when the worker ended, or after a failure
                message = f"tau sweep job at tau={jobs[lost][2].tau:g} got no result: its worker {how}"
                outcomes[lost] = ("raise", failure or RuntimeError(message))
            while decided < len(jobs) and outcomes[decided] is not None:
                kind, payload = outcomes[decided]
                if kind == "raise":
                    raise payload
                if decided == 0 and isinstance(payload[0], NumericalAbort):
                    raise payload[0]
                outcomes[decided] = payload
                decided += 1
        return outcomes, busy
    finally:
        for child in children:
            child.close()


def sweep_taus(taus):
    """taus as floats, largest first, the order a sweep runs them.

    There must be one or more, each finite and positive after float() and
    equal to no earlier one; a ValueError names the first entry that is not
    as the caller gave it.
    """
    seen = {}  # tau -> the entry that gave it
    for entry in taus:
        try:
            tau = float(entry)
        except (TypeError, ValueError):
            raise ValueError(f"tau sweep entry {entry!r} is not a number") from None
        if not 0.0 < tau < math.inf:
            raise ValueError(f"tau sweep entry {entry!r} must be finite and positive")
        if tau in seen:
            raise ValueError(f"tau sweep entry {entry!r} repeats entry {seen[tau]!r}")
        seen[tau] = entry
    if not seen:
        raise ValueError("tau sweep needs at least one tau")
    return sorted(seen, reverse=True)


SWEEP_OUTPUTS = 10  # a sweep's snapshot count when neither the call nor the config sets one


def tau_sweep(base_cfg, init_cfg, grid, params_template, taus, n_outputs=None):
    """Run the sweep; returns a SweepResult and asserts nothing itself.

    taus go through sweep_taus first, so the members run largest tau first.
    All members share (rho0, v0) and the template's eps; stresses are rebuilt
    well-prepared for each tau.  The baseline is run at tau = 0 on the same
    grid, and every run is sampled at the same output times (the stepper
    lands on them exactly), so no temporal interpolation enters the errors.
    Those times are base_cfg's snapshot_times() at n_outputs = the call's
    n_outputs if nonzero, else base_cfg.n_outputs if positive, else
    SWEEP_OUTPUTS; SolverConfig rejects a bad count.
    The baseline and the members are independent integrations, run in
    forked worker processes (see the module docstring), and the errors are
    computed here from the snapshots the workers leave in their temporary
    files, each read once its worker has exited.  A member's
    NumericalAbort becomes its failure row.  The results are judged in job
    order, the baseline first, and the first failure propagates: a baseline
    abort, any other exception a job raised (with its type and message), or
    a worker that died before the job's result (a RuntimeError naming its
    tau).  The members still running are then killed, not awaited.
    """
    t0 = time.perf_counter()
    taus = sweep_taus(taus)
    out_times = replace(base_cfg, n_outputs=n_outputs or base_cfg.n_outputs or SWEEP_OUTPUTS).snapshot_times()
    members = [replace(params_template, tau=tau) for tau in taus]
    # one job per params, in this order: the baseline, the template at
    # tau = 0, then the members
    runs = [replace(params_template, tau=0.0)] + members
    jobs = [(make_initial_data(init_cfg, grid, p), grid, p, base_cfg, out_times) for p in runs]
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)
    # fork, not spawn: a worker inherits the parent's binding of _sweep_run
    outcomes, worker_runtimes = _fork_join(jobs, min(len(jobs), cpus))
    (baseline, baseline_runtime, baseline_steps), *outcomes = outcomes

    field_errors, stress_errors, failures, runtimes, steps = [], [], [], [], []
    for params, (outcome, runtime, n_steps) in zip(members, outcomes, strict=True):
        runtimes.append(runtime)
        steps.append(n_steps)
        if isinstance(outcome, NumericalAbort):
            field_errors.append(float("nan"))
            stress_errors.append((float("nan"), float("nan")))
            failures.append(f"tau={params.tau:g}: {outcome}")
            continue
        field_errors.append(
            max(
                math.sqrt(weighted_l2_sq(srel.rho - sbase.rho, grid))
                + math.sqrt(weighted_l2_sq(srel.v - sbase.v, grid))
                for srel, sbase in zip(outcome, baseline, strict=True)
            )
        )
        stress_errors.append(limit_relation_error(outcome[-1], grid, params))
        failures.append(None)

    stress_totals = [e[0] + e[1] for e in stress_errors]
    return SweepResult(
        taus=taus,
        field_errors=field_errors,
        stress_errors=stress_errors,
        field_slope=_loglog_slope(taus, field_errors),
        stress_slope=_loglog_slope(taus, stress_totals),
        runtimes=runtimes,
        baseline_runtime=baseline_runtime,
        steps=steps,
        baseline_steps=baseline_steps,
        worker_runtimes=worker_runtimes,
        wall_time=time.perf_counter() - t0,
        failures=failures,
    )
