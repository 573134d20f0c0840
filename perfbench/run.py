"""relaxns benchmark.

    python3 perfbench/run.py --workload sweep|large|cli-eps --seed N --seconds S --trace 0|1

Run from anywhere; the checkout is the parent of this directory and relaxns is
imported from its src/.  With --trace 0 the run repeats the workload's timed
instance for S seconds and reports the end-to-end metrics.  With --trace 1 it
spends a third of S untraced and two thirds with every public relaxns
function in spans.TARGETS wrapped in a span, and reports the per-layer
metrics.  Every
instance's outputs are checked in both modes.  Human-readable lines come
first; the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Spans, the machine record and the
check log go to .perfbench_run/<workload>/ in the checkout.  The exit code is
0 when every check passed, 1 when one failed, 2 when the checkout holds no
relaxns source.
"""

import os

# Pin BLAS/OpenMP pools to one thread before numpy loads, here and in the
# set-up probes, which inherit the environment.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 11
MIN_REPS = 3


class Tally:
    """Operations attempted and failed: sweep members, the CLI exit code and
    every output check, over all instances of the run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.log = []

    def add(self, name, ok, detail):
        self.attempted += 1
        self.failed += not ok
        self.log.append({"check": name, "ok": bool(ok), "detail": detail})


def measure(wl, budget, tally, first, wrap=None, between=None):
    """Repeat the timed instance until its runs and checks have taken
    `budget` seconds (at least MIN_REPS times); check each instance's
    outputs.  `first` collects the err_energy and output digest of the first
    instance.  `between` runs after each instance, outside the budget.
    Returns the per-instance wall times."""
    times = []
    spent = 0.0
    while True:
        t0 = time.perf_counter()
        try:
            out = wrap(wl.instance) if wrap else wl.instance()
        except Exception:
            traceback.print_exc()
            tally.add("instance ran", False, "raised; see standard error")
            return times
        times.append(time.perf_counter() - t0)
        checks, err = wl.check(out)
        for check in checks:
            tally.add(*check)
        if "err_energy" not in first:
            first["err_energy"] = err
            first["digest"], first["bytes_written"] = wl.output_digest()
        wl.cleanup(out)
        del out
        spent += time.perf_counter() - t0
        if between is not None:
            between()
        if len(times) >= MIN_REPS and spent + statistics.median(times) > budget:
            return times


def setup_probe(wl):
    """Cold set-up time of the workload in a fresh interpreter."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC), wl.name, str(wl.seed), str(wl.run_dir)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"set-up probe failed with exit code {done.returncode}")
    return float(done.stdout.split()[-1])


def _read_first(path, prefix):
    try:
        with open(path) as fh:
            for line in fh:
                if line.startswith(prefix):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _llc_bytes():
    best = (0, 0)
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1 << 10, "M": 1 << 20}.get(size[-1:], 1)
        best = max(best, (level, int(size.rstrip("KM")) * scale))
    return best[1] or None


def machine_record(wl):
    llc = _llc_bytes()
    field_bytes = wl.n_cells * 8
    rec = {
        "nproc": os.cpu_count(),
        "cpu_model": _read_first("/proc/cpuinfo", "model name"),
        "llc_bytes": llc,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "thread_pinning": {var: os.environ[var] for var in THREAD_VARS},
        "processes": 1,
        "field_array_bytes": field_bytes,
    }
    if llc:
        rec["bandwidth"] = (
            f"one field array is {field_bytes / 1024:.0f} KiB against 4 x LLC = "
            f"{4 * llc / 2**20:.0f} MiB: no workload is bandwidth-bound, and no "
            "bytes-moved figure is measured (any such figure would be computed)"
        )
    return rec


def alloc_bytes_per_call(wl, calls=5):
    """Median tracemalloc peak during one rhs_nonstiff call on the workload's
    initial state: the bytes of temporaries and results the call allocates."""
    import tracemalloc

    from relaxns import solver

    state, grid, params, outer_bc = wl.rhs_probe()
    peaks = []
    tracemalloc.start()
    try:
        for _ in range(calls):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            out = solver.rhs_nonstiff(state, grid, params, outer_bc, include_production=False)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
            del out
    finally:
        tracemalloc.stop()
    return statistics.median(peaks)


def layer_metrics(tracer, wl, base_times, traced_times, first):
    """Per-layer metrics and purpose checks from the traced instances.

    Times are medians over instances; calls are per instance (they repeat
    exactly, or the median is reported and flagged)."""
    import numpy as np

    from spans import FUNCTIONS, TARGETS, self_times

    names = tracer.names
    name_id, parent, start, end = tracer.arrays()
    dur = end - start
    own = self_times(parent, start, end)
    roots = np.flatnonzero(name_id == names.index(f"bench.{wl.name}"))
    bounds = list(roots) + [name_id.size]
    reps = [slice(bounds[k], bounds[k + 1]) for k in range(len(roots))]
    calls = np.array([np.bincount(name_id[sl], minlength=len(names)) for sl in reps])
    selfs = np.array([np.bincount(name_id[sl], weights=own[sl], minlength=len(names)) for sl in reps])
    med = np.median

    m, notes = {}, []
    for fn in FUNCTIONS:
        i = names.index(fn)
        if np.any(calls[:, i] != calls[0, i]):
            notes.append(f"{fn}.calls differ across instances: {sorted(set(calls[:, i].tolist()))}")
        m[f"{fn}.calls"] = (float(med(calls[:, i])), "count")
        m[f"{fn}.self_s"] = (float(med(selfs[:, i])), "s")
    for mod, fns in TARGETS.items():
        idx = [names.index(f"{mod}.{fn}") for fn in fns]
        m[f"layer.{mod}.self_s"] = (float(med(selfs[:, idx].sum(axis=1))), "s")

    step_id = names.index("solver.step")
    run_ids = (names.index("solver.run"), names.index("solver.run_classical"))
    # relaxed steps are solver.step spans under a run; the classical stepper
    # is a closure, so its steps are its compute_dt_classical calls
    counted = (name_id == step_id) | (name_id == names.index("solver.compute_dt_classical"))
    per_parent = np.bincount(parent[counted & (parent >= 0)], minlength=name_id.size)
    steps = dict.fromkeys(("tau_1e-2", "tau_1e-3", "tau_1e-4", "classical"), 0)
    run_time, total_steps = [], []
    for sl in reps:
        runs = [j for j in range(sl.start, sl.stop) if name_id[j] in run_ids]
        total_steps.append(int(sum(per_parent[j] for j in runs)))
        run_time.append(float(sum(dur[j] for j in runs)))
        if sl is reps[0]:
            for j in runs:
                label = tracer.labels[j]
                steps[label] = steps.get(label, 0) + int(per_parent[j])
    n_steps = total_steps[0]
    for label in ("tau_1e-2", "tau_1e-3", "tau_1e-4", "classical"):
        m[f"solver.steps.{label}"] = (float(steps[label]), "count")
    m["solver.steps"] = (float(n_steps), "count")
    m["solver.cell_steps"] = (float(n_steps * wl.n_cells), "count")
    us_per_step = med([t / s for t, s in zip(run_time, total_steps) if s]) * 1e6 if n_steps else 0.0
    m["solver.us_per_step"] = (float(us_per_step), "us")
    m["solver.ns_per_cell_step"] = (float(us_per_step * 1e3 / wl.n_cells), "ns")
    step_us = dur[name_id == step_id] * 1e6
    p50, p99 = (np.percentile(step_us, (50, 99)) if step_us.size else (0.0, 0.0))
    m["solver.step_us_p50"] = (float(p50), "us")
    m["solver.step_us_p99"] = (float(p99), "us")
    m["solver.step_us.samples"] = (float(step_us.size), "count")
    m["solver.rhs_nonstiff.alloc_bytes_per_call"] = (float(alloc_bytes_per_call(wl)), "B")
    m["cli.bytes_written"] = (float(first["bytes_written"]), "B")
    traced_wall = float(med(dur[roots]))
    m["trace.wall_s"] = (traced_wall, "s")
    m["trace.remainder_frac"] = (float(med(own[roots] / dur[roots])), "1")
    m["trace.overhead_frac"] = (statistics.median(traced_times) / statistics.median(base_times) - 1.0, "1")

    step_total = float(med([dur[sl][name_id[sl] == step_id].sum() for sl in reps]))
    mcs = m["structure.max_char_speed.self_s"][0]
    purpose = []
    if wl.name == "cli-eps":
        purpose.append((
            "max_char_speed self time > half of solver.step span time",
            mcs > 0.5 * step_total,
            f"{mcs:.4f} s vs {step_total:.4f} s",
        ))
    if wl.name == "sweep":
        purpose.append((
            "max_char_speed self time < 10% of traced wall",
            mcs < 0.1 * traced_wall,
            f"{mcs:.4f} s vs {traced_wall:.4f} s",
        ))
    if wl.name in ("sweep", "large"):
        n_write = m["cli.write_snapshot.calls"][0]
        purpose.append(("no write_snapshot calls", n_write == 0, f"{n_write:.0f} calls"))

    cross = None
    if wl.name == "sweep":
        cross = {
            label: {
                "steps": steps[label],
                "roadmap_t1_steps": ref,
                "roadmap_scaled_to_t_end": ref * wl.t_end,
                "ratio": steps[label] / (ref * wl.t_end),
            }
            for label, ref in wl.reference_steps_t1.items()
        }
    return m, purpose, cross, notes


def load_spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {
        0: {e["name"]: e["unit"] for e in spec["end_to_end"]},
        1: {e["name"]: e["unit"] for e in spec["per_layer"]},
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "relaxns" / "__init__.py").is_file():
        print(f"no relaxns source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = load_spec()[args.trace]

    run_dir = ROOT / ".perfbench_run" / args.workload
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    wl = WORKLOADS[args.workload](args.seed, run_dir)
    wl.prepare()
    wl.setup()
    import relaxns

    if SRC.resolve() not in Path(relaxns.__file__).resolve().parents:
        print(f"relaxns was imported from {relaxns.__file__}, not {SRC}", file=sys.stderr)
        return 2

    tally, first = Tally(), {}
    record = {
        "workload": wl.name,
        "seed": wl.seed,
        "inputs": wl.pulse,
        "trace": args.trace,
        "seconds": args.seconds,
        "machine": machine_record(wl),
    }
    if args.trace:
        from spans import Tracer

        base_times = measure(wl, args.seconds / 3, tally, first)
        if not base_times:
            print("no instance completed", file=sys.stderr)
            return 1
        tracer = Tracer()
        tracer.install()
        try:
            traced_times = measure(
                wl, 2 * args.seconds / 3, tally, first, wrap=lambda fn: tracer.span(f"bench.{wl.name}", fn)
            )
        finally:
            tracer.uninstall()
        tracer.write(run_dir / "spans.npz")
        if not traced_times:
            print("no traced instance completed", file=sys.stderr)
            return 1
        metrics, purpose, cross, notes = layer_metrics(tracer, wl, base_times, traced_times, first)
        record.update(
            instances={"untraced": len(base_times), "traced": len(traced_times)},
            purpose_checks=[{"check": n, "ok": ok, "detail": d} for n, ok, d in purpose],
            baseline_cross_check=cross,
            notes=notes,
        )
    else:
        # The set-up probes are spread over the run, one after each instance,
        # because the host's speed drifts over tens of seconds.
        setup_times = []

        def probe():
            if len(setup_times) < SETUP_PROBES:
                setup_times.append(setup_probe(wl))

        times = measure(wl, args.seconds, tally, first, between=probe)
        while len(setup_times) < SETUP_PROBES:
            probe()
        if not times:
            print("no instance completed", file=sys.stderr)
            return 1
        err = first["err_energy"]
        if err is None:
            err = wl.extra_err_energy()
        metrics = {
            "wall_s": (statistics.median(times), "s"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
            "err_energy": (err, "1"),
        }
        record["instances"] = len(times)
        record["wall_s_samples"] = times
        record["setup_s_samples"] = setup_times

    fail_frac = tally.failed / tally.attempted
    record.update(
        output_sha256=first.get("digest"),
        fail_frac=fail_frac,
        checks=tally.log,
        metrics={k: v for k, (v, _) in metrics.items()},
    )
    (run_dir / "record.json").write_text(json.dumps(record, indent=2) + "\n")

    if {name: unit for name, (_, unit) in metrics.items()} != spec:
        print("metric names or units differ from BENCHMARK.json", file=sys.stderr)
        return 1
    print(f"workload {wl.name} seed {wl.seed} trace {args.trace}: "
          + ", ".join(f"{k}={v:.6g}" for k, v in wl.pulse.items()))
    print(f"machine: {json.dumps(record['machine'])}")
    for entry in record.get("purpose_checks") or []:
        print(f"purpose [{'PASS' if entry['ok'] else 'FAIL'}] {entry['check']}: {entry['detail']}")
    for label, row in (record.get("baseline_cross_check") or {}).items():
        print(f"cross-check steps {label}: {row['steps']} vs ROADMAP {row['roadmap_t1_steps']} at t_end 1 "
              f"(seed-0 pulse) -> {row['roadmap_scaled_to_t_end']:.1f} at t_end {wl.t_end} (ratio {row['ratio']:.3f})")
    if first.get("digest"):
        print(f"output sha256 (manifest.json excluded): {first['digest']}")
    failed = [c for c in tally.log if not c["ok"]]
    for c in failed[:10]:
        print(f"FAILED check {c['check']}: {c['detail']}")
    print(f"fail_frac = {fail_frac:.6g} ({tally.failed}/{tally.attempted})")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")

    correct = tally.failed == 0
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value if math.isfinite(value) else None, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
