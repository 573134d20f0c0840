"""Span tracing of relaxns from outside the package.

Tracer.install() wraps the public functions listed in TARGETS and rebinds
each wrapper under every name that holds the original in any loaded relaxns
module, because the package imports names by value across modules (solver
does `from .model import pressure`, relaxation does `from .solver import run`,
cli imports both).  Spans (name, start, end, parent) are kept in flat arrays
in memory and written out once, when the run ends.
"""

import functools
import importlib
import sys
import time
from array import array

import numpy as np

from workloads import tau_label

TARGETS = {
    "solver": (
        "run", "run_classical", "step", "rhs_nonstiff", "rhs_full", "classical_rhs",
        "relax_substep", "apply_bc", "compute_dt", "compute_dt_classical",
    ),
    "structure": ("max_char_speed",),
    "model": ("pressure", "pressure_prime", "equilibrium_stress", "make_initial_data"),
    "energy": ("energy_series", "energy_identity_residual", "mass_balance_residual", "apriori_report"),
    "relaxation": ("tau_sweep", "limit_relation_error"),
    "cli": ("parse_config", "write_snapshot", "write_diagnostics", "main"),
    "numerics": ("weighted_l2_sq",),
}

FUNCTIONS = [f"{mod}.{fn}" for mod, fns in TARGETS.items() for fn in fns]


def _run_label(args, kwargs):
    params = args[2] if len(args) > 2 else kwargs["params"]
    return tau_label(params.tau)


# Run spans carry a label naming the member, so steps can be counted per run.
LABELS = {"solver.run": _run_label, "solver.run_classical": lambda args, kwargs: "classical"}


class Tracer:
    def __init__(self):
        self.names = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.labels = {}
        self._stack = [-1]
        self._rebound = []

    def _wrap(self, fn, name):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        label_fn = LABELS.get(name)
        labels, stack = self.labels, self._stack
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(end)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            if label_fn is not None:
                labels[idx] = label_fn(args, kwargs)
            start.append(perf())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf()
                stack.pop()

        return wrapper

    def span(self, name, fn):
        """Call fn() inside a root span called name; returns its result."""
        return self._wrap(fn, name)()

    def install(self):
        for mod_name in TARGETS:
            importlib.import_module(f"relaxns.{mod_name}")
        modules = [m for key, m in sys.modules.items() if key == "relaxns" or key.startswith("relaxns.")]
        for mod_name, fns in TARGETS.items():
            mod = sys.modules[f"relaxns.{mod_name}"]
            for fn_name in fns:
                original = getattr(mod, fn_name)
                wrapper = self._wrap(original, f"{mod_name}.{fn_name}")
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)
                            self._rebound.append((m, attr, original))

    def uninstall(self):
        for m, attr, original in reversed(self._rebound):
            setattr(m, attr, original)
        self._rebound.clear()

    def arrays(self):
        return (
            np.frombuffer(self.name_id, dtype=np.int32).copy(),
            np.frombuffer(self.parent, dtype=np.int32).copy(),
            np.frombuffer(self.start, dtype=np.float64).copy(),
            np.frombuffer(self.end, dtype=np.float64).copy(),
        )

    def write(self, path):
        name_id, parent, start, end = self.arrays()
        np.savez(path, names=np.array(self.names), name_id=name_id, parent=parent, start=start, end=end)


def self_times(parent, start, end):
    """Each span's duration minus the durations of its direct children."""
    dur = end - start
    child = parent >= 0
    covered = np.bincount(parent[child], weights=dur[child], minlength=dur.size)
    return dur - covered
