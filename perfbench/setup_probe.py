"""Time one cold set-up of a workload in a fresh interpreter; print seconds.

    python3 perfbench/setup_probe.py <src dir> <workload> <seed> <run dir>

The clock covers the relaxns import (and the numpy import it triggers), the
config objects and make_initial_data, as Workload.setup() does them.
"""

import sys
import time
from pathlib import Path

from workloads import WORKLOADS


def main():
    src, name, seed, run_dir = sys.argv[1:5]
    sys.path.insert(0, src)
    wl = WORKLOADS[name](int(seed), run_dir)
    t0 = time.perf_counter()
    wl.setup()
    elapsed = time.perf_counter() - t0
    if Path(src).resolve() not in Path(sys.modules["relaxns"].__file__).resolve().parents:
        sys.exit(f"relaxns was not imported from {src}")
    print(repr(elapsed))


if __name__ == "__main__":
    main()
