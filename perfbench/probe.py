"""Set-up probe: run in a fresh process, prints one JSON line.

    python3 perfbench/probe.py <workload> <seed>
    python3 perfbench/probe.py reference

Times importing mvsense plus building, emitting, parsing and validating
the workload's scripts, from the first line of this file onwards. With
``reference`` it times a fixed import workload instead, the host-speed
reference that ``setup_s`` is scaled by.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main() -> None:
    if sys.argv[1] == "reference":
        # numpy and the scipy modules mvsense imports; fixed, so that it
        # tracks the host's import speed, not the program's imports
        import numpy  # noqa: F401
        import scipy.sparse.csgraph  # noqa: F401
        import scipy.spatial  # noqa: F401

        print(json.dumps({"import_s": time.perf_counter() - T0}))
        return
    import mvsense  # noqa: F401
    import workloads

    workload = workloads.WORKLOADS[sys.argv[1]]
    _scripts, timings = workloads.build_scripts(workload, int(sys.argv[2]))
    print(json.dumps({"setup_s": time.perf_counter() - T0, **timings}))


if __name__ == "__main__":
    main()
