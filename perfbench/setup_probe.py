"""Time one workload's set-up in a fresh interpreter.

    python3 perfbench/setup_probe.py <workload> <inputs as JSON> <workdir>

Prints the seconds from the first statement to a ready set-up: imports of
numpy and shallowice, config, mesh and physical parameters.  run.py calls it
several times per run and reports the median as setup_s.
"""

from time import perf_counter

START = perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

if __name__ == "__main__":
    import workloads

    name, inputs, workdir = sys.argv[1], json.loads(sys.argv[2]), Path(sys.argv[3])
    workloads.WORKLOADS[name].setup(inputs, workdir)
    print(perf_counter() - START)
