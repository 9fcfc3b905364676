"""Write reference_seed0.npz: the seed-0 final state and Newton/CG totals of
every workload, as the commit it runs on computes them.

    python3 perfbench/make_reference.py

Run it only on the commit whose answers are the reference; the benchmark
holds every later commit's seed-0 final states to these within REF_RTOL.
"""

import shutil
from pathlib import Path

import numpy as np

import layers
import workloads
from spans import Tracer


def main() -> None:
    arrays = {}
    for name, workload in workloads.WORKLOADS.items():
        workdir = Path(__file__).resolve().parent / ".work" / name
        tracer = Tracer()
        layers.install(tracer)
        try:
            state = workload.setup(workloads.make_inputs(name, 0), workdir)
            with tracer.recording():
                outcome = workload.op(state)
            failures = workload.check(state, outcome)
            if failures:
                raise SystemExit(f"{name}: {failures}")
            arrays[f"{name}.final_state"] = workload.final_state(state, outcome)
        finally:
            tracer.restore()
            shutil.rmtree(workdir, ignore_errors=True)
        arrays[f"{name}.newton"] = np.int64(tracer.counts["solver.newton_iters"])
        arrays[f"{name}.cg"] = np.int64(tracer.counts["solver.cg_iters"])
        print(name, {k: v for k, v in arrays.items() if k.startswith(name) and v.ndim == 0})
    np.savez_compressed(workloads.REFERENCE, **arrays)


if __name__ == "__main__":
    main()
