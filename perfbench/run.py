"""Benchmark of shallowice: trajectory workloads through the library and the
CLI, end-to-end metrics, and a separate traced run for per-layer metrics.

    python3 perfbench/run.py                  # every workload, untraced then traced
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A run sets the workload up, then repeats its operation until the next one
would end after --seconds (at least once), checking every operation's
result.  --trace 0 measures the end-to-end metrics with tracing off;
--trace 1 warms up with one untraced operation, then alternates traced and
untraced ones, and reports the per-layer metrics and the tracing overhead
(median traced minus median untraced time).  Each run prints every
metric with its unit, writes perfbench/results/<workload>-seed<N>-trace<T>.json
(metrics, per-operation samples, environment and, when traced, every span)
and ends with one JSON line {"correct", "attempted", "failed", "metrics"}.
Exit code 0: every operation passed its check; 1: some failed; 2: the
package sources are not in this checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import traceback
from collections import Counter
from importlib import metadata
from pathlib import Path
from time import perf_counter

import layers
from spans import Tracer, median, self_times, tail_percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
RESULTS = HERE / "results"

WORKLOAD_NAMES = ["melt_dome_65", "cli_io_33"]
END_TO_END = {"wall_s": "s", "node_steps_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MiB"}
SETUP_REPEATS = 7


def environment() -> dict:
    import numpy as np

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=30, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy < 1.26 only prints its configuration
        blas = {}
    return {
        "git_commit": commit,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": {var: os.environ.get(var) for var in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "note": "snapshot writes land in the page cache; real disk behaviour is not measured",
    }


def probe_setup(name: str, inputs: dict, workdir: Path) -> float:
    """Set-up time of one fresh interpreter: imports, config, mesh, params."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), name, json.dumps(inputs), str(workdir)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.split()[-1])


def run_ops(workload, prepare, gate, seconds: float, tracer: Tracer, trace: bool) -> list[dict]:
    """Repeat operations until the next one would end after `seconds`.

    prepare(i) -> state sets operation i up, untimed; gate(state, outcome)
    -> failures checks it.  With `trace`, set-ups are recorded, operation 0
    warms the process up untraced, and then traced (odd i) and untraced
    (even i) operations alternate, at least one of each.
    """
    ops = []
    begin = perf_counter()
    while True:
        traced = trace and len(ops) % 2 == 1
        op = {"traced": traced, "failures": [], "report": {}}
        try:
            with tracer.recording(trace):
                state = prepare(len(ops))
            op.update(node_steps=state.node_steps, n_nodes=state.mesh.n_nodes)
            first_span, counts_before = len(tracer.spans), Counter(tracer.counts)
            with tracer.recording(traced):
                t0 = perf_counter()
                outcome = workload.op(state)
                op["wall_s"] = perf_counter() - t0
            if traced:
                op["spans"] = (first_span, len(tracer.spans))
                op["counts"] = tracer.counts - counts_before
            op["failures"] = gate(state, outcome)
            op["report"] = workload.report(outcome)
        except Exception as err:
            op["failures"].append(traceback.format_exception_only(err)[-1].strip())
        ops.append(op)
        elapsed = perf_counter() - begin
        if (not trace or len(ops) >= 3) and elapsed * (len(ops) + 1) / len(ops) > seconds:
            return ops


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads  # imports shallowice, so only after main() found the sources

    workload = workloads.WORKLOADS[name]
    workdir = WORK / name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    inputs = []

    def prepare(i):
        # a traced run repeats the first draw, so that its untraced
        # operations are the baseline of the tracing overhead
        inputs.append(workloads.make_inputs(name, seed, 0 if trace else i))
        return workload.setup(inputs[-1], workdir)

    result = {"workload": name, "seed": seed, "trace": int(trace), "seconds": seconds}
    tracer = Tracer()
    try:
        setup_samples = [] if trace else [
            probe_setup(name, workloads.make_inputs(name, seed, 0), workdir)
            for _ in range(SETUP_REPEATS)]
        if trace:
            layers.install(tracer)
        try:
            ops = run_ops(workload, prepare, lambda s, o: workloads.gate(name, seed, s, o),
                          seconds, tracer, trace)
        finally:
            tracer.restore()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for op, op_inputs in zip(ops, inputs):
        op["inputs"] = op_inputs

    good = [op["wall_s"] for op in ops if not op["failures"]]
    failed = sum(1 for op in ops if op["failures"])
    result.update(attempted=len(ops), failed=failed, ops=ops)
    if not trace:
        wall = median(good) if good else float("nan")
        result["metrics"] = {
            "wall_s": wall,
            "node_steps_per_s": ops[0].get("node_steps", float("nan")) / wall,
            "setup_s": median(setup_samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        result["samples"] = {"wall_s": good, "setup_s": setup_samples}
    else:
        selfs = self_times(tracer.spans)
        per_op = [
            layers.op_metrics(tracer.spans[lo:hi], selfs[lo:hi], op["counts"], op["n_nodes"])
            for op in ops if "counts" in op for lo, hi in [op["spans"]]
        ]
        build_s = [end - start for span_name, start, end, _ in tracer.spans
                   if span_name == "mesh.build"]
        result["metrics"] = layers.run_metrics(
            per_op, build_s,
            [op["wall_s"] for op in ops if op["traced"] and "wall_s" in op],
            [op["wall_s"] for op in ops[1:] if not op["traced"] and "wall_s" in op],
        )
        step_s = [end - start for span_name, start, end, _ in tracer.spans
                  if span_name == "solver.solve_step"]
        result["step_s_tail"] = tail_percentile(step_s)
        result["absent_hooks"] = tracer.absent
        result["spans"] = tracer.spans
        for op in ops:
            op.pop("counts", None)
        if seed == 0:
            result["reference_counts"] = workloads.reference_counts(name)
    return result


def print_report(result: dict, units: dict) -> None:
    ops = result["ops"]
    print(f"== {result['workload']}  seed {result['seed']}  trace {result['trace']}  "
          f"first inputs {ops[0]['inputs']}")
    width = max(len(key) for key in result["metrics"])
    for key, value in result["metrics"].items():
        note = f"  (median of {len(result['samples'][key])})" if key in result.get("samples", {}) else ""
        print(f"  {key:<{width}}  {value:.6g} {units[key]}{note}")
    print(f"  failed_frac {result['failed']}/{result['attempted']} = "
          f"{result['failed'] / result['attempted']:.3g}")
    reports = [op["report"] for op in ops if op["report"]]
    for key in (reports[0] if reports else {}):
        print(f"  {key}: " + ", ".join(f"{r[key]:.6g}" for r in reports))
    if "reference_counts" in result:
        ref = result["reference_counts"]
        got = tuple(result["metrics"].get(key, float("nan"))
                    for key in ("solver.newton_iters", "solver.cg_iters"))
        same = got == (ref["newton"], ref["cg"])
        print(f"  Newton/CG {got[0]:.0f}/{got[1]:.0f}, seed commit {ref['newton']}/{ref['cg']}"
              + ("" if same else "  (changed)"))
    if result.get("absent_hooks"):
        print("  absent (not traced): " + ", ".join(result["absent_hooks"]))
    if "step_s_tail" in result:
        print(f"  step_s tail percentile with >= 10 samples beyond: {result['step_s_tail']}")
    for i, op in enumerate(ops):
        for failure in op["failures"]:
            print(f"  FAILED op {i}: {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "shallowice" / "__init__.py").is_file():
        print(f"perfbench: no package sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = environment()
    names = [args.workload] if args.workload else WORKLOAD_NAMES
    traces = [args.trace] if args.trace is not None else [0, 1]
    RESULTS.mkdir(exist_ok=True)
    all_correct = True
    for name in names:
        for trace in traces:
            result = measure(name, args.seed, args.seconds, bool(trace))
            result["environment"] = env
            units = END_TO_END if not trace else {**layers.PER_LAYER, **layers.EXTRA}
            print_report(result, units)
            path = RESULTS / f"{name}-seed{args.seed}-trace{trace}.json"
            path.write_text(json.dumps(result), encoding="utf-8")
            contract = END_TO_END if not trace else layers.PER_LAYER
            correct = result["failed"] == 0
            all_correct &= correct
            print(json.dumps({
                "correct": correct,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {key: {"value": result["metrics"].get(key, float("nan")), "unit": unit}
                            for key, unit in contract.items()},
            }), flush=True)
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
