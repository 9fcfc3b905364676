"""Where the traced run hooks into shallowice, and the per-layer metrics it derives.

Each hook names the module attribute its caller looks up: the solver calls
the operators through shallowice.solver, the operators call the mesh
kernels through shallowice.operators, the CLI calls snapshots and config
through shallowice.cli, and the benchmark itself calls through the package.
CG iterations are counted by wrapping the `action` callable handed to
inner_linear_solve, so they stay right if the Jacobian action is renamed.
"""

from __future__ import annotations

import os
from collections import Counter, defaultdict

from spans import Tracer, median, quantile


def _count_file(prefix: str, path_at: int):
    def after(tracer, args, kwargs, result):
        path = kwargs["path"] if "path" in kwargs else args[path_at]
        tracer.counts[prefix + ".files"] += 1
        tracer.counts[prefix + ".bytes"] += os.path.getsize(path)
    return after


def _count_cg(tracer, args, kwargs):
    action = args[0] if args else kwargs["action"]

    def counted(w):
        tracer.counts["solver.cg_iters"] += 1
        return action(w)

    if args:
        return (counted,) + tuple(args[1:]), kwargs
    return args, {**kwargs, "action": counted}


def _count_newton(tracer, args, kwargs, result):
    tracer.counts["solver.newton_iters"] += result.iterations
    tracer.counts["solver.backtracks"] += result.backtracks


HOOKS = [
    ("shallowice.solver.step_jacobian_action", "operators.jac_apply", {}),
    ("shallowice.solver.step_residual", "operators.residual", {}),
    ("shallowice.solver.step_energy", "operators.energy", {}),
    ("shallowice.solver.jacobian_diagonal", "operators.jac_diag", {}),
    ("shallowice.operators.triangle_gradients", "mesh.gradients", {}),
    ("shallowice.operators.scatter_vertex_sums", "mesh.scatter", {}),
    ("shallowice.build_mesh", "mesh.build", {}),
    ("shallowice.config.build_mesh", "mesh.build", {}),
    ("shallowice.cli.build_mesh", "mesh.build", {}),
    ("shallowice.solver.inner_linear_solve", "solver.inner_solve", {"wrap_args": _count_cg}),
    ("shallowice.timestep.solve_step", "solver.solve_step", {"after": _count_newton}),
    ("shallowice.timestep.average_forcing", "timestep.forcing", {}),
    ("shallowice.run", "timestep.run", {}),
    ("shallowice.cli.run", "timestep.run", {}),
    ("shallowice.compute_monitors", "monitors.compute", {}),
    ("shallowice.cli.compute_monitors", "monitors.compute", {}),
    ("shallowice.vi_residual", "monitors.vi_residual", {}),
    ("shallowice.cli.write_snapshot", "snapshots.write", {"after": _count_file("snapshots.write", 2)}),
    ("shallowice.cli.write_states_csv", "snapshots.write", {"after": _count_file("snapshots.write", 1)}),
    ("shallowice.cli.write_monitors_csv", "snapshots.write", {"after": _count_file("snapshots.write", 1)}),
    ("shallowice.cli.write_run_metadata", "snapshots.write", {"after": _count_file("snapshots.write", 1)}),
    ("shallowice.cli.read_states_csv", "snapshots.read", {"after": _count_file("snapshots.read", 0)}),
    ("shallowice.cli.read_run_metadata", "snapshots.read", {"after": _count_file("snapshots.read", 0)}),
    ("shallowice.cli.load_config", "config.load", {}),
    ("shallowice.cli.build_setup", "config.load", {}),
    ("shallowice.cli.cli", lambda args: "cli." + args[0][0], {}),
]

# Per-layer metrics listed in BENCHMARK.json, with units.  A layer that only
# some workloads call (monitors, snapshots, config, cli) is listed by its
# counts; its times, which are exactly zero on the other workloads, are in
# EXTRA and go to the printed table and the results file.
PER_LAYER = {
    "operators.jac_apply.calls": "count",
    "operators.jac_apply.s": "s",
    "operators.jac_apply.us_per_node": "us",
    "operators.residual.calls": "count",
    "operators.residual.s": "s",
    "operators.energy.calls": "count",
    "operators.energy.s": "s",
    "operators.jac_diag.calls": "count",
    "operators.jac_diag.s": "s",
    "mesh.gradients.calls": "count",
    "mesh.gradients.s": "s",
    "mesh.scatter.calls": "count",
    "mesh.scatter.s": "s",
    "mesh.build_s": "s",
    "solver.newton_iters": "count",
    "solver.newton_per_step": "ratio",
    "solver.cg_iters": "count",
    "solver.cg_per_newton": "ratio",
    "solver.inner_solve.calls": "count",
    "solver.inner_solve.s": "s",
    "solver.inner_solve.failed": "count",
    "solver.backtracks": "count",
    "solver.ls_accept_ratio": "ratio",
    "solver.solve_step.s": "s",
    "solver.self_s": "s",
    "timestep.run.s": "s",
    "timestep.steps": "count",
    "timestep.step_s.p50": "s",
    "timestep.step_s.p90": "s",
    "timestep.forcing.s": "s",
    "monitors.compute.calls": "count",
    "monitors.vi_residual.calls": "count",
    "snapshots.write.files": "count",
    "snapshots.write.bytes": "B",
    "snapshots.read.bytes": "B",
    "trace.overhead_s": "s",
}

EXTRA = {
    "monitors.compute.s": "s",
    "monitors.vi_residual.s": "s",
    "snapshots.write.s": "s",
    "snapshots.read.s": "s",
    "config.load_s": "s",
    "cli.run.s": "s",
    "cli.monitors.s": "s",
    "cli.self_s": "s",
}


def install(tracer: Tracer) -> None:
    for target, name, options in HOOKS:
        tracer.hook(target, name, **options)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def op_metrics(spans, selfs, counts: Counter, n_nodes: int) -> dict:
    """Per-layer metrics of one traced operation.

    spans/selfs: the operation's spans and their self times; counts: the
    tracer counts the operation added.  Inclusive times are summed per span
    name; no traced function calls another of the same name.
    """
    calls: Counter = Counter()
    total: dict = defaultdict(float)
    own: dict = defaultdict(float)
    step_s = []
    for (name, start, end, _), self_s in zip(spans, selfs):
        calls[name] += 1
        total[name] += end - start
        own[name] += self_s
        if name == "solver.solve_step":
            step_s.append(end - start)
    newton = counts["solver.newton_iters"]
    steps = calls["solver.solve_step"]
    metrics = {}
    for layer in ("operators.jac_apply", "operators.residual", "operators.energy",
                  "operators.jac_diag", "mesh.gradients", "mesh.scatter",
                  "solver.inner_solve", "monitors.compute", "monitors.vi_residual"):
        metrics[layer + ".calls"] = calls[layer]
        metrics[layer + ".s"] = total[layer]
    metrics.update({
        "operators.jac_apply.us_per_node": 1e6 * _ratio(total["operators.jac_apply"],
                                                        calls["operators.jac_apply"] * n_nodes),
        "solver.newton_iters": newton,
        "solver.newton_per_step": _ratio(newton, steps),
        "solver.cg_iters": counts["solver.cg_iters"],
        "solver.cg_per_newton": _ratio(counts["solver.cg_iters"], newton),
        "solver.inner_solve.failed": counts["solver.inner_solve.raised"],
        "solver.backtracks": counts["solver.backtracks"],
        # every step evaluates its starting energy once outside the line search
        "solver.ls_accept_ratio": _ratio(newton, calls["operators.energy"] - steps),
        "solver.solve_step.s": total["solver.solve_step"],
        "solver.self_s": own["solver.solve_step"] + own["solver.inner_solve"],
        "timestep.run.s": total["timestep.run"],
        "timestep.steps": steps,
        "timestep.step_s.p50": quantile(step_s, 0.5) if step_s else 0.0,
        "timestep.step_s.p90": quantile(step_s, 0.9) if step_s else 0.0,
        "timestep.forcing.s": total["timestep.forcing"],
        "snapshots.write.files": counts["snapshots.write.files"],
        "snapshots.write.bytes": counts["snapshots.write.bytes"],
        "snapshots.write.s": total["snapshots.write"],
        "snapshots.read.bytes": counts["snapshots.read.bytes"],
        "snapshots.read.s": total["snapshots.read"],
        "config.load_s": total["config.load"],
        "cli.run.s": total["cli.run"],
        "cli.monitors.s": total["cli.monitors"],
        "cli.self_s": own["cli.run"] + own["cli.monitors"],
    })
    return metrics


def run_metrics(per_op: list[dict], build_s: list[float], traced_wall: list[float],
                untraced_wall: list[float]) -> dict:
    """Median of each per-operation metric over the traced operations, plus
    the run-wide mesh build time and tracing overhead."""
    metrics = {key: median([m[key] for m in per_op]) for key in (per_op[0] if per_op else ())}
    metrics["mesh.build_s"] = median(build_s) if build_s else 0.0
    metrics["trace.overhead_s"] = (median(traced_wall) - median(untraced_wall)
                                   if traced_wall and untraced_wall else 0.0)
    return metrics
