"""Command-line driver.

Subcommands: run (single trajectory plus monitors), sweep (penalty
continuation), mms (manufactured-solution convergence study), verify
(oracle and inequality suites), monitors (recompute monitors from saved
states).  Exit codes: 0 success, 1 solver failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, build_setup, load_config
from .forcing import ConstantForcing
from .mesh import build_mesh
from .monitors import compute_monitors, kappa_sweep
from .physics import PhysicalRangeWarning, glen_mu, make_params, thickness_from_u
from .snapshots import (
    SnapshotText,
    read_run_metadata,
    read_states_csv,
    write_monitors_csv,
    write_run_metadata,
    write_snapshot,
    write_states_csv,
    write_sweep_csv,
)
from .solver import SolverConfig, SolverError
from .timestep import MarchError, TimeGrid, Trajectory, run
from .verification import (
    MmsCase,
    brute_force_step_oracle,
    lemma_inequality_suite,
    mms_convergence,
)

__all__ = ["cli", "main"]


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shallowice",
        description="Penalized obstacle-problem solver for shallow ice sheets",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="integrate one trajectory and its monitors")
    p_run.add_argument("config", help="JSON configuration file")

    p_sweep = sub.add_parser("sweep", help="penalty continuation study")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--kappas", required=True,
                         help="comma-separated decreasing penalty values")

    p_mms = sub.add_parser("mms", help="manufactured-solution convergence study")
    p_mms.add_argument("config")
    p_mms.add_argument("--meshes", default="17,33,65")
    p_mms.add_argument("--steps", default=None,
                       help="comma-separated step counts (default: N,2N)")
    p_mms.add_argument("--spatial-steps", type=int, default=None)

    p_verify = sub.add_parser("verify", help="run oracle and inequality suites")
    p_verify.add_argument("--samples", type=int, default=100_000)

    p_mon = sub.add_parser("monitors", help="recompute monitors from saved states")
    p_mon.add_argument("trajectory_dir")
    return parser


def _number_list(text: str, flag: str, convert, valid, what: str) -> list:
    """Parse a non-empty comma-separated list of numbers given to a flag."""
    try:
        values = [convert(s) for s in text.split(",") if s.strip()]
    except ValueError:
        values = []
    if not values or not all(valid(v) for v in values):
        raise ConfigError(f"{flag} must be a comma-separated list of {what}")
    return values


def _provenance(config: dict, **extra) -> dict:
    """The metadata of an output file: the package version and the
    validated config of the run that wrote it, which re-runs it."""
    return {"version": __version__, "config": config, **extra}


def _write_run_outputs(setup, traj, outdir: Path, meta: dict):
    outdir.mkdir(parents=True, exist_ok=True)
    write_run_metadata(meta, outdir / "run_metadata.json")
    # each state is formatted once, by states.csv, and its snapshots reuse it
    text = SnapshotText(setup.mesh, meta)
    states = [text.field(u) for u in traj.states]
    write_states_csv(states, outdir / "states.csv", metadata=meta)
    record = compute_monitors(traj, setup.kappa)
    write_monitors_csv(record, outdir / "monitors.csv", metadata=meta)

    formats = setup.output["formats"]
    indices = sorted(set(range(0, traj.N + 1, setup.output["stride"])) | {traj.N})
    for n in indices:
        for fmt in formats:
            write_snapshot(states[n], setup.mesh,
                           outdir / f"u_{n:06d}.{fmt}", fmt, name="u",
                           metadata=meta)
    # clip penalty-scale violations before the power transform
    H_final = text.field(
        thickness_from_u(np.maximum(traj.states[-1], 0.0), setup.params.p))
    for fmt in formats:
        write_snapshot(H_final, setup.mesh, outdir / f"H_final.{fmt}", fmt,
                       name="H", metadata=meta)
    return record


def _cmd_run(args) -> int:
    config = load_config(args.config)
    setup = build_setup(config, Path(args.config).parent)
    outdir = Path(setup.output["directory"])
    try:
        traj = run(setup.mesh, setup.params, setup.time_grid, setup.kappa,
                   setup.solver_config, delta=setup.delta, eps=setup.eps)
    except MarchError as err:
        print(f"run failed at step {err.step_index}: {err.cause}", file=sys.stderr)
        return 1
    record = _write_run_outputs(setup, traj, outdir, _provenance(config))
    iters = sum(d.iterations for d in traj.step_diagnostics)
    print(f"completed {traj.N} steps ({iters} Newton iterations) -> {outdir}")
    for key, value in record.as_dict().items():
        print(f"  {key:16s} {value}")
    return 0


def _cmd_sweep(args) -> int:
    kappas = _number_list(args.kappas, "--kappas", float,
                          lambda k: 0 < k < np.inf, "positive numbers")
    if any(b >= a for a, b in zip(kappas, kappas[1:])):
        raise ConfigError("--kappas must be strictly decreasing")
    config = load_config(args.config)
    setup = build_setup(config, Path(args.config).parent)

    result = kappa_sweep(setup.mesh, setup.params, setup.time_grid,
                         setup.solver_config, kappas,
                         delta=setup.delta, eps=setup.eps)
    outdir = Path(setup.output["directory"])
    outdir.mkdir(parents=True, exist_ok=True)
    write_sweep_csv(result.table(), outdir / "sweep.csv",
                    metadata=_provenance(config, kappas=kappas))
    for row in result.rows:
        subdir = outdir / f"kappa_{row.kappa:g}"
        subdir.mkdir(parents=True, exist_ok=True)
        if row.error is not None:
            (subdir / "FAILED").write_text(row.error + "\n", encoding="utf-8")
            continue
        # the config of this row's run: the sweep's own, at the row's kappa
        penalty = {**config["penalty"], "kappa": row.kappa}
        write_monitors_csv(row.record, subdir / "monitors.csv",
                           metadata=_provenance({**config, "penalty": penalty}))
        for fmt in setup.output["formats"]:
            write_snapshot(row.trajectory.states[-1], setup.mesh,
                           subdir / f"u_final.{fmt}", fmt, name="u")

    print(f"{'kappa':>10s} {'neg_norm':>12s} {'neg_norm/kappa':>14s} {'dist_final':>12s}")
    for row in result.rows:
        dist = "-" if row.dist_final is None else f"{row.dist_final:12.4e}"
        if row.error is not None:
            print(f"{row.kappa:10.3e}  FAILED: {row.error}")
        else:
            print(f"{row.kappa:10.3e} {row.neg_norm:12.4e} {row.sc2_proxy:14.4e} {dist:>12s}")
    print(f"neg_norm nonincreasing: {result.monotone_ok}")
    return 1 if any(row.error is not None for row in result.rows) else 0


def _cmd_mms(args) -> int:
    meshes = _number_list(args.meshes, "--meshes", int, lambda n: n >= 3,
                          "node counts >= 3")
    if args.spatial_steps is not None and args.spatial_steps < 1:
        raise ConfigError("--spatial-steps must be at least 1")
    config = load_config(args.config)
    domain, time, physics = config["domain"], config["time"], config["physics"]
    penalty = config["penalty"]
    # the study builds its own meshes, u0 and forcing; it reads only these
    if args.steps is None:
        steps = [time["N"], 2 * time["N"]]
    else:
        steps = _number_list(args.steps, "--steps", int, lambda n: n >= 1,
                             "step counts >= 1")
    mu = physics["mu"]
    if isinstance(mu, str):
        print("mms study requires a constant mu", file=sys.stderr)
        return 2
    if mu is None:
        mu = glen_mu(physics["A_const"], physics["rho_g"], physics["p"])
    case = MmsCase(Lx=domain["Lx"], Ly=domain["Ly"], T=time["T"])
    table = mms_convergence(case, physics["p"], mu, meshes, steps,
                            penalty["kappa"], SolverConfig(**config["solver"]),
                            spatial_N=args.spatial_steps,
                            delta=penalty["delta"], eps=penalty["eps"])
    outdir = Path(config["output"]["directory"])
    outdir.mkdir(parents=True, exist_ok=True)
    rows = [{"study": "temporal", "nx": meshes[-1], "N": N, "error": err}
            for N, err in table.temporal]
    rows += [{"study": "spatial", "nx": nx,
              "N": args.spatial_steps or steps[-1], "error": err}
             for nx, err in table.spatial]
    write_sweep_csv(rows, outdir / "mms.csv",
                    metadata=_provenance(config))
    print(table.format())
    return 0


def _cmd_verify(args) -> int:
    if args.samples < 1:
        raise ConfigError("--samples must be at least 1")
    failures = 0

    report = lemma_inequality_suite(args.samples, seed=0)
    print("pointwise inequality suites:")
    print(report.format())
    if not report.all_passed:
        failures += 1

    print("mesh mass sweep 3..33:")
    worst = 0.0
    for n in range(3, 34):
        mesh = build_mesh(n, n, 1.0, 1.0)
        worst = max(worst, abs(mesh.lumped_mass.sum() - 1.0))
    print(f"  max |sum(m) - area| = {worst:.3e}")
    if worst > 1e-12:
        failures += 1

    print("step-solver vs brute-force oracle:")
    from .operators import StepProblem
    from .solver import solve_step

    rng = np.random.default_rng(7)
    worst = 0.0
    cases = 0
    for p in (2.0, 2.8, 3.0, 5.0):
        for kappa in (1e-1, 1e-3):
            nx, ny = rng.integers(3, 6, size=2)
            mesh = build_mesh(int(nx), int(ny), 1.0, 1.0)
            u_prev = rng.uniform(0.0, 2.0, mesh.n_nodes)
            u_prev[mesh.boundary_mask] = 0.0
            a_bar = rng.uniform(-2.0, 2.0, mesh.n_nodes)
            # p = 2 (the linear case) lies outside the suggested Glen range
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", PhysicalRangeWarning)
                params = make_params(mesh, p, ConstantForcing(0.0), u0=u_prev,
                                     mu=rng.uniform(0.5, 2.0))
            problem = StepProblem(mesh=mesh, params=params, u_prev=u_prev,
                                  a_bar=a_bar, ell=0.1, kappa=kappa)
            expected = brute_force_step_oracle(problem)
            got = solve_step(problem).u_next
            worst = max(worst, float(np.max(np.abs(expected - got))))
            cases += 1
    print(f"  {cases} cases, max state distance = {worst:.3e}")
    if worst > 1e-9:
        failures += 1

    print("all suites passed" if failures == 0 else f"{failures} suite(s) FAILED")
    return 0 if failures == 0 else 1


def _cmd_monitors(args) -> int:
    outdir = Path(args.trajectory_dir)
    meta_path = outdir / "run_metadata.json"
    states_path = outdir / "states.csv"
    if not meta_path.exists() or not states_path.exists():
        print(f"{outdir} lacks run_metadata.json/states.csv", file=sys.stderr)
        return 2
    try:
        meta = read_run_metadata(meta_path)
        states = read_states_csv(states_path)
        config = meta["config"]
        dom, pen = config["domain"], config["penalty"]
        mesh = build_mesh(dom["nx"], dom["ny"], dom["Lx"], dom["Ly"])
        grid = TimeGrid(config["time"]["T"], config["time"]["N"])
        p, kappa, delta, eps = (config["physics"]["p"], pen["kappa"],
                                pen["delta"], pen["eps"])
    except (ValueError, KeyError, TypeError) as err:
        print(f"{outdir}: cannot read the saved run: {err!r}", file=sys.stderr)
        return 2
    if len(states) != grid.N + 1 or any(u.shape != (mesh.n_nodes,) for u in states):
        print(f"{outdir}: states.csv needs {grid.N + 1} rows of {mesh.n_nodes} "
              f"values, as run_metadata.json says", file=sys.stderr)
        return 2
    # monitors depend on p but not on the forcing or mu, so those are
    # placeholders; the run warned about its own inputs when it was made
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        params = make_params(mesh, p, ConstantForcing(0.0), u0=states[0], mu=1.0)
    traj = Trajectory(
        states=states, step_diagnostics=[], time_grid=grid, mesh=mesh,
        params=params, kappa=kappa, delta=delta, eps=eps,
    )
    record = compute_monitors(traj, traj.kappa)
    write_monitors_csv(record, outdir / "monitors_recomputed.csv", metadata=meta)
    for key, value in record.as_dict().items():
        print(f"  {key:16s} {value}")
    return 0


def cli(argv=None) -> int:
    args = _parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "sweep": _cmd_sweep,
        "mms": _cmd_mms,
        "verify": _cmd_verify,
        "monitors": _cmd_monitors,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 2
    except (SolverError, MarchError) as err:
        print(f"solver failure: {err}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli())


if __name__ == "__main__":
    main()
