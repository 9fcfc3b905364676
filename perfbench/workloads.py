"""The benchmark's workloads: seeded inputs, set-up, one operation, and its gate.

Seed 0 runs each named configuration exactly, in every operation.  Any
other seed gives operation i of a run its own inputs, drawn uniformly from
the ranges in RANGES by a generator seeded with (seed, i); the program only
ever sees the drawn values.  The ranges are narrow, so every draw stays in
the regime its workload was chosen for (see BENCHMARK.json).  Still, near
the ice margin a 1 % change of amplitude or melt rate moves the Newton and
CG work by up to 15 %, erratically; a run therefore spreads over several
draws, and its median time varies less from seed to seed than one draw's.

Every operation is checked by `gate`, which returns a list of failure
messages (empty when the operation is correct):

* each implicit step's recomputed scaled residual is <= tol_residual;
* melt_dome_65: the variational-inequality certificate is >= -VI_TOL;
* cli_io_33: both CLI calls exit with 0, every snapshot exists, and
  monitors_recomputed.csv equals monitors.csv byte for byte;
* seed 0 only: the final state matches the stored seed-commit reference to
  REF_RTOL of its max norm (a solver-tolerance match, not a bitwise one).
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import shallowice as si  # noqa: E402
import shallowice.cli  # noqa: E402

REFERENCE = Path(__file__).with_name("reference_seed0.npz")

# (seed-0 value, low, high) of every seeded input
RANGES = {
    "melt_dome_65": {"amplitude": (1.0, 0.98, 1.02), "melt_rate": (-2.0, -2.04, -1.96)},
    "cli_io_33": {"amplitude": (1.0, 0.98, 1.02), "melt_rate": (-2.0, -2.04, -1.96)},
}

# Criterion 11 certifies the same inequality at -1e-8.
VI_TOL = 1e-8
# The seed-0 dome state moves by 1e-15 of its max norm when cg_tol changes a
# thousandfold and by 1e-11 when tol_residual tightens tenfold, so a solver
# that meets the same tolerances lands well inside; a changed answer does not.
REF_RTOL = 1e-8


def make_inputs(workload: str, seed: int, index: int = 0) -> dict:
    """The physical inputs of operation `index` of a run with this seed."""
    if seed < 0 or index < 0:
        raise ValueError(f"seed and index must be nonnegative, got {seed}, {index}")
    rng = np.random.default_rng([seed, index])
    return {
        key: nominal if seed == 0 else float(rng.uniform(low, high))
        for key, (nominal, low, high) in RANGES[workload].items()
    }


# --- shared gate pieces -------------------------------------------------------

def step_residuals(mesh, params, grid, kappa, delta, eps, states) -> list[float]:
    """Scaled residual of every implicit step, recomputed from the states."""
    out = []
    for n in range(grid.N):
        problem = si.StepProblem(
            mesh=mesh, params=params, u_prev=states[n],
            a_bar=si.average_forcing(params.forcing, n, grid, mesh),
            ell=grid.ell, kappa=kappa, delta=delta, eps=eps,
        )
        out.append(si.scaled_residual_norm(problem, si.step_residual(problem, states[n + 1])))
    return out


def check_states(mesh, params, grid, kappa, delta, eps, tol, states) -> list[str]:
    if len(states) != grid.N + 1:
        return [f"{len(states)} states for {grid.N} steps"]
    residuals = step_residuals(mesh, params, grid, kappa, delta, eps, states)
    return [f"step {n}: scaled residual {r:.3e} > {tol:.1e}"
            for n, r in enumerate(residuals) if not r <= tol]


def check_reference(workload: str, final_state: np.ndarray) -> list[str]:
    with np.load(REFERENCE) as ref:
        expected = ref[f"{workload}.final_state"]
    if final_state.shape != expected.shape:
        return [f"final state has shape {final_state.shape}, reference {expected.shape}"]
    dist = float(np.max(np.abs(final_state - expected)))
    scale = float(np.max(np.abs(expected)))
    if not dist <= REF_RTOL * scale:
        return [f"final state is {dist:.3e} from the seed-commit reference "
                f"(allowed {REF_RTOL:.0e} x {scale:.3e})"]
    return []


def reference_counts(workload: str) -> dict:
    """Seed-0 Newton and CG iteration totals of the seed commit."""
    with np.load(REFERENCE) as ref:
        return {"newton": int(ref[f"{workload}.newton"]), "cg": int(ref[f"{workload}.cg"])}


# --- melt_dome_65 -------------------------------------------------------------

@dataclass
class DomeSetup:
    mesh: si.StructuredMesh
    params: si.PhysicalParams
    grid: si.TimeGrid
    kappa: float
    solver_config: si.SolverConfig

    @property
    def node_steps(self) -> int:
        return self.mesh.n_interior * self.grid.N


def vi_test_family(traj) -> list:
    """The fixed admissible test fields of acceptance criterion 11."""
    mesh = traj.mesh
    u_plus = np.array([np.maximum(u, 0.0) for u in traj.states[1:]])
    bump = si.poly_bump(mesh).copy()
    bump[mesh.boundary_mask] = 0.0
    mids = (np.arange(traj.N) + 0.5) * traj.time_grid.ell
    return [
        u_plus, u_plus + 0.5 * bump, u_plus + 2.0 * bump, bump,
        np.zeros(mesh.n_nodes), 2.0 * u_plus, 0.5 * u_plus, u_plus[::-1],
        traj.params.u0, np.outer(mids / traj.time_grid.T, bump),
    ]


def setup_dome(inputs: dict, workdir: Path) -> DomeSetup:
    mesh = si.build_mesh(65, 65, 1.0, 1.0)
    H0 = si.initial_thickness_field("dome", inputs["amplitude"], mesh)
    params = si.make_params(mesh, 3.0, si.MeltForcing(inputs["melt_rate"]), H0=H0, mu=1.0)
    return DomeSetup(mesh, params, si.TimeGrid(2.0, 20), 1e-3, si.SolverConfig())


def run_dome(s: DomeSetup):
    traj = si.run(s.mesh, s.params, s.grid, s.kappa, s.solver_config)
    record = si.compute_monitors(traj, s.kappa)
    certificate = si.vi_residual(traj, vi_test_family(traj))
    return traj, record, certificate


def check_dome(s: DomeSetup, outcome) -> list[str]:
    traj, record, certificate = outcome
    failures = check_states(s.mesh, s.params, s.grid, s.kappa, traj.delta, traj.eps,
                            s.solver_config.tol_residual, traj.states)
    if not certificate >= -VI_TOL:
        failures.append(f"VI certificate {certificate:.3e} < -{VI_TOL:.0e}")
    if not all(np.isfinite(float(v)) for v in record.as_dict().values()):
        failures.append("non-finite monitor value")
    return failures


# --- cli_io_33 ----------------------------------------------------------------

@dataclass
class CliSetup:
    config_path: Path
    outdir: Path
    run_setup: object

    @property
    def mesh(self) -> si.StructuredMesh:
        return self.run_setup.mesh

    @property
    def node_steps(self) -> int:
        return self.mesh.n_interior * self.run_setup.time_grid.N


def cli_config(inputs: dict, outdir: Path) -> dict:
    return {
        "domain": {"Lx": 1.0, "Ly": 1.0, "nx": 33, "ny": 33},
        "time": {"T": 2.0, "N": 200},
        "physics": {"p": 3.0, "rho_g": 3.0, "A_const": 1.0, "mu": 1.0},
        "penalty": {"kappa": 1e-3},
        "forcing": {"preset": "melt", "rate": inputs["melt_rate"]},
        "initial": {"preset": "dome", "amplitude": inputs["amplitude"]},
        "output": {"directory": str(outdir), "stride": 1, "formats": ["csv", "vtk"]},
    }


def setup_cli(inputs: dict, workdir: Path) -> CliSetup:
    workdir.mkdir(parents=True, exist_ok=True)
    outdir = workdir / "out"
    config_path = workdir / "config.json"
    shutil.rmtree(outdir, ignore_errors=True)
    config_path.write_text(json.dumps(cli_config(inputs, outdir), indent=2), encoding="utf-8")
    run_setup = si.build_setup(si.load_config(config_path), workdir)
    return CliSetup(config_path, outdir, run_setup)


def run_cli(s: CliSetup):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        codes = [shallowice.cli.cli(["run", str(s.config_path)])]
        if codes[0] == 0:
            codes.append(shallowice.cli.cli(["monitors", str(s.outdir)]))
    return codes, err.getvalue()


def check_cli(s: CliSetup, outcome) -> list[str]:
    codes, stderr = outcome
    if codes != [0, 0]:
        return [f"CLI exit codes {codes}: {stderr.strip()[-300:]}"]
    failures = []
    monitors = (s.outdir / "monitors.csv").read_bytes()
    if (s.outdir / "monitors_recomputed.csv").read_bytes() != monitors:
        failures.append("monitors_recomputed.csv differs from monitors.csv")
    rs = s.run_setup
    formats = rs.output["formats"]
    expected = [f"u_{n:06d}.{fmt}" for n in range(rs.time_grid.N + 1) for fmt in formats]
    expected += [f"H_final.{fmt}" for fmt in formats]
    missing = [name for name in expected if not (s.outdir / name).is_file()]
    if missing:
        failures.append(f"{len(missing)} snapshots missing, first {missing[0]}")
    states = si.snapshots.read_states_csv(s.outdir / "states.csv")
    failures += check_states(rs.mesh, rs.params, rs.time_grid, rs.kappa, rs.delta, rs.eps,
                             rs.solver_config.tol_residual, states)
    return failures


# --- registry -----------------------------------------------------------------

def newton_total(traj) -> int:
    return sum(d.iterations for d in traj.step_diagnostics)


@dataclass(frozen=True)
class Workload:
    """setup(inputs, workdir) -> state; op(state) -> outcome;
    check(state, outcome) -> failures; final_state(state, outcome) -> u^N;
    report(outcome) -> values printed next to the metrics."""

    setup: Callable
    op: Callable
    check: Callable
    final_state: Callable
    report: Callable


WORKLOADS = {
    "melt_dome_65": Workload(
        setup_dome, run_dome, check_dome, lambda s, o: o[0].states[-1],
        lambda o: {"newton_iters": newton_total(o[0]), "vi_certificate": o[2]}),
    "cli_io_33": Workload(
        setup_cli, run_cli, check_cli,
        lambda s, o: si.snapshots.read_states_csv(s.outdir / "states.csv")[-1],
        lambda o: {}),
}


def gate(name: str, seed: int, state, outcome) -> list[str]:
    """Every failure of one operation; seed 0 is also held to the reference."""
    workload = WORKLOADS[name]
    failures = workload.check(state, outcome)
    if seed == 0 and not failures:
        failures += check_reference(name, workload.final_state(state, outcome))
    return failures
