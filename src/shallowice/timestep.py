"""Implicit time march: the uniform time grid, slab-averaged forcing and
the trajectory of one run.

A trajectory holds states and the objects that made them, not a
description of the run; the validated config is that description, and the
CLI saves it with every output file.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .mesh import StructuredMesh
from .operators import DEFAULT_DELTA, DEFAULT_EPS, StepProblem
from .physics import PhysicalParams
from .solver import SolverConfig, SolverError, solve_step

__all__ = [
    "TimeGrid",
    "Trajectory",
    "MarchError",
    "average_forcing",
    "run",
]


@dataclass(frozen=True)
class TimeGrid:
    """Uniform partition of [0, T] into N implicit steps; ell is derived."""

    T: float
    N: int

    def __post_init__(self):
        if not self.T > 0:
            raise ValueError(f"horizon T must be positive, got {self.T}")
        if not (isinstance(self.N, (int, np.integer)) and self.N >= 1):
            raise ValueError(f"step count N must be an integer >= 1, got {self.N}")

    @property
    def ell(self) -> float:
        return self.T / self.N

    def slab(self, n: int) -> tuple[float, float]:
        """Endpoints (n ell, (n+1) ell) of slab n; the last one ends at T.

        N ell can round above T (T = 1e5, N = 19), past the end of a
        forcing series sampled on exactly [0, T].
        """
        if not 0 <= n < self.N:
            raise IndexError(f"slab index {n} out of range [0, {self.N})")
        return n * self.ell, self.T if n == self.N - 1 else (n + 1) * self.ell


@dataclass
class Trajectory:
    """States u^0..u^N of one run plus the objects and regularizations that
    made them; the penalty kappa is not kept, since run and compute_monitors
    take it as an argument.

    states[0] is the initial field; every state vanishes on the boundary.
    """

    states: list
    step_diagnostics: list
    time_grid: TimeGrid
    mesh: StructuredMesh
    params: PhysicalParams
    delta: float
    eps: float

    @property
    def N(self) -> int:
        return len(self.states) - 1


class MarchError(RuntimeError):
    """A step solve failed; carries the step index and the partial trajectory.

    The SolverError of the step is its __cause__.
    """

    def __init__(self, step_index: int, partial: Trajectory, cause: Exception):
        super().__init__(f"failed at step {step_index}: {cause}")
        self.step_index = step_index
        self.partial = partial


def average_forcing(forcing, n: int, time_grid: TimeGrid, mesh: StructuredMesh) -> np.ndarray:
    """Nodal values of the forcing averaged over time slab n."""
    t0, t1 = time_grid.slab(n)
    return np.asarray(forcing.slab_average(mesh, t0, t1), dtype=float)


def run(
    mesh: StructuredMesh,
    params: PhysicalParams,
    time_grid: TimeGrid,
    kappa: float,
    solver_config: SolverConfig | None = None,
    *,
    delta: float = DEFAULT_DELTA,
    eps: float = DEFAULT_EPS,
) -> Trajectory:
    """March the implicit scheme over the whole horizon, u^0 .. u^N.

    u^0 is params.u0.  Each step's guess is its previous state, the
    u_prev of its StepProblem and so solve_step's default: solve_step
    returns it when it already meets the residual tolerance, and otherwise
    starts from it or from the nodal minimizer of the step, whichever has
    the lower energy; on a step failure a MarchError carrying the
    trajectory so far is raised.

    A repeated step is not solved again.  When the previous step returned
    its own u_prev byte for byte and this step's slab-averaged forcing has
    the bytes of the previous step's, this step's problem is the previous
    one, and solve_step, which is deterministic, would return the same
    result: the step appends a copy of that state and of its StepResult.
    The key is the bytes, not a count of 0 Newton iterations, since a step
    that stops at the nodal minimizer takes 0 iterations and still moves.
    """
    cfg = solver_config or SolverConfig()
    traj = Trajectory(
        states=[params.u0.copy()], step_diagnostics=[], time_grid=time_grid,
        mesh=mesh, params=params, delta=delta, eps=eps,
    )
    # the forcing bytes and result of the previous step, if it repeated its u_prev
    repeat = None
    for n in range(time_grid.N):
        a_bar = average_forcing(params.forcing, n, time_grid, mesh)
        u_prev = traj.states[-1]
        if repeat is not None and repeat[0] == a_bar.tobytes():
            result = replace(repeat[1], u_next=u_prev.copy())
        else:
            problem = StepProblem(
                mesh=mesh, params=params, u_prev=u_prev, a_bar=a_bar,
                ell=time_grid.ell, kappa=kappa, delta=delta, eps=eps,
            )
            try:
                result = solve_step(problem, cfg)
            except SolverError as err:
                raise MarchError(n, traj, err) from err
        same = result.u_next.tobytes() == u_prev.tobytes()
        repeat = (a_bar.tobytes(), result) if same else None
        traj.states.append(result.u_next)
        traj.step_diagnostics.append(result)
    return traj
