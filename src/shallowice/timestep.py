"""Implicit time march: the uniform time grid, slab-averaged forcing and
the trajectory of one run.

A trajectory holds states and the objects that made them, not a
description of the run; the validated config is that description, and the
CLI saves it with every output file.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import StructuredMesh
from .operators import DEFAULT_DELTA, DEFAULT_EPS, StepProblem
from .physics import PhysicalParams
from .solver import SolverConfig, SolverError, StepResult, solve_step

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
        """Endpoints (n ell, (n+1) ell) of slab n."""
        if not 0 <= n < self.N:
            raise IndexError(f"slab index {n} out of range [0, {self.N})")
        return n * self.ell, (n + 1) * self.ell


@dataclass
class Trajectory:
    """States u^0..u^N of one run plus everything needed to re-derive them.

    states[0] is the initial field; every state vanishes on the boundary.
    """

    states: list
    step_diagnostics: list
    time_grid: TimeGrid
    mesh: StructuredMesh
    params: PhysicalParams
    kappa: float
    delta: float
    eps: float

    @property
    def N(self) -> int:
        return len(self.states) - 1


class MarchError(RuntimeError):
    """A step solve failed; carries the step index and the partial trajectory."""

    def __init__(self, step_index: int, partial: Trajectory, cause: Exception):
        super().__init__(f"step {step_index} failed: {cause}")
        self.step_index = step_index
        self.partial = partial
        self.cause = cause


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

    u^0 is params.u0.  Each step is warm-started from the previous state;
    on a step failure a MarchError carrying the partial trajectory is
    raised.
    """
    cfg = solver_config or SolverConfig()
    states = [params.u0.copy()]
    diags: list[StepResult] = []

    for n in range(time_grid.N):
        a_bar = average_forcing(params.forcing, n, time_grid, mesh)
        problem = StepProblem(
            mesh=mesh, params=params, u_prev=states[-1], a_bar=a_bar,
            ell=time_grid.ell, kappa=kappa, delta=delta, eps=eps,
        )
        try:
            result = solve_step(problem, cfg, initial_guess=states[-1])
        except SolverError as err:
            partial = Trajectory(
                states=states, step_diagnostics=diags, time_grid=time_grid,
                mesh=mesh, params=params, kappa=kappa, delta=delta, eps=eps,
            )
            raise MarchError(n, partial, err) from err
        states.append(result.u_next)
        diags.append(result)

    return Trajectory(
        states=states, step_diagnostics=diags, time_grid=time_grid,
        mesh=mesh, params=params, kappa=kappa, delta=delta, eps=eps,
    )

