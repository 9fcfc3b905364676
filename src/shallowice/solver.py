"""Damped Newton solver for one implicit step.

The step problem is the minimization of a strictly convex energy, so a
descent method with line search converges from any starting point.  A
guess (the previous state by default) that already meets the residual
tolerance is the answer, as on the settled, obstacle-active steps once the
ice has melted.  Otherwise the start is whichever of two candidates has
the lower energy: the guess and the nodal minimizer, which minimizes the
energy without its stiffness term node by node; a tie keeps the guess.
The guess wins where the stiffness term dominates, as under accumulation;
the nodal minimizer wins where the nodal terms do, as where melt or a
stiff penalty moves the state far within one step.  Each Newton iterate
takes one path.  The residual is linearized once and assembled into the
symmetric (4, n) stencil rows, with the Dirichlet entries masked out.  A
Jacobi-preconditioned truncated conjugate-gradient solve, applying the
rows by shifted slices, gives a descent direction.  The solve is inexact
(Dembo, Eisenstat & Steihaug 1982): iterate k stops at the relative
residual eta_k = max(ETA_MIN, min(ETA_MAX, max(0.9 (|F_k| / |F_k-1|)^2,
0.1 tol_residual / res_k))), Eisenstat & Walker's (1996) choice 2 with
gamma = 0.9, where F_k is the residual vector and res_k its scaled
max-norm.  The first iterate has no ratio term, so it solves to ETA_MIN =
1e-6 unless its start is already close to the tolerance; the floor
0.1 tol_residual / res_k keeps the last iterate from oversolving, and the
cap ETA_MAX = 1e-3 keeps the Newton counts of exact solves.  One
backtracking line search on the step energy accepts the trial point by an
Armijo decrease or, once the energy decrement sinks below roundoff, by a
measurable drop of the residual.  A line search that finds no such point
raises NonConvergence.  Every point, the start and each trial, is
evaluated once: evaluate returns its energy, residual, gradient state and
nodal slope together, the solver carries the accepted StepPoint, and
linearize reuses that point's gradient state and nodal slope.  A step
costs 2 + iterations + backtracks evaluations, or 1 when the guess meets
the tolerance.  Every step has one minimizer, so the cap of MAX_NEWTON =
60 iterates is not a setting: a step that hits it is a solver defect.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import require_constrained
from .operators import (
    StepProblem,
    evaluate,
    linearize,
    nodal_minimizer,
    scaled_residual_norm,
    step_jacobian_action,
)

__all__ = [
    "SolverError",
    "NonConvergence",
    "NumericalBreakdown",
    "SolverConfig",
    "StepResult",
    "inner_linear_solve",
    "solve_step",
]

# fixed Newton, line-search and inner-solve controls; the forcing term,
# the relative tolerance of an inexact inner solve, lies in [ETA_MIN, ETA_MAX]
ARMIJO_C = 1e-4
ETA_MIN = 1e-6
ETA_MAX = 1e-3
MAX_BACKTRACK = 40
MAX_NEWTON = 60
CG_MAX = 1500


class SolverError(RuntimeError):
    """Base class for step-solver failures."""


class NonConvergence(SolverError):
    """Iteration cap hit before the residual tolerance was met."""

    def __init__(self, message: str, residual_history=None):
        super().__init__(message)
        self.residual_history = list(residual_history or [])


class NumericalBreakdown(SolverError):
    """A NaN or Inf appeared during the solve."""

    def __init__(self, message: str, node: int | None = None):
        super().__init__(message)
        self.node = node


@dataclass
class SolverConfig:
    """The one setting of solve_step.

    tol_residual bounds the mass-scaled residual max-norm max_i |F_i|/m_i
    that a step must reach.  The Newton cap, the forcing-term bounds, the
    Armijo constant and the backtrack and CG caps are the fixed module
    constants above.
    """

    tol_residual: float = 1e-10

    def __post_init__(self):
        if not 0.0 < self.tol_residual < np.inf:
            raise ValueError("tol_residual must be positive and finite")


@dataclass
class StepResult:
    """Converged state of one implicit step plus solver diagnostics."""

    u_next: np.ndarray
    iterations: int
    final_residual: float
    final_energy: float
    backtracks: int


def inner_linear_solve(action, rhs: np.ndarray, diag: np.ndarray,
                       rtol: float, cg_max: int) -> np.ndarray:
    """Truncated conjugate gradients with diagonal preconditioning.

    The operator enters only through action(w), its product with w.

    Returns w once r = rhs - A w has r . r <= (rtol ||rhs||)^2, else the
    last of cg_max iterates (inexact directions are still useful to the
    outer Newton loop).  On nonpositive curvature it stops and returns the
    current iterate, or the preconditioned residual rhs / diag if that
    happens at the first iteration (Steihaug; Dembo & Steihaug).  In exact
    arithmetic every nonzero return satisfies rhs . w > 0, i.e. it is a
    descent direction of any energy whose gradient is -rhs.
    """
    x = np.zeros_like(rhs)
    r = rhs.copy()
    rhs_norm = float(np.linalg.norm(rhs))
    if rhs_norm == 0.0:
        return x
    stop = (rtol * rhs_norm) ** 2
    inv_diag = 1.0 / diag
    z = r * inv_diag
    pvec = z.copy()
    rz = float(r @ z)
    for k in range(cg_max):
        q = action(pvec)
        pq = float(pvec @ q)
        if not np.isfinite(pq):
            raise NumericalBreakdown("non-finite curvature in inner solve")
        if pq <= 0.0:
            return z if k == 0 else x
        step = rz / pq
        x += step * pvec
        r -= step * q
        if float(r @ r) <= stop:
            break
        np.multiply(r, inv_diag, out=z)
        rz_new = float(r @ z)
        pvec *= rz_new / rz
        pvec += z
        rz = rz_new
    return x


def _first_bad_node(arr: np.ndarray) -> int | None:
    bad = ~np.isfinite(arr)
    return int(np.argmax(bad)) if bad.any() else None


def solve_step(problem: StepProblem, config: SolverConfig | None = None,
               initial_guess: np.ndarray | None = None) -> StepResult:
    """Solve one implicit step to tolerance.

    A guess (u_prev when initial_guess is None) whose scaled residual
    already meets tol_residual is returned as it is, after one evaluation
    and 0 iterations.  Otherwise Newton starts from the lower-energy of the
    guess and nodal_minimizer(problem), keeping the guess on a tie.  A step
    costs 2 + iterations + backtracks evaluations, or 1 when the guess
    meets the tolerance.  The returned state is the unique energy minimizer
    up to tolerance and is independent of the initial guess.  Energy is
    nonincreasing across accepted iterates (up to the roundoff of the
    energy evaluation near convergence).  Raises NonConvergence or
    NumericalBreakdown on failure.
    """
    cfg = config or SolverConfig()
    if initial_guess is None:
        u = problem.u_prev.copy()
    else:
        u = require_constrained(problem.mesh, initial_guess, "initial_guess").copy()

    # a guess that meets the tolerance is the answer; otherwise start from
    # the lower-energy of the guess and the nodal minimizer, where a tie,
    # or a NaN energy, keeps the guess
    point = evaluate(problem, u)
    res = scaled_residual_norm(problem, point.residual)
    if not res <= cfg.tol_residual:
        nodal = evaluate(problem, nodal_minimizer(problem))
        if nodal.energy < point.energy:
            point = nodal
            res = scaled_residual_norm(problem, point.residual)
    history = [res]
    iterations = 0
    backtracks = 0

    # a NaN residual fails every comparison, so it must enter the loop
    while not res <= cfg.tol_residual:
        if not np.isfinite(res):
            raise NumericalBreakdown("non-finite residual",
                                     node=_first_bad_node(point.residual))
        if iterations >= MAX_NEWTON:
            raise NonConvergence(
                f"no convergence in {MAX_NEWTON} Newton iterations "
                f"(residual {res:.3e})",
                residual_history=history,
            )

        # the forcing term eta_k of the module docstring; the first
        # iterate has no ratio term
        norm = float(np.linalg.norm(point.residual))
        eta = 0.1 * cfg.tol_residual / res
        if iterations:
            eta = max(eta, 0.9 * (norm / prev_norm) ** 2)
        prev_norm = norm
        jac = linearize(problem, point)
        direction = inner_linear_solve(
            lambda w: step_jacobian_action(jac, w),
            -point.residual, jac.diag, max(ETA_MIN, min(ETA_MAX, eta)), CG_MAX,
        )
        slope = float(point.residual @ direction)
        if not slope < 0.0:
            raise NonConvergence(
                f"no descent direction at residual {res:.3e}",
                residual_history=history,
            )

        # The energy decrement of the final iterations sinks below the
        # roundoff of the energy evaluation, so a trial is accepted on a
        # strict Armijo decrease, or on noise-level energy combined with a
        # measurable drop of the residual norm (which stays resolvable).
        noise = 64.0 * np.finfo(float).eps * max(abs(point.energy), 1.0)
        t = 1.0
        for _ in range(MAX_BACKTRACK):
            trial = evaluate(problem, point.u + t * direction)
            if np.isfinite(trial.energy) and trial.energy <= point.energy + noise:
                res_trial = scaled_residual_norm(problem, trial.residual)
                if (trial.energy <= point.energy + ARMIJO_C * t * slope
                        or res_trial <= cfg.tol_residual
                        or res_trial < res * (1.0 - 1e-9)):
                    break
            t *= 0.5
            backtracks += 1
        else:
            raise NonConvergence(
                f"line search failed at residual {res:.3e}",
                residual_history=history,
            )

        point, res = trial, res_trial
        history.append(res)
        iterations += 1

    # the state is finite: a non-finite interior value makes the scaled
    # residual NaN or inf, and evaluate rejects a nonzero boundary value
    return StepResult(
        u_next=point.u,
        iterations=iterations,
        final_residual=res,
        final_energy=point.energy,
        backtracks=backtracks,
    )
