"""Damped Newton solver for one implicit step.

The step problem is the minimization of a strictly convex energy, so a
descent method with line search converges from any starting point.  The
solver linearizes the residual once per Newton iterate, obtains the Newton
direction from a matrix-free Jacobi-preconditioned conjugate-gradient solve
on that linearization, backtracks with an Armijo test measured on the step
energy, and falls back to a diagonally preconditioned gradient step
whenever the inner solve reports trouble or the Newton direction fails to
descend.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import (
    SolverError,
    StepProblem,
    linearize,
    scaled_residual_norm,
    step_energy,
    step_jacobian_action,
    step_residual,
)
from .physics import phi_power_reg

__all__ = [
    "SolverError",
    "NonConvergence",
    "NumericalBreakdown",
    "IndefiniteDetected",
    "SolverConfig",
    "StepResult",
    "inner_linear_solve",
    "solve_step",
]


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


class IndefiniteDetected(SolverError):
    """The inner solve met nonpositive curvature; caller should fall back."""


@dataclass
class SolverConfig:
    """Tolerances and caps for solve_step.

    tol_residual bounds the mass-scaled residual max-norm max_i |F_i|/m_i.
    """

    tol_residual: float = 1e-10
    max_newton: int = 60
    max_backtrack: int = 40
    armijo_c: float = 1e-4
    cg_tol: float = 1e-6
    cg_max: int = 1500

    def __post_init__(self):
        if not self.tol_residual > 0:
            raise ValueError("tol_residual must be positive")
        if self.max_newton < 1:
            raise ValueError("max_newton must be at least 1")
        if not 0.0 < self.armijo_c < 1.0:
            raise ValueError("armijo_c must lie in (0, 1)")
        if not self.cg_tol > 0 or self.cg_max < 1:
            raise ValueError("invalid inner-solve controls")


@dataclass
class StepResult:
    """Converged state of one implicit step plus solver diagnostics."""

    u_next: np.ndarray
    iterations: int
    final_residual: float
    final_energy: float
    backtracks: int


def inner_linear_solve(action, rhs: np.ndarray, diag: np.ndarray,
                       cg_tol: float, cg_max: int) -> np.ndarray:
    """Matrix-free conjugate gradients with diagonal preconditioning.

    Returns w with ||A w - rhs|| <= cg_tol ||rhs|| when it converges within
    cg_max iterations, else the last iterate (inexact directions are still
    useful to the outer Newton loop).  Raises IndefiniteDetected on
    nonpositive curvature.
    """
    x = np.zeros_like(rhs)
    r = rhs.copy()
    rhs_norm = float(np.linalg.norm(rhs))
    if rhs_norm == 0.0:
        return x
    z = r / diag
    pvec = z.copy()
    rz = float(r @ z)
    for _ in range(cg_max):
        q = action(pvec)
        pq = float(pvec @ q)
        if not np.isfinite(pq):
            raise NumericalBreakdown("non-finite curvature in inner solve")
        if pq <= 0.0:
            raise IndefiniteDetected(f"curvature p.Ap = {pq:.3e} <= 0")
        step = rz / pq
        x += step * pvec
        r -= step * q
        if np.linalg.norm(r) <= cg_tol * rhs_norm:
            break
        z = r / diag
        rz_new = float(r @ z)
        pvec = z + (rz_new / rz) * pvec
        rz = rz_new
    return x


def _first_bad_node(*arrays) -> int | None:
    for arr in arrays:
        bad = ~np.isfinite(arr)
        if bad.any():
            return int(np.argmax(bad))
    return None


def _separable_direction(problem: StepProblem, u: np.ndarray, F: np.ndarray) -> np.ndarray:
    """Pointwise inversion of the power term with the coupling frozen.

    Solves phi(x_i) = phi_eps(u_i) - (ell/m_i) F_i per interior node and
    returns x - u.  Near u = 0 the power slope is unbounded and Newton
    directions oscillate with vanishing energy signature; this direction
    jumps such nodes straight to their scalar target instead.
    """
    mesh = problem.mesh
    alpha = problem.params.alpha
    m = mesh.lumped_mass
    b = phi_power_reg(u, alpha, problem.eps) - problem.ell * F / m
    x = np.sign(b) * np.abs(b) ** (1.0 / (alpha - 1.0))
    d = x - u
    d[mesh.boundary_mask] = 0.0
    return d


def solve_step(problem: StepProblem, config: SolverConfig | None = None,
               initial_guess: np.ndarray | None = None) -> StepResult:
    """Solve one implicit step to tolerance.

    The returned state is the unique energy minimizer up to tolerance and
    is independent of the initial guess.  Energy is nonincreasing across
    accepted iterates (up to the roundoff of the energy evaluation near
    convergence).  Raises NonConvergence or NumericalBreakdown on failure.
    """
    cfg = config or SolverConfig()
    mesh = problem.mesh
    if initial_guess is None:
        u = problem.u_prev.copy()
    else:
        u = np.asarray(initial_guess, dtype=float).copy()
        if u.shape != (mesh.n_nodes,):
            raise ValueError("initial_guess has the wrong shape")
        if np.any(u[mesh.boundary_mask] != 0.0):
            raise ValueError("initial_guess must vanish on the boundary")

    F = step_residual(problem, u)
    res = scaled_residual_norm(problem, F)
    energy = step_energy(problem, u)
    history = [res]
    iterations = 0
    backtracks = 0
    stalled = False

    # a NaN residual fails every comparison, so it must enter the loop
    while not res <= cfg.tol_residual:
        if not np.isfinite(res):
            raise NumericalBreakdown(
                "non-finite residual", node=_first_bad_node(F, u)
            )
        if iterations >= cfg.max_newton:
            raise NonConvergence(
                f"no convergence in {cfg.max_newton} Newton iterations "
                f"(residual {res:.3e})",
                residual_history=history,
            )

        jac = linearize(problem, u)
        rhs = -F

        def newton_direction():
            try:
                return inner_linear_solve(
                    lambda w: step_jacobian_action(jac, w),
                    rhs, jac.diag, cfg.cg_tol, cfg.cg_max,
                )
            except IndefiniteDetected:
                return None

        # The energy decrement of the final iterations sinks below the
        # roundoff of the energy evaluation, so a trial is accepted on a
        # strict Armijo decrease, or on noise-level energy combined with a
        # measurable drop of the residual norm (which stays resolvable).
        noise = 64.0 * np.finfo(float).eps * max(abs(energy), 1.0)

        def line_search(direction):
            slope = float(F @ direction)
            if not slope < 0.0:
                return None
            nonlocal backtracks
            t = 1.0
            for _ in range(cfg.max_backtrack):
                u_trial = u + t * direction
                e_trial = step_energy(problem, u_trial)
                if np.isfinite(e_trial):
                    if e_trial <= energy + cfg.armijo_c * t * slope:
                        F_trial = step_residual(problem, u_trial)
                        return u_trial, e_trial, F_trial, "armijo"
                    if e_trial <= energy + noise:
                        F_trial = step_residual(problem, u_trial)
                        res_trial = scaled_residual_norm(problem, F_trial)
                        if res_trial <= cfg.tol_residual or res_trial < res * (1.0 - 1e-9):
                            return u_trial, e_trial, F_trial, "noise"
                t *= 0.5
                backtracks += 1
            return None

        def separable_jump():
            # full-step pointwise inversion of the power term; only kept
            # when it visibly cuts the residual, which is exactly the
            # regime (states oscillating across u = 0) Newton cannot leave
            u_trial = u + _separable_direction(problem, u, F)
            e_trial = step_energy(problem, u_trial)
            if not (np.isfinite(e_trial) and e_trial <= energy + noise):
                return None
            F_trial = step_residual(problem, u_trial)
            if scaled_residual_norm(problem, F_trial) > 0.9 * res:
                return None
            return u_trial, e_trial, F_trial, "separable"

        accepted = None
        if stalled:
            accepted = separable_jump()
        if accepted is None:
            newton = newton_direction()
            if newton is not None:
                accepted = line_search(newton)
        if accepted is None:
            accepted = line_search(rhs / jac.diag)
        if accepted is None:
            accepted = separable_jump()
        if accepted is None:
            raise NonConvergence(
                f"line search failed at residual {res:.3e}",
                residual_history=history,
            )

        u, energy, F, quality = accepted
        res_new = scaled_residual_norm(problem, F)
        stalled = quality != "armijo" and res_new > 0.9 * res
        res = res_new
        history.append(res)
        iterations += 1

    if not np.all(np.isfinite(u)):
        raise NumericalBreakdown("non-finite state", node=_first_bad_node(u))
    return StepResult(
        u_next=u,
        iterations=iterations,
        final_residual=res,
        final_energy=energy,
        backtracks=backtracks,
    )
