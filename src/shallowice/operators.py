"""Residual, energy, and Jacobian action of one implicit time step.

One step of the scheme solves, for the new field u with zero boundary values,

    (m_i/ell) (phi_eps(u_i) - phi(uprev_i)) + S_i(u)
        + (m_i/kappa) min(u_i, 0) - m_i abar_i = 0     at interior nodes,

where phi_eps(u) = (u^2 + eps^2)^((alpha-2)/2) u, S is the weighted
p-Laplacian stiffness action with gradient regularization delta, and the
min(u, 0)/kappa term is the negative-part penalty that drives u upward
wherever it dips below the obstacle.  The residual is exactly the gradient
of the strictly convex step energy, so the step solution is its unique
minimizer.  Time, penalty, and forcing terms use the lumped nodal masses
m_i, which keeps the pointwise nonlinearities decoupled across nodes.

evaluate is the one home of both formulas: from one pass over the triangle
gradients it returns a StepPoint with the energy, the residual and the
gradient state (g, q and the flux weight); step_energy and step_residual
read it.  flux_state and stiffness_vector are the one home of that
gradient state and of the stiffness action S, which the VI certificate of
monitors reuses.  Without its stiffness term the energy is a sum of
functions of one nodal value each, and nodal_minimizer returns its
minimizer node by node.  The Jacobian is linearized once per Newton
iterate from the accepted StepPoint, reusing its gradient state:
linearize builds the 3x3 element matrices of all triangles one entry
(a, b) at a time, as a row of length ntri (the component-major layout of
mesh), and adds each entry row with np.add.at into seven stencil rows of
length n, one per direction of the fixed 7-point stencil of the
structured mesh (diagonal storage), with every Dirichlet entry dropped at
assembly.  The additions run in the (a, b, t) slot order, so the rows are
those of one bincount over all (3, 3, ntri) entries, but only one entry
row is held at a time.  step_jacobian_action multiplies each row by
shifted slices of the zero-padded direction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import (
    StructuredMesh,
    _stencil_offsets,
    require_constrained,
    require_nodal,
    scatter_vertex_sums,
    triangle_gradients,
)
from .physics import PhysicalParams, dphi_power_reg, flux_weight, phi_power_reg, signed_power

__all__ = [
    "StepProblem",
    "StepPoint",
    "StepJacobian",
    "evaluate",
    "flux_state",
    "stiffness_vector",
    "nodal_minimizer",
    "step_energy",
    "step_residual",
    "linearize",
    "step_jacobian_action",
    "scaled_residual_norm",
]

# default regularizations of the p-Laplacian weight and of the power slope
DEFAULT_DELTA = 1e-8
DEFAULT_EPS = 1e-10

# at eps = 0 the power slope (alpha-1)|u|^(alpha-2) is unbounded at u = 0;
# the Jacobian evaluates it at |u| >= SINGULAR_STATE
SINGULAR_STATE = 1e-14

# nodal_minimizer stops once no node moves by more than NODAL_RTOL relative;
# its bracketed Newton steps take at most 8 on the dome runs, the cap only
# bounds pathological input
NODAL_MAX_ITER = 60
NODAL_RTOL = 1e-13


@dataclass
class StepProblem:
    """Data of one implicit step: previous state, averaged forcing, knobs.

    ell is the time step, kappa the penalty parameter; delta >= 0 smooths
    the degenerate p-Laplacian (|grad u|^2 -> |grad u|^2 + delta^2) and
    eps >= 0 smooths the singular power slope at u = 0.  Both enter the
    residual and energy consistently, so gradient relations hold for every
    configured value.
    """

    mesh: StructuredMesh
    params: PhysicalParams
    u_prev: np.ndarray
    a_bar: np.ndarray
    ell: float
    kappa: float
    delta: float = DEFAULT_DELTA
    eps: float = DEFAULT_EPS

    def __post_init__(self):
        if not self.ell > 0:
            raise ValueError(f"time step ell must be positive, got {self.ell}")
        if not self.kappa > 0:
            raise ValueError(f"penalty kappa must be positive, got {self.kappa}")
        if self.delta < 0 or self.eps < 0:
            raise ValueError("regularizations delta, eps must be nonnegative")
        if self.params.mu.shape != (self.mesh.n_triangles,):
            raise ValueError("params.mu does not match the mesh triangle count")
        self.u_prev = require_constrained(self.mesh, self.u_prev, "u_prev")
        self.a_bar = require_nodal(self.mesh, self.a_bar, "a_bar")


@dataclass(frozen=True)
class StepPoint:
    """Everything the solver needs at one state, from one gradient pass.

    u          the state (zero on the boundary)
    energy     step_energy at u
    residual   step_residual at u, zero rows on the boundary
    g, q       per-triangle state gradient and |g|^2 + delta^2
    weight     per-triangle flux weight |T| mu q^((p-2)/2)
    """

    u: np.ndarray
    energy: float
    residual: np.ndarray
    g: np.ndarray
    q: np.ndarray
    weight: np.ndarray


def evaluate(problem: StepProblem, u: np.ndarray) -> StepPoint:
    """Energy, residual and gradient state of the implicit step at u.

    The energy is the convex objective

    J(u) = sum_i m_i [ pw(u_i)/ell - phi(uprev_i) u_i / ell
                       + min(u_i,0)^2/(2 kappa) - abar_i u_i ]
         + sum_T (|T| mu_T / p) (|grad u_T|^2 + delta^2)^(p/2),

    with pw(u) = ((u^2 + eps^2)^(alpha/2) - eps^alpha)/alpha, which reduces
    to |u|^alpha/alpha at eps = 0 and keeps J(0) = 0 exactly.  The residual
    is its gradient: the nodal time, penalty and forcing terms plus the
    stiffness action S_i(u) = sum_T |T| mu_T q^((p-2)/2) grad u . grad hat_i.
    Both come from one triangle_gradients call.
    """
    mesh = problem.mesh
    params = problem.params
    u = require_constrained(mesh, u, "u")
    m = mesh.lumped_mass
    alpha, eps = params.alpha, problem.eps

    g, q, weight = flux_state(mesh, params, u, problem.delta)

    if eps == 0.0:
        pw = np.abs(u) ** alpha / alpha
    else:
        pw = ((u * u + eps * eps) ** (0.5 * alpha) - eps**alpha) / alpha
    phi_prev = signed_power(problem.u_prev, alpha - 1.0)
    nodal = (
        pw / problem.ell
        - phi_prev * u / problem.ell
        + np.minimum(u, 0.0) ** 2 / (2.0 * problem.kappa)
        - problem.a_bar * u
    )
    grad_term = (mesh.areas * params.mu / params.p) * q ** (0.5 * params.p)
    energy = float(m @ nodal + grad_term.sum())

    S = stiffness_vector(mesh, g, weight)
    phi_new = phi_power_reg(u, alpha, eps)
    F = (
        m * (phi_new - phi_prev) / problem.ell
        + S
        + (m / problem.kappa) * np.minimum(u, 0.0)
        - m * problem.a_bar
    )
    F[mesh.boundary_mask] = 0.0
    return StepPoint(u=u, energy=energy, residual=F, g=g, q=q, weight=weight)


def flux_state(mesh: StructuredMesh, params: PhysicalParams, u: np.ndarray,
               delta: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-triangle gradient g (ntri, 2) of u, q = |g|^2 + delta^2 and the
    flux weight |T| mu q^((p-2)/2)."""
    g = triangle_gradients(mesh, u)
    gx, gy = g.T
    q = gx * gx + gy * gy + delta**2
    return g, q, flux_weight(q, mesh.areas * params.mu, params.p)


def stiffness_vector(mesh: StructuredMesh, g: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """Stiffness action S_i = sum_T weight_T g_T . grad hat_i at every node,
    boundary nodes included."""
    gx, gy = g.T
    basis = mesh.basis_cols
    return scatter_vertex_sums(mesh, basis[:, 0] * (weight * gx) + basis[:, 1] * (weight * gy))


def nodal_minimizer(problem: StepProblem) -> np.ndarray:
    """Minimizer of the step energy without its stiffness term.

    The time, penalty and forcing terms of the energy (see evaluate) are
    nodal and strictly convex, so their minimizer solves, at every node,
    the scalar monotone equation

        phi_eps(u)/ell + min(u, 0)/kappa = r,   r = phi(uprev)/ell + abar,

    and is set to 0 on the boundary.  Where r >= 0 and eps = 0 the root is
    (ell r)^(1/(alpha-1)).  Elsewhere Newton steps, vectorized over the
    nodes, run inside a bracket that shrinks with the sign of each
    residual, and a step that leaves the bracket is replaced by its
    bisection.  With b = max(eps, (ell |r| 2^((2-alpha)/2))^(1/(alpha-1))),
    which bounds |phi_eps|^(-1)(ell |r|), the bracket is [0, b] for r >= 0
    and [-min(kappa |r|, b), 0] for r < 0.  At eps = 0 the slope is
    evaluated at max(|u|, SINGULAR_STATE), as in linearize.
    """
    alpha, eps = problem.params.alpha, problem.eps
    ell, kappa = problem.ell, problem.kappa
    r = signed_power(problem.u_prev, alpha - 1.0) / ell + problem.a_bar
    up = r >= 0.0
    root = 1.0 / (alpha - 1.0)
    closed = (ell * np.abs(r)) ** root
    bound = np.maximum(eps, closed * 2.0 ** (0.5 * (2.0 - alpha) * root))
    lo = np.where(up, 0.0, -np.minimum(kappa * np.abs(r), bound))
    hi = np.where(up, bound, 0.0)
    if eps == 0.0:
        lo = np.where(up, closed, lo)
        hi = np.where(up, closed, hi)
    u = np.where(up, closed, lo)

    for _ in range(NODAL_MAX_ITER):
        f = phi_power_reg(u, alpha, eps) / ell + np.minimum(u, 0.0) / kappa - r
        lo = np.where(f <= 0.0, u, lo)
        hi = np.where(f >= 0.0, u, hi)
        u_slope = u if eps > 0.0 else np.maximum(np.abs(u), SINGULAR_STATE)
        slope = dphi_power_reg(u_slope, alpha, eps) / ell + (u < 0.0) / kappa
        new = u - f / slope
        new = np.where((new >= lo) & (new <= hi), new, 0.5 * (lo + hi))
        # a NaN input stays NaN and counts as settled
        moving = np.abs(new - u) > NODAL_RTOL * np.abs(new)
        u = new
        if not moving.any():
            break
    u[problem.mesh.boundary_mask] = 0.0
    return u


def step_energy(problem: StepProblem, u: np.ndarray) -> float:
    """Convex objective of the step (see evaluate); its gradient is step_residual."""
    return evaluate(problem, u).energy


def step_residual(problem: StepProblem, u: np.ndarray) -> np.ndarray:
    """Nodal residual of the implicit step; zero rows on the boundary."""
    return evaluate(problem, u).residual


@dataclass(frozen=True)
class StepJacobian:
    """Step Jacobian at one state, assembled once for repeated application.

    rows   (7, n) stencil rows, rows[k, i] coupling node i to node
           i + _stencil_offsets(nx)[k] (diagonal layout); every entry whose
           row or column is a boundary node is 0
    diag   Jacobi diagonal, rows[0] with 1 on boundary rows
    """

    mesh: StructuredMesh
    rows: np.ndarray
    diag: np.ndarray


def linearize(problem: StepProblem, point: StepPoint) -> StepJacobian:
    """Linearize step_residual at an evaluated point; assemble stencil rows.

    On triangle T with hat gradients B_T (rows) and state gradient g_T,
    K_T = weight_T B_T B_T^T + coef_T (B_T g_T)(B_T g_T)^T, where
    weight = |T| mu q^((p-2)/2) and coef = (p-2) weight / q, with g, q and
    weight taken from the point; the element
    matrices are summed into rows, and the nodal time and penalty slope is
    added on the diagonal.  The Jacobian is symmetric positive
    semidefinite as a bilinear form (definite for eps > 0).  The
    generalized slope of min(u, 0) is 1/kappa where u < 0 and 0 at u = 0
    (active-set convention).  At eps = 0 the power slope is evaluated at
    max(|u|, SINGULAR_STATE), which changes only the Newton direction,
    never the residual that convergence is judged on.
    """
    mesh = problem.mesh
    params = problem.params
    u, g, q, weight = point.u, point.g, point.q, point.weight

    m = mesh.lumped_mass
    u_slope = u if problem.eps > 0.0 else np.maximum(np.abs(u), SINGULAR_STATE)
    slope = m * dphi_power_reg(u_slope, params.alpha, problem.eps) / problem.ell
    slope = slope + (m / problem.kappa) * (u < 0.0)

    # (p-2) weight / q, written as the weight law at exponent p - 2
    coef = flux_weight(q, mesh.areas * params.mu * (params.p - 2.0), params.p - 2.0)

    # entry (a, b) of every element matrix, one row of length ntri at a
    # time, added in the (a, b, t) slot order: the sums of one bincount
    # over all entries.  The whole (3, 3, ntri) array with its temporaries
    # outgrows glibc's heap trim threshold at 65^2, and freeing it could
    # then trim and regrow the heap on every call
    basis = mesh.basis_cols
    gx, gy = g.T
    gb = basis[:, 0] * gx + basis[:, 1] * gy
    n = mesh.n_nodes
    slots = mesh.stencil_slots.reshape(3, 3, mesh.n_triangles)
    rows = np.zeros(7 * n + 1)
    for a in range(3):
        weight_a0 = weight * basis[a, 0]
        weight_a1 = weight * basis[a, 1]
        coef_gb_a = coef * gb[a]
        for b in range(3):
            entry = basis[b, 0] * weight_a0
            entry += basis[b, 1] * weight_a1
            entry += coef_gb_a * gb[b]
            np.add.at(rows, slots[a, b], entry)

    # boundary entries land in the discard slot 7 n, so only the slope remains
    rows = rows[:7 * n].reshape(7, n)
    rows[0] += slope
    boundary = mesh.boundary_mask
    rows[0, boundary] = 0.0
    diag = rows[0].copy()
    diag[boundary] = 1.0
    return StepJacobian(mesh=mesh, rows=rows, diag=diag)


def step_jacobian_action(jac: StepJacobian, w: np.ndarray) -> np.ndarray:
    """Jacobian of step_residual, as linearized in jac, applied to w.

    Sums rows[k] times w, zero-padded by nx + 1 on each side and shifted by
    stencil offset k, in the order k = 0..6; interior rows never reach the
    padding.  Boundary rows of the result are zero and finite boundary
    entries of w are ignored.
    """
    mesh = jac.mesh
    w = require_nodal(mesh, w, "w")
    n, pad = mesh.n_nodes, mesh.nx + 1
    padded = np.zeros(n + 2 * pad)
    padded[pad:pad + n] = w
    out = jac.rows[0] * w
    for k, offset in enumerate(_stencil_offsets(mesh.nx)[1:], start=1):
        out += jac.rows[k] * padded[pad + offset:pad + offset + n]
    return out


def scaled_residual_norm(problem: StepProblem, F: np.ndarray) -> float:
    """Max over interior nodes of |F_i| / m_i; comparable across refinements."""
    free = problem.mesh.interior_mask
    if not np.any(free):
        return 0.0
    return float(np.max(np.abs(F[free]) / problem.mesh.lumped_mass[free]))
