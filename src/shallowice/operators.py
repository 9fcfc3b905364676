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
gradients it returns a StepPoint with the energy, the residual, the
gradient state (g, q and the flux weight) and the nodal slope;
step_energy and step_residual read it.  flux_state and stiffness_vector
are the one home of that gradient state and of the stiffness action S,
which the VI certificate of monitors reuses; nodal_terms is the one home
of the nodal law, the energy density, residual and slope per unit mass,
and of its eps = 0 fork.  Without its stiffness term the energy is a sum
of functions of one nodal value each, and nodal_minimizer returns its
minimizer node by node.  The Jacobian is linearized once per Newton
iterate from the accepted StepPoint alone, reusing its gradient state and
nodal slope.  Every triangle is a right triangle with legs along x and
y, so its element matrix is fixed by three couplings, along the legs and
the cell diagonal; linearize adds them by slices of the node grid into
four rows of length n: the couplings at offsets +1, +nx and +nx+1 of the
7-point stencil, and the diagonal, minus the sum of its row's couplings
(symmetric diagonal storage).  One cached mask of the mesh drops every
Dirichlet entry.  Each coupling is stored once for both its nodes, so the
Jacobian is exactly symmetric.  step_jacobian_action applies each
off-diagonal row by two shifted slices.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .mesh import (
    StructuredMesh,
    require_constrained,
    require_nodal,
    scatter_vertex_sums,
    triangle_gradients,
)
from .physics import PhysicalParams, dphi_power_reg, flux_weight, signed_power

__all__ = [
    "StepProblem",
    "StepPoint",
    "StepJacobian",
    "evaluate",
    "flux_state",
    "stiffness_vector",
    "nodal_terms",
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
    configured value.  phi_prev = phi(u_prev) is derived from u_prev.
    """

    mesh: StructuredMesh
    params: PhysicalParams
    u_prev: np.ndarray
    a_bar: np.ndarray
    ell: float
    kappa: float
    delta: float = DEFAULT_DELTA
    eps: float = DEFAULT_EPS
    phi_prev: np.ndarray = field(init=False, repr=False)

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
        self.phi_prev = signed_power(self.u_prev, self.params.alpha - 1.0)


@dataclass(frozen=True)
class StepPoint:
    """Everything the solver needs at one state, from one gradient pass.

    u          the state (zero on the boundary)
    energy     step_energy at u
    residual   step_residual at u, zero rows on the boundary
    g, q       per-triangle state gradient and |g|^2 + delta^2
    weight     per-triangle flux weight |T| mu q^((p-2)/2)
    slope      the nodal slope of nodal_terms at u, per unit mass
    """

    u: np.ndarray
    energy: float
    residual: np.ndarray
    g: np.ndarray
    q: np.ndarray
    weight: np.ndarray
    slope: np.ndarray


def evaluate(problem: StepProblem, u: np.ndarray) -> StepPoint:
    """Energy, residual, gradient state and nodal slope of the step at u.

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

    g, q, weight = flux_state(mesh, params, u, problem.delta)
    density, residual, slope = nodal_terms(problem, u)
    # |T| mu q^(p/2) / p, through the flux weight |T| mu q^((p-2)/2)
    energy = float(m @ density + weight @ q / params.p)

    F = stiffness_vector(mesh, g, weight) + m * residual
    F[mesh.boundary_mask] = 0.0
    return StepPoint(u=u, energy=energy, residual=F, g=g, q=q, weight=weight, slope=slope)


def nodal_terms(problem: StepProblem,
                u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The nodal terms of the step per unit mass at every node: the energy
    density, the residual and its slope,

        density   (pw(u) - phi(uprev) u)/ell + min(u, 0)^2/(2 kappa) - abar u
        residual  (phi_eps(u) - phi(uprev))/ell + min(u, 0)/kappa - abar
        slope     phi_eps'(u)/ell + [u < 0]/kappa

    with pw as in evaluate and the slope of min(u, 0) taken as 0 at u = 0.
    pw and phi_eps share one power of u^2 + eps^2; at eps = 0, of |u|, and
    phi_eps' is evaluated at max(|u|, SINGULAR_STATE).
    """
    alpha, eps = problem.params.alpha, problem.eps
    if eps == 0.0:
        size = np.abs(u)
        power = size ** (alpha - 1.0)
        phi, pw = np.sign(u) * power, power * size / alpha
        u_slope = np.maximum(size, SINGULAR_STATE)
    else:
        s = u * u + eps * eps
        power = s ** (0.5 * (alpha - 2.0))
        phi, pw = power * u, (power * s - eps**alpha) / alpha
        u_slope = u
    ell, kappa, neg = problem.ell, problem.kappa, np.minimum(u, 0.0)
    density = (pw / ell - problem.phi_prev * u / ell
               + neg**2 / (2.0 * kappa) - problem.a_bar * u)
    residual = (phi - problem.phi_prev) / ell + neg / kappa - problem.a_bar
    slope = dphi_power_reg(u_slope, alpha, eps) / ell + (u < 0.0) / kappa
    return density, residual, slope


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
    boundary nodes included.

    With fx = weight gx / hx and fy = weight gy / hy, the hat gradients give
    the lower triangle (ll, lr, ur) the vertex terms (-fx, fx - fy, fy) and
    the upper (ll, ur, ul) the terms (-fy, fx, fy - fx).
    """
    hx, hy = mesh.spacing
    fx, fy = (g.T * weight * np.array([[1.0 / hx], [1.0 / hy]])).reshape((2,) + mesh.cell_shape)
    per_vertex = np.empty((3,) + mesh.cell_shape)
    lower, upper = per_vertex[..., 0], per_vertex[..., 1]
    np.negative(fx[..., 0], out=lower[0])
    np.subtract(fx[..., 0], fy[..., 0], out=lower[1])
    lower[2] = fy[..., 0]
    np.negative(fy[..., 1], out=upper[0])
    upper[1] = fx[..., 1]
    np.subtract(fy[..., 1], fx[..., 1], out=upper[2])
    return scatter_vertex_sums(mesh, per_vertex.reshape(3, -1))


def nodal_minimizer(problem: StepProblem) -> np.ndarray:
    """Minimizer of the step energy without its stiffness term.

    The time, penalty and forcing terms of the energy (see evaluate) are
    nodal and strictly convex, so their minimizer solves, at every node,
    the scalar monotone equation that zeroes the residual of nodal_terms,

        phi_eps(u)/ell + min(u, 0)/kappa = r,   r = phi(uprev)/ell + abar,

    and is set to 0 on the boundary.  Where r >= 0 and eps = 0 the root is
    (ell r)^(1/(alpha-1)).  Elsewhere Newton steps, vectorized over the
    nodes, run inside a bracket that shrinks with the sign of each
    residual, and a step that leaves the bracket is replaced by its
    bisection.  With b = max(eps, (ell |r| 2^((2-alpha)/2))^(1/(alpha-1))),
    which bounds |phi_eps|^(-1)(ell |r|), the bracket is [0, b] for r >= 0
    and [-min(kappa |r|, b), 0] for r < 0.  The Newton slope is the
    nodal_terms slope, as in linearize.
    """
    alpha, eps = problem.params.alpha, problem.eps
    ell, kappa = problem.ell, problem.kappa
    r = problem.phi_prev / ell + problem.a_bar
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
        _, f, slope = nodal_terms(problem, u)
        lo = np.where(f <= 0.0, u, lo)
        hi = np.where(f >= 0.0, u, hi)
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

    rows   (4, n) stencil rows, rows[k, i] = J[i, i + o] = J[i + o, i] with
           o = (0, 1, nx, nx + 1)[k] (symmetric diagonal layout); every
           entry touching a boundary node is 0
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
    weight taken from the point, like the nodal slope.  With s = gx/hx,
    t = gy/hy and d = s - t, the hat gradients +-1/hx, +-1/hy make the
    off-diagonal entries of K_T, on both triangles of a cell,

        x-leg     -(weight/hx^2 + coef s d)   lower: ll-lr, upper: ul-ur
        y-leg     -(weight/hy^2 - coef t d)   lower: lr-ur, upper: ll-ul
        diagonal  -coef s t                   ll-ur,

    and every row of K_T sums to 0, as the hat functions sum to one.  The
    couplings are summed into rows by slices of the node grid, the
    diagonal is minus the sum of its row's couplings plus m times the
    point's slope, that of the nodal time and penalty terms, and the mask
    mesh.interior_couplings drops the Dirichlet entries.  The Jacobian is
    exactly symmetric and positive semidefinite as a bilinear form
    (definite for eps > 0).  The eps = 0 clamp of the nodal slope changes
    only the Newton direction, never the residual that convergence is
    judged on.
    """
    mesh = problem.mesh
    params = problem.params
    g, q, weight = point.g, point.q, point.weight
    hx, hy = mesh.spacing
    nx, n = mesh.nx, mesh.n_nodes

    # (p-2) weight / q; 0 where q = 0, since g and so the rank-one term are 0 there
    coef = (params.p - 2.0) * np.divide(weight, q, out=np.zeros_like(q), where=q > 0.0)

    # the negated couplings of every triangle, on the cell grid
    s, t = g.T * np.array([[1.0 / hx], [1.0 / hy]])
    cs, ct, d = coef * s, coef * t, s - t
    x_leg = (weight * (1.0 / hx**2) + cs * d).reshape(mesh.cell_shape)
    y_leg = (weight * (1.0 / hy**2) - ct * d).reshape(mesh.cell_shape)
    diagonal = (cs * t).reshape(mesh.cell_shape)

    # rows 1..3 gather the negated east, north and north-east couplings of
    # each node; row 0 their sum over the 6 neighbours, the diagonal
    rows = np.zeros((4, mesh.ny, nx))
    east, north, north_east = rows[1], rows[2], rows[3]
    east[:-1, :-1] = x_leg[..., 0]
    east[1:, :-1] += x_leg[..., 1]
    north[:-1, 1:] = y_leg[..., 0]
    north[:-1, :-1] += y_leg[..., 1]
    np.add(diagonal[..., 0], diagonal[..., 1], out=north_east[:-1, :-1])
    rows = rows.reshape(4, n)
    np.add(rows[1], rows[2], out=rows[0])
    rows[0] += rows[3]
    rows[0, 1:] += rows[1, :-1]
    rows[0, nx:] += rows[2, :-nx]
    rows[0, nx + 1:] += rows[3, :-nx - 1]
    rows[1:] *= -1.0

    rows[0] += mesh.lumped_mass * point.slope
    rows *= mesh.interior_couplings.reshape(4, n)
    diag = np.where(mesh.boundary_mask, 1.0, rows[0])
    return StepJacobian(mesh=mesh, rows=rows, diag=diag)


def step_jacobian_action(jac: StepJacobian, w: np.ndarray) -> np.ndarray:
    """Jacobian of step_residual, as linearized in jac, applied to w.

    Adds to rows[0] w each coupling rows[k, i] of nodes i and i + o twice,
    times w[i + o] at node i and times w[i] at node i + o, in the order
    o = 1, nx, nx + 1.  Boundary rows of the result are zero and finite
    boundary entries of w are ignored.
    """
    mesh = jac.mesh
    w = require_nodal(mesh, w, "w")
    out = jac.rows[0] * w
    for k, offset in enumerate((1, mesh.nx, mesh.nx + 1), start=1):
        r = jac.rows[k, :-offset]
        out[:-offset] += r * w[offset:]
        out[offset:] += r * w[:-offset]
    return out


def scaled_residual_norm(problem: StepProblem, F: np.ndarray) -> float:
    """Max over interior nodes of |F_i| / m_i; comparable across refinements."""
    free = problem.mesh.interior_mask
    return float(np.max(np.abs(F[free]) / problem.mesh.lumped_mass[free]))
