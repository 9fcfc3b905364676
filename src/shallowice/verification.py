"""Independent oracles: manufactured solutions, brute-force step solves,
and sampling suites for the pointwise inequalities the scheme relies on.

Nothing here goes through the Newton/Krylov path, so a solver defect
cannot confirm itself: the manufactured-solution study checks the whole
march against a closed form, the brute-force oracle minimizes the step
energy by gradient descent plus coordinatewise bisection, and the lemma
suites hammer the scalar inequalities with random samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .forcing import CallableForcing
from .mesh import StructuredMesh, build_mesh
from .operators import (
    DEFAULT_DELTA,
    DEFAULT_EPS,
    StepProblem,
    scaled_residual_norm,
    step_energy,
    step_residual,
)
from .physics import make_params, signed_power
from .timestep import TimeGrid, run

__all__ = [
    "MmsCase",
    "mms_forcing",
    "mms_error",
    "mms_convergence",
    "brute_force_step_oracle",
    "lemma_inequality_suite",
    "LemmaReport",
]


@dataclass
class MmsCase:
    """Separable polynomial space-time field used as a manufactured solution.

    u(t, x, y) = amp * (g0 + g1 t) * 16 x (Lx - x) y (Ly - y) / (Lx Ly)^2.

    The field is strictly positive inside the domain for positive
    coefficients, vanishes on the boundary, and never activates the
    nonnegativity penalty, so the march should reproduce it up to
    discretization error.
    """

    amp: float = 1.0
    g0: float = 1.0
    g1: float = 1.0
    Lx: float = 1.0
    Ly: float = 1.0
    T: float = 0.5

    def __post_init__(self):
        # amp = 0 is the degenerate everywhere-zero field, useful in tests
        if self.amp < 0 or self.g0 <= 0 or self.g1 < 0:
            raise ValueError("need amp >= 0, g0 > 0, g1 >= 0")

    def _g(self, t):
        return self.g0 + self.g1 * t

    def _norm(self):
        return self.Lx**2 * self.Ly**2 / 16.0

    def bump(self, x, y):
        return x * (self.Lx - x) * y * (self.Ly - y) / self._norm()

    def value(self, t, x, y):
        """u(t, x, y); accepts scalars or arrays."""
        return self.amp * self._g(t) * self.bump(x, y)

    def value_nodal(self, mesh: StructuredMesh, t: float) -> np.ndarray:
        return self.value(t, mesh.nodes[:, 0], mesh.nodes[:, 1])

    def space_derivatives(self, x, y):
        """bump and its first/second partials at (x, y)."""
        nrm = self._norm()
        w = x * (self.Lx - x) * y * (self.Ly - y) / nrm
        wx = (self.Lx - 2.0 * x) * y * (self.Ly - y) / nrm
        wy = x * (self.Lx - x) * (self.Ly - 2.0 * y) / nrm
        wxx = -2.0 * y * (self.Ly - y) / nrm
        wyy = -2.0 * x * (self.Lx - x) / nrm
        wxy = (self.Lx - 2.0 * x) * (self.Ly - 2.0 * y) / nrm
        return w, wx, wy, wxx, wyy, wxy


def mms_forcing(case: MmsCase, p: float, mu: float, t, x, y):
    """Forcing that makes case.value solve the unconstrained evolution law.

    a(t,x) = d/dt[|u|^(a-2) u] - div(mu |grad u|^(p-2) grad u) with the
    divergence expanded by the product rule,

        mu [ s^((p-2)/2) Lap(u) + (p-2) s^((p-4)/2) grad u . H(u) grad u ],

    s = |grad u|^2.  At critical points of u the whole bracket vanishes for
    p > 2 (the quadratic form dies as fast as the singular factor blows
    up); that limit is returned explicitly.  The time term is evaluated in
    the form (a-1) amp^(a-1) g^(a-2) g' w^(a-1), finite down to the
    boundary where u = 0.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    alpha = (3.0 * p - 1.0) / (2.0 * p)
    w, wx, wy, wxx, wyy, wxy = case.space_derivatives(x, y)
    g = case._g(t)
    gprime = case.g1

    time_term = (
        (alpha - 1.0) * case.amp ** (alpha - 1.0) * g ** (alpha - 2.0) * gprime
        * np.clip(w, 0.0, None) ** (alpha - 1.0)
    )

    c = case.amp * g
    ux, uy = c * wx, c * wy
    s = ux * ux + uy * uy
    lap = c * (wxx + wyy)
    # grad u . H(u) grad u with H the Hessian of u
    quad = c * (ux * (ux * wxx + uy * wxy) + uy * (ux * wxy + uy * wyy))

    div = np.zeros_like(s)
    if p == 2.0:
        div = mu * lap
    else:
        pos = s > 0.0
        div = np.where(
            pos,
            mu * (s ** (0.5 * (p - 2.0)) * lap
                  + (p - 2.0) * np.where(pos, s, 1.0) ** (0.5 * (p - 4.0)) * quad),
            0.0,
        )
    out = time_term - div
    return float(out) if out.ndim == 0 else out


def _case_params(case: MmsCase, mesh: StructuredMesh, p: float, mu: float):
    forcing = CallableForcing(
        lambda t, msh: mms_forcing(case, p, mu, t, msh.nodes[:, 0], msh.nodes[:, 1])
    )
    u0 = case.value_nodal(mesh, 0.0)
    return make_params(mesh, p, forcing, u0=u0, mu=mu)


def mms_error(case: MmsCase, mesh: StructuredMesh, p: float, mu: float,
              N: int, kappa: float, solver_config=None, *,
              delta: float = DEFAULT_DELTA, eps: float = DEFAULT_EPS) -> float:
    """max_n of the lumped L2 distance between the march and the closed form."""
    grid = TimeGrid(case.T, N)
    params = _case_params(case, mesh, p, mu)
    traj = run(mesh, params, grid, kappa, solver_config, delta=delta, eps=eps)
    m = mesh.lumped_mass
    worst = 0.0
    for n, u in enumerate(traj.states):
        exact = case.value_nodal(mesh, n * grid.ell)
        worst = max(worst, float(np.sqrt(m @ (u - exact) ** 2)))
    return worst


@dataclass
class MmsTable:
    """Error table of a manufactured-solution study."""

    temporal: list  # (N, error) on the finest mesh
    spatial: list   # (nx, error) at the spatial study step count

    @property
    def temporal_orders(self) -> list:
        """Order estimates log(E0/E1) / log(N1/N0) between consecutive rows."""
        return [
            float(np.log(e0 / e1) / np.log(n1 / n0))
            for (n0, e0), (n1, e1) in zip(self.temporal, self.temporal[1:])
        ]

    def format(self) -> str:
        lines = ["temporal study (finest mesh):", "    N      error      order"]
        orders = self.temporal_orders
        for k, (N, err) in enumerate(self.temporal):
            order = f"{orders[k - 1]:8.3f}" if k else "       -"
            lines.append(f"  {N:4d}  {err:10.4e} {order}")
        lines.append("spatial study:")
        lines.append("    nx     error")
        for nx, err in self.spatial:
            lines.append(f"  {nx:4d}  {err:10.4e}")
        return "\n".join(lines)


def mms_convergence(case: MmsCase, p: float, mu: float, mesh_list, N_list,
                    kappa: float, solver_config=None,
                    spatial_N: int | None = None, *,
                    delta: float = DEFAULT_DELTA,
                    eps: float = DEFAULT_EPS) -> MmsTable:
    """Temporal and spatial refinement study against the manufactured field.

    Temporal rows run every N in N_list on the finest mesh of mesh_list and
    report order estimates log2(E(N)/E(2N)) between consecutive rows.
    Spatial rows run every mesh at spatial_N steps (default: the largest N
    in N_list), where the march is time-resolved enough for the spatial
    error to dominate.  Every march uses the regularizations delta and eps.
    """
    sizes = sorted(int(n) for n in mesh_list)
    Ns = sorted(int(n) for n in N_list)
    spatial_N = Ns[-1] if spatial_N is None else int(spatial_N)

    def error(mesh, N):
        return mms_error(case, mesh, p, mu, N, kappa, solver_config,
                         delta=delta, eps=eps)

    finest = build_mesh(sizes[-1], sizes[-1], case.Lx, case.Ly)
    temporal = [(N, error(finest, N)) for N in Ns]
    spatial = []
    for size in sizes:
        mesh = finest if size == sizes[-1] and spatial_N == Ns[-1] else build_mesh(
            size, size, case.Lx, case.Ly
        )
        spatial.append((size, error(mesh, spatial_N)))
    return MmsTable(temporal=temporal, spatial=spatial)


# --- brute-force step oracle -------------------------------------------------

MAX_ORACLE_INTERIOR = 9
# scaled residual the oracle must reach, and its iteration caps
ORACLE_TOL = 1e-11
ORACLE_GD_ITERS = 4000
ORACLE_MAX_SWEEPS = 2000


def _component_residual(problem: StepProblem, u, node, incident, grad_i, c):
    """Residual component F_node as a function of the nodal value c."""
    mesh = problem.mesh
    params = problem.params
    m = mesh.lumped_mass[node]
    u_loc = u[mesh.triangles[incident]]
    u_loc[np.arange(incident.size), grad_i] = c
    g = np.einsum("tl,tld->td", u_loc, mesh.grad_basis[incident])
    q = np.einsum("td,td->t", g, g) + problem.delta**2
    w = mesh.areas[incident] * params.mu[incident] * q ** (0.5 * (params.p - 2.0))
    gphi = np.einsum(
        "td,td->t", g, mesh.grad_basis[incident, grad_i, :]
    )
    stiff = float(w @ gphi)
    if problem.eps == 0.0:
        phi_new = signed_power(c, params.alpha - 1.0)
    else:
        phi_new = (c * c + problem.eps**2) ** (0.5 * (params.alpha - 2.0)) * c
    phi_prev = signed_power(problem.u_prev[node], params.alpha - 1.0)
    return (
        m * (phi_new - phi_prev) / problem.ell
        + stiff
        + (m / problem.kappa) * min(c, 0.0)
        - m * problem.a_bar[node]
    )


def brute_force_step_oracle(problem: StepProblem) -> np.ndarray:
    """Minimize the step energy without Newton or Krylov machinery.

    Phase one is plain gradient descent with halving steps on the energy;
    phase two polishes with cyclic coordinatewise bisection on the residual
    components, which are monotone in the nodal value by convexity, until
    the scaled residual is at most ORACLE_TOL.  Only meant for tiny
    problems (at most MAX_ORACLE_INTERIOR interior nodes); the march solver
    is validated against this routine.
    """
    mesh = problem.mesh
    if mesh.n_interior > MAX_ORACLE_INTERIOR:
        raise ValueError(
            f"oracle limited to {MAX_ORACLE_INTERIOR} interior nodes, "
            f"got {mesh.n_interior}"
        )
    free = np.flatnonzero(mesh.interior_mask)
    u = problem.u_prev.copy()

    # incident-triangle tables per free node
    incident = {}
    for node in free:
        tri_ids, local = np.nonzero(mesh.triangles == node)
        incident[node] = (tri_ids, local)

    step = 1.0
    energy = step_energy(problem, u)
    for _ in range(ORACLE_GD_ITERS):
        F = step_residual(problem, u)
        if scaled_residual_norm(problem, F) <= 1e-7:
            break
        direction = -F
        t = step * 2.0
        while t > 1e-18:
            trial = u + t * direction
            e_trial = step_energy(problem, trial)
            if np.isfinite(e_trial) and e_trial < energy:
                u, energy, step = trial, e_trial, t
                break
            t *= 0.5
        else:
            break

    for _ in range(ORACLE_MAX_SWEEPS):
        for node in free:
            tri_ids, local = incident[node]
            fun = lambda c: _component_residual(problem, u, node, tri_ids, local, c)
            radius = max(1.0, abs(u[node]))
            lo, hi = u[node] - radius, u[node] + radius
            for _ in range(200):
                if fun(lo) <= 0.0:
                    break
                lo -= radius
                radius *= 2.0
            radius = max(1.0, abs(u[node]))
            for _ in range(200):
                if fun(hi) >= 0.0:
                    break
                hi += radius
                radius *= 2.0
            for _ in range(120):
                mid = 0.5 * (lo + hi)
                if fun(mid) <= 0.0:
                    lo = mid
                else:
                    hi = mid
            u[node] = 0.5 * (lo + hi)
        F = step_residual(problem, u)
        if scaled_residual_norm(problem, F) <= ORACLE_TOL:
            return u
    raise RuntimeError("oracle failed to reach its residual tolerance")


# --- pointwise inequality suites ---------------------------------------------

LEMMA_REL_SLACK = 1e-12


@dataclass
class LemmaEntry:
    name: str
    samples: int
    violations: int
    worst_margin: float


@dataclass
class LemmaReport:
    entries: list
    coupling_min_ratio: float

    @property
    def all_passed(self) -> bool:
        return all(e.violations == 0 for e in self.entries) and self.coupling_min_ratio > 0

    def format(self) -> str:
        lines = [
            f"  {e.name:28s} samples {e.samples:8d}  violations {e.violations}"
            for e in self.entries
        ]
        lines.append(
            f"  {'power-gap coupling ratio':28s} min {self.coupling_min_ratio:.6e}"
        )
        return "\n".join(lines)


def lemma_inequality_suite(sample_count: int = 100_000, seed: int = 0) -> LemmaReport:
    """Random sampling of the scalar inequalities behind the monitors.

    Checked on samples in [-1e3, 1e3] (nonnegative where required):

      * | |x|^b - |y|^b | <= |x - y|^b            for 0 < b <= 1
      * |x - y|^a <= | |x|^a - |y|^a |            for x, y >= 0, a > 1
      * (phi_r(x) - phi_r(y)) x >= (|x|^r - |y|^r)/r'   with phi_r(x) = |x|^(r-2) x
      * (phi_r(x) - phi_r(y))(x - y) >= C (psi_r(x) - psi_r(y))^2, C > 0,
        with psi_r(x) = |x|^((r-2)/2) x; only positivity of the empirical
        ratio is certified since no explicit constant is available.

    Violations are counted against the relative slack LEMMA_REL_SLACK.
    """
    if sample_count < 1:
        raise ValueError("sample_count must be at least 1")
    rng = np.random.default_rng(seed)
    n = int(sample_count)
    entries = []

    def tally(name, lhs, rhs):
        # inequality lhs <= rhs with relative slack
        slack = LEMMA_REL_SLACK * np.maximum(np.abs(lhs), np.abs(rhs))
        margin = lhs - rhs
        bad = margin > slack
        entries.append(LemmaEntry(
            name=name, samples=n, violations=int(bad.sum()),
            worst_margin=float(margin.max()) if margin.size else 0.0,
        ))

    x = rng.uniform(-1e3, 1e3, n)
    y = rng.uniform(-1e3, 1e3, n)
    beta = rng.uniform(np.nextafter(0.0, 1.0), 1.0, n)
    tally(
        "subadditive power (b <= 1)",
        np.abs(np.abs(x) ** beta - np.abs(y) ** beta),
        np.abs(x - y) ** beta,
    )

    xs = rng.uniform(0.0, 1e3, n)
    ys = rng.uniform(0.0, 1e3, n)
    a = rng.uniform(1.0 + 1e-6, 4.0, n)
    tally(
        "superadditive power (a > 1)",
        np.abs(xs - ys) ** a,
        np.abs(xs**a - ys**a),
    )

    xi = rng.uniform(-1e3, 1e3, n)
    eta = rng.uniform(-1e3, 1e3, n)
    r = rng.uniform(1.0 + 1e-6, 6.0, n)
    r_conj = r / (r - 1.0)
    phi_xi = np.sign(xi) * np.abs(xi) ** (r - 1.0)
    phi_eta = np.sign(eta) * np.abs(eta) ** (r - 1.0)
    tally(
        "monotone power gap vs level",
        (np.abs(xi) ** r - np.abs(eta) ** r) / r_conj,
        (phi_xi - phi_eta) * xi,
    )

    psi_xi = np.sign(xi) * np.abs(xi) ** (0.5 * r)
    psi_eta = np.sign(eta) * np.abs(eta) ** (0.5 * r)
    lhs = (phi_xi - phi_eta) * (xi - eta)
    rhs = (psi_xi - psi_eta) ** 2
    meaningful = rhs > 1e-12
    ratio = lhs[meaningful] / rhs[meaningful]
    return LemmaReport(entries=entries, coupling_min_ratio=float(ratio.min()))
