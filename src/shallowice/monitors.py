"""Runtime monitors: discrete a priori bounds, stability checks, penalty limit.

Discrete norms used throughout:

    ||v||_Lq^q   = sum_i m_i |v_i|^q            (lumped nodal quadrature)
    ||v||_W1p^p  = sum_T |T| |grad v_T|^p       (gradient seminorm; a norm on
                                                 zero-boundary fields)

The monitored quantities are uniformly bounded in the step count and the
penalty parameter for a stable run, so refining the march or shrinking the
penalty should leave them nearly unchanged; the kappa sweep tracks the
vanishing of the negative part as the penalty tightens.

A run that settles repeats its state.  `snapshots.state_runs`, the one
rule for a repeated state, splits the states into runs of equal bytes.
compute_monitors walks these runs once, takes each run's terms once, and
holds one previous state, half-power and negative part; it rejects a
trajectory with a non-finite state.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

import numpy as np

from .mesh import StructuredMesh, triangle_gradients
from .operators import DEFAULT_DELTA, DEFAULT_EPS, flux_state, stiffness_vector
from .physics import neg_part, signed_power
from .snapshots import state_runs
from .timestep import MarchError, SolverConfig, TimeGrid, Trajectory, average_forcing, run

__all__ = [
    "MonitorRecord",
    "lq_norm",
    "w1p_seminorm_pow",
    "compute_monitors",
    "vi_residual",
    "SweepRow",
    "SweepResult",
    "kappa_sweep",
]

SC1_PRIME_TOL = 1e-12
# relative growth of neg_norm between consecutive kappa_sweep rows that
# still counts as nonincreasing
MONOTONE_SLACK = 0.05


def lq_norm(mesh: StructuredMesh, v: np.ndarray, q: float) -> float:
    """Lumped Lq norm (sum_i m_i |v_i|^q)^(1/q)."""
    return float((mesh.lumped_mass @ np.abs(v) ** q) ** (1.0 / q))


def w1p_seminorm_pow(mesh: StructuredMesh, v: np.ndarray, p: float) -> float:
    """p-th power of the gradient seminorm, sum_T |T| |grad v_T|^p."""
    gx, gy = triangle_gradients(mesh, v).T
    return float(mesh.areas @ np.sqrt(gx * gx + gy * gy) ** p)


@dataclass
class MonitorRecord:
    """Discrete analogs of the a priori bounds plus stability-check values.

    est1    max_n ||u^n||_La
    est2    ell * sum_n ||u^n||_W1p^p
    est3    ell * sum_n ||(w^(n+1) - w^n)/ell||_L2^2,  w = |u|^((a-2)/2) u
    est3_1  max_n ||w^n||_L2
    est4    max_n ||u^n||_W1p
    est5_1  max_n || |u^n|^(a-2) u^n ||_La'
    pen_sum (ell/kappa) * sum_{n>=1} ||{u^n}^-||_L2^2
    sc1_value        (1/kappa) sum_n sum_i m_i {u^(n+1)_i}^- (u^(n+1)_i - u^n_i)
    sc1_prime_ok     nodewise monotone growth of the negative part
    sc2_prime_value  max_n ||{u^n}^-||_L2 / kappa
    neg_norm         ||{u}^-||_{L2(0,T;L2)} of the piecewise-constant interpolant
    """

    est1: float
    est2: float
    est3: float
    est3_1: float
    est4: float
    est5_1: float
    pen_sum: float
    sc1_value: float
    sc1_prime_ok: bool
    sc2_prime_value: float
    neg_norm: float

    def as_dict(self) -> dict:
        return asdict(self)


def compute_monitors(traj: Trajectory, kappa: float) -> MonitorRecord:
    """Evaluate every monitored quantity on a finished trajectory.

    One walk over the runs of equal states (state_runs) takes each run's
    terms once and holds one previous state, half-power w = |u|^((a-2)/2) u
    and negative part for the est3 and sc1 increments and the sc1' check; a
    state equal to its predecessor adds an exact 0 to both sums and cannot
    shrink the negative part.  The per-state scalars are repeated over their
    runs for the sums, so these see the values of a state-by-state walk.
    Raises ValueError naming the step of the first non-finite state.
    """
    mesh = traj.mesh
    alpha = traj.params.alpha
    p = traj.params.p
    ell = traj.time_grid.ell
    m = mesh.lumped_mass
    alpha_conj = alpha / (alpha - 1.0)

    counts, la_pows, w1p_pows, half_sq, conj_norms, neg_sq = ([] for _ in range(6))
    est3_sum = sc1_sum = 0.0
    sc1_prime_ok = True
    prev = None
    for u, count in state_runs(traj.states):
        if not np.isfinite(u).all():
            raise ValueError(f"the state of step {sum(counts)} holds a non-finite value")
        w = signed_power(u, 0.5 * alpha)
        neg = neg_part(u)
        counts.append(count)
        la_pows.append(float(m @ np.abs(u) ** alpha))
        w1p_pows.append(w1p_seminorm_pow(mesh, u, p))
        half_sq.append(float(m @ w**2))
        conj_norms.append(lq_norm(mesh, signed_power(u, alpha - 1.0), alpha_conj))
        neg_sq.append(float(m @ neg**2))
        if prev is not None:
            u_prev, w_prev, neg_prev = prev
            est3_sum += float(m @ ((w - w_prev) / ell) ** 2)
            sc1_sum += float(m @ (neg * (u - u_prev)))
            # a shrink by at most SC1_PRIME_TOL is ignored
            sc1_prime_ok = sc1_prime_ok and not np.any(neg < neg_prev - SC1_PRIME_TOL)
        prev = u, w, neg

    neg_sq_steps = np.repeat(neg_sq, counts)[1:]
    return MonitorRecord(
        est1=float(np.max(la_pows) ** (1.0 / alpha)),
        est2=float(ell * np.sum(np.repeat(w1p_pows, counts))),
        est3=float(ell * est3_sum),
        est3_1=float(np.sqrt(max(half_sq))),
        est4=float(np.max(w1p_pows) ** (1.0 / p)),
        est5_1=max(conj_norms),
        pen_sum=float(ell / kappa * np.sum(neg_sq_steps)),
        sc1_value=sc1_sum / kappa,
        sc1_prime_ok=bool(sc1_prime_ok),
        sc2_prime_value=float(np.sqrt(np.max(neg_sq)) / kappa),
        neg_norm=float(np.sqrt(ell * np.sum(neg_sq_steps))),
    )


def _as_time_samples(traj: Trajectory, v) -> np.ndarray:
    """The admissible test field v as one nodal field per slab, checked as
    given: a 1-D field is broadcast, and so holds no (N, n) memory."""
    v = np.asarray(v, dtype=float)
    n_nodes = traj.mesh.n_nodes
    if v.ndim == 1:
        if v.shape != (n_nodes,):
            raise ValueError(f"test field must have {n_nodes} nodal values")
    elif v.shape != (traj.N, n_nodes):
        raise ValueError(
            f"time-sampled test field must have shape ({traj.N}, {n_nodes})"
        )
    if not np.all(np.isfinite(v)):
        raise ValueError("test fields must be finite")
    if np.min(v) < 0.0:
        raise ValueError("test fields must be nonnegative")
    if np.any(v[..., traj.mesh.boundary_mask] != 0.0):
        raise ValueError("test fields must vanish on the boundary")
    return np.broadcast_to(v, (traj.N, n_nodes))


def vi_residual(traj: Trajectory, test_family) -> float:
    """Residual of the limiting variational inequality over a test family.

    For each admissible test field v (finite, nonnegative, zero boundary,
    sampled once per slab) the evaluation is LHS - RHS of

        sum_n sum_i m_i (phi(u^(n+1)_i) - phi(u^n_i)) v^n_i
          + ell sum_n int mu |grad u^(n+1)|^(p-2) grad u^(n+1) . grad(v^n - u^(n+1))
        >=  ell sum_n sum_i m_i abar^n_i (v^n_i - u^(n+1)_i)
          + (||u^N||_La^a - ||u^0||_La^a) / a',

    with the time pairing realized as the telescoping sum of step increments
    of the power transform.  The gradient factor keeps the same delta
    regularization the trajectory was computed with.

    Every term is linear in v: with S(u) the nodal stiffness action, the
    gradient integral of slab n is S(u^(n+1)) . (v^n - u^(n+1)).  So slab n
    reduces to one scalar and the coefficients

        C^n = m (phi(u^(n+1)) - phi(u^n)) + ell (S(u^(n+1)) - m abar^n),

    which are held one slab at a time: each test field adds C^n . v^n to
    its pairing, one weighted sum per slab and no gradient pass.  Returns
    the minimum over the family; a value above -tol certifies the discrete
    inequality.
    """
    mesh = traj.mesh
    params = traj.params
    alpha = params.alpha
    ell = traj.time_grid.ell
    m = mesh.lumped_mass
    alpha_conj = alpha / (alpha - 1.0)

    samples = [_as_time_samples(traj, v) for v in test_family]
    pairings = [0.0] * len(samples)

    la0 = float(m @ np.abs(traj.states[0]) ** alpha)
    laN = float(m @ np.abs(traj.states[-1]) ** alpha)
    constant = -(laN - la0) / alpha_conj
    phi_prev = signed_power(traj.states[0], alpha - 1.0)
    for n in range(traj.N):
        u_next = traj.states[n + 1]
        g, _, weight = flux_state(mesh, params, u_next, traj.delta)
        a_bar = average_forcing(params.forcing, n, traj.time_grid, mesh)
        flux = ell * (stiffness_vector(mesh, g, weight) - m * a_bar)
        constant -= float(flux @ u_next)
        phi_next = signed_power(u_next, alpha - 1.0)
        coef = m * (phi_next - phi_prev) + flux
        pairings = [s + float(coef @ vv[n]) for s, vv in zip(pairings, samples)]
        phi_prev = phi_next

    return min((constant + s for s in pairings), default=np.inf)


@dataclass
class SweepRow:
    """One penalty value of a sweep; error is set when the run failed."""

    kappa: float
    record: MonitorRecord | None
    dist_final: float | None
    trajectory: Trajectory | None
    error: str | None = None

    @property
    def neg_norm(self) -> float:
        """The record's neg_norm; NaN for a failed row."""
        return np.nan if self.record is None else self.record.neg_norm

    @property
    def sc2_proxy(self) -> float:
        """neg_norm / kappa; NaN for a failed row."""
        return self.neg_norm / self.kappa


@dataclass
class SweepResult:
    rows: list

    @property
    def monotone_ok(self) -> bool:
        """neg_norm of the successful rows is nonincreasing within MONOTONE_SLACK."""
        norms = [r.neg_norm for r in self.rows if r.error is None]
        return not any(b > a * (1.0 + MONOTONE_SLACK) for a, b in zip(norms, norms[1:]))

    def table(self) -> list[dict]:
        """One dict per row, all with the same keys: the row's own values,
        then its monitor record, whose cells are None for a failed row."""
        out = []
        for row in self.rows:
            entry = {
                "kappa": row.kappa,
                "neg_norm": row.neg_norm,
                "neg_norm_over_kappa": row.sc2_proxy,
                "dist_final": row.dist_final,
                "error": row.error,
            }
            record = {} if row.record is None else row.record.as_dict()
            for f in fields(MonitorRecord):
                entry.setdefault(f.name, record.get(f.name))
            out.append(entry)
        return out


def kappa_sweep(
    mesh: StructuredMesh,
    params,
    time_grid: TimeGrid,
    solver_config: SolverConfig | None,
    kappa_list,
    *,
    delta: float = DEFAULT_DELTA,
    eps: float = DEFAULT_EPS,
) -> SweepResult:
    """Integrate the same configuration for a decreasing list of penalties.

    Each row reports the negative-part norm, its ratio to kappa (the
    computable proxy for the penalty-scaled dual bound), the full monitor
    record, and the max-norm distance between final states of consecutive
    rows.  Run failures are recorded per row and the sweep continues.
    monotone_ok states whether neg_norm was nonincreasing within
    MONOTONE_SLACK.
    """
    kappas = [float(k) for k in kappa_list]
    if not all(0 < k < np.inf for k in kappas):
        raise ValueError("penalty values must be positive and finite")
    if any(b >= a for a, b in zip(kappas, kappas[1:])):
        raise ValueError("penalty values must be strictly decreasing")

    rows: list[SweepRow] = []
    prev_final = None
    for kappa in kappas:
        try:
            traj = run(
                mesh, params, time_grid, kappa, solver_config,
                delta=delta, eps=eps,
            )
        except MarchError as err:
            rows.append(SweepRow(kappa=kappa, record=None, dist_final=None,
                                 trajectory=None, error=str(err)))
            continue
        record = compute_monitors(traj, kappa)
        final = traj.states[-1]
        dist = None if prev_final is None else float(np.max(np.abs(final - prev_final)))
        prev_final = final
        rows.append(SweepRow(kappa=kappa, record=record, dist_final=dist,
                             trajectory=traj))
    return SweepResult(rows=rows)
