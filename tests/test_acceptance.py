"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines; the whole suite takes a few minutes on one workstation.
"""

import numpy as np
import pytest

from shallowice import (
    ConstantForcing,
    MeltForcing,
    SolverConfig,
    StepProblem,
    TimeGrid,
    build_mesh,
    compute_monitors,
    initial_thickness_field,
    kappa_sweep,
    make_params,
    poly_bump,
    run,
    solve_step,
    step_energy,
    step_residual,
    vi_residual,
)
from shallowice.mesh import triangle_gradients
from shallowice.verification import (
    MmsCase,
    brute_force_step_oracle,
    lemma_inequality_suite,
    mms_convergence,
)

from conftest import zero_boundary


def check(name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


# --- shared heavy runs --------------------------------------------------------

MELT_KAPPAS = [1e-1, 1e-2, 1e-3, 1e-4]


def melt_setup():
    mesh = build_mesh(33, 33, 1.0, 1.0)
    H0 = initial_thickness_field("dome", 1.0, mesh)
    params = make_params(mesh, 3.0, MeltForcing(-2.0), H0=H0, mu=1.0)
    return mesh, params, TimeGrid(2.0, 20)


@pytest.fixture(scope="module")
def melt_sweep():
    mesh, params, grid = melt_setup()
    return kappa_sweep(mesh, params, grid, None, MELT_KAPPAS)


def dome_setup(nx):
    mesh = build_mesh(nx, nx, 1.0, 1.0)
    H0 = initial_thickness_field("dome", 1.0, mesh)
    params = make_params(mesh, 3.0, ConstantForcing(0.0), H0=H0, mu=0.05)
    return mesh, params


@pytest.fixture(scope="module")
def dome_records():
    records = {}
    trajs = {}
    for nx, N in [(33, 50), (33, 100), (33, 200), (65, 50)]:
        mesh, params = dome_setup(nx)
        traj = run(mesh, params, TimeGrid(0.5, N), 1e-3)
        records[(nx, N)] = compute_monitors(traj, 1e-3)
        trajs[(nx, N)] = traj
    return records, trajs


# --- criteria -----------------------------------------------------------------

def test_criterion_1_gradient_consistency():
    mesh = build_mesh(33, 33, 1.0, 1.0)
    rng = np.random.default_rng(101)
    worst = 0.0
    states = 0
    for p in (2.8, 3.0, 5.0):
        params = make_params(mesh, p, ConstantForcing(0.0),
                             u0=np.zeros(mesh.n_nodes), mu=1.0)
        for _ in range(34 if p == 2.8 else 33):
            u_prev = zero_boundary(mesh, rng.uniform(0, 2, mesh.n_nodes))
            a_bar = rng.uniform(-2, 2, mesh.n_nodes)
            problem = StepProblem(mesh=mesh, params=params, u_prev=u_prev,
                                  a_bar=a_bar, ell=0.5, kappa=1e-2,
                                  delta=0.0, eps=0.0)
            mag = rng.uniform(0.1, 2.0, mesh.n_nodes)
            u = zero_boundary(mesh, mag * rng.choice([-1.0, 1.0], mesh.n_nodes))
            w = zero_boundary(mesh, rng.standard_normal(mesh.n_nodes))
            w /= np.max(np.abs(w))
            h = 1e-5

            def energy_at(t):
                return step_energy(problem, u + t * w)

            fd = (energy_at(-2 * h) - 8 * energy_at(-h)
                  + 8 * energy_at(h) - energy_at(2 * h)) / (12 * h)
            dot = float(step_residual(problem, u) @ w)
            worst = max(worst, abs(dot - fd) / max(abs(fd), 1e-30))
            states += 1
    check("1 gradient consistency",
          states == 100 and worst < 1e-6,
          f"{states} states, max rel err {worst:.2e}")


def test_criterion_2_oracle_equivalence():
    rng = np.random.default_rng(202)
    cfg = SolverConfig(tol_residual=1e-10)
    worst = 0.0
    cases = 0
    ps = [2.0, 2.8, 3.0, 5.0]
    for i in range(50):
        nx = int(rng.integers(3, 6))
        ny = int(rng.integers(3, 6))
        mesh = build_mesh(nx, ny, 1.0, 1.0)
        u_prev = zero_boundary(mesh, rng.uniform(0, 2, mesh.n_nodes))
        a_bar = rng.uniform(-2, 2, mesh.n_nodes)
        params = make_params(mesh, ps[i % 4], ConstantForcing(0.0), u0=u_prev,
                             mu=float(rng.uniform(0.5, 2.0)))
        problem = StepProblem(
            mesh=mesh, params=params, u_prev=u_prev, a_bar=a_bar,
            ell=[1e-2, 1.0][(i // 2) % 2], kappa=[1e-1, 1e-3][i % 2],
        )
        expected = brute_force_step_oracle(problem)
        got = solve_step(problem, cfg).u_next
        worst = max(worst, float(np.max(np.abs(expected - got))))
        cases += 1
    check("2 oracle equivalence",
          cases == 50 and worst <= 10 * cfg.tol_residual,
          f"{cases} problems, max distance {worst:.2e}")


def test_criterion_3_uniqueness():
    mesh = build_mesh(9, 9, 1.0, 1.0)
    rng = np.random.default_rng(303)
    u_prev = zero_boundary(mesh, rng.uniform(0, 2, mesh.n_nodes))
    a_bar = rng.uniform(-1, 1, mesh.n_nodes)
    params = make_params(mesh, 3.0, ConstantForcing(0.0), u0=u_prev, mu=1.0)
    problem = StepProblem(mesh=mesh, params=params, u_prev=u_prev, a_bar=a_bar,
                          ell=0.2, kappa=1e-2)
    cfg = SolverConfig()
    base = solve_step(problem, cfg).u_next
    worst = 0.0
    for _ in range(20):
        guess = zero_boundary(
            mesh, rng.uniform(0, 3, mesh.n_nodes)
            * rng.choice([-1.0, 1.0], mesh.n_nodes)
        )
        sol = solve_step(problem, cfg, initial_guess=guess).u_next
        worst = max(worst, float(np.max(np.abs(sol - base))))
    check("3 uniqueness across initial guesses",
          worst <= 10 * cfg.tol_residual,
          f"20 guesses, max spread {worst:.2e}")


def test_criterion_4_zero_invariance():
    mesh = build_mesh(17, 17, 1.0, 1.0)
    with pytest.warns(UserWarning):
        params = make_params(mesh, 3.0, ConstantForcing(0.0),
                             u0=np.zeros(mesh.n_nodes), mu=1.0)
    traj = run(mesh, params, TimeGrid(1.0, 10), 1e-3)
    exact = all(np.array_equal(u, np.zeros(mesh.n_nodes)) for u in traj.states)
    idle = all(d.iterations == 0 and d.final_residual == 0.0
               for d in traj.step_diagnostics)
    check("4 zero invariance", exact and idle,
          f"{len(traj.states)} states identically zero, all steps 0 iterations")


def test_criterion_5_penalty_limit(melt_sweep):
    rows = melt_sweep.rows
    ok_rows = all(r.error is None for r in rows)
    norms = [r.neg_norm for r in rows]
    orders = [np.log10(norms[i] / norms[i + 1]) for i in range(len(norms) - 1)]
    orders_ok = all(0.5 <= o <= 1.5 for o in orders)
    proxies = [r.sc2_proxy for r in rows]
    med = float(np.median(proxies))
    proxy_ok = all(med / 3.0 <= s <= 3.0 * med for s in proxies)
    check("5 penalty limit",
          ok_rows and melt_sweep.monotone_ok and orders_ok and proxy_ok,
          "neg_norm " + "/".join(f"{v:.2e}" for v in norms)
          + ", orders " + "/".join(f"{o:.2f}" for o in orders))


def test_criterion_6_estimate_boundedness(dome_records):
    records, _ = dome_records
    worst = 0.0
    pairs = [((33, 50), (33, 100)), ((33, 100), (33, 200)), ((33, 50), (65, 50))]
    for key in ("est1", "est2", "est3", "est4"):
        for a, b in pairs:
            va, vb = getattr(records[a], key), getattr(records[b], key)
            worst = max(worst, abs(vb - va) / abs(va))
    check("6 a priori estimate boundedness", worst < 0.10,
          f"max relative change {100 * worst:.2f}% over N and mesh refinement")


def test_criterion_7_norm_identities(melt_sweep, dome_records):
    _, dome_trajs = dome_records
    trajs = [r.trajectory for r in melt_sweep.rows if r.trajectory is not None]
    trajs += list(dome_trajs.values())
    worst = 0.0
    for traj in trajs:
        rec = compute_monitors(traj, 1e-3)
        alpha = traj.params.alpha
        conj = alpha / (alpha - 1.0)
        ref = rec.est1**alpha
        worst = max(worst, abs(rec.est3_1**2 - ref) / ref,
                    abs(rec.est5_1**conj - ref) / ref)
    check("7 discrete norm identities", worst <= 1e-12,
          f"{len(trajs)} trajectories, max rel defect {worst:.2e}")


def test_criterion_8_stability_condition(melt_sweep, dome_records):
    mesh, params, grid = melt_setup()
    row = next(r for r in melt_sweep.rows if r.kappa == 1e-4)
    rec = row.record
    half = compute_monitors(run(mesh, params, grid, 5e-5), 5e-5)
    rel = abs(half.sc1_value - rec.sc1_value) / abs(rec.sc1_value)
    half_ok = half.sc1_prime_ok
    records, _ = dome_records
    zero_sc1 = records[(33, 50)].sc1_value
    check("8 stability condition sc1",
          rec.sc1_prime_ok and half_ok and np.isfinite(rec.sc1_value)
          and rel < 0.20 and zero_sc1 == 0.0,
          f"sc1 {rec.sc1_value:.3e}, halving change {100 * rel:.1f}%, "
          f"nonnegative run sc1 = {zero_sc1}")


def test_criterion_9_mms_convergence():
    case = MmsCase(amp=1.0, g0=1.0, g1=1.0, Lx=1.0, Ly=1.0, T=0.5)
    cfg = SolverConfig(tol_residual=1e-8)
    table = mms_convergence(case, 3.0, 1.0, [17, 33, 65], [10, 20], 1e-4, cfg,
                            spatial_N=80)
    orders_ok = all(0.7 <= o <= 1.3 for o in table.temporal_orders)
    errs = [e for _, e in table.spatial]
    spatial_ok = all(b < a for a, b in zip(errs, errs[1:]))
    check("9 manufactured-solution convergence", orders_ok and spatial_ok,
          f"temporal order {table.temporal_orders[0]:.3f}, spatial errors "
          + " > ".join(f"{e:.2e}" for e in errs))


def test_criterion_10_lemma_suites():
    report = lemma_inequality_suite(100_000, seed=0)
    check("10 pointwise inequality suites",
          report.all_passed and report.coupling_min_ratio > 0.0,
          f"3 x 100000 samples, 0 violations, coupling ratio "
          f">= {report.coupling_min_ratio:.3e}")


def test_criterion_11_vi_residual(melt_sweep):
    traj = next(r.trajectory for r in melt_sweep.rows if r.kappa == MELT_KAPPAS[-1])
    mesh = traj.mesh
    u_plus = np.array([np.maximum(u, 0.0) for u in traj.states[1:]])
    bump = zero_boundary(mesh, poly_bump(mesh))
    mids = (np.arange(traj.N) + 0.5) * traj.time_grid.ell
    family = [
        u_plus,
        u_plus + 0.5 * bump,
        u_plus + 2.0 * bump,
        bump,
        np.zeros(mesh.n_nodes),
        2.0 * u_plus,
        0.5 * u_plus,
        u_plus[::-1],
        traj.params.u0,
        np.outer(mids / traj.time_grid.T, bump),
    ]
    res = vi_residual(traj, family)
    check("11 variational-inequality residual", res >= -1e-8,
          f"10 test fields, min residual {res:.3e}")


def test_criterion_12_mesh_mass_exactness():
    worst_mass = 0.0
    for n in range(3, 66):
        mesh = build_mesh(n, n, 2.0, 1.5)
        worst_mass = max(worst_mass, abs(mesh.lumped_mass.sum() - 3.0) / 3.0)
    rng = np.random.default_rng(909)
    worst_grad = 0.0
    for nx, ny in [(3, 3), (17, 9), (65, 65)]:
        mesh = build_mesh(nx, ny, 2.0, 1.5)
        a, b, c = rng.uniform(-4, 4, 3)
        f = a + b * mesh.nodes[:, 0] + c * mesh.nodes[:, 1]
        g = triangle_gradients(mesh, f)
        scale = max(1.0, abs(b), abs(c))
        worst_grad = max(worst_grad, float(np.max(np.abs(g - [b, c]))) / scale)
    check("12 mesh and mass exactness",
          worst_mass <= 1e-12 and worst_grad <= 1e-12,
          f"mass defect {worst_mass:.2e}, gradient defect {worst_grad:.2e}")
