import warnings

import numpy as np
import pytest

from shallowice import (
    ConstantForcing,
    MarchError,
    MeltForcing,
    NonConvergence,
    SolverConfig,
    StepProblem,
    TimeGrid,
    average_forcing,
    build_mesh,
    initial_thickness_field,
    make_params,
    run,
    scaled_residual_norm,
    solve_step,
    step_energy,
    step_residual,
)
from shallowice.operators import (
    DEFAULT_EPS,
    evaluate,
    linearize,
    nodal_minimizer,
    step_jacobian_action,
)
from shallowice.physics import PhysicalRangeWarning
from shallowice.solver import NumericalBreakdown, inner_linear_solve

from conftest import make_problem, random_state, zero_boundary


def scalar_equation_coeff(mesh, p, mu=1.0):
    """K with S_center(c) = K c |c|^(p-2) for a single-interior-node mesh."""
    center = int(np.flatnonzero(mesh.interior_mask)[0])
    K = 0.0
    for t, tri in enumerate(mesh.triangles):
        if center not in tri:
            continue
        local = list(tri).index(center)
        g = mesh.grad_basis[t, local]
        K += mesh.areas[t] * mu * float(g @ g) ** (p / 2.0)
    return center, K


def scalar_bisection(mesh, p, ell, kappa, a, mu=1.0, u_prev_c=0.0, tol=1e-12):
    """Independent root find of the one-unknown step equation."""
    center, K = scalar_equation_coeff(mesh, p, mu)
    m = mesh.lumped_mass[center]
    alpha = (3 * p - 1) / (2 * p)

    def f(c):
        phi = np.sign(c) * abs(c) ** (alpha - 1)
        phi_prev = np.sign(u_prev_c) * abs(u_prev_c) ** (alpha - 1)
        return (m / ell) * (phi - phi_prev) + K * c * abs(c) ** (p - 2) \
            + (m / kappa) * min(c, 0.0) - m * a

    lo, hi = -10.0, 10.0
    while f(lo) > 0:
        lo *= 2
    while f(hi) < 0:
        hi *= 2
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if f(mid) <= 0:
            lo = mid
        else:
            hi = mid
    return center, 0.5 * (lo + hi)


def test_zero_problem_zero_iterations(mesh5):
    n = mesh5.n_nodes
    prob = make_problem(mesh5, u_prev=np.zeros(n), a_bar=np.zeros(n))
    result = solve_step(prob, initial_guess=np.zeros(n))
    assert result.iterations == 0
    assert np.array_equal(result.u_next, np.zeros(n))
    assert result.final_residual == 0.0


def test_scalar_step_matches_bisection(mesh3):
    n = mesh3.n_nodes
    a_bar = np.zeros(n)
    a_bar[4] = 1.0
    prob = make_problem(mesh3, p=3.0, mu=1.0, ell=1.0, kappa=1.0, delta=0.0,
                        u_prev=np.zeros(n), a_bar=a_bar)
    center, c_star = scalar_bisection(mesh3, 3.0, 1.0, 1.0, 1.0)
    result = solve_step(prob)
    assert abs(result.u_next[center] - c_star) < 1e-8
    off = np.arange(n) != center
    assert np.allclose(result.u_next[off], 0.0, atol=0)


def test_scalar_downward_forcing_kappa_scaling(mesh3):
    n = mesh3.n_nodes
    a_bar = np.zeros(n)
    a_bar[4] = -1.0
    values = []
    for kappa in (1e-1, 1e-2, 1e-3):
        prob = make_problem(mesh3, p=3.0, mu=1.0, ell=1.0, kappa=kappa,
                            delta=0.0, u_prev=np.zeros(n), a_bar=a_bar)
        center, c_star = scalar_bisection(mesh3, 3.0, 1.0, kappa, -1.0)
        result = solve_step(prob)
        assert abs(result.u_next[center] - c_star) < 1e-8
        assert -kappa * 1.5 < result.u_next[center] <= 0.0
        values.append(result.u_next[center])
    # most negative value shrinks roughly linearly in kappa
    for v0, v1 in zip(values, values[1:]):
        ratio = v0 / v1
        assert 5.0 < ratio < 20.0


def test_uniqueness_across_initial_guesses(mesh5):
    prob = make_problem(mesh5, seed=21)
    cfg = SolverConfig()
    rng = np.random.default_rng(22)
    solutions = []
    for _ in range(20):
        guess = random_state(mesh5, rng, lo=0.0, hi=3.0)
        solutions.append(solve_step(prob, cfg, initial_guess=guess).u_next)
    base = solutions[0]
    for sol in solutions[1:]:
        assert np.max(np.abs(sol - base)) <= 10 * cfg.tol_residual


def test_energy_decreases_from_guess(mesh5):
    prob = make_problem(mesh5, seed=23)
    rng = np.random.default_rng(24)
    guess = random_state(mesh5, rng, lo=0.5, hi=5.0)
    e0 = step_energy(prob, guess)
    result = solve_step(prob, initial_guess=guess)
    assert result.final_energy <= e0 + 1e-12 * abs(e0)
    assert result.final_residual <= SolverConfig().tol_residual


def test_solution_boundary_zero_and_finite(mesh5):
    prob = make_problem(mesh5, seed=25)
    result = solve_step(prob)
    assert np.all(result.u_next[mesh5.boundary_mask] == 0.0)
    assert np.all(np.isfinite(result.u_next))


def test_inner_solve_zero_rhs(mesh5):
    prob = make_problem(mesh5, seed=26)
    rng = np.random.default_rng(27)
    jac = linearize(prob, evaluate(prob, random_state(mesh5, rng, lo=0.3)))
    out = inner_linear_solve(lambda w: step_jacobian_action(jac, w),
                             np.zeros(mesh5.n_nodes), jac.diag, 1e-8, 100)
    assert np.array_equal(out, np.zeros(mesh5.n_nodes))


def test_inner_solve_matches_dense_factorization(mesh3):
    prob = make_problem(mesh3, p=2.0, delta=0.0, seed=28)
    rng = np.random.default_rng(29)
    jac = linearize(prob, evaluate(prob, random_state(mesh3, rng, lo=0.3)))
    n = mesh3.n_nodes
    action = lambda w: step_jacobian_action(jac, w)
    J = np.zeros((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        e = zero_boundary(mesh3, e)
        J[:, j] = action(e)
    free = mesh3.interior_mask
    rhs = zero_boundary(mesh3, rng.uniform(-1, 1, n))
    dense = np.zeros(n)
    dense[free] = np.linalg.solve(J[np.ix_(free, free)], rhs[free])
    got = inner_linear_solve(action, rhs, jac.diag, 1e-14, 500)
    assert np.max(np.abs(got - dense)) < 1e-10


def test_inner_solve_diagonal_dominant_limit(mesh5):
    # a tiny time step makes the power diagonal dominate: the solution is
    # essentially the diagonally preconditioned right-hand side
    prob = make_problem(mesh5, ell=1e-12, seed=30)
    rng = np.random.default_rng(31)
    jac = linearize(prob, evaluate(prob, random_state(mesh5, rng, lo=0.5)))
    diag = jac.diag
    rhs = zero_boundary(mesh5, rng.uniform(-1, 1, mesh5.n_nodes))
    got = inner_linear_solve(lambda w: step_jacobian_action(jac, w),
                             rhs, diag, 1e-12, 500)
    assert np.allclose(got[mesh5.interior_mask],
                       (rhs / diag)[mesh5.interior_mask], rtol=1e-6)


def test_inner_solve_truncates_on_nonpositive_curvature():
    rhs = np.array([1.0, 2.0, 3.0])
    diag = np.array([1.0, 2.0, 4.0])
    # indefinite at the first iteration: the preconditioned residual
    got = inner_linear_solve(lambda w: -w, rhs, diag, 1e-8, 50)
    assert np.array_equal(got, rhs / diag)
    assert rhs @ got > 0

    # indefinite from the second iteration on: the first CG iterate
    A = np.diag([1.0, 3.0, 5.0])
    calls = []

    def action(w):
        calls.append(w)
        return A @ w if len(calls) == 1 else -w

    got = inner_linear_solve(action, rhs, diag, 1e-8, 50)
    z = rhs / diag
    assert len(calls) == 2
    assert np.allclose(got, (rhs @ z) / (z @ A @ z) * z, rtol=1e-15)
    assert rhs @ got > 0


def test_inner_solve_nonfinite_curvature_raises():
    rhs = np.array([1.0, 2.0, 3.0])
    with pytest.raises(NumericalBreakdown, match="non-finite curvature in inner solve"):
        inner_linear_solve(lambda w: np.full_like(w, np.nan), rhs, np.ones(3), 1e-8, 50)


@pytest.mark.parametrize("direction, message", [
    (np.zeros_like, "no descent direction at residual"),
    (lambda rhs: 1e15 * rhs / np.linalg.norm(rhs), "line search failed at residual"),
])
def test_step_fails_without_a_usable_direction(monkeypatch, mesh5, direction, message):
    # an inner solve that returns no descent direction, or one too long for
    # every backtrack of the line search, fails the step
    import shallowice.solver as solver

    monkeypatch.setattr(solver, "inner_linear_solve",
                        lambda action, rhs, diag, rtol, cg_max: direction(rhs))
    with pytest.raises(NonConvergence, match=message) as err:
        solve_step(make_problem(mesh5, seed=35))
    assert len(err.value.residual_history) == 1
    assert err.value.residual_history[0] > SolverConfig().tol_residual


def test_run_wraps_a_step_failure_in_march_error(monkeypatch, mesh5):
    import shallowice.solver as solver

    monkeypatch.setattr(solver, "inner_linear_solve",
                        lambda action, rhs, diag, rtol, cg_max: np.zeros_like(rhs))
    H0 = initial_thickness_field("dome", 1.0, mesh5)
    params = make_params(mesh5, 3.0, MeltForcing(-2.0), H0=H0, mu=1.0)
    with pytest.raises(MarchError, match="failed at step 0: no descent direction") as err:
        run(mesh5, params, TimeGrid(1.0, 4), 1e-3)
    assert err.value.step_index == 0
    assert isinstance(err.value.__cause__, NonConvergence)
    assert len(err.value.partial.states) == 1


def test_nonconvergence_reports_history(monkeypatch, mesh5):
    # the history starts at the residual of the chosen start: the warm
    # start, and under strong melt the nodal minimizer
    import shallowice.solver as solver

    monkeypatch.setattr(solver, "MAX_NEWTON", 1)
    cfg = SolverConfig(tol_residual=1e-14)
    for a_bar, nodal_wins in ((None, False), (np.full(mesh5.n_nodes, -4.0), True)):
        prob = make_problem(mesh5, seed=32, a_bar=a_bar)
        nodal = nodal_minimizer(prob)
        assert (step_energy(prob, nodal) < step_energy(prob, prob.u_prev)) == nodal_wins
        start = nodal if nodal_wins else prob.u_prev
        with pytest.raises(NonConvergence) as err:
            solve_step(prob, cfg)
        history = err.value.residual_history
        assert len(history) >= 1
        assert history[0] == scaled_residual_norm(prob, step_residual(prob, start))


def test_guess_validation(mesh5):
    prob = make_problem(mesh5, seed=33)
    with pytest.raises(ValueError):
        solve_step(prob, initial_guess=np.ones(mesh5.n_nodes))  # boundary
    with pytest.raises(ValueError):
        solve_step(prob, initial_guess=np.zeros(3))


def test_config_validation():
    for tol in (0.0, -1e-10, np.inf, np.nan):
        with pytest.raises(ValueError):
            SolverConfig(tol_residual=tol)


def test_result_residual_matches_recomputation(mesh5):
    prob = make_problem(mesh5, seed=34)
    result = solve_step(prob)
    res = scaled_residual_norm(prob, step_residual(prob, result.u_next))
    assert res == pytest.approx(result.final_residual, rel=1e-12, abs=1e-15)
    assert result.final_energy == step_energy(prob, result.u_next)


def test_solve_step_evaluates_each_point_once(monkeypatch, mesh9):
    # an unsettled step: one evaluation for each of the two starts and one
    # per line-search trial, each with a single gradient pass; linearize
    # reuses the accepted point.  This problem needs a backtrack.
    import shallowice.operators as operators
    import shallowice.solver as solver

    prob = make_problem(mesh9, p=5.0, seed=3)
    calls = {"evaluate": 0, "gradients": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(solver, "evaluate", counted("evaluate", solver.evaluate))
    monkeypatch.setattr(operators, "triangle_gradients",
                        counted("gradients", operators.triangle_gradients))
    result = solve_step(prob)
    assert result.iterations > 0 and result.backtracks > 0
    assert calls["evaluate"] == 2 + result.iterations + result.backtracks
    assert calls["gradients"] == calls["evaluate"]


def test_solve_step_returns_a_settled_guess_after_one_evaluation(monkeypatch, mesh9):
    # a guess that already meets the tolerance is the answer: one
    # evaluation, no nodal minimizer, 0 iterations and the guess's bits
    import shallowice.solver as solver

    prob = make_problem(mesh9, p=5.0, seed=3)
    guess = solve_step(prob).u_next
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return evaluate(*args, **kwargs)

    def unused(problem):
        raise AssertionError("a settled step needs no nodal minimizer")

    monkeypatch.setattr(solver, "evaluate", counted)
    monkeypatch.setattr(solver, "nodal_minimizer", unused)
    result = solve_step(prob, initial_guess=guess)
    assert len(calls) == 1
    assert result.iterations == 0 and result.backtracks == 0
    assert result.u_next.tobytes() == guess.tobytes()
    assert result.final_residual <= SolverConfig().tol_residual
    assert result.final_energy == step_energy(prob, guess)


def test_inner_solve_tolerance_follows_the_forcing_rule(monkeypatch, mesh9):
    # each Newton iterate's inner solve stops at the capped forcing term
    # max(ETA_MIN, min(ETA_MAX, max(0.9 (|F_k|/|F_k-1|)^2, 0.1 tol/res_k))),
    # without the ratio at the first iterate
    import shallowice.solver as solver

    assert (solver.ETA_MIN, solver.ETA_MAX) == (1e-6, 1e-3)
    prob = make_problem(mesh9, seed=1)
    calls = []

    def recorded(action, rhs, diag, rtol, cg_max):
        calls.append((rtol, float(np.linalg.norm(rhs)), scaled_residual_norm(prob, -rhs)))
        return inner_linear_solve(action, rhs, diag, rtol, cg_max)

    monkeypatch.setattr(solver, "inner_linear_solve", recorded)
    exact = solve_step(prob)
    near = exact.u_next + zero_boundary(mesh9, np.full(mesh9.n_nodes, 1e-9))
    cfg = SolverConfig()
    for guess in (None, near):
        calls.clear()
        result = solve_step(prob, cfg, initial_guess=guess)
        assert len(calls) == result.iterations > 0
        tol, _, res = calls[0]
        assert tol == max(solver.ETA_MIN, min(1e-3, 0.1 * cfg.tol_residual / res))
        for (tol, norm, res), (_, prev, _) in zip(calls[1:], calls):
            eta = max(0.9 * (norm / prev) ** 2, 0.1 * cfg.tol_residual / res)
            assert tol == max(solver.ETA_MIN, min(1e-3, eta))
        tols = [tol for tol, _, _ in calls]
        assert all(solver.ETA_MIN <= tol <= 1e-3 for tol in tols)
        assert any(solver.ETA_MIN < tol < 1e-3 for tol in tols)
        # a start close to the tolerance does not solve to ETA_MIN
        assert (tols[0] > solver.ETA_MIN) == (guess is near)


def test_inexact_inner_solves_keep_the_newton_count(monkeypatch):
    # the 33^2 dome under melt: against exact inner solves (ETA_MAX =
    # ETA_MIN), the forcing terms cost no Newton iterate, save CG iterations
    # and move the final state by far less than the tolerance
    import shallowice.solver as solver

    mesh = build_mesh(33, 33, 1.0, 1.0)
    H0 = initial_thickness_field("dome", 1.0, mesh)
    params = make_params(mesh, 3.0, MeltForcing(-2.0), H0=H0, mu=1.0)
    grid = TimeGrid(2.0, 20)
    cg = [0]

    def counted(action, rhs, diag, rtol, cg_max):
        def counted_action(w):
            cg[0] += 1
            return action(w)
        return inner_linear_solve(counted_action, rhs, diag, rtol, cg_max)

    monkeypatch.setattr(solver, "inner_linear_solve", counted)

    def march():
        cg[0] = 0
        traj = run(mesh, params, grid, 1e-3)
        return sum(d.iterations for d in traj.step_diagnostics), cg[0], traj.states[-1]

    newton, cg_inexact, final = march()
    monkeypatch.setattr(solver, "ETA_MAX", solver.ETA_MIN)
    newton_exact, cg_exact, final_exact = march()
    assert newton <= newton_exact == 44
    assert cg_inexact < cg_exact
    assert np.max(np.abs(final - final_exact)) <= 1e-8 * np.max(np.abs(final_exact))


def test_flat_triangles_below_p2_converge(mesh9):
    # p < 2 without gradient regularization: the weight diverges on the
    # flat triangles outside an interior margin, but the flux there is 0
    c = np.array([0.5, 0.5])
    u0 = zero_boundary(mesh9, np.maximum(0.0, 0.1 - np.sum((mesh9.nodes - c) ** 2, axis=1)))
    n = mesh9.n_nodes
    prob = make_problem(mesh9, p=1.5, delta=0.0, ell=0.2, kappa=1e-3,
                        u_prev=u0, a_bar=np.zeros(n))
    assert np.all(np.isfinite(step_residual(prob, u0)))
    result = solve_step(prob)
    assert result.iterations > 0
    assert result.final_residual <= SolverConfig().tol_residual
    res = scaled_residual_norm(prob, step_residual(prob, result.u_next))
    assert res <= SolverConfig().tol_residual


def test_nonfinite_residual_raises(mesh5):
    a_bar = np.zeros(mesh5.n_nodes)
    a_bar[12] = np.nan
    prob = make_problem(mesh5, a_bar=a_bar, seed=35)
    with pytest.raises(NumericalBreakdown) as err:
        solve_step(prob)
    assert err.value.node == 12


def assert_dome_melt_march_converges(p, kappa, N, eps=DEFAULT_EPS, nx=33):
    """March the nx^2 dome under melt -2 to T = 2; every step must reach
    the residual tolerance, recomputed from the saved states."""
    mesh = build_mesh(nx, nx, 1.0, 1.0)
    H0 = initial_thickness_field("dome", 1.0, mesh)
    # p = 2 lies outside the suggested Glen range
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PhysicalRangeWarning)
        params = make_params(mesh, p, MeltForcing(-2.0), H0=H0, mu=1.0)
    grid = TimeGrid(2.0, N)
    cfg = SolverConfig()
    traj = run(mesh, params, grid, kappa, cfg, eps=eps)
    for n in range(grid.N):
        problem = StepProblem(
            mesh=mesh, params=params, u_prev=traj.states[n],
            a_bar=average_forcing(params.forcing, n, grid, mesh),
            ell=grid.ell, kappa=kappa, eps=eps,
        )
        res = scaled_residual_norm(problem, step_residual(problem, traj.states[n + 1]))
        assert res <= cfg.tol_residual


def test_p5_small_kappa_margin_march_converges():
    # large p with a stiff penalty: states oscillate across u = 0 at the
    # margin, where the Newton steps alone must still reach tolerance
    assert_dome_melt_march_converges(5.0, 1e-6, 20)


@pytest.mark.parametrize("eps", [1e-10, 0.0])
@pytest.mark.parametrize("p, kappa, N", [
    (2.0, 1e-2, 20), (2.0, 1e-4, 20),
    (3.0, 1e-8, 2),
    (5.0, 1e-6, 2), (5.0, 1e-8, 2),
])
def test_dome_melt_marches_where_the_warm_start_failed(p, kappa, N, eps):
    # every step has a unique minimizer, yet Newton from the previous state
    # alone ran into the iteration cap on these cases
    assert_dome_melt_march_converges(p, kappa, N, eps)


def test_p15_small_kappa_dome_melt_march_converges_at_129():
    # small p and a stiff penalty on a fine mesh: with inner solves stopped
    # at a forcing term capped at 1e-2 instead of ETA_MAX, step 0 ran into
    # the Newton cap
    assert_dome_melt_march_converges(1.5, 1e-6, 20, nx=129)


@pytest.mark.xfail(strict=True, raises=MarchError,
                   reason="Newton hits its iteration cap at step 1: the residual "
                          "stalls near 0.1, losing about 2 % per iteration")
def test_p2_dome_melt_march_converges_at_65():
    # every step has a unique minimizer, so the cap is a solver defect
    assert_dome_melt_march_converges(2.0, 1e-3, 20, nx=65)


@pytest.mark.xfail(strict=True, raises=MarchError,
                   reason="Newton hits its iteration cap at step 1 at residual 4.8e-2")
def test_p15_eps0_small_kappa_dome_melt_march_converges_at_65():
    # eps = 0 leaves the power slope unbounded at u = 0; every step still
    # has a unique minimizer, so the cap is a solver defect
    assert_dome_melt_march_converges(1.5, 1e-6, 20, eps=0.0, nx=65)


def test_start_choice_never_costs_newton_iterations(monkeypatch):
    # under accumulation the previous state is the better start; starting
    # from the nodal minimizer alone takes far more iterations, so the
    # energy choice between the two must keep the warm start's count
    import shallowice.solver as solver

    mesh = build_mesh(33, 33, 1.0, 1.0)
    H0 = initial_thickness_field("dome", 1.0, mesh)
    params = make_params(mesh, 3.0, ConstantForcing(1.0), H0=H0, mu=1.0)
    grid = TimeGrid(2.0, 20)

    def newton_total():
        traj = run(mesh, params, grid, 1e-3)
        return sum(d.iterations for d in traj.step_diagnostics)

    chosen = newton_total()
    monkeypatch.setattr(solver, "nodal_minimizer", lambda problem: problem.u_prev.copy())
    assert chosen <= newton_total()
