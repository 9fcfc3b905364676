import numpy as np
import pytest

from shallowice import (
    ConstantForcing,
    MarchError,
    MeltForcing,
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
    step_residual,
)
from shallowice.forcing import CallableForcing, GriddedForcing, LinearForcing
from shallowice.physics import phi_power_reg


def dome_params(mesh, forcing=None, amp=1.0, mu=0.05):
    H0 = initial_thickness_field("dome", amp, mesh)
    return make_params(mesh, 3.0, forcing or ConstantForcing(0.0), H0=H0, mu=mu)


def test_time_grid_validation():
    grid = TimeGrid(2.0, 8)
    assert grid.ell == 0.25
    assert grid.slab(0) == (0.0, 0.25)
    assert grid.slab(7) == (1.75, 2.0)
    with pytest.raises(ValueError):
        TimeGrid(0.0, 4)
    with pytest.raises(ValueError):
        TimeGrid(1.0, 0)
    with pytest.raises(IndexError):
        grid.slab(8)


def test_last_slab_ends_at_T():
    # 18 ell + ell rounds to 100000.00000000001, past a forcing series
    # sampled on exactly [0, 1e5]
    grid = TimeGrid(1e5, 19)
    assert 19 * grid.ell > 1e5
    assert grid.slab(18) == (18 * grid.ell, 1e5)
    assert grid.slab(17)[1] == grid.slab(18)[0]


# a series on [0, 1e5] with 99 samples at random times in between
GRID_TIMES = np.concatenate(
    ([0.0], np.sort(np.random.default_rng(5).uniform(0.0, 1e5, 99)), [1e5]))
GRID_VALUES = np.random.default_rng(6).uniform(-1.0, 2.0, (GRID_TIMES.size, 25))


def _between(k, w):
    return GRID_TIMES[k] + w * (GRID_TIMES[k + 1] - GRID_TIMES[k])


def _interpolant_integral(t):
    """Integral over [0, t] of the piecewise-linear interpolant, per node:
    whole trapezoids up to the sample below t, then the part up to t."""
    whole = np.cumsum(0.5 * np.diff(GRID_TIMES)[:, None]
                      * (GRID_VALUES[1:] + GRID_VALUES[:-1]), axis=0)
    k = min(int(np.searchsorted(GRID_TIMES, t, side="right")) - 1, GRID_TIMES.size - 2)
    at_t = np.array([np.interp(t, GRID_TIMES, column) for column in GRID_VALUES.T])
    below = whole[k - 1] if k else 0.0
    return below + 0.5 * (t - GRID_TIMES[k]) * (GRID_VALUES[k] + at_t)


@pytest.mark.parametrize("t0, t1", [
    (_between(30, 0.25), _between(30, 0.75)),
    (_between(3, 0.5), _between(90, 0.3)),
    (GRID_TIMES[10], GRID_TIMES[60]),
    (0.0, 1e5),
], ids=["inside-one-interval", "across-many-samples", "on-samples", "1e5-long"])
def test_gridded_slab_average_is_exact(mesh5, t0, t1):
    avg = GriddedForcing(GRID_TIMES, GRID_VALUES).slab_average(mesh5, t0, t1)
    exact = (_interpolant_integral(t1) - _interpolant_integral(t0)) / (t1 - t0)
    assert np.allclose(avg, exact, rtol=1e-12, atol=1e-12)


def test_average_forcing_constant(mesh5):
    grid = TimeGrid(1.0, 4)
    avg = average_forcing(ConstantForcing(2.5), 1, grid, mesh5)
    assert np.all(avg == 2.5)


def test_average_forcing_linear_exact(mesh5):
    grid = TimeGrid(1.0, 4)
    avg = average_forcing(LinearForcing(0.0, 1.0), 0, grid, mesh5)
    assert np.allclose(avg, grid.ell / 2.0, rtol=1e-15)


def test_average_forcing_quadratic_gauss2(mesh5):
    grid = TimeGrid(1.0, 5)
    forcing = CallableForcing(lambda t, msh: np.full(msh.n_nodes, t * t))
    for n in range(5):
        t0, t1 = grid.slab(n)
        exact = (t1**3 - t0**3) / (3.0 * (t1 - t0))
        avg = average_forcing(forcing, n, grid, mesh5)
        assert np.allclose(avg, exact, rtol=1e-14)


def test_zero_run_is_exactly_zero(mesh5):
    n = mesh5.n_nodes
    with pytest.warns(UserWarning, match="identically zero"):
        params = make_params(mesh5, 3.0, ConstantForcing(0.0), u0=np.zeros(n),
                             mu=1.0)
    traj = run(mesh5, params, TimeGrid(1.0, 5), 1e-2)
    assert len(traj.states) == 6
    for state in traj.states:
        assert np.array_equal(state, np.zeros(n))
    for diag in traj.step_diagnostics:
        assert diag.iterations == 0
        assert diag.final_residual == 0.0


def test_dome_decay_mass_monotone(mesh9):
    params = dome_params(mesh9)
    traj = run(mesh9, params, TimeGrid(0.5, 8), 1e-3)
    masses = [float(mesh9.lumped_mass @ u) for u in traj.states]
    assert all(b < a for a, b in zip(masses, masses[1:]))
    for state in traj.states:
        assert np.all(state[mesh9.boundary_mask] == 0.0)


def test_single_step_equals_run_with_n1(mesh5):
    params = dome_params(mesh5, forcing=LinearForcing(0.5, -1.0))
    grid = TimeGrid(0.25, 1)
    traj = run(mesh5, params, grid, 1e-2)
    a_bar = average_forcing(params.forcing, 0, grid, mesh5)
    prob = StepProblem(mesh=mesh5, params=params, u_prev=params.u0, a_bar=a_bar,
                       ell=grid.ell, kappa=1e-2)
    direct = solve_step(prob, SolverConfig(), initial_guess=params.u0)
    assert np.array_equal(traj.states[1], direct.u_next)


def test_run_determinism(mesh5):
    params = dome_params(mesh5, forcing=MeltForcing(-0.5))
    grid = TimeGrid(0.5, 6)
    t1 = run(mesh5, params, grid, 1e-3)
    t2 = run(mesh5, params, grid, 1e-3)
    for a, b in zip(t1.states, t2.states):
        assert np.array_equal(a, b)


def test_march_error_carries_partial(monkeypatch, mesh9):
    import shallowice.solver as solver

    monkeypatch.setattr(solver, "MAX_NEWTON", 1)
    params = dome_params(mesh9, forcing=MeltForcing(-5.0), mu=1.0)
    with pytest.raises(MarchError) as err:
        run(mesh9, params, TimeGrid(1.0, 4), 1e-3)
    assert err.value.step_index == 0
    assert len(err.value.partial.states) == 1
    assert np.array_equal(err.value.partial.states[0], params.u0)


def test_eps0_bare_ground_march_converges(mesh9):
    # eps = 0 leaves the power slope unbounded at u = 0 on bare ground; the
    # step minimizer still exists and every step must reach tolerance
    n = mesh9.n_nodes
    params = make_params(mesh9, 3.0, MeltForcing(-2.0), u0=np.zeros(n), mu=1.0)
    grid = TimeGrid(2.0, 20)
    cfg = SolverConfig()
    traj = run(mesh9, params, grid, 1e-3, cfg, eps=0.0)
    assert traj.N == grid.N
    for k in range(grid.N):
        problem = StepProblem(
            mesh=mesh9, params=params, u_prev=traj.states[k],
            a_bar=average_forcing(params.forcing, k, grid, mesh9),
            ell=grid.ell, kappa=1e-3, eps=0.0,
        )
        res = scaled_residual_norm(problem, step_residual(problem, traj.states[k + 1]))
        assert res <= cfg.tol_residual



def _counted_run(monkeypatch, mesh, params, grid, kappa):
    """run, and the number of solve_step calls it made."""
    import shallowice.timestep as timestep

    calls = []

    def counted(problem, config=None):
        calls.append(problem)
        return solve_step(problem, config)

    monkeypatch.setattr(timestep, "solve_step", counted)
    return run(mesh, params, grid, kappa), len(calls)


def _assert_equals_direct_steps(traj, grid, kappa):
    """Every step of traj is what solve_step gives for that step's problem,
    in a state and a StepResult of its own."""
    mesh, params = traj.mesh, traj.params
    for n, got in enumerate(traj.step_diagnostics):
        problem = StepProblem(
            mesh=mesh, params=params, u_prev=traj.states[n],
            a_bar=average_forcing(params.forcing, n, grid, mesh), ell=grid.ell, kappa=kappa,
        )
        direct = solve_step(problem)
        assert got.u_next is traj.states[n + 1] and got.u_next is not traj.states[n]
        assert got.u_next.tobytes() == direct.u_next.tobytes()
        assert (got.iterations, got.final_residual, got.final_energy, got.backtracks) == (
            direct.iterations, direct.final_residual, direct.final_energy, direct.backtracks)
    assert len({id(d) for d in traj.step_diagnostics}) == grid.N


def test_repeated_step_is_not_solved_again(monkeypatch, mesh5):
    # the first step of a zero run returns its u_prev, and every later step
    # has the same forcing bytes, so it is that step again
    with pytest.warns(UserWarning, match="identically zero"):
        params = make_params(mesh5, 3.0, ConstantForcing(0.0), u0=np.zeros(mesh5.n_nodes),
                             mu=1.0)
    grid = TimeGrid(1.0, 5)
    traj, calls = _counted_run(monkeypatch, mesh5, params, grid, 1e-2)
    assert calls == 1
    _assert_equals_direct_steps(traj, grid, 1e-2)


def test_step_with_new_forcing_is_solved(monkeypatch, mesh5):
    # the forcing vanishes on the first slab only: step 0 returns its u_prev,
    # but each later slab average differs from the one before, so no step repeats
    interior = ~mesh5.boundary_mask
    forcing = CallableForcing(lambda t, mesh: interior * (t > 0.2) * t)
    with pytest.warns(UserWarning, match="identically zero"):
        params = make_params(mesh5, 3.0, forcing, u0=np.zeros(mesh5.n_nodes), mu=1.0)
    grid = TimeGrid(1.0, 5)
    traj, calls = _counted_run(monkeypatch, mesh5, params, grid, 1e-2)
    assert calls == grid.N
    assert traj.states[1].tobytes() == traj.states[0].tobytes()
    assert traj.states[2].tobytes() != traj.states[1].tobytes()
    _assert_equals_direct_steps(traj, grid, 1e-2)


def test_settling_melt_reuses_only_repeated_steps(monkeypatch, mesh5):
    # p = 5 with a stiff penalty: steps 3 to 8 stop at the nodal minimizer
    # after 0 Newton iterations and still move the state, so a count of 0
    # iterations does not mark a repeat; the run then settles
    H0 = initial_thickness_field("dome", 1.0, mesh5)
    params = make_params(mesh5, 5.0, MeltForcing(-2.0), H0=H0, mu=1.0)
    grid = TimeGrid(2.0, 20)
    traj, calls = _counted_run(monkeypatch, mesh5, params, grid, 1e-6)
    diags, states = traj.step_diagnostics, traj.states
    assert any(d.iterations == 0 and states[n + 1].tobytes() != states[n].tobytes()
               for n, d in enumerate(diags))
    repeats = [n for n in range(1, grid.N) if states[n].tobytes() == states[n - 1].tobytes()]
    assert repeats and calls == grid.N - len(repeats)
    _assert_equals_direct_steps(traj, grid, 1e-6)


@pytest.mark.parametrize("nx, N", [(33, 10), (65, 20)])
def test_time_term_telescopes_to_a_conserved_volume(nx, N):
    # flat bed, a = 0, and ice clear of the boundary: no forcing, penalty
    # or boundary flux moves volume, so each step keeps sum m phi_eps(u) to
    # rounding; with phi_0 on u_prev it drifts by about 1e-4 a step
    mesh = build_mesh(nx, nx, 2.0, 2.0)
    r = np.hypot(*(mesh.nodes - 1.0).T)
    H0 = np.maximum(1.0 - (r / 0.6) ** (4.0 / 3.0), 0.0) ** (3.0 / 7.0)
    params = make_params(mesh, 4.0, ConstantForcing(0.0), H0=H0, mu=1.0)
    traj = run(mesh, params, TimeGrid(0.05, N), 1e-6)
    volume = np.array([mesh.lumped_mass @ phi_power_reg(u, params.alpha, traj.eps)
                       for u in traj.states])
    assert np.all(np.abs(np.diff(volume)) <= 1e-12 * volume[:-1])
