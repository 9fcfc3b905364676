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
    initial_thickness_field,
    make_params,
    run,
    scaled_residual_norm,
    solve_step,
    step_residual,
)
from shallowice.forcing import CallableForcing, LinearForcing


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


def test_march_error_carries_partial(mesh9):
    params = dome_params(mesh9, forcing=MeltForcing(-5.0), mu=1.0)
    cfg = SolverConfig(max_newton=1)
    with pytest.raises(MarchError) as err:
        run(mesh9, params, TimeGrid(1.0, 4), 1e-3, cfg)
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

