import numpy as np
import pytest

from shallowice import SolverConfig, build_mesh, solve_step
from shallowice.verification import (
    MmsCase,
    MmsTable,
    brute_force_step_oracle,
    lemma_inequality_suite,
    mms_convergence,
    mms_error,
    mms_forcing,
)

from conftest import make_problem


def test_mms_case_shape():
    case = MmsCase(amp=2.0, g0=1.0, g1=0.5, Lx=2.0, Ly=1.0, T=1.0)
    # peak of the bump at the center, zero on the boundary
    assert case.value(0.0, 1.0, 0.5) == pytest.approx(2.0, rel=1e-14)
    assert case.value(1.0, 0.0, 0.3) == 0.0
    assert case.value(1.0, 1.7, 1.0) == 0.0
    mesh = build_mesh(9, 9, 2.0, 1.0)
    u0 = case.value_nodal(mesh, 0.0)
    assert np.all(u0 >= 0)
    assert np.all(u0[mesh.boundary_mask] == 0.0)


def test_mms_forcing_degenerate_zero_field():
    case = MmsCase(amp=0.0)
    vals = mms_forcing(case, 3.0, 1.0, 0.3, np.linspace(0, 1, 7),
                       np.linspace(0, 1, 7))
    assert np.array_equal(vals, np.zeros(7))


def test_mms_forcing_center_is_pure_time_term():
    # the flux divergence vanishes at the critical point for p > 2
    case = MmsCase(amp=1.0, g0=1.0, g1=1.0)
    p, mu, t = 3.0, 2.0, 0.4
    alpha = (3 * p - 1) / (2 * p)
    got = mms_forcing(case, p, mu, t, 0.5, 0.5)
    g, gp = 1.0 + t, 1.0
    expected = (alpha - 1.0) * g ** (alpha - 2.0) * gp  # bump = 1 at center
    assert got == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_mms_forcing_against_fd_oracle(p):
    # finite differences of the closed-form field, evaluated independently;
    # p = 2 takes the linear-flux branch
    case = MmsCase(amp=1.3, g0=1.0, g1=0.7)
    mu = 0.8
    alpha = (3 * p - 1) / (2 * p)
    t0, x0, y0 = 0.45, 0.31, 0.62

    def u(t, x, y):
        return case.value(t, x, y)

    def phi_of_u(t):
        val = u(t, x0, y0)
        return np.sign(val) * abs(val) ** (alpha - 1.0)

    h = 1e-5
    time_term = (phi_of_u(t0 - 2 * h) - 8 * phi_of_u(t0 - h)
                 + 8 * phi_of_u(t0 + h) - phi_of_u(t0 + 2 * h)) / (12 * h)

    def flux(x, y):
        hh = 1e-6
        ux = (u(t0, x + hh, y) - u(t0, x - hh, y)) / (2 * hh)
        uy = (u(t0, x, y + hh) - u(t0, x, y - hh)) / (2 * hh)
        s = ux * ux + uy * uy
        return mu * s ** (0.5 * (p - 2.0)) * np.array([ux, uy])

    div = (
        (flux(x0 - 2 * h, y0)[0] - 8 * flux(x0 - h, y0)[0]
         + 8 * flux(x0 + h, y0)[0] - flux(x0 + 2 * h, y0)[0]) / (12 * h)
        + (flux(x0, y0 - 2 * h)[1] - 8 * flux(x0, y0 - h)[1]
           + 8 * flux(x0, y0 + h)[1] - flux(x0, y0 + 2 * h)[1]) / (12 * h)
    )
    expected = time_term - div
    got = mms_forcing(case, p, mu, t0, x0, y0)
    assert got == pytest.approx(expected, rel=1e-6)


def test_mms_stationary_case_error_independent_of_n():
    case = MmsCase(amp=0.5, g0=1.0, g1=0.0, T=0.5)
    mesh = build_mesh(9, 9, 1.0, 1.0)
    e4 = mms_error(case, mesh, 3.0, 0.5, 4, 1e-4)
    e8 = mms_error(case, mesh, 3.0, 0.5, 8, 1e-4)
    assert abs(e4 - e8) / e4 < 0.02


def test_mms_error_decreases_with_mesh():
    case = MmsCase(amp=1.0, g0=1.0, g1=1.0, T=0.25)
    cfg = SolverConfig(tol_residual=1e-9)
    errs = [mms_error(case, build_mesh(nx, nx, 1.0, 1.0), 3.0, 1.0, 16, 1e-4, cfg)
            for nx in (5, 9, 17)]
    assert errs[0] > errs[1] > errs[2]


def test_mms_temporal_first_order():
    # mesh fine enough that the spatial floor stays below the N = 40 error
    case = MmsCase(amp=1.0, g0=1.0, g1=1.0, T=0.5)
    cfg = SolverConfig(tol_residual=1e-9)
    mesh = build_mesh(33, 33, 1.0, 1.0)
    errs = {N: mms_error(case, mesh, 3.0, 1.0, N, 1e-4, cfg)
            for N in (10, 20, 40)}
    orders = [np.log2(errs[10] / errs[20]), np.log2(errs[20] / errs[40])]
    assert all(0.7 <= o <= 1.3 for o in orders)


def test_mms_convergence_marches_each_pair_once(monkeypatch):
    # by default the spatial rows run at the largest N, so the finest mesh at
    # that N is a row of both studies; it is marched once
    import shallowice.verification as verification

    case = MmsCase(amp=1.0, g0=1.0, g1=1.0, T=0.25)
    marched = []
    real_run = verification.run

    def counted_run(mesh, params, grid, *args, **kwargs):
        marched.append((mesh.nx, grid.N))
        return real_run(mesh, params, grid, *args, **kwargs)

    monkeypatch.setattr(verification, "run", counted_run)
    table = mms_convergence(case, 3.0, 1.0, [9, 5], [4, 2], 1e-4)
    assert sorted(marched) == [(5, 4), (9, 2), (9, 4)]

    def error(nx, N):
        return mms_error(case, build_mesh(nx, nx, 1.0, 1.0), 3.0, 1.0, N, 1e-4)

    assert table.temporal == [(2, error(9, 2)), (4, error(9, 4))]
    assert table.spatial == [(5, error(5, 4)), (9, error(9, 4))]


def test_mms_table_derives_orders():
    # two temporal rows and no spatial rows: order log(1e-2/5e-3)/log(8/4) = 1
    table = MmsTable(temporal=[(4, 1e-2), (8, 5e-3)], spatial=[])
    assert table.temporal_orders == [1.0]
    assert table.format().splitlines()[3] == "     8  5.0000e-03    1.000"


def test_oracle_zero_problem(mesh5):
    n = mesh5.n_nodes
    prob = make_problem(mesh5, u_prev=np.zeros(n), a_bar=np.zeros(n))
    out = brute_force_step_oracle(prob)
    assert np.allclose(out, 0.0, atol=1e-12)


def test_oracle_rejects_large_interior():
    mesh = build_mesh(9, 9, 1.0, 1.0)
    prob = make_problem(mesh, seed=1)
    with pytest.raises(ValueError):
        brute_force_step_oracle(prob)


def test_oracle_matches_solver_on_random_problems():
    rng = np.random.default_rng(55)
    cfg = SolverConfig()
    for i in range(8):
        nx = int(rng.integers(3, 6))
        ny = int(rng.integers(3, 6))
        mesh = build_mesh(nx, ny, 1.0, 1.0)
        p = [2.0, 2.8, 3.0, 5.0][i % 4]
        # eps = 0 compares the oracle's unregularized time law too
        for eps in (1e-10, 0.0):
            prob = make_problem(mesh, p=p, kappa=[1e-1, 1e-3][i % 2],
                                ell=[1e-2, 1.0][(i // 2) % 2], eps=eps, seed=100 + i)
            expected = brute_force_step_oracle(prob)
            got = solve_step(prob, cfg).u_next
            assert np.max(np.abs(expected - got)) <= 10 * cfg.tol_residual


def test_lemma_edge_cases():
    # equality instances of the pointwise inequalities
    assert abs(abs(1.0) ** 0.5 - abs(0.0) ** 0.5) <= abs(1.0 - 0.0) ** 0.5
    report = lemma_inequality_suite(2000, seed=3)
    assert report.all_passed
    assert report.coupling_min_ratio > 0.0
    names = [e.name for e in report.entries]
    assert len(names) == 3


def test_lemma_suite_rejects_bad_count():
    with pytest.raises(ValueError):
        lemma_inequality_suite(0)
