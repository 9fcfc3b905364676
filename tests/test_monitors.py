import dataclasses
import tracemalloc

import numpy as np
import pytest

from shallowice import (
    ConstantForcing,
    MeltForcing,
    TimeGrid,
    average_forcing,
    build_mesh,
    compute_monitors,
    initial_thickness_field,
    kappa_sweep,
    make_params,
    poly_bump,
    run,
    vi_residual,
)
from shallowice.monitors import (
    SweepResult,
    SweepRow,
    lq_norm,
    w1p_seminorm_pow,
)
from shallowice.physics import neg_part

from conftest import zero_boundary


def melt_traj(mesh, kappa=1e-3, T=0.6, N=6, rate=-1.0, mu=0.1):
    H0 = initial_thickness_field("dome", 0.8, mesh)
    params = make_params(mesh, 3.0, MeltForcing(rate), H0=H0, mu=mu)
    return run(mesh, params, TimeGrid(T, N), kappa)


def test_norm_helpers(mesh5):
    v = np.full(mesh5.n_nodes, 2.0)
    assert lq_norm(mesh5, v, 2.0) == pytest.approx(2.0, rel=1e-14)
    f = mesh5.nodes[:, 0]
    assert w1p_seminorm_pow(mesh5, f, 3.0) == pytest.approx(1.0, rel=1e-13)


def test_zero_trajectory_monitors(mesh5):
    n = mesh5.n_nodes
    with pytest.warns(UserWarning):
        params = make_params(mesh5, 3.0, ConstantForcing(0.0), u0=np.zeros(n),
                             mu=1.0)
    traj = run(mesh5, params, TimeGrid(1.0, 4), 1e-2)
    rec = compute_monitors(traj, 1e-2)
    for name in ("est1", "est2", "est3", "est3_1", "est4", "est5_1",
                 "pen_sum", "sc1_value", "sc2_prime_value", "neg_norm"):
        assert getattr(rec, name) == 0.0
    assert rec.sc1_prime_ok is True


def test_single_node_est1_closed_form(mesh3):
    # one implicit step on the single-interior-node mesh from zero state
    a = np.zeros(mesh3.n_nodes)
    a[4] = 1.0
    params = make_params(mesh3, 3.0, ConstantForcing(0.0), u0=zero_boundary(
        mesh3, np.eye(mesh3.n_nodes)[4] * 0.0), mu=1.0)
    params = dataclasses.replace(params, forcing=ConstantForcing(1.0))
    traj = run(mesh3, params, TimeGrid(1.0, 1), 1.0)
    rec = compute_monitors(traj, 1.0)
    c = traj.states[1][4]
    alpha = params.alpha
    m = mesh3.lumped_mass[4]
    assert rec.est1 == pytest.approx((m * abs(c) ** alpha) ** (1 / alpha), rel=1e-12)
    assert rec.est3_1 == pytest.approx(np.sqrt(m * abs(c) ** alpha), rel=1e-12)


def test_norm_identities_on_melt_run(mesh9):
    traj = melt_traj(mesh9)
    rec = compute_monitors(traj, 1e-3)
    alpha = traj.params.alpha
    conj = alpha / (alpha - 1.0)
    assert abs(rec.est3_1**2 - rec.est1**alpha) <= 1e-12 * rec.est1**alpha
    assert abs(rec.est5_1**conj - rec.est1**alpha) <= 1e-12 * rec.est1**alpha
    assert rec.neg_norm**2 == pytest.approx(1e-3 * rec.pen_sum, rel=1e-12)


def test_sc1_zero_for_nonnegative_trajectory(mesh5):
    H0 = initial_thickness_field("bump", 0.5, mesh5)
    params = make_params(mesh5, 3.0, ConstantForcing(0.5), H0=H0, mu=0.1)
    traj = run(mesh5, params, TimeGrid(0.5, 4), 1e-3)
    assert min(u.min() for u in traj.states) >= 0.0
    rec = compute_monitors(traj, 1e-3)
    assert rec.sc1_value == 0.0
    assert rec.sc1_prime_ok is True


def test_sc1_prime_detects_shrinking_violation(mesh5):
    params_traj = melt_traj(mesh5)
    # synthetic trajectory: violation -0.2, held for a step, then -0.1 at
    # one node
    s0 = zero_boundary(mesh5, np.zeros(mesh5.n_nodes))
    s1 = s0.copy()
    s2 = s0.copy()
    inner = np.flatnonzero(mesh5.interior_mask)[0]
    s1[inner] = -0.2
    s2[inner] = -0.1
    synth = dataclasses.replace(params_traj, states=[s0, s1, s1.copy(), s2],
                                step_diagnostics=[],
                                time_grid=TimeGrid(1.0, 3))
    assert compute_monitors(synth, 1e-3).sc1_prime_ok is False
    # the same violation held or deepening is no shrink
    held = dataclasses.replace(synth, states=[s0, s1, s1.copy(), 2 * s1])
    assert compute_monitors(held, 1e-3).sc1_prime_ok is True


def test_sc1_finite_on_melt_run(mesh9):
    traj = melt_traj(mesh9)
    rec = compute_monitors(traj, 1e-3)
    assert np.isfinite(rec.sc1_value)
    assert rec.sc1_value < 0.0  # pure melting: increments against the violation
    assert rec.sc1_prime_ok is True


@pytest.mark.parametrize("step", [1, 2])
def test_monitors_reject_a_nonfinite_state(step):
    # a NaN at the center node of one state: before, est3_1 and est5_1
    # stayed finite and sc1_prime_ok read True beside NaN sums
    traj = melt_traj(build_mesh(7, 7, 1.0, 1.0), T=0.2, N=2, rate=-0.5)
    traj.states[step][24] = np.nan
    with pytest.raises(ValueError, match=f"step {step} holds a non-finite value"):
        compute_monitors(traj, 1e-3)


def test_vi_residual_certificate(mesh9):
    traj = melt_traj(mesh9, kappa=1e-5)
    u_plus = [np.maximum(u, 0.0) for u in traj.states[1:]]
    bump = zero_boundary(mesh9, poly_bump(mesh9))
    family = [
        np.array(u_plus),
        np.array(u_plus) + 0.5 * bump,
        bump,
        np.zeros(mesh9.n_nodes),
        2.0 * np.array(u_plus),
    ]
    res = vi_residual(traj, family)
    assert res >= -1e-8


def gradient_pairing_vi_residual(traj, v):
    """vi_residual of one test field, paired step by step through einsum
    gradients of v^n - u^(n+1)."""
    mesh, params = traj.mesh, traj.params
    alpha, ell = params.alpha, traj.time_grid.ell
    m = mesh.lumped_mass
    vv = np.broadcast_to(v, (traj.N, mesh.n_nodes))

    def grad(f):
        return np.einsum("tl,tld->td", f[mesh.triangles], mesh.grad_basis)

    def phi(u):
        return np.sign(u) * np.abs(u) ** (alpha - 1.0)

    total = -(m @ np.abs(traj.states[-1]) ** alpha
              - m @ np.abs(traj.states[0]) ** alpha) * (alpha - 1.0) / alpha
    for n in range(traj.N):
        u_next = traj.states[n + 1]
        g = grad(u_next)
        q = np.einsum("td,td->t", g, g) + traj.delta**2
        flux = (mesh.areas * params.mu * q ** (0.5 * (params.p - 2.0)))[:, None] * g
        a_bar = average_forcing(params.forcing, n, traj.time_grid, mesh)
        diff = vv[n] - u_next
        total += m @ ((phi(u_next) - phi(traj.states[n])) * vv[n])
        total += ell * np.einsum("td,td->", flux, grad(diff))
        total -= ell * m @ (a_bar * diff)
    return float(total)


def test_vi_residual_matches_gradient_pairing(mesh9):
    traj = melt_traj(mesh9)
    u_plus = np.array([np.maximum(u, 0.0) for u in traj.states[1:]])
    bump = zero_boundary(mesh9, poly_bump(mesh9))
    ramp = np.outer(np.arange(1, traj.N + 1) / traj.N, bump)
    family = [bump, 3.0 * bump, traj.states[0], u_plus, u_plus + 0.5 * bump, ramp,
              u_plus[::-1]]
    values = []
    for v in family:
        ref = gradient_pairing_vi_residual(traj, v)
        got = vi_residual(traj, [v])
        assert abs(got - ref) <= 1e-12 * abs(ref), (got, ref)
        values.append(got)
    assert vi_residual(traj, family) == min(values)


def test_vi_residual_rejects_bad_fields(mesh9):
    traj = melt_traj(mesh9)
    with pytest.raises(ValueError):
        vi_residual(traj, [-poly_bump(mesh9)])
    with pytest.raises(ValueError):
        vi_residual(traj, [np.ones(mesh9.n_nodes)])  # boundary violation
    with pytest.raises(ValueError):
        vi_residual(traj, [np.zeros(3)])
    bump = zero_boundary(mesh9, poly_bump(mesh9))
    center = mesh9.n_nodes // 2
    nan_field, inf_field = bump.copy(), bump.copy()
    nan_field[center] = np.nan
    inf_field[center] = np.inf
    # a non-finite field is rejected wherever it sits in the family
    for family in ([nan_field], [inf_field], [bump, nan_field]):
        with pytest.raises(ValueError, match="finite"):
            vi_residual(traj, family)


def test_vi_residual_holds_one_slab_at_a_time():
    # a 1-D test field is broadcast over the slabs, so the family holds no
    # (N, n) memory, and neither may vi_residual: it pairs the coefficients
    # of one slab at a time
    mesh = build_mesh(33, 33, 1.0, 1.0)
    traj = melt_traj(mesh, T=2.0, N=80, rate=-2.0, mu=1.0)
    bump = zero_boundary(mesh, poly_bump(mesh))
    family = [bump, 0.5 * bump, np.zeros(mesh.n_nodes)]
    tracemalloc.start()
    try:
        res = vi_residual(traj, family)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(res)
    assert peak < 0.5 * traj.N * mesh.n_nodes * 8


def test_kappa_sweep_inactive_penalty(mesh5):
    H0 = initial_thickness_field("bump", 0.5, mesh5)
    params = make_params(mesh5, 3.0, ConstantForcing(0.2), H0=H0, mu=0.1)
    sweep = kappa_sweep(mesh5, params, TimeGrid(0.5, 3), None,
                        [1e-1, 1e-2, 1e-3])
    assert sweep.monotone_ok
    for row in sweep.rows:
        assert row.error is None
        assert row.neg_norm == 0.0
        assert row.record.sc1_value == 0.0
    assert sweep.rows[1].dist_final is not None


def test_kappa_sweep_melt_decay(mesh9):
    H0 = initial_thickness_field("dome", 0.8, mesh9)
    params = make_params(mesh9, 3.0, MeltForcing(-1.0), H0=H0, mu=0.1)
    sweep = kappa_sweep(mesh9, params, TimeGrid(0.6, 6), None,
                        [1e-2, 1e-3, 1e-4])
    norms = [r.neg_norm for r in sweep.rows]
    assert sweep.monotone_ok
    assert norms[0] > norms[1] > norms[2] > 0
    table = sweep.table()
    assert len(table) == 3
    assert set(("kappa", "neg_norm", "neg_norm_over_kappa")) <= set(table[0])


def test_sweep_rows_derive_from_records(mesh5):
    record = compute_monitors(melt_traj(mesh5), 1e-3)
    rows = [SweepRow(kappa=k, record=dataclasses.replace(record, neg_norm=v),
                     dist_final=None, trajectory=None) for k, v in
            ((1e-1, 2e-3), (1e-3, 2.2e-3))]
    rows.insert(1, SweepRow(kappa=1e-2, record=None, dist_final=None,
                            trajectory=None, error="failed"))
    assert rows[0].neg_norm == 2e-3 and rows[0].sc2_proxy == 2e-3 / 1e-1
    assert np.isnan(rows[1].neg_norm) and np.isnan(rows[1].sc2_proxy)
    # the failed row is skipped; 2e-3 -> 2.2e-3 grows by 10 % > MONOTONE_SLACK
    assert not SweepResult(rows).monotone_ok
    assert SweepResult(rows[:2]).monotone_ok


def test_kappa_sweep_validation(mesh5):
    H0 = initial_thickness_field("bump", 0.5, mesh5)
    params = make_params(mesh5, 3.0, ConstantForcing(0.0), H0=H0, mu=0.1)
    grid = TimeGrid(0.5, 2)
    with pytest.raises(ValueError):
        kappa_sweep(mesh5, params, grid, None, [1e-2, 1e-1])
    with pytest.raises(ValueError):
        kappa_sweep(mesh5, params, grid, None, [1e-2, -1e-3])
    # rejected before the first row runs: nan failed in the second row's
    # solve, and inf ran a row with no penalty
    for kappas in ([1e-2, np.nan], [np.inf, 1e-3]):
        with pytest.raises(ValueError, match="positive and finite"):
            kappa_sweep(mesh5, params, grid, None, kappas)


def test_monitor_assembly_order_invariance(mesh5):
    # the half-turn of the grid reverses the node and the triangle order of
    # the mesh; the monitors of the reversed trajectory sum every term in
    # another order.  A mesh with its triangles permuted otherwise cannot be
    # built
    traj = melt_traj(mesh5)
    rec1 = compute_monitors(traj, 1e-3)
    perm = np.random.default_rng(4).permutation(mesh5.n_triangles)
    with pytest.raises(ValueError):
        dataclasses.replace(mesh5, triangles=mesh5.triangles[perm],
                            areas=mesh5.areas[perm], grad_basis=mesh5.grad_basis[perm])
    params = traj.params
    traj2 = dataclasses.replace(
        traj, states=[u[::-1] for u in traj.states],
        params=dataclasses.replace(params, mu=params.mu[::-1], u0=params.u0[::-1]))
    rec2 = compute_monitors(traj2, 1e-3)
    for name in ("est1", "est2", "est3", "est4", "est5_1", "neg_norm"):
        a, b = getattr(rec1, name), getattr(rec2, name)
        assert abs(a - b) <= 1e-13 * max(abs(a), 1e-300)
    bump = zero_boundary(mesh5, poly_bump(mesh5))
    family = [bump, np.array([np.maximum(u, 0.0) for u in traj.states[1:]])]
    a = vi_residual(traj, family)
    b = vi_residual(traj2, [v[..., ::-1] for v in family])
    assert abs(a - b) <= 1e-13 * abs(a)

def test_monitors_compute_each_state_once(monkeypatch, mesh9):
    # the melt run settles: its states from step 29 on repeat their
    # predecessor.  One walk takes each term once per run of equal states,
    # and the record, sc1_value, sc1_prime_ok and est3 included, has the bits
    # of one computed state by state
    import shallowice.monitors as monitors

    traj = melt_traj(mesh9, T=2.0, N=40, rate=-2.0, mu=1.0)
    states = traj.states
    distinct = 1 + sum(a.tobytes() != b.tobytes() for a, b in zip(states, states[1:]))
    assert distinct < len(states)
    calls = []
    negs = []

    def counted(mesh, v, p):
        calls.append(v)
        return w1p_seminorm_pow(mesh, v, p)

    def counted_neg(f):
        negs.append(f)
        return neg_part(f)

    monkeypatch.setattr(monitors, "w1p_seminorm_pow", counted)
    monkeypatch.setattr(monitors, "neg_part", counted_neg)
    rec = compute_monitors(traj, 1e-3)
    assert len(calls) == distinct
    assert len(negs) == distinct
    monkeypatch.setattr(monitors, "state_runs", lambda s: ((u, 1) for u in s))
    by_state = compute_monitors(traj, 1e-3)
    assert len(calls) == distinct + len(states)
    assert len(negs) == distinct + len(states)
    assert list(map(repr, rec.as_dict().values())) == list(map(repr, by_state.as_dict().values()))
