import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest

from shallowice import (
    StepProblem,
    build_mesh,
    scaled_residual_norm,
    step_energy,
    step_residual,
)
from shallowice.mesh import scatter_vertex_sums, triangle_gradients
from shallowice.operators import (
    SINGULAR_STATE,
    evaluate,
    linearize,
    nodal_minimizer,
    step_jacobian_action,
)
from shallowice.physics import dphi_power_reg, phi_power_reg, signed_power
from shallowice.verification import brute_force_step_oracle

from conftest import make_problem, random_state, zero_boundary


def hand_assembled_stiffness(mesh, mu=1.0):
    """Independent P1 stiffness assembly from vertex coordinates (p = 2)."""
    n = mesh.n_nodes
    K = np.zeros((n, n))
    for tri in mesh.triangles:
        pts = mesh.nodes[tri]
        x, y = pts[:, 0], pts[:, 1]
        twoA = (x[1] - x[0]) * (y[2] - y[0]) - (x[2] - x[0]) * (y[1] - y[0])
        area = 0.5 * twoA
        b = np.array([y[1] - y[2], y[2] - y[0], y[0] - y[1]]) / twoA
        c = np.array([x[2] - x[1], x[0] - x[2], x[1] - x[0]]) / twoA
        for i in range(3):
            for j in range(3):
                K[tri[i], tri[j]] += mu * area * (b[i] * b[j] + c[i] * c[j])
    return K


def einsum_gradients(mesh, f):
    """Per-triangle gradients by einsum over the (ntri, 3, 2) hat gradients."""
    return np.einsum("tl,tld->td", f[mesh.triangles], mesh.grad_basis)


def einsum_scatter(mesh, per_vertex):
    """Nodal sums of (ntri, 3) per-vertex values, in triangle order."""
    return np.bincount(mesh.triangles.ravel(), weights=per_vertex.ravel(),
                       minlength=mesh.n_nodes)


def element_jacobian_action(prob, u, w):
    """Element-by-element Jacobian action: gather, 3x3 contraction per
    triangle, scatter, plus the nodal time and penalty slope."""
    mesh, params = prob.mesh, prob.params
    m = mesh.lumped_mass
    u_slope = u if prob.eps > 0.0 else np.maximum(np.abs(u), SINGULAR_STATE)
    slope = m * dphi_power_reg(u_slope, params.alpha, prob.eps) / prob.ell
    slope = slope + (m / prob.kappa) * (u < 0.0)
    g = einsum_gradients(mesh, u)
    q = np.einsum("td,td->t", g, g) + prob.delta**2
    weight = mesh.areas * params.mu * q ** ((params.p - 2.0) / 2.0)
    coef = (params.p - 2.0) * weight / q
    gb = np.einsum("td,tld->tl", g, mesh.grad_basis)
    K = weight[:, None, None] * np.einsum("tid,tjd->tij", mesh.grad_basis, mesh.grad_basis)
    K += coef[:, None, None] * gb[:, :, None] * gb[:, None, :]
    w = zero_boundary(mesh, w)
    out = slope * w + einsum_scatter(mesh, np.einsum("tij,tj->ti", K, w[mesh.triangles]))
    out[mesh.boundary_mask] = 0.0
    return out


def test_stiffness_center_value_p2(mesh3):
    # ell = kappa = 1e300 and a_bar = 0 push the nodal terms below 1e-299,
    # so the residual is the stiffness action alone
    prob = make_problem(mesh3, p=2.0, ell=1e300, kappa=1e300, delta=0.0, eps=0.0,
                        a_bar=np.zeros(9))
    u = np.zeros(9)
    u[4] = 1.0
    S = step_residual(prob, u)
    assert S[4] == pytest.approx(4.0, rel=1e-14)
    # and against the independent dense assembly for arbitrary states
    K = hand_assembled_stiffness(mesh3)
    rng = np.random.default_rng(0)
    v = zero_boundary(mesh3, rng.uniform(-1, 1, 9))
    expected = K @ v
    expected[mesh3.boundary_mask] = 0.0
    assert np.allclose(step_residual(prob, v), expected, atol=1e-13)


def test_energy_trivial_cases(mesh5):
    n = mesh5.n_nodes
    prob = make_problem(mesh5, u_prev=np.zeros(n), a_bar=np.zeros(n), delta=0.0,
                        eps=0.0)
    assert step_energy(prob, np.zeros(n)) == 0.0
    prob_d = make_problem(mesh5, u_prev=np.zeros(n), a_bar=np.zeros(n),
                          delta=1e-3, eps=0.0)
    expected = float(np.sum(mesh5.areas * prob_d.params.mu / 3.0 * (1e-3) ** 3))
    assert step_energy(prob_d, np.zeros(n)) == pytest.approx(expected, rel=1e-13)


def test_energy_minimized_at_step_solution(mesh3):
    prob = make_problem(mesh3, seed=4)
    u_star = brute_force_step_oracle(prob)
    e_star = step_energy(prob, u_star)
    rng = np.random.default_rng(9)
    for _ in range(20):
        v = random_state(mesh3, rng)
        assert step_energy(prob, v) >= e_star - 1e-12


def test_residual_zero_fixed_point(mesh5):
    n = mesh5.n_nodes
    prob = make_problem(mesh5, u_prev=np.zeros(n), a_bar=np.zeros(n))
    F = step_residual(prob, np.zeros(n))
    assert np.array_equal(F, np.zeros(n))


def test_residual_penalty_restores_upward(mesh3):
    # a negative nodal value must produce a Newton push back toward zero
    n = mesh3.n_nodes
    prob = make_problem(mesh3, u_prev=np.zeros(n), a_bar=np.zeros(n), kappa=1e-3)
    u = np.zeros(n)
    u[4] = -0.5
    F = step_residual(prob, u)
    m = mesh3.lumped_mass[4]
    penalty_part = (m / prob.kappa) * min(u[4], 0.0)
    assert penalty_part < 0
    assert F[4] < 0  # -F points upward, driving u_4 >= 0
    diag = linearize(prob, evaluate(prob, u)).diag
    assert -F[4] / diag[4] > 0


def test_residual_vanishes_at_oracle_minimizer(mesh3):
    n = mesh3.n_nodes
    a_bar = np.zeros(n)
    a_bar[4] = 1.0
    prob = make_problem(mesh3, p=3.0, mu=1.0, ell=1.0, kappa=1.0,
                        u_prev=np.zeros(n), a_bar=a_bar)
    u_star = brute_force_step_oracle(prob)
    assert scaled_residual_norm(prob, step_residual(prob, u_star)) <= 1e-10


def central_fd_gradient(prob, u, h=1e-6):
    grad = np.zeros_like(u)
    for i in np.flatnonzero(prob.mesh.interior_mask):
        up, dn = u.copy(), u.copy()
        up[i] += h
        dn[i] -= h
        grad[i] = (step_energy(prob, up) - step_energy(prob, dn)) / (2 * h)
    return grad


@pytest.mark.parametrize("p", [2.8, 3.0, 5.0])
def test_gradient_consistency_componentwise(mesh5, p):
    rng = np.random.default_rng(int(p * 10))
    prob = make_problem(mesh5, p=p, delta=0.0, eps=0.0, seed=1)
    for _ in range(5):
        u = random_state(mesh5, rng)
        F = step_residual(prob, u)
        G = central_fd_gradient(prob, u)
        free = prob.mesh.interior_mask
        err = np.max(np.abs(F[free] - G[free])) / max(np.max(np.abs(G[free])), 1e-30)
        assert err < 1e-6


def test_gradient_consistency_with_regularization(mesh5):
    # energy and residual stay an exact gradient pair for delta, eps > 0
    rng = np.random.default_rng(77)
    prob = make_problem(mesh5, delta=1e-3, eps=1e-4, seed=2)
    u = random_state(mesh5, rng)
    w = random_state(mesh5, rng)
    h = 1e-7
    fd = (step_energy(prob, u + h * w) - step_energy(prob, u - h * w)) / (2 * h)
    assert float(step_residual(prob, u) @ w) == pytest.approx(fd, rel=1e-6)


# the rank-one coefficient (p-2) weight / q is negative below p = 2 and
# vanishes at p = 2
JACOBIAN_PS = (1.5, 2.0, 3.0, 5.0)


def test_jacobian_matches_fd_of_residual(mesh5):
    rng = np.random.default_rng(12)
    for p in JACOBIAN_PS:
        prob = make_problem(mesh5, p=p, delta=1e-8, eps=1e-10, seed=3)
        for _ in range(5):
            u = random_state(mesh5, rng, lo=0.2)
            w = random_state(mesh5, rng)
            h = 1e-6
            fd = (step_residual(prob, u + h * w) - step_residual(prob, u - h * w)) / (2 * h)
            Jw = step_jacobian_action(linearize(prob, evaluate(prob, u)), w)
            free = prob.mesh.interior_mask
            scale = max(np.max(np.abs(fd[free])), 1.0)
            assert np.max(np.abs(Jw[free] - fd[free])) / scale < 1e-5, p


def test_jacobian_symmetric_positive(mesh5):
    rng = np.random.default_rng(13)
    for p in JACOBIAN_PS:
        prob = make_problem(mesh5, p=p, seed=5)
        jac = linearize(prob, evaluate(prob, random_state(mesh5, rng, lo=0.2)))
        for _ in range(10):
            w1 = random_state(mesh5, rng)
            w2 = random_state(mesh5, rng)
            a12 = float(w1 @ step_jacobian_action(jac, w2))
            a21 = float(w2 @ step_jacobian_action(jac, w1))
            assert a12 == pytest.approx(a21, rel=1e-10, abs=1e-12), p
            quad = float(w1 @ step_jacobian_action(jac, w1))
            assert quad > 0.0, p


def test_jacobian_p2_state_independent(mesh3):
    prob = make_problem(mesh3, p=2.0, delta=0.0, eps=1e-10, seed=6)
    K = hand_assembled_stiffness(mesh3)
    rng = np.random.default_rng(14)
    u = random_state(mesh3, rng, lo=0.5)
    w = random_state(mesh3, rng)
    # remove the time/penalty diagonal to isolate the gradient block
    from shallowice.physics import dphi_power_reg

    diag_t = mesh3.lumped_mass * dphi_power_reg(u, prob.params.alpha, prob.eps) / prob.ell
    diag_t += mesh3.lumped_mass / prob.kappa * (u < 0)
    Jw = step_jacobian_action(linearize(prob, evaluate(prob, u)), w) - diag_t * w
    Jw[mesh3.boundary_mask] = 0.0
    expected = K @ w
    expected[mesh3.boundary_mask] = 0.0
    assert np.allclose(Jw, expected, atol=1e-11)


def test_jacobian_finite_at_zero_state_eps0(mesh3):
    # eps = 0 leaves the power slope unbounded at u = 0; the Jacobian
    # evaluates it at the singular floor instead
    prob = make_problem(mesh3, eps=0.0, seed=7)
    u = np.zeros(mesh3.n_nodes)
    jac = linearize(prob, evaluate(prob, u))
    assert np.all(np.isfinite(jac.diag))
    assert np.all(jac.diag > 0.0)
    w = zero_boundary(mesh3, np.ones(mesh3.n_nodes))
    assert np.all(np.isfinite(step_jacobian_action(jac, w)))


def test_jacobian_zero_direction(mesh5):
    prob = make_problem(mesh5, seed=8)
    rng = np.random.default_rng(15)
    jac = linearize(prob, evaluate(prob, random_state(mesh5, rng, lo=0.2)))
    out = step_jacobian_action(jac, np.zeros(mesh5.n_nodes))
    assert np.array_equal(out, np.zeros(mesh5.n_nodes))


@pytest.mark.parametrize("p", [2.0, 3.0, 5.0])
def test_jacobian_diagonal_matches_action(mesh5, p):
    prob = make_problem(mesh5, p=p, seed=10)
    rng = np.random.default_rng(17)
    jac = linearize(prob, evaluate(prob, random_state(mesh5, rng, lo=0.2)))
    assert np.all(jac.diag[mesh5.boundary_mask] == 1.0)
    for i in np.flatnonzero(mesh5.interior_mask):
        e = np.zeros(mesh5.n_nodes)
        e[i] = 1.0
        assert jac.diag[i] == pytest.approx(step_jacobian_action(jac, e)[i], rel=1e-13)


def test_jacobian_matches_element_reference():
    rng = np.random.default_rng(20)
    for nx, ny in ((3, 3), (6, 4), (10, 14), (33, 33)):
        mesh = build_mesh(nx, ny, 2.0, 1.5)
        for p in JACOBIAN_PS:
            prob = make_problem(mesh, p=p, seed=11)
            u = random_state(mesh, rng)
            w = random_state(mesh, rng)
            Jw = step_jacobian_action(linearize(prob, evaluate(prob, u)), w)
            ref = element_jacobian_action(prob, u, w)
            assert np.max(np.abs(Jw - ref)) <= 1e-13 * np.max(np.abs(ref)), (nx, ny, p)


def test_kernels_match_einsum_reference(mesh5):
    # the component-major kernels against the (ntri, 3, 2) einsum forms, on
    # a mesh with permuted triangles and on a non-square one
    rng = np.random.default_rng(22)
    perm = rng.permutation(mesh5.n_triangles)
    permuted = dataclasses.replace(mesh5, triangles=mesh5.triangles[perm],
                                   areas=mesh5.areas[perm],
                                   grad_basis=mesh5.grad_basis[perm])
    for mesh in (permuted, build_mesh(10, 14, 2.0, 1.5)):
        f = rng.uniform(-2.0, 2.0, mesh.n_nodes)
        ref = einsum_gradients(mesh, f)
        g = triangle_gradients(mesh, f)
        assert g.shape == (mesh.n_triangles, 2)
        assert np.max(np.abs(g - ref)) <= 1e-13 * np.max(np.abs(ref))

        per_vertex = rng.uniform(-1.0, 1.0, (mesh.n_triangles, 3))
        ref = einsum_scatter(mesh, per_vertex)
        sums = scatter_vertex_sums(mesh, per_vertex.T)
        assert np.max(np.abs(sums - ref)) <= 1e-13 * np.max(np.abs(ref))

        for p in JACOBIAN_PS:
            prob = make_problem(mesh, p=p, seed=13)
            u = random_state(mesh, rng)
            w = random_state(mesh, rng)
            Jw = step_jacobian_action(linearize(prob, evaluate(prob, u)), w)
            ref = element_jacobian_action(prob, u, w)
            assert np.max(np.abs(Jw - ref)) <= 1e-13 * np.max(np.abs(ref)), (mesh.nx, p)


def test_linearize_never_holds_all_element_entries():
    # linearize adds the element matrices to the stencil rows one entry row
    # at a time; holding all (3, 3, ntri) entries at once, with their
    # temporaries, took 2.8 times their bytes beyond the returned rows
    mesh = build_mesh(33, 33, 1.0, 1.0)
    prob = make_problem(mesh, seed=14)
    point = evaluate(prob, random_state(mesh, np.random.default_rng(23)))
    linearize(prob, point)  # builds the cached stencil slots
    tracemalloc.start()
    try:
        jac = linearize(prob, point)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert jac.rows.shape == (7, mesh.n_nodes)
    assert peak - kept < 1.5 * (9 * mesh.n_triangles * 8)


def test_jacobian_ignores_boundary_direction(mesh9):
    rng = np.random.default_rng(21)
    prob = make_problem(mesh9, seed=12)
    jac = linearize(prob, evaluate(prob, random_state(mesh9, rng)))
    w = random_state(mesh9, rng)
    noisy = w + np.where(mesh9.boundary_mask, rng.uniform(-1e3, 1e3, mesh9.n_nodes), 0.0)
    assert np.array_equal(step_jacobian_action(jac, noisy), step_jacobian_action(jac, w))


def test_operator_monotone(mesh5):
    rng = np.random.default_rng(16)
    prob = make_problem(mesh5, seed=9)
    for _ in range(30):
        a = random_state(mesh5, rng)
        b = random_state(mesh5, rng)
        gap = float((step_residual(prob, a) - step_residual(prob, b)) @ (a - b))
        assert gap > 0.0  # strict: eps > 0 and a != b


def test_discrete_power_gap_inequality(mesh5):
    # nodal realization of the power-gap bound with conjugate weight
    rng = np.random.default_rng(17)
    m = mesh5.lumped_mass
    for alpha in (1.25, 4.0 / 3.0, 1.4):
        conj = alpha / (alpha - 1.0)
        for _ in range(50):
            a = rng.uniform(-3, 3, mesh5.n_nodes)
            b = rng.uniform(-3, 3, mesh5.n_nodes)
            lhs = float(m @ ((phi_power_reg(a, alpha, 0.0) - phi_power_reg(b, alpha, 0.0)) * a))
            rhs = float(m @ (np.abs(a) ** alpha - np.abs(b) ** alpha)) / conj
            assert lhs >= rhs - 1e-12 * max(abs(lhs), abs(rhs), 1.0)


def test_penalty_contribution_localized(mesh5):
    rng = np.random.default_rng(18)
    n = mesh5.n_nodes
    prob_base = make_problem(mesh5, u_prev=np.zeros(n), a_bar=np.zeros(n),
                             kappa=1e-2)
    huge = dataclasses.replace(prob_base, kappa=1e12)
    u = random_state(mesh5, rng)
    delta_F = step_residual(prob_base, u) - step_residual(huge, u)
    m = mesh5.lumped_mass
    expected = m / prob_base.kappa * np.minimum(u, 0.0)
    assert np.allclose(delta_F[mesh5.interior_mask],
                       expected[mesh5.interior_mask], rtol=1e-9, atol=1e-12)
    # zero exactly where the state is nonnegative, negative elsewhere
    assert np.all(delta_F[mesh5.interior_mask & (u >= 0)] == 0.0)
    assert np.all(delta_F[mesh5.interior_mask & (u < 0)] < 0.0)


def test_assembly_order_invariance(mesh5):
    import dataclasses as dc

    rng = np.random.default_rng(19)
    prob = make_problem(mesh5, seed=10)
    perm = rng.permutation(mesh5.n_triangles)
    shuffled = dc.replace(
        mesh5,
        triangles=mesh5.triangles[perm],
        areas=mesh5.areas[perm],
        grad_basis=mesh5.grad_basis[perm],
    )
    params2 = dc.replace(prob.params, mu=prob.params.mu[perm])
    prob2 = StepProblem(mesh=shuffled, params=params2, u_prev=prob.u_prev,
                        a_bar=prob.a_bar, ell=prob.ell, kappa=prob.kappa,
                        delta=prob.delta, eps=prob.eps)
    u = random_state(mesh5, rng)
    F1 = step_residual(prob, u)
    F2 = step_residual(prob2, u)
    scale = np.max(np.abs(F1)) or 1.0
    assert np.max(np.abs(F1 - F2)) <= 1e-13 * scale
    assert step_energy(prob, u) == pytest.approx(step_energy(prob2, u), rel=1e-13)
    # the stencil-row Jacobian: diagonal and action
    w = random_state(mesh5, rng)
    jac1, jac2 = linearize(prob, evaluate(prob, u)), linearize(prob2, evaluate(prob2, u))
    assert np.max(np.abs(jac1.diag - jac2.diag)) <= 1e-13 * np.max(np.abs(jac1.diag))
    Jw1 = step_jacobian_action(jac1, w)
    Jw2 = step_jacobian_action(jac2, w)
    assert np.max(np.abs(Jw1 - Jw2)) <= 1e-13 * np.max(np.abs(Jw1))


def test_problem_validation(mesh3):
    n = mesh3.n_nodes
    with pytest.raises(ValueError):
        make_problem(mesh3, ell=0.0)
    with pytest.raises(ValueError):
        make_problem(mesh3, kappa=0.0)
    with pytest.raises(ValueError):
        make_problem(mesh3, delta=-1.0)
    with pytest.raises(ValueError):
        make_problem(mesh3, u_prev=np.ones(n))  # nonzero boundary


@pytest.mark.parametrize("eps", [1e-10, 0.0])
@pytest.mark.parametrize("p, kappa, ell", [(2.0, 1e-2, 0.1), (3.0, 1e-8, 1.0),
                                           (5.0, 1e-4, 0.01)])
def test_nodal_minimizer_solves_the_nodal_equation(mesh9, p, kappa, ell, eps):
    # states and forcing of both signs and many scales, plus r = 0 nodes
    rng = np.random.default_rng(11)
    n = mesh9.n_nodes
    u_prev = zero_boundary(mesh9, rng.uniform(0.0, 2.0, n) * 10.0 ** rng.integers(-12, 2, n))
    a_bar = rng.uniform(-2.0, 2.0, n) * 10.0 ** rng.integers(-12, 3, n)
    u_prev[:12], a_bar[:12] = 0.0, 0.0
    prob = make_problem(mesh9, p=p, kappa=kappa, ell=ell, eps=eps,
                        u_prev=u_prev, a_bar=a_bar)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u = nodal_minimizer(prob)
    assert np.all(u[mesh9.boundary_mask] == 0.0)
    free = mesh9.interior_mask
    alpha = prob.params.alpha
    r = signed_power(u_prev, alpha - 1.0) / ell + a_bar
    time_term = phi_power_reg(u, alpha, eps) / ell
    penalty = np.minimum(u, 0.0) / kappa
    scale = np.abs(time_term) + np.abs(penalty) + np.abs(r)
    assert np.all(np.abs(time_term + penalty - r)[free] <= 1e-11 * scale[free])
    assert np.all(u[free][r[free] == 0.0] == 0.0)
    if eps == 0.0:
        up = free & (r >= 0.0)
        assert np.array_equal(u[up], (ell * r[up]) ** (1.0 / (alpha - 1.0)))
