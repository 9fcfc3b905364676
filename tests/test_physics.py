import dataclasses

import numpy as np
import pytest

from shallowice import (
    ConstantForcing,
    build_mesh,
    diagnostic_flux,
    make_params,
    thickness_from_u,
)
from shallowice.physics import (
    PhysicalRangeWarning,
    alpha_of,
    dphi_power_reg,
    flux_weight,
    glen_mu,
    neg_part,
    phi_power_reg,
    signed_power,
    u_from_thickness,
)


def test_alpha_values():
    assert alpha_of(3.0) == pytest.approx(4.0 / 3.0, rel=1e-15)
    assert alpha_of(5.0) == pytest.approx(1.4, rel=1e-15)
    assert alpha_of(2.8) == pytest.approx(7.4 / 5.6, rel=1e-15)


def test_alpha_rejects_and_range():
    with pytest.raises(ValueError):
        alpha_of(1.0)
    with pytest.raises(ValueError):
        alpha_of(0.5)
    for p in np.linspace(1.0 + 1e-9, 100.0, 500):
        assert 1.0 < alpha_of(p) < 2.0


def test_thickness_transform_values():
    assert thickness_from_u(0.0, 3.0) == 0.0
    assert thickness_from_u(1.0, 3.0) == 1.0
    assert thickness_from_u(64.0, 3.0) == pytest.approx(4.0, rel=1e-14)
    assert u_from_thickness(4.0, 3.0) == pytest.approx(64.0, rel=1e-14)
    assert u_from_thickness(0.0, 3.0) == 0.0
    assert u_from_thickness(2.5198421, 3.0) == pytest.approx(16.0, rel=1e-6)


def test_thickness_transform_rejects_negative():
    with pytest.raises(ValueError):
        thickness_from_u(-1.0, 3.0)
    with pytest.raises(ValueError):
        u_from_thickness(-0.5, 3.0)


def test_transform_round_trip():
    u = np.logspace(-6, 6, 200)
    for p in (2.8, 3.0, 4.0, 5.0):
        back = u_from_thickness(thickness_from_u(u, p), p)
        assert np.max(np.abs(back - u) / u) < 1e-10


def test_glen_mu_values():
    # rho_g chosen so the pressure base is exactly 1
    assert glen_mu(1.0, 3.0, 3.0) == pytest.approx(0.5, rel=1e-15)
    assert glen_mu(2.0, 3.0, 3.0) == pytest.approx(1.0, rel=1e-15)
    with pytest.raises(ValueError):
        glen_mu(0.0, 1.0, 3.0)
    with pytest.raises(ValueError):
        glen_mu(1.0, -1.0, 3.0)


def test_neg_part_values():
    assert neg_part(-2.0) == 2.0
    assert neg_part(3.0) == 0.0
    assert neg_part(0.0) == 0.0
    arr = neg_part(np.array([-1.5, 0.0, 2.0]))
    assert arr.tolist() == [1.5, 0.0, 0.0]


def test_neg_part_lipschitz_and_monotone():
    rng = np.random.default_rng(5)
    a = rng.uniform(-10, 10, 20000)
    b = rng.uniform(-10, 10, 20000)
    lhs = np.abs(np.minimum(a, 0) - np.minimum(b, 0))
    assert np.all(lhs <= np.abs(a - b) + 1e-15)
    # u -> -neg_part(u) = min(u, 0) is nondecreasing
    x = np.sort(rng.uniform(-5, 5, 1000))
    assert np.all(np.diff(np.minimum(x, 0)) >= 0)


def test_phi_power_values():
    assert phi_power_reg(0.0, 4.0 / 3.0, 0.0) == 0.0
    assert phi_power_reg(1.0, 1.7, 0.0) == 1.0
    assert phi_power_reg(-8.0, 4.0 / 3.0, 0.0) == pytest.approx(-2.0, rel=1e-14)
    with pytest.raises(ValueError):
        phi_power_reg(1.0, 2.5, 0.0)


def test_phi_power_odd_strictly_increasing():
    rng = np.random.default_rng(6)
    u = rng.uniform(-100, 100, 5000)
    for alpha in (1.2, 4.0 / 3.0, 1.9):
        assert np.allclose(phi_power_reg(-u, alpha, 0.0), -phi_power_reg(u, alpha, 0.0),
                           rtol=1e-14)
        a, b = rng.uniform(-50, 50, (2, 5000))
        keep = a != b
        gap = (phi_power_reg(a, alpha, 0.0) - phi_power_reg(b, alpha, 0.0)) * (a - b)
        assert np.all(gap[keep] > 0)


def test_phi_power_reg_consistency():
    u = np.array([-2.0, -1e-12, 0.0, 3e-11, 0.5])
    alpha = 4.0 / 3.0
    assert np.allclose(phi_power_reg(u, alpha, 0.0), signed_power(u, alpha - 1.0),
                       rtol=1e-15)
    reg = phi_power_reg(u, alpha, 1e-10)
    assert np.all(np.isfinite(reg))
    assert reg[2] == 0.0
    # derivative positive for eps > 0
    assert np.all(dphi_power_reg(u, alpha, 1e-10) > 0)


def test_diagnostic_flux_cases(mesh5):
    params = make_params(mesh5, 3.0, ConstantForcing(0.0),
                         u0=np.zeros(mesh5.n_nodes), mu=1.0)
    Q = diagnostic_flux(mesh5, np.zeros(mesh5.n_nodes), params)
    assert np.allclose(Q, 0.0, atol=0)

    u = mesh5.nodes[:, 0].copy()  # grad = (1, 0), |grad| = 1
    Q = diagnostic_flux(mesh5, u, params)
    assert np.allclose(Q, [-1.0, 0.0], atol=1e-13)

    params2 = make_params(mesh5, 3.0, ConstantForcing(0.0),
                          u0=np.zeros(mesh5.n_nodes), mu=2.0)
    u = 3.0 * mesh5.nodes[:, 0] + 4.0 * mesh5.nodes[:, 1]
    Q = diagnostic_flux(mesh5, u, params2)
    assert np.allclose(Q, [-30.0, -40.0], rtol=1e-12)


@pytest.mark.parametrize("p", [1.2, 1.5, 1.9])
def test_flux_weight_below_p2_matches_gathered_formula(p):
    # the masked power gives the bits of the gather/scatter formula it
    # replaced, 0 on flat triangles, with mu carrying the triangle areas
    mesh = build_mesh(17, 17, 1.0, 1.0)
    rng = np.random.default_rng(5)
    q = rng.uniform(0.0, 4.0, mesh.n_triangles) ** 3
    q[rng.random(mesh.n_triangles) < 0.3] = 0.0
    mu = mesh.areas * rng.uniform(0.5, 2.0, mesh.n_triangles)
    expected = np.zeros_like(q)
    pos = q > 0.0
    expected[pos] = mu[pos] * q[pos] ** (0.5 * (p - 2.0))
    got = flux_weight(q, mu, p)
    assert got.tobytes() == expected.tobytes()
    assert np.all(got[~pos] == 0.0)


def test_params_validation(mesh3):
    n = mesh3.n_nodes
    with pytest.warns(PhysicalRangeWarning):
        make_params(mesh3, 2.0, ConstantForcing(0.0), u0=np.zeros(n), mu=1.0)
    with pytest.raises(ValueError):
        make_params(mesh3, 3.0, ConstantForcing(0.0), u0=-np.ones(n), mu=1.0)
    bad = np.ones(n)  # nonzero on the boundary
    with pytest.raises(ValueError):
        make_params(mesh3, 3.0, ConstantForcing(0.0), u0=bad, mu=1.0)
    with pytest.raises(ValueError):
        make_params(mesh3, 3.0, ConstantForcing(0.0), u0=np.zeros(n), mu=-1.0)
    # every mu must be finite: one infinite or NaN value is rejected
    for value in (np.inf, np.nan):
        mu = np.ones(mesh3.n_triangles)
        mu[3] = value
        with pytest.raises(ValueError, match="finite and positive"):
            make_params(mesh3, 3.0, ConstantForcing(0.0), u0=np.zeros(n), mu=mu)
    # exactly one of u0 and H0
    for start in ({}, {"u0": np.zeros(n), "H0": np.zeros(n)}):
        with pytest.raises(ValueError, match="exactly one"):
            make_params(mesh3, 3.0, ConstantForcing(0.0), mu=1.0, **start)
    with pytest.warns(UserWarning, match="identically zero"):
        make_params(mesh3, 3.0, ConstantForcing(0.0), u0=np.zeros(n), mu=1.0)


def test_params_alpha_and_mu_bounds(mesh3):
    u0 = np.zeros(mesh3.n_nodes)
    u0[4] = 1.0
    mu = np.linspace(0.5, 1.5, mesh3.n_triangles)
    params = make_params(mesh3, 3.0, ConstantForcing(0.0), u0=u0, mu=mu)
    assert params.alpha == (3 * 3.0 - 1) / (2 * 3.0)
    # 0 < mu is checked again on a replaced mu
    with pytest.raises(ValueError, match="finite and positive"):
        dataclasses.replace(params, mu=-params.mu)
    # derived Glen coefficient when mu is omitted
    derived = make_params(mesh3, 3.0, ConstantForcing(0.0), u0=u0,
                          rho_g=3.0, A_const=1.0)
    assert derived.mu[0] == pytest.approx(0.5, rel=1e-15)


def test_signed_power_half_identity():
    rng = np.random.default_rng(8)
    u = rng.uniform(-5, 5, 1000)
    alpha = 4.0 / 3.0
    w = signed_power(u, 0.5 * alpha)
    assert np.allclose(w * w, np.abs(u) ** alpha, rtol=1e-13)
