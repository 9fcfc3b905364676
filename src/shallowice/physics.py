"""Constitutive laws and pointwise transforms.

The model works in a transformed thickness variable u with H = u^((p-1)/(2p)),
which removes the gradient degeneracy of the raw thickness equation at the
ice margin.  The bed is flat and the basal sliding velocity is zero
throughout this package, so the flux carries no drift or transport term.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .mesh import StructuredMesh, require_nodal, triangle_gradients

__all__ = [
    "PhysicalRangeWarning",
    "alpha_of",
    "thickness_from_u",
    "u_from_thickness",
    "glen_mu",
    "neg_part",
    "signed_power",
    "phi_power_reg",
    "dphi_power_reg",
    "flux_weight",
    "diagnostic_flux",
    "PhysicalParams",
    "make_params",
]

# experimentally suggested range for the Glen exponent
P_RANGE = (2.8, 5.0)


class PhysicalRangeWarning(UserWarning):
    """A physical parameter lies outside its experimentally suggested range."""


def alpha_of(p: float) -> float:
    """Exponent of the power-law time term, alpha = (3p - 1) / (2p).

    Lies strictly between 1 and 2 for every p > 1.
    """
    p = float(p)
    if p <= 1.0:
        raise ValueError(f"Glen exponent p must exceed 1, got {p}")
    return (3.0 * p - 1.0) / (2.0 * p)


def thickness_from_u(u, p: float):
    """Ice thickness H = u^((p-1)/(2p)) from the transformed variable u >= 0."""
    u = np.asarray(u, dtype=float)
    if np.any(u < 0):
        raise ValueError("u must be nonnegative")
    if p <= 1.0:
        raise ValueError(f"Glen exponent p must exceed 1, got {p}")
    return u ** ((p - 1.0) / (2.0 * p))


def u_from_thickness(H, p: float):
    """Transformed variable u = H^(2p/(p-1)); inverse of thickness_from_u."""
    H = np.asarray(H, dtype=float)
    if np.any(H < 0):
        raise ValueError("H must be nonnegative")
    if p <= 1.0:
        raise ValueError(f"Glen exponent p must exceed 1, got {p}")
    return H ** (2.0 * p / (p - 1.0))


def glen_mu(A_const: float, rho_g: float, p: float) -> float:
    """Diffusivity coefficient of the Glen-law flux for constant ice softness.

    mu = 2 (rho*g*(p-1)/(2p))^(p-1) * A / (p+1).  The factor 1/(p+1) is the
    closed form of the depth integral of A*(1-s)^p when A is constant.
    """
    if A_const <= 0 or rho_g <= 0:
        raise ValueError("A_const and rho_g must be positive")
    if p <= 1.0:
        raise ValueError(f"Glen exponent p must exceed 1, got {p}")
    base = rho_g * (p - 1.0) / (2.0 * p)
    return 2.0 * base ** (p - 1.0) * A_const / (p + 1.0)


def neg_part(f):
    """Negative part {f}^- = (|f| - f)/2 = max(-f, 0), always >= 0."""
    f = np.asarray(f, dtype=float)
    return 0.5 * (np.abs(f) - f)


def signed_power(u, q: float):
    """Odd power map sign(u) |u|^q for q > 0."""
    if q <= 0:
        raise ValueError(f"exponent must be positive, got {q}")
    u = np.asarray(u, dtype=float)
    return np.sign(u) * np.abs(u) ** q


def phi_power_reg(u, alpha: float, eps: float):
    """Time-term nonlinearity (u^2 + eps^2)^((alpha-2)/2) u for alpha in (1, 2).

    eps = 0 gives |u|^(alpha-2) u, extended by 0 at u = 0.
    """
    if not 1.0 < alpha < 2.0:
        raise ValueError(f"alpha must lie in (1, 2), got {alpha}")
    if eps == 0.0:
        return signed_power(u, alpha - 1.0)
    u = np.asarray(u, dtype=float)
    return (u * u + eps * eps) ** (0.5 * (alpha - 2.0)) * u


def dphi_power_reg(u, alpha: float, eps: float):
    """Derivative of phi_power_reg with respect to u.

    Equals (u^2 + eps^2)^((alpha-4)/2) ((alpha-1) u^2 + eps^2); positive for
    eps > 0.  For eps = 0 the value is (alpha-1)|u|^(alpha-2), which blows up
    at u = 0 -- callers must keep u away from zero in that case.
    """
    u = np.asarray(u, dtype=float)
    if eps == 0.0:
        return (alpha - 1.0) * np.abs(u) ** (alpha - 2.0)
    s = u * u + eps * eps
    return s ** (0.5 * (alpha - 4.0)) * ((alpha - 1.0) * u * u + eps * eps)


def flux_weight(q: np.ndarray, mu: np.ndarray, p: float) -> np.ndarray:
    """Per-triangle p-Laplacian weight mu q^((p-2)/2), q = |grad u|^2 (+ delta^2).

    mu may carry the triangle areas.  Where q = 0 and p < 2 the weight is
    set to 0, so the flux weight * grad u is 0 on flat triangles for every
    p > 1 even where the coefficient alone diverges.
    """
    expo = 0.5 * (p - 2.0)
    if expo >= 0.0:
        return mu * q**expo
    w = np.zeros_like(q)
    np.power(q, expo, out=w, where=q > 0.0)
    w *= mu
    return w


def diagnostic_flux(mesh: StructuredMesh, u: np.ndarray, params: "PhysicalParams") -> np.ndarray:
    """Per-triangle volume flux Q = -mu |grad u|^(p-2) grad u (flat bed, no sliding)."""
    u = require_nodal(mesh, u, "u")
    g = triangle_gradients(mesh, u)
    return -flux_weight(np.einsum("td,td->t", g, g), params.mu, params.p)[:, None] * g


@dataclass
class PhysicalParams:
    """Physical configuration of a run.

    mu is stored per triangle, whether given or derived by make_params from
    the Glen law.  Every value must be finite and positive, the paper's
    0 < mu1 <= mu <= mu2 < inf, and the check runs again on any
    replacement of mu.  alpha is derived from p.  u0 is the initial
    transformed-thickness field and must be nonnegative with zero boundary
    values.
    """

    p: float
    mu: np.ndarray
    forcing: object
    u0: np.ndarray
    alpha: float = field(init=False)

    def __post_init__(self):
        self.p = float(self.p)
        self.alpha = alpha_of(self.p)
        if not P_RANGE[0] <= self.p <= P_RANGE[1]:
            warnings.warn(
                f"Glen exponent p = {self.p} outside the suggested range {P_RANGE}",
                PhysicalRangeWarning,
                stacklevel=3,
            )
        if not np.all(np.isfinite(self.mu) & (self.mu > 0)):
            raise ValueError("every mu must be finite and positive")


def make_params(
    mesh: StructuredMesh,
    p: float,
    forcing,
    *,
    u0: np.ndarray | None = None,
    H0: np.ndarray | None = None,
    mu=None,
    rho_g: float = 1.0,
    A_const: float = 1.0,
) -> PhysicalParams:
    """Assemble PhysicalParams for a mesh.

    Exactly one of u0 / H0 must be given (H0 is converted through
    u_from_thickness).  mu may be a scalar, a per-triangle array, or None,
    in which case it is derived from the Glen law via glen_mu(A_const,
    rho_g, p).
    """
    if (u0 is None) == (H0 is None):
        raise ValueError("provide exactly one of u0 or H0")
    if H0 is not None:
        H0 = require_nodal(mesh, H0, "H0")
        u0 = u_from_thickness(H0, p)
    u0 = require_nodal(mesh, u0, "u0")
    if np.any(u0 < 0):
        raise ValueError("u0 must be nonnegative everywhere")
    if np.any(u0[mesh.boundary_mask] != 0.0):
        raise ValueError("u0 must vanish on the Dirichlet boundary")
    if not np.any(u0 > 0):
        warnings.warn("u0 is identically zero", UserWarning, stacklevel=2)

    if mu is None:
        mu_arr = np.full(mesh.n_triangles, glen_mu(A_const, rho_g, p))
    else:
        mu_arr = np.asarray(mu, dtype=float)
        if mu_arr.ndim == 0:
            mu_arr = np.full(mesh.n_triangles, float(mu_arr))
        elif mu_arr.shape != (mesh.n_triangles,):
            raise ValueError(
                f"mu must be scalar or shape ({mesh.n_triangles},), got {mu_arr.shape}"
            )
    mu_arr = mu_arr.copy()
    mu_arr.setflags(write=False)
    return PhysicalParams(
        p=float(p),
        mu=mu_arr,
        forcing=forcing,
        u0=u0.copy(),
    )
