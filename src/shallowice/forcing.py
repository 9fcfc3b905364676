"""Source-term specifications and their time-slab averages.

The scheme consumes the exact average of the forcing over each time slab.
Polynomial-in-time presets integrate in closed form; everything else uses
two-point Gauss quadrature in time, which is exact through cubics.  A
forcing object only evaluates; a run's forcing is described by the
`forcing` section of its config.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import StructuredMesh

__all__ = [
    "poly_bump",
    "ConstantForcing",
    "LinearForcing",
    "SeasonalForcing",
    "MeltForcing",
    "GriddedForcing",
    "CallableForcing",
]

_GAUSS2 = 0.5 / np.sqrt(3.0)


def poly_bump(mesh: StructuredMesh) -> np.ndarray:
    """Smooth polynomial bump 16 x(Lx-x) y(Ly-y) / (Lx Ly)^2, peaking at 1."""
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    return 16.0 * x * (mesh.Lx - x) * y * (mesh.Ly - y) / (mesh.Lx**2 * mesh.Ly**2)


@dataclass(frozen=True)
class ConstantForcing:
    """Spatially uniform, constant in time."""

    value: float

    def slab_average(self, mesh, t0, t1):
        return np.full(mesh.n_nodes, self.value)


@dataclass(frozen=True)
class LinearForcing:
    """Spatially uniform ramp a0 + a1 t; slab averages are exact."""

    a0: float
    a1: float

    def slab_average(self, mesh, t0, t1):
        return np.full(mesh.n_nodes, self.a0 + self.a1 * 0.5 * (t0 + t1))


@dataclass(frozen=True)
class SeasonalForcing:
    """base + amplitude sin(2 pi t / period) carried by a smooth spatial bump."""

    base: float
    amplitude: float
    period: float

    def __post_init__(self):
        if self.period <= 0:
            raise ValueError("seasonal period must be positive")

    def _wave(self, t):
        return np.sin(2.0 * np.pi * t / self.period)

    def slab_average(self, mesh, t0, t1):
        mid, half = 0.5 * (t0 + t1), (t1 - t0) * _GAUSS2
        wave = 0.5 * (self._wave(mid - half) + self._wave(mid + half))
        return self.base + self.amplitude * wave * poly_bump(mesh)


@dataclass(frozen=True)
class MeltForcing:
    """Constant negative balance; drives the state into the penalty."""

    rate: float

    def __post_init__(self):
        if not self.rate < 0:
            raise ValueError(f"melt rate must be negative, got {self.rate}")

    def slab_average(self, mesh, t0, t1):
        return np.full(mesh.n_nodes, self.rate)


class GriddedForcing:
    """Nodal time series, piecewise linear in t; slab averages are exact.

    times must be strictly increasing and cover every slab queried; values
    has one row of nodal samples per time.
    """

    def __init__(self, times, values):
        self.times = np.asarray(times, dtype=float)
        self.values = np.asarray(values, dtype=float)
        if self.times.ndim != 1 or self.times.size < 2:
            raise ValueError("need at least two time samples")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("time samples must be strictly increasing")
        if self.values.shape[0] != self.times.size:
            raise ValueError("values must have one row per time sample")

    def evaluate(self, mesh, t):
        self.check_cover(t, t)
        k = np.searchsorted(self.times, t, side="right") - 1
        k = min(max(k, 0), self.times.size - 2)
        w = (t - self.times[k]) / (self.times[k + 1] - self.times[k])
        return (1.0 - w) * self.values[k] + w * self.values[k + 1]

    def check_cover(self, t0, t1):
        if t0 < self.times[0] - 1e-12 or t1 > self.times[-1] + 1e-12:
            raise ValueError(
                f"slab [{t0}, {t1}] outside the sampled range "
                f"[{self.times[0]}, {self.times[-1]}]"
            )

    def slab_average(self, mesh, t0, t1):
        self.check_cover(t0, t1)
        # integrate the piecewise-linear interpolant exactly: trapezoid on
        # every breakpoint interval clipped to [t0, t1]
        knots = self.times
        total = np.zeros(self.values.shape[1])
        for k in range(knots.size - 1):
            a, b = max(knots[k], t0), min(knots[k + 1], t1)
            if b <= a:
                continue
            va = self.evaluate(mesh, a)
            vb = self.evaluate(mesh, b)
            total += 0.5 * (va + vb) * (b - a)
        return total / (t1 - t0)


class CallableForcing:
    """Arbitrary nodal forcing t -> values(mesh); averaged by Gauss-2 in time."""

    def __init__(self, fn):
        self.fn = fn

    def evaluate(self, mesh, t):
        return np.asarray(self.fn(t, mesh), dtype=float)

    def slab_average(self, mesh, t0, t1):
        mid, half = 0.5 * (t0 + t1), (t1 - t0) * _GAUSS2
        return 0.5 * (self.evaluate(mesh, mid - half) + self.evaluate(mesh, mid + half))

