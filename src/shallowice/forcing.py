"""Source-term specifications and their time-slab averages.

The scheme consumes the exact average of the forcing over each time slab.
Polynomial-in-time presets integrate in closed form.  A gridded series,
piecewise linear in time, integrates exactly by one trapezoid rule over the
slab's ends and the samples strictly inside it, so a long series costs one
search and one weighted sum of rows per slab.  Everything else uses
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


def _gauss2_average(f, t0, t1):
    """Two-point Gauss average of f(t) over [t0, t1]; exact through cubics."""
    mid, half = 0.5 * (t0 + t1), (t1 - t0) * _GAUSS2
    return 0.5 * (f(mid - half) + f(mid + half))


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
        wave = _gauss2_average(self._wave, t0, t1)
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

    times must be finite and strictly increasing and cover every slab
    queried; values has one finite row of nodal samples per time.
    """

    def __init__(self, times, values):
        self.times = np.asarray(times, dtype=float)
        self.values = np.asarray(values, dtype=float)
        if self.times.ndim != 1 or self.times.size < 2:
            raise ValueError("need at least two time samples")
        if not (np.isfinite(self.times).all() and np.isfinite(self.values).all()):
            raise ValueError("times and values must be finite")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("time samples must be strictly increasing")
        if self.values.shape[0] != self.times.size:
            raise ValueError("values must have one row per time sample")

    def check_cover(self, t0, t1):
        if t0 < self.times[0] - 1e-12 or t1 > self.times[-1] + 1e-12:
            raise ValueError(
                f"the series on [{self.times[0]}, {self.times[-1]}] "
                f"does not cover [{t0}, {t1}]"
            )

    def slab_average(self, mesh, t0, t1):
        self.check_cover(t0, t1)
        # the exact integral of the interpolant over the slab clipped to the
        # samples: ends lie in intervals k, the samples times[lo:hi] between
        # them (one equal to the right end adds a zero-width trapezoid)
        times, values = self.times, self.values
        ends = np.array([max(t0, times[0]), min(t1, times[-1])])
        k = np.clip(np.searchsorted(times, ends, side="right") - 1, 0, times.size - 2)
        lo, hi = k + 1
        w = ((ends - times[k]) / (times[k + 1] - times[k]))[:, None]
        va, vb = (1.0 - w) * values[k] + w * values[k + 1]
        half = 0.5 * np.diff(np.concatenate((ends[:1], times[lo:hi], ends[1:])))
        inside = (half[:-1] + half[1:]) @ values[lo:hi]
        return (half[0] * va + inside + half[-1] * vb) / (t1 - t0)


class CallableForcing:
    """Arbitrary nodal forcing t -> values(mesh); averaged by Gauss-2 in time."""

    def __init__(self, fn):
        self.fn = fn

    def slab_average(self, mesh, t0, t1):
        return _gauss2_average(lambda t: self.fn(t, mesh), t0, t1)

