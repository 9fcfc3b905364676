"""Structured triangulations of rectangular domains.

Nodes live on a tensor grid over [0, Lx] x [0, Ly], ordered row-major
(y outer, x inner), so a nodal field, a plain 1-D float array of length
nx*ny, reshapes to the (ny, nx) node grid.  Each grid cell is split into
two triangles along its lower-left -> upper-right diagonal: triangle
t = 2 c + k of cell c (row-major on the (ny-1, nx-1) cell grid) is the
lower (ll, lr, ur) for k = 0 and the upper (ll, ur, ul) for k = 1, so a
per-triangle array reshapes to the (ny-1, nx-1, 2) cell grid.  Gradients
are constant per triangle, and the hat gradients are the constants
+-1/hx, +-1/hy, which keeps every assembly loop exactly evaluable.

The kernels are slice stencils on these two grids, with no gather and no
scatter: a gradient is four differences of shifted views of the node
grid, and per-vertex sums are adds into the four corner slices of the
node grid.  A StructuredMesh derives every array from (nx, ny, Lx, Ly),
so no mesh can carry another triangle order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "StructuredMesh",
    "build_mesh",
    "triangle_gradients",
    "scatter_vertex_sums",
    "require_nodal",
    "require_constrained",
]


@dataclass
class StructuredMesh:
    """Immutable triangulated grid with Dirichlet mask and lumped masses.

    Every array is derived from nx, ny, Lx and Ly, also by
    dataclasses.replace, and marked read-only; the mesh can be shared
    freely between threads.  `grad_basis[t, l]` holds the (constant)
    gradient of the hat function of local vertex l on triangle t.
    """

    nx: int
    ny: int
    Lx: float
    Ly: float
    nodes: np.ndarray = field(init=False)          # (n, 2) coordinates
    triangles: np.ndarray = field(init=False)      # (ntri, 3) vertex indices, counterclockwise
    boundary_mask: np.ndarray = field(init=False)  # (n,) True on the Dirichlet boundary
    interior_mask: np.ndarray = field(init=False)  # (n,) logical complement of boundary_mask
    lumped_mass: np.ndarray = field(init=False)    # (n,) nodal area weights m_i
    areas: np.ndarray = field(init=False)          # (ntri,) triangle areas
    grad_basis: np.ndarray = field(init=False)     # (ntri, 3, 2) hat-function gradients

    def __post_init__(self):
        nx, ny, Lx, Ly = self.nx, self.ny, self.Lx, self.Ly
        if not (isinstance(nx, (int, np.integer)) and isinstance(ny, (int, np.integer))):
            raise ValueError("node counts nx, ny must be integers")
        if nx < 3 or ny < 3:
            raise ValueError(f"need nx, ny >= 3 for an interior node, got ({nx}, {ny})")
        if not (Lx > 0 and Ly > 0):
            raise ValueError(f"edge lengths must be positive, got ({Lx}, {Ly})")
        self.nx, self.ny = nx, ny = int(nx), int(ny)
        self.Lx, self.Ly = Lx, Ly = float(Lx), float(Ly)
        # checked on floats, so that no array overflows or underflows
        if not 0.0 < Lx / (nx - 1) * (Ly / (ny - 1)) / 2 < np.inf:
            raise ValueError(f"the triangle area of a ({Lx}, {Ly}) domain on "
                             f"({nx}, {ny}) nodes is not a positive finite float")

        X, Y = np.meshgrid(np.linspace(0.0, Lx, nx), np.linspace(0.0, Ly, ny))
        self.nodes = np.column_stack([X.ravel(), Y.ravel()])
        # the lower (ll, lr, ur), then the upper (ll, ur, ul) triangle of each cell
        ll = (np.arange(ny - 1)[:, None] * nx + np.arange(nx - 1)).ravel()[:, None]
        self.triangles = np.empty((2 * ll.size, 3), dtype=np.int64)
        self.triangles[0::2] = ll + [0, 1, nx + 1]
        self.triangles[1::2] = ll + [0, nx + 1, nx]

        xs, ys = self.nodes[self.triangles].transpose(2, 0, 1)  # (ntri, 3) each
        # the second product has a zero factor on both triangles of a cell,
        # so this is the product of the cell's two spacings, positive by
        # the area check above
        twice_area = ((xs[:, 1] - xs[:, 0]) * (ys[:, 2] - ys[:, 0])
                      - (ys[:, 1] - ys[:, 0]) * (xs[:, 2] - xs[:, 0]))
        self.areas = 0.5 * twice_area
        # grad of hat l: ((y_j - y_k), (x_k - x_j)) / (2A), (l, j, k) cyclic
        j, k = [1, 2, 0], [2, 0, 1]
        self.grad_basis = (np.stack([ys[:, j] - ys[:, k], xs[:, k] - xs[:, j]], axis=2)
                           / twice_area[:, None, None])
        self.lumped_mass = np.bincount(
            self.triangles.ravel(), weights=np.repeat(self.areas / 3.0, 3), minlength=nx * ny
        )
        inner = np.zeros((ny, nx), dtype=bool)
        inner[1:-1, 1:-1] = True
        self.interior_mask = inner.ravel()
        self.boundary_mask = ~self.interior_mask
        for arr in (self.nodes, self.triangles, self.boundary_mask, self.interior_mask,
                    self.lumped_mass, self.areas, self.grad_basis):
            arr.setflags(write=False)

    @property
    def n_nodes(self) -> int:
        return self.nx * self.ny

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]

    @property
    def n_interior(self) -> int:
        return int(self.interior_mask.sum())

    @property
    def spacing(self) -> tuple[float, float]:
        return self.Lx / (self.nx - 1), self.Ly / (self.ny - 1)

    @property
    def cell_shape(self) -> tuple[int, int, int]:
        """Shape (ny-1, nx-1, 2) of a per-triangle array on the cell grid."""
        return self.ny - 1, self.nx - 1, 2

    @cached_property
    def interior_couplings(self) -> np.ndarray:
        """(4, ny, nx) read-only 0/1 mask, 1 where node (iy, ix) and the node
        at offset (0, 1, nx, nx+1)[k] from it (itself, east, north or
        north-east) are both interior: the entries of the step Jacobian kept."""
        inner = self.interior_mask.reshape(self.ny, self.nx)
        keep = np.zeros((4, self.ny, self.nx))
        keep[0] = inner
        keep[1, :, :-1] = inner[:, :-1] & inner[:, 1:]
        keep[2, :-1] = inner[:-1] & inner[1:]
        keep[3, :-1, :-1] = inner[:-1, :-1] & inner[1:, 1:]
        keep.setflags(write=False)
        return keep


def build_mesh(nx: int, ny: int, Lx: float, Ly: float) -> StructuredMesh:
    """Triangulate [0, Lx] x [0, Ly] with an nx-by-ny node grid.

    Requires nx, ny >= 3 (at least one interior node) and positive edge
    lengths.  Triangles are emitted cell by cell, lower triangle first:
    the cell with corners ll, lr, ul, ur produces (ll, lr, ur) and
    (ll, ur, ul).  The lumped mass of a node is one third of the total
    area of its incident triangles.
    """
    return StructuredMesh(nx, ny, Lx, Ly)


def triangle_gradients(mesh: StructuredMesh, f: np.ndarray) -> np.ndarray:
    """Gradient of the piecewise-linear interpolant of f, one 2-vector per triangle.

    The lower triangle of a cell takes its x-difference along the bottom
    edge and its y-difference along the right edge, the upper triangle
    along the top and left edges.  Returns an (ntri, 2) view of the
    component-major (2, ntri) result.
    """
    hx, hy = mesh.spacing
    f = f.reshape(mesh.ny, mesh.nx)
    g = np.empty((2,) + mesh.cell_shape)
    np.subtract(f[:-1, 1:], f[:-1, :-1], out=g[0, ..., 0])
    np.subtract(f[1:, 1:], f[:-1, 1:], out=g[1, ..., 0])
    np.subtract(f[1:, 1:], f[1:, :-1], out=g[0, ..., 1])
    np.subtract(f[1:, :-1], f[:-1, :-1], out=g[1, ..., 1])
    g[0] *= 1.0 / hx
    g[1] *= 1.0 / hy
    return g.reshape(2, -1).T


def scatter_vertex_sums(mesh: StructuredMesh, per_vertex: np.ndarray) -> np.ndarray:
    """Accumulate (3, ntri) per-vertex contributions into nodal sums.

    per_vertex[l, t] is added to node triangles[t, l]: each local vertex of
    the lower and of the upper triangles is one corner slice of the node grid.
    """
    v = per_vertex.reshape((3,) + mesh.cell_shape)
    out = np.zeros((mesh.ny, mesh.nx))
    np.add(v[0, ..., 0], v[0, ..., 1], out=out[:-1, :-1])  # ll of both
    out[:-1, 1:] += v[1, ..., 0]                            # lr of the lower
    out[1:, 1:] += v[2, ..., 0] + v[1, ..., 1]              # ur of both
    out[1:, :-1] += v[2, ..., 1]                            # ul of the upper
    return out.reshape(-1)


def require_nodal(mesh: StructuredMesh, v: np.ndarray, name: str = "field") -> np.ndarray:
    """Check that v is a nodal field of this mesh and return it as float array."""
    v = np.asarray(v, dtype=float)
    if v.shape != (mesh.n_nodes,):
        raise ValueError(f"{name} must have shape ({mesh.n_nodes},), got {v.shape}")
    return v


def require_constrained(mesh: StructuredMesh, v: np.ndarray, name: str = "field") -> np.ndarray:
    """As require_nodal, plus exact zeros on the Dirichlet boundary."""
    v = require_nodal(mesh, v, name)
    if np.any(v[mesh.boundary_mask] != 0.0):
        raise ValueError(f"{name} must vanish on the Dirichlet boundary")
    return v
