"""Structured triangulations of rectangular domains.

Nodes live on a tensor grid over [0, Lx] x [0, Ly], ordered row-major
(y outer, x inner).  Each grid cell is split into two triangles along its
lower-left -> upper-right diagonal, which makes piecewise-linear gradients
constant per triangle and keeps every assembly loop exactly evaluable.
Nodal fields are plain 1-D float arrays of length nx*ny.

The per-triangle kernels run component-major: `vertex_cols` (3, ntri) and
`basis_cols` (3, 2, ntri) hold the triangle vertices and hat gradients as
contiguous rows of length ntri, derived once from `triangles` and
`grad_basis`.  A gradient is then a gather and six multiply-adds on such
rows, per-vertex sums are scattered by one bincount over the raveled
rows, and the symmetric element matrices by adding the row of each upper
entry (PAIRS) at its slots in the diagonal and three upper stencil rows.
"""

from __future__ import annotations

from dataclasses import dataclass
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

# the upper entries (a, b), a <= b, of a symmetric 3x3 element matrix
PAIRS = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))


@dataclass
class StructuredMesh:
    """Immutable triangulated grid with Dirichlet mask and lumped masses.

    All arrays are marked read-only after construction; the mesh can be
    shared freely between threads.  `grad_basis[t, l]` holds the (constant)
    gradient of the hat function of local vertex l on triangle t.
    """

    nx: int
    ny: int
    Lx: float
    Ly: float
    nodes: np.ndarray          # (n, 2) coordinates
    triangles: np.ndarray      # (ntri, 3) vertex indices, counterclockwise
    boundary_mask: np.ndarray  # (n,) True on the Dirichlet boundary
    interior_mask: np.ndarray  # (n,) logical complement of boundary_mask
    lumped_mass: np.ndarray    # (n,) nodal area weights m_i
    areas: np.ndarray          # (ntri,) triangle areas
    grad_basis: np.ndarray     # (ntri, 3, 2) hat-function gradients

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

    @cached_property
    def vertex_cols(self) -> np.ndarray:
        """(3, ntri) read-only contiguous copy of triangles.T: row l holds
        local vertex l of every triangle."""
        cols = np.ascontiguousarray(self.triangles.T)
        cols.setflags(write=False)
        return cols

    @cached_property
    def basis_cols(self) -> np.ndarray:
        """(3, 2, ntri) read-only contiguous copy of grad_basis.transpose(1, 2, 0):
        row basis_cols[l, d] holds component d of the gradient of hat l on
        every triangle."""
        cols = np.ascontiguousarray(self.grad_basis.transpose(1, 2, 0))
        cols.setflags(write=False)
        return cols

    @cached_property
    def stencil_slots(self) -> np.ndarray:
        """(6 ntri,) read-only slot k n + min(i, j) of each upper element entry, or 4 n.

        Entry (a, b) = PAIRS[e] of triangle t couples nodes
        i = vertex_cols[a, t] and j = vertex_cols[b, t], |j - i| = _stencil_offsets(nx)[k],
        and lands at slot k n + min(i, j) of the column-major (4, n) stencil
        rows, so summing element matrices into stencil rows is a scatter-add
        over these slots.  Every entry touching a boundary node lands in the
        discard slot 4 n instead.  Slots are stored in that (e, t) order.
        """
        n = self.n_nodes
        i, j = self.vertex_cols[np.array(PAIRS).T]  # (6, ntri) each
        offset = np.abs(j - i)
        offsets = _stencil_offsets(self.nx)
        k = np.minimum(np.searchsorted(offsets, offset), len(offsets) - 1)
        if not np.array_equal(offsets[k], offset):
            raise ValueError("a triangle couples nodes outside the 7-point stencil")
        slot = k * n + np.minimum(i, j)
        slot[self.boundary_mask[i] | self.boundary_mask[j]] = 4 * n
        slots = slot.ravel()
        slots.setflags(write=False)
        return slots


def _stencil_offsets(nx: int) -> np.ndarray:
    """Node offsets (0, +1, +nx, +nx+1) of the upper half of the 7-point stencil."""
    return np.array([0, 1, nx, nx + 1])


def build_mesh(nx: int, ny: int, Lx: float, Ly: float) -> StructuredMesh:
    """Triangulate [0, Lx] x [0, Ly] with an nx-by-ny node grid.

    Requires nx, ny >= 3 (at least one interior node) and positive edge
    lengths.  Triangles are emitted cell by cell, lower triangle first:
    the cell with corners ll, lr, ul, ur produces (ll, lr, ur) and
    (ll, ur, ul).  The lumped mass of a node is one third of the total
    area of its incident triangles.
    """
    if not (isinstance(nx, (int, np.integer)) and isinstance(ny, (int, np.integer))):
        raise ValueError("node counts nx, ny must be integers")
    if nx < 3 or ny < 3:
        raise ValueError(f"need nx, ny >= 3 for an interior node, got ({nx}, {ny})")
    if not (Lx > 0 and Ly > 0):
        raise ValueError(f"edge lengths must be positive, got ({Lx}, {Ly})")

    nx, ny = int(nx), int(ny)
    Lx, Ly = float(Lx), float(Ly)
    x = np.linspace(0.0, Lx, nx)
    y = np.linspace(0.0, Ly, ny)
    X, Y = np.meshgrid(x, y)
    nodes = np.column_stack([X.ravel(), Y.ravel()])

    ix, iy = np.meshgrid(np.arange(nx - 1), np.arange(ny - 1))
    ll = (iy * nx + ix).ravel()
    lr = ll + 1
    ul = ll + nx
    ur = ul + 1
    ncell = ll.size
    triangles = np.empty((2 * ncell, 3), dtype=np.int64)
    triangles[0::2] = np.column_stack([ll, lr, ur])
    triangles[1::2] = np.column_stack([ll, ur, ul])

    p0 = nodes[triangles[:, 0]]
    p1 = nodes[triangles[:, 1]]
    p2 = nodes[triangles[:, 2]]
    e1 = p1 - p0
    e2 = p2 - p0
    twice_area = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    if np.any(twice_area <= 0):
        raise RuntimeError("triangulation produced a non-positive triangle area")
    areas = 0.5 * twice_area

    # grad of hat l: ((y_j - y_k), (x_k - x_j)) / (2A), (l, j, k) cyclic
    grad_basis = np.empty((triangles.shape[0], 3, 2))
    xs = np.stack([p0[:, 0], p1[:, 0], p2[:, 0]], axis=1)
    ys = np.stack([p0[:, 1], p1[:, 1], p2[:, 1]], axis=1)
    for l in range(3):
        j, k = (l + 1) % 3, (l + 2) % 3
        grad_basis[:, l, 0] = (ys[:, j] - ys[:, k]) / twice_area
        grad_basis[:, l, 1] = (xs[:, k] - xs[:, j]) / twice_area

    lumped_mass = np.bincount(
        triangles.ravel(), weights=np.repeat(areas / 3.0, 3), minlength=nx * ny
    )

    col = np.tile(np.arange(nx), ny)
    row = np.repeat(np.arange(ny), nx)
    boundary_mask = (col == 0) | (col == nx - 1) | (row == 0) | (row == ny - 1)

    mesh = StructuredMesh(
        nx=nx,
        ny=ny,
        Lx=Lx,
        Ly=Ly,
        nodes=nodes,
        triangles=triangles,
        boundary_mask=boundary_mask,
        interior_mask=~boundary_mask,
        lumped_mass=lumped_mass,
        areas=areas,
        grad_basis=grad_basis,
    )
    for arr in (mesh.nodes, mesh.triangles, mesh.boundary_mask, mesh.interior_mask,
                mesh.lumped_mass, mesh.areas, mesh.grad_basis):
        arr.setflags(write=False)
    return mesh


def triangle_gradients(mesh: StructuredMesh, f: np.ndarray) -> np.ndarray:
    """Gradient of the piecewise-linear interpolant of f, one 2-vector per triangle.

    Returns an (ntri, 2) view of the component-major (2, ntri) result.
    """
    fv = f[mesh.vertex_cols]
    basis = mesh.basis_cols
    g = fv[0] * basis[0]
    g += fv[1] * basis[1]
    g += fv[2] * basis[2]
    return g.T


def scatter_vertex_sums(mesh: StructuredMesh, per_vertex: np.ndarray) -> np.ndarray:
    """Accumulate (3, ntri) per-vertex contributions into nodal sums.

    per_vertex[l, t] is added to node vertex_cols[l, t].  The reduction is
    a commutative sum; any triangle ordering yields the same result up to
    floating-point reassociation.
    """
    return np.bincount(
        mesh.vertex_cols.ravel(), weights=per_vertex.ravel(), minlength=mesh.n_nodes
    )


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
