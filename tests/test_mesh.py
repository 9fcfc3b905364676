import dataclasses

import numpy as np
import pytest

from shallowice import build_mesh
from shallowice.mesh import triangle_gradients


def shoelace_area(pts):
    (x0, y0), (x1, y1), (x2, y2) = pts
    return 0.5 * abs((x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0))


def test_3x3_unit_square_layout(mesh3):
    assert mesh3.n_nodes == 9
    assert mesh3.n_triangles == 8
    interior = np.flatnonzero(mesh3.interior_mask)
    assert interior.tolist() == [4]
    assert mesh3.nodes[4].tolist() == [0.5, 0.5]


def test_triangle_count_and_area_sum():
    for nx, ny, Lx, Ly in [(3, 3, 1.0, 1.0), (4, 7, 2.5, 0.5), (9, 5, 3.0, 4.0)]:
        mesh = build_mesh(nx, ny, Lx, Ly)
        assert mesh.n_triangles == 2 * (nx - 1) * (ny - 1)
        assert np.all(mesh.areas > 0)
        assert abs(mesh.areas.sum() - Lx * Ly) <= 1e-12 * Lx * Ly


def test_lumped_mass_against_area_scan(mesh3):
    # independent oracle: accumulate one third of each shoelace area per vertex
    expected = np.zeros(mesh3.n_nodes)
    for tri in mesh3.triangles:
        a = shoelace_area(mesh3.nodes[tri])
        for v in tri:
            expected[v] += a / 3.0
    assert np.allclose(mesh3.lumped_mass, expected, rtol=1e-14, atol=0)
    # center node touches 6 triangles of area 1/8: m = 6*(1/8)/3 = 1/4
    assert mesh3.lumped_mass[4] == pytest.approx(0.25, rel=1e-14)
    assert mesh3.lumped_mass.sum() == pytest.approx(1.0, rel=1e-14)


def test_mass_sum_sweep():
    for n in range(3, 34):
        mesh = build_mesh(n, n, 2.0, 3.0)
        assert abs(mesh.lumped_mass.sum() - 6.0) <= 1e-12 * 6.0


def test_refinement_preserves_measure():
    coarse = build_mesh(5, 7, 2.0, 1.5)
    fine = build_mesh(10, 14, 2.0, 1.5)
    assert fine.n_triangles == 2 * 9 * 13
    assert coarse.lumped_mass.sum() == pytest.approx(fine.lumped_mass.sum(), rel=1e-13)


def test_boundary_mask_exact():
    mesh = build_mesh(4, 5, 2.0, 1.0)
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    expected = (x == 0.0) | (x == 2.0) | (y == 0.0) | (y == 1.0)
    assert np.array_equal(mesh.boundary_mask, expected)
    assert np.array_equal(mesh.interior_mask, ~expected)


def test_node_ordering_row_major():
    mesh = build_mesh(4, 3, 3.0, 2.0)
    xs = np.linspace(0, 3.0, 4)
    ys = np.linspace(0, 2.0, 3)
    for iy in range(3):
        for ix in range(4):
            assert mesh.nodes[iy * 4 + ix].tolist() == [xs[ix], ys[iy]]


def test_rejects_invalid_arguments():
    with pytest.raises(ValueError):
        build_mesh(2, 3, 1.0, 1.0)
    with pytest.raises(ValueError):
        build_mesh(3, 2, 1.0, 1.0)
    with pytest.raises(ValueError):
        build_mesh(3, 3, 0.0, 1.0)
    with pytest.raises(ValueError):
        build_mesh(3, 3, 1.0, -2.0)
    # a triangle area that underflows to 0 or overflows, rejected before
    # any array is built
    for length in (1e-200, 1e200):
        with pytest.raises(ValueError, match="triangle area"):
            build_mesh(5, 5, length, length)


def test_gradient_constant_field(mesh5):
    g = triangle_gradients(mesh5, np.ones(mesh5.n_nodes))
    assert np.allclose(g, 0.0, atol=1e-14)


def test_gradient_coordinate_fields(mesh5):
    gx = triangle_gradients(mesh5, mesh5.nodes[:, 0])
    assert np.allclose(gx, [1.0, 0.0], atol=1e-13)
    f = 3.0 * mesh5.nodes[:, 0] + 4.0 * mesh5.nodes[:, 1]
    g = triangle_gradients(mesh5, f)
    assert np.allclose(g, [3.0, 4.0], atol=1e-12)


def test_gradient_affine_reproduction():
    rng = np.random.default_rng(3)
    for nx, ny, Lx, Ly in [(3, 3, 1.0, 1.0), (6, 4, 2.0, 0.7), (9, 9, 1.0, 3.0)]:
        mesh = build_mesh(nx, ny, Lx, Ly)
        a, b, c = rng.uniform(-5, 5, 3)
        f = a + b * mesh.nodes[:, 0] + c * mesh.nodes[:, 1]
        g = triangle_gradients(mesh, f)
        assert np.max(np.abs(g - np.array([b, c]))) <= 1e-12 * max(1.0, abs(b), abs(c))


def test_mesh_arrays_read_only(mesh3):
    with pytest.raises(ValueError):
        mesh3.lumped_mass[0] = 7.0


def test_triangle_order_is_derived_from_the_grid(mesh5):
    # the slice kernels read the cell order from nx and ny, so a mesh
    # cannot be given other triangles, nor other arrays derived from them
    tri = mesh5.triangles.copy()
    tri[0] = [0, 1, mesh5.nx]
    tri[1] = [1, mesh5.nx + 1, mesh5.nx]
    for name, value in [("triangles", tri), ("triangles", mesh5.triangles[::-1]),
                        ("areas", mesh5.areas[::-1]), ("nodes", mesh5.nodes[::-1])]:
        with pytest.raises(ValueError):
            dataclasses.replace(mesh5, **{name: value})
    # replacing a grid value derives every array again
    wide = dataclasses.replace(mesh5, Lx=2.0)
    assert np.array_equal(wide.nodes, build_mesh(5, 5, 2.0, 1.0).nodes)
    assert np.array_equal(wide.triangles, mesh5.triangles)
    with pytest.raises(ValueError):
        dataclasses.replace(mesh5, nx=2)


def test_interior_couplings_mask():
    # entry [k, i] is 1 exactly where node i and node i + (0, 1, nx, nx+1)[k]
    # are both interior nodes of one stencil (no wrap across a row end)
    for nx, ny in [(3, 3), (6, 4), (4, 7)]:
        mesh = build_mesh(nx, ny, 1.0, 1.0)
        keep = mesh.interior_couplings
        assert keep.shape == (4, ny, nx)
        iy, ix = np.divmod(np.arange(mesh.n_nodes), nx)
        for k, (dy, dx) in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)]):
            jy, jx = iy + dy, ix + dx
            both = ((iy > 0) & (iy < ny - 1) & (ix > 0) & (ix < nx - 1)
                    & (jy < ny - 1) & (jx < nx - 1))
            assert np.array_equal(keep[k].ravel(), both.astype(float)), (nx, ny, k)
        with pytest.raises(ValueError):
            keep[0, 1, 1] = 0.0
