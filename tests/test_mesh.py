import numpy as np
import pytest

from oscille import core, mesh


def test_build_domain_mesh_examples():
    m = mesh.build_domain_mesh(((0.0, 1.0),), 0.25)
    assert m.nodes_per_axis == (5,)
    assert m.h == (0.25,)
    m2 = mesh.build_domain_mesh(((0.0, 1.0), (0.0, 1.0)), 0.5)
    assert m2.nodes_per_axis == (3, 3)
    m3 = mesh.build_domain_mesh(((0.0, 1.0),), 0.3)
    assert m3.h[0] == pytest.approx(0.25)  # rounded down to divide evenly


def test_node_cap(monkeypatch):
    with pytest.raises(mesh.ExcessiveSize):
        mesh.build_domain_mesh(((0.0, 1.0), (0.0, 1.0)), 1e-5)
    monkeypatch.setenv("OSCILLE_NODE_CAP", "10")
    assert mesh.node_cap() == 10
    with pytest.raises(mesh.ExcessiveSize):
        mesh.build_domain_mesh(((0.0, 1.0),), 0.01)


def test_cell_mesh():
    m = mesh.build_cell_mesh(4, 1)
    assert m.periodic and m.n_elements == 4 and m.n_nodes == 4
    m2 = mesh.build_cell_mesh(8, 2)
    assert m2.n_elements == 64 and m2.n_nodes == 64
    with pytest.raises(ValueError):
        mesh.build_cell_mesh(3, 1)


def test_extents_reproduced_exactly():
    m = mesh.build_domain_mesh(((0.0, 1.0), (-2.0, 3.0)), 0.37)
    for k in range(2):
        c = m.axis_coords(k)
        assert c[0] == m.extents[k][0]
        assert c[-1] == m.extents[k][1]


def test_interior_mask_1d_example():
    m = mesh.build_domain_mesh(((0.0, 1.0),), 0.25)
    mask = mesh.interior_mask(m, 0.25)
    np.testing.assert_array_equal(mask.included, [False, True, True, False])
    assert mesh.interior_mask(m, 0.0).included.all()


def test_interior_mask_2d_central_block():
    m = mesh.build_domain_mesh(((0.0, 1.0), (0.0, 1.0)), 0.25)
    mask = mesh.interior_mask(m, 0.25)
    grid = mask.included.reshape(4, 4)
    expected = np.zeros((4, 4), dtype=bool)
    expected[1:3, 1:3] = True
    np.testing.assert_array_equal(grid, expected)


def test_interior_mask_monotone():
    m = mesh.build_domain_mesh(((0.0, 1.0), (0.0, 1.0)), 1 / 16)
    small = mesh.interior_mask(m, 0.3).included
    large = mesh.interior_mask(m, 0.1).included
    assert np.all(large[small])  # larger margin selects a subset


def test_interior_mask_errors():
    m = mesh.build_domain_mesh(((0.0, 1.0),), 0.25)
    with pytest.raises(ValueError):
        mesh.interior_mask(m, 0.6)
    m2 = mesh.build_domain_mesh(((0.0, 1.0),), 1 / 3)
    with pytest.raises(mesh.EmptyRegion):
        mesh.interior_mask(m2, 0.45)


def test_boundary_strip_1d_example():
    m = mesh.build_domain_mesh(((0.0, 1.0),), 1 / 8)
    mask = mesh.boundary_strip_mask(m, 1 / 8)  # width 1/16 per side
    expected = np.zeros(8, dtype=bool)
    expected[0] = expected[-1] = True
    np.testing.assert_array_equal(mask.included, expected)


def test_boundary_strip_2d_frame():
    m = mesh.build_domain_mesh(((0.0, 1.0), (0.0, 1.0)), 1 / 16)
    mask = mesh.boundary_strip_mask(m, 1 / 8)  # width ~0.088: one element ring at h=1/16
    grid = mask.included.reshape(16, 16)
    assert grid[0].all() and grid[-1].all() and grid[:, 0].all() and grid[:, -1].all()
    assert not grid[2:-2, 2:-2].any()


def test_boundary_strip_whole_domain():
    m = mesh.build_domain_mesh(((0.0, 1.0),), 0.25)
    assert mesh.boundary_strip_mask(m, 10.0).included.all()


def test_strip_and_interior_partition():
    # no element in both regions when margin exceeds the strip width
    m = mesh.build_domain_mesh(((0.0, 1.0), (0.0, 1.0)), 1 / 32)
    eps = 1 / 8
    margin = mesh.r_cell(2) * eps + 2 / 32
    strip = mesh.boundary_strip_mask(m, eps).included
    inner = mesh.interior_mask(m, margin).included
    assert not np.any(strip & inner)


def test_masks_match_corner_node_centroids(monkeypatch):
    # centroids from per-axis midpoints equal the lower corner node plus h / 2 bit for bit
    m = mesh.build_domain_mesh(((0.0, 1.0), (-0.25, 0.5)), 1 / 12)
    assert m.nodes_per_axis[0] != m.nodes_per_axis[1]
    new = (mesh.interior_mask(m, 0.2).included, mesh.boundary_strip_mask(m, 0.1).included)

    def corner_centroids(mesh_):
        return mesh_.node_coords()[mesh.element_corner_nodes(mesh_)[:, 0]] + np.array(mesh_.h) / 2.0

    assert np.array_equal(mesh.element_centroids(m), corner_centroids(m))
    monkeypatch.setattr(mesh, "element_centroids", corner_centroids)
    assert np.array_equal(mesh.interior_mask(m, 0.2).included, new[0])
    assert np.array_equal(mesh.boundary_strip_mask(m, 0.1).included, new[1])


def test_grid_function_length_check():
    m = mesh.build_domain_mesh(((0.0, 1.0),), 0.25)
    with pytest.raises(mesh.MeshMismatch):
        mesh.GridFunction(m, np.ones(4))


def test_quadrature_integrates_bilinear_exactly():
    m = mesh.build_domain_mesh(((0.0, 1.0), (0.0, 1.0)), 0.25)
    q = mesh.quadrature(m)
    u = mesh.grid_from_callable(m, lambda p: 2 * p[:, 0] + 3 * p[:, 1] - 1)
    vals = mesh.values_at_gauss(u)
    integral = float((vals @ q.weights).sum())
    assert integral == pytest.approx(2 * 0.5 + 3 * 0.5 - 1, abs=1e-14)
    g = mesh.grads_at_gauss(u)
    np.testing.assert_allclose(g[:, :, 0], 2.0, atol=1e-12)
    np.testing.assert_allclose(g[:, :, 1], 3.0, atol=1e-12)


_RULE_MESHES = [
    pytest.param(mesh.build_domain_mesh(((0.1, 1.37),), 1 / 40), id="1d"),
    pytest.param(mesh.build_domain_mesh(((0.0, 1.0), (0.0, 0.5)), 1 / 24), id="2d-nonsquare"),
    pytest.param(mesh.build_cell_mesh(8, 2), id="2d-periodic-cell"),
]


@pytest.mark.parametrize("m", _RULE_MESHES)
def test_quadrature_weights_all_equal(m):
    # the Gauss-rule norms factor the weight out as w^(1/p)
    w = mesh.quadrature(m).weights
    assert w.shape == (2**m.dim,)
    assert np.all(w == np.prod(m.h) / 2**m.dim)


@pytest.mark.parametrize("m", _RULE_MESHES)
def test_grads_at_gauss_matches_einsum(m):
    u = mesh.GridFunction(m, np.random.default_rng(3).standard_normal(m.n_nodes))
    q = mesh.quadrature(m)
    expected = np.einsum("ec,gcd->egd", u.values[q.corners], q.shape_grads)
    g = mesh.grads_at_gauss(u)
    assert g.shape == (m.n_elements, 2**m.dim, m.dim)
    np.testing.assert_allclose(g, expected, rtol=1e-13, atol=1e-13 * np.abs(expected).max())


def test_periodic_corner_wrap():
    m = mesh.build_cell_mesh(4, 1)
    corners = mesh.element_corner_nodes(m)
    assert corners[-1, 1] == 0  # last element wraps to the first node



def test_node_cap_environment(monkeypatch):
    monkeypatch.setenv("OSCILLE_NODE_CAP", "1000")
    assert mesh.node_cap() == 1000
    # a cap below 1 is a config error too, not an oversized mesh
    for bad in ("lots", "0", "-1"):
        monkeypatch.setenv("OSCILLE_NODE_CAP", bad)
        with pytest.raises(core.ConfigError, match="OSCILLE_NODE_CAP"):
            mesh.node_cap()
