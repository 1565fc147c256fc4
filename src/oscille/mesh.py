"""Structured meshes, nodal grid functions, region masks and quadrature.

Meshes are uniform tensor grids on intervals (d=1) or axis-aligned
rectangles (d=2) with linear/bilinear nodal elements. Periodic meshes
identify the first and last node layer and are used for the unit cell.
Element-based masks select quadrature subdomains for restricted norms.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import ConfigError, NumericalError

DEFAULT_NODE_CAP = 4_000_000
GAUSS_1D = (-1.0 / math.sqrt(3.0), 1.0 / math.sqrt(3.0))  # on [-1, 1], weights 1


class ExcessiveSize(NumericalError):
    pass


class EmptyRegion(NumericalError):
    pass


class MeshMismatch(ConfigError):
    pass


def node_cap():
    v = os.environ.get("OSCILLE_NODE_CAP")
    try:
        return int(v) if v else DEFAULT_NODE_CAP
    except ValueError:
        raise ConfigError(f"OSCILLE_NODE_CAP must be an integer, got {v!r}") from None


def r_cell(d):
    """Half the cell diameter: 2*r_cell = sqrt(d)."""
    return math.sqrt(d) / 2.0


@dataclass(frozen=True)
class Mesh:
    dim: int
    extents: tuple  # ((lo, hi), ...) per axis
    nodes_per_axis: tuple  # stored node counts
    periodic: bool = False

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ConfigError("only d=1 and d=2 are supported")
        if len(self.extents) != self.dim or len(self.nodes_per_axis) != self.dim:
            raise ConfigError("extents/nodes_per_axis must match dim")

    @property
    def h(self):
        out = []
        for (lo, hi), n in zip(self.extents, self.nodes_per_axis):
            cells = n if self.periodic else n - 1
            out.append((hi - lo) / cells)
        return tuple(out)

    @property
    def n_nodes(self):
        return int(np.prod(self.nodes_per_axis))

    @property
    def cells_per_axis(self):
        return tuple(n if self.periodic else n - 1 for n in self.nodes_per_axis)

    @property
    def n_elements(self):
        return int(np.prod(self.cells_per_axis))

    def axis_coords(self, k):
        lo, hi = self.extents[k]
        n = self.nodes_per_axis[k]
        if self.periodic:
            return lo + (hi - lo) * np.arange(n) / n
        return np.linspace(lo, hi, n)

    def node_coords(self):
        """All node coordinates, shape (n_nodes, dim), C-order (last axis fastest)."""
        axes = [self.axis_coords(k) for k in range(self.dim)]
        if self.dim == 1:
            return axes[0][:, None]
        xx = np.meshgrid(*axes, indexing="ij")
        return np.stack([a.ravel() for a in xx], axis=1)


@dataclass
class GridFunction:
    mesh: Mesh
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float).ravel()
        if self.values.shape[0] != self.mesh.n_nodes:
            raise MeshMismatch(
                f"values length {self.values.shape[0]} != node count {self.mesh.n_nodes}"
            )

    def reshaped(self):
        return self.values.reshape(self.mesh.nodes_per_axis)


def grid_from_callable(mesh, fn):
    """Sample a callable of points (n, d) -> (n,) onto the mesh nodes."""
    return GridFunction(mesh, np.asarray(fn(mesh.node_coords()), dtype=float))


@dataclass
class RegionMask:
    mesh: Mesh
    included: np.ndarray  # bool per element, C-order over cells_per_axis

    def __post_init__(self):
        self.included = np.asarray(self.included, dtype=bool).ravel()
        if self.included.shape[0] != self.mesh.n_elements:
            raise MeshMismatch("mask length must equal element count")


def build_domain_mesh(extents, h_target, cap=None):
    """Uniform mesh with spacing at most h_target per axis."""
    if h_target <= 0:
        raise ConfigError("h_target must be positive")
    extents = tuple(tuple(map(float, ax)) for ax in extents)
    nodes = []
    for lo, hi in extents:
        if not hi > lo:
            raise ConfigError("degenerate extents")
        n_sub = max(1, math.ceil((hi - lo) / h_target - 1e-12))
        nodes.append(n_sub + 1)
    total = int(np.prod(nodes))
    limit = cap if cap is not None else node_cap()
    if total > limit:
        raise ExcessiveSize(f"mesh would have {total} nodes, cap is {limit}")
    return Mesh(len(extents), extents, tuple(nodes), periodic=False)


def build_cell_mesh(m, d, cap=None):
    """Periodic unit-cell mesh with m subdivisions per axis (m >= 4)."""
    if m < 4:
        raise ConfigError("cell mesh needs at least 4 subdivisions per axis")
    total = m**d
    limit = cap if cap is not None else node_cap()
    if total > limit:
        raise ExcessiveSize(f"cell mesh would have {total} nodes, cap is {limit}")
    extents = tuple(((0.0, 1.0),) * d)
    return Mesh(d, extents, (m,) * d, periodic=True)


def _element_bounds(mesh):
    """Per-axis element lower edges; element k spans [edge, edge+h]."""
    h = mesh.h
    return [mesh.axis_coords(k)[: mesh.cells_per_axis[k]] for k in range(mesh.dim)], h


def element_centroids(mesh):
    edges, h = _element_bounds(mesh)
    mids = [e + hk / 2.0 for e, hk in zip(edges, h)]
    if mesh.dim == 1:
        return mids[0][:, None]
    xx = np.meshgrid(*mids, indexing="ij")
    return np.stack([a.ravel() for a in xx], axis=1)


def _boundary_distance(points, extents):
    """Distance from points to the boundary of the box (inside positive)."""
    d = np.full(points.shape[0], np.inf)
    for k, (lo, hi) in enumerate(extents):
        d = np.minimum(d, points[:, k] - lo)
        d = np.minimum(d, hi - points[:, k])
    return d


def interior_mask(mesh, margin):
    """Elements whose closure stays at distance >= margin from the boundary."""
    if mesh.periodic:
        raise MeshMismatch("interior_mask applies to domain meshes")
    if margin < 0:
        raise ConfigError("margin must be nonnegative")
    width = min(hi - lo for lo, hi in mesh.extents)
    if margin >= width / 2.0:
        raise ConfigError("margin must be smaller than half the domain width")
    cent = element_centroids(mesh)
    # closure distance along each axis: centroid distance minus half the cell
    dist = np.full(cent.shape[0], np.inf)
    for k, (lo, hi) in enumerate(mesh.extents):
        hk = mesh.h[k] / 2.0
        dist = np.minimum(dist, cent[:, k] - hk - lo)
        dist = np.minimum(dist, hi - (cent[:, k] + hk))
    included = dist >= margin - 1e-12
    if not included.any():
        raise EmptyRegion(f"no element lies {margin} away from the boundary")
    return RegionMask(mesh, included)


def boundary_strip_mask(mesh, eps):
    """Elements whose centroid lies within r_cell*eps of the boundary."""
    if mesh.periodic:
        raise MeshMismatch("boundary_strip_mask applies to domain meshes")
    if eps <= 0:
        raise ConfigError("eps must be positive")
    cent = element_centroids(mesh)
    dist = _boundary_distance(cent, mesh.extents)
    width = r_cell(mesh.dim) * eps
    return RegionMask(mesh, dist <= width + 1e-12)


def complement(mask):
    return RegionMask(mask.mesh, ~mask.included)


# ---------------------------------------------------------------------------
# Quadrature and shape functions (2-point Gauss per axis, P1/Q1 elements)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=32)
def _reference_rule(dim):
    """Reference-cell rule on [0,1]^dim: points, weights, shape values/derivs.

    Shapes are the 2^dim multilinear nodal functions ordered C-style over
    corners (last axis fastest).
    """
    g1 = np.array([(1.0 + g) / 2.0 for g in GAUSS_1D])
    w1 = np.array([0.5, 0.5])
    if dim == 1:
        pts = g1[:, None]
        wts = w1
    else:
        pa, pb = np.meshgrid(g1, g1, indexing="ij")
        pts = np.stack([pa.ravel(), pb.ravel()], axis=1)
        wts = np.outer(w1, w1).ravel()
    n_corner = 2**dim
    vals = np.empty((pts.shape[0], n_corner))
    grads = np.empty((pts.shape[0], n_corner, dim))
    for c in range(n_corner):
        bits = [(c >> (dim - 1 - k)) & 1 for k in range(dim)]
        phi = np.ones(pts.shape[0])
        for k, b in enumerate(bits):
            t = pts[:, k]
            phi = phi * (t if b else 1.0 - t)
        vals[:, c] = phi
        for k in range(dim):
            dphi = np.ones(pts.shape[0])
            for kk, b in enumerate(bits):
                t = pts[:, kk]
                if kk == k:
                    dphi = dphi * (1.0 if b else -1.0)
                else:
                    dphi = dphi * (t if b else 1.0 - t)
            grads[:, c, k] = dphi
    return pts, wts, vals, grads


def element_corner_nodes(mesh):
    """Global node index of each element corner, shape (n_elements, 2^dim)."""
    cells = mesh.cells_per_axis
    nper = mesh.nodes_per_axis
    if mesh.dim == 1:
        i = np.arange(cells[0])
        right = (i + 1) % nper[0] if mesh.periodic else i + 1
        return np.stack([i, right], axis=1)
    i, j = np.meshgrid(np.arange(cells[0]), np.arange(cells[1]), indexing="ij")
    i = i.ravel()
    j = j.ravel()
    if mesh.periodic:
        ip = (i + 1) % nper[0]
        jp = (j + 1) % nper[1]
    else:
        ip = i + 1
        jp = j + 1
    n2 = nper[1]
    # corner order: (0,0), (0,1), (1,0), (1,1) in local (axis0, axis1) bits
    return np.stack([i * n2 + j, i * n2 + jp, ip * n2 + j, ip * n2 + jp], axis=1)


@dataclass(frozen=True)
class QuadratureData:
    """Tensor two-point Gauss rule: every weight equals jac / 2^dim."""
    points: np.ndarray  # (n_elements, n_gauss, dim) global coordinates
    weights: np.ndarray  # (n_gauss,) including the jacobian
    shape_values: np.ndarray  # (n_gauss, n_corner)
    shape_grads: np.ndarray  # (n_gauss, n_corner, dim) global gradients
    corners: np.ndarray  # (n_elements, n_corner)


@lru_cache(maxsize=16)
def _quadrature_cached(mesh):
    ref_pts, ref_wts, vals, ref_grads = _reference_rule(mesh.dim)
    h = np.array(mesh.h)
    jac = float(np.prod(h))
    edges, _ = _element_bounds(mesh)
    if mesh.dim == 1:
        lows = edges[0][:, None]
    else:
        xa, xb = np.meshgrid(edges[0], edges[1], indexing="ij")
        lows = np.stack([xa.ravel(), xb.ravel()], axis=1)
    pts = lows[:, None, :] + ref_pts[None, :, :] * h[None, None, :]
    grads = ref_grads / h[None, None, :]
    return QuadratureData(pts, ref_wts * jac, vals, grads, element_corner_nodes(mesh))


def quadrature(mesh):
    """Gauss data for a mesh; cached because meshes are immutable."""
    return _quadrature_cached(mesh)


def values_at_gauss(u, quad=None):
    """Interpolated nodal field at Gauss points, shape (n_elements, n_gauss)."""
    q = quad or quadrature(u.mesh)
    corner_vals = u.values[q.corners]  # (E, n_corner)
    return corner_vals @ q.shape_values.T


def grads_at_gauss(u, quad=None):
    """Element-gradient at Gauss points, (E, n_gauss, dim): one product of the
    (E, corners) nodal gather with the shape gradients as (corners, n_gauss * dim)."""
    q = quad or quadrature(u.mesh)
    g, c, d = q.shape_grads.shape
    return (u.values[q.corners] @ q.shape_grads.transpose(1, 0, 2).reshape(c, g * d)).reshape(-1, g, d)
