"""Structured meshes, nodal grid functions, region masks and quadrature.

Meshes are uniform tensor grids on intervals (d=1) or axis-aligned
rectangles (d=2) with linear/bilinear nodal elements. Periodic meshes
identify the first and last node layer and are used for the unit cell.
Element-based masks select quadrature subdomains for restricted norms.
Every point set (nodes, element corners, Gauss points) is a tensor
product built one way for any d, corners in C order as
itertools.product((0, 1), repeat=d) walks them.
"""

from __future__ import annotations

import itertools
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
        cap = int(v) if v else DEFAULT_NODE_CAP
    except ValueError:  # not an integer: rejected below with the nonpositive ones
        cap = 0
    if cap < 1:
        raise ConfigError(f"OSCILLE_NODE_CAP must be a positive integer, got {v!r}")
    return cap


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
        return tuple((hi - lo) / cells for (lo, hi), cells in zip(self.extents, self.cells_per_axis))

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
        return _tensor_points([self.axis_coords(k) for k in range(self.dim)])


def _tensor_points(axes):
    """The tensor grid of per-axis coordinates as rows (n, d), C-order."""
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))


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


def build_domain_mesh(extents, h_target):
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
    limit = node_cap()
    if total > limit:
        raise ExcessiveSize(f"mesh would have {total} nodes, cap is {limit}")
    return Mesh(len(extents), extents, tuple(nodes), periodic=False)


def build_cell_mesh(m, d):
    """Periodic unit-cell mesh with m subdivisions per axis (m >= 4)."""
    if m < 4:
        raise ConfigError("cell mesh needs at least 4 subdivisions per axis")
    total = m**d
    limit = node_cap()
    if total > limit:
        raise ExcessiveSize(f"cell mesh would have {total} nodes, cap is {limit}")
    extents = tuple(((0.0, 1.0),) * d)
    return Mesh(d, extents, (m,) * d, periodic=True)


def element_centroids(mesh):
    """Element midpoints: per axis, the lower node of each cell plus h / 2."""
    return _tensor_points([mesh.axis_coords(k)[: mesh.cells_per_axis[k]] + mesh.h[k] / 2.0 for k in range(mesh.dim)])


def _boundary_distance(mesh, half):
    """Per element, the distance from the box of half-widths half around
    its centroid to the domain boundary (inside positive)."""
    cent = element_centroids(mesh)
    return np.min([np.minimum(c - s - lo, hi - (c + s)) for c, (lo, hi), s in zip(cent.T, mesh.extents, half)], axis=0)


def interior_mask(mesh, margin):
    """Elements whose closure stays at distance >= margin from the boundary."""
    if mesh.periodic:
        raise MeshMismatch("interior_mask applies to domain meshes")
    if margin < 0:
        raise ConfigError("margin must be nonnegative")
    width = min(hi - lo for lo, hi in mesh.extents)
    if margin >= width / 2.0:
        raise ConfigError("margin must be smaller than half the domain width")
    # the closure of an element is the box of half-widths h / 2 around its centroid
    included = _boundary_distance(mesh, [hk / 2.0 for hk in mesh.h]) >= margin - 1e-12
    if not included.any():
        raise EmptyRegion(f"no element lies {margin} away from the boundary")
    return RegionMask(mesh, included)


def boundary_strip_mask(mesh, eps):
    """Elements whose centroid lies within r_cell*eps of the boundary."""
    if mesh.periodic:
        raise MeshMismatch("boundary_strip_mask applies to domain meshes")
    if eps <= 0:
        raise ConfigError("eps must be positive")
    width = r_cell(mesh.dim) * eps
    return RegionMask(mesh, _boundary_distance(mesh, [0.0] * mesh.dim) <= width + 1e-12)


# ---------------------------------------------------------------------------
# Quadrature and shape functions (2-point Gauss per axis, P1/Q1 elements)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=32)
def _reference_rule(dim):
    """Reference-cell rule on [0,1]^dim: points, weights, shape values/derivs.

    Shapes are the 2^dim multilinear nodal functions ordered C-style over
    corners (last axis fastest); each is a product of per-axis hats, and
    its derivative along axis k swaps the axis-k hat for its slope.
    """
    g1 = np.array([(1.0 + g) / 2.0 for g in GAUSS_1D])
    pts = _tensor_points([g1] * dim)
    wts = _tensor_points([np.array([0.5, 0.5])] * dim).prod(axis=1)
    hats = (1.0 - pts, pts)  # per-axis hat of the lower / upper corner
    vals = np.empty((pts.shape[0], 2**dim))
    grads = np.empty((pts.shape[0], 2**dim, dim))
    for c, bits in enumerate(itertools.product((0, 1), repeat=dim)):
        factors = np.stack([hats[b][:, k] for k, b in enumerate(bits)])  # (dim, n_gauss)
        vals[:, c] = factors.prod(axis=0)
        for k, b in enumerate(bits):
            grads[:, c, k] = (1.0 if b else -1.0) * np.delete(factors, k, axis=0).prod(axis=0)
    return pts, wts, vals, grads


def element_corner_nodes(mesh):
    """Global node index of each element corner, shape (n_elements, 2^dim).

    A periodic mesh wraps its last element's upper corners to the first
    node layer; elsewhere the modulo leaves every index as it is.
    """
    lower = [i.ravel() for i in np.meshgrid(*map(np.arange, mesh.cells_per_axis), indexing="ij")]
    return np.stack(
        [
            np.ravel_multi_index([i + b for i, b in zip(lower, bits)], mesh.nodes_per_axis, mode="wrap")
            for bits in itertools.product((0, 1), repeat=mesh.dim)
        ],
        axis=1,
    )


def _stencil_pattern(mesh, free):
    """CSR pattern of a Q1 operator on the nodes of the mask free, in closed form.

    Nodes i and j share an element exactly when j = i + o, o in {-1, 0, 1}^d
    (wrapped on a periodic mesh). Entry (i, o) sits at 3^d i + rank in a
    padded layout, rank ordering each axis's offsets by neighbour index so
    that wrapped rows keep their columns sorted, and is kept where i and
    i + o are free. Returns int32 indptr and indices over the free nodes,
    and the slot of each (element, row corner, column corner) contribution,
    nnz where its row or column is not free.
    """
    d, shape, n = mesh.dim, mesh.nodes_per_axis, mesh.n_nodes
    col, rank, inside = 0, 0, True
    for a, m in enumerate(shape):  # (offset or rank, node) arrays, one pair of axes each
        j = np.arange(-1, 2)[:, None] + np.arange(m)  # neighbour coordinate per offset
        j = j % m if mesh.periodic else j
        order = np.argsort(j, axis=0)
        j = np.take_along_axis(j, order, axis=0)
        axes = [3 if k == a else m if k == d + a else 1 for k in range(2 * d)]
        col = col + (np.clip(j, 0, m - 1) * math.prod(shape[a + 1:])).reshape(axes)
        inside = inside & ((j >= 0) & (j < m)).reshape(axes)
        rank = rank + (np.argsort(order, axis=0) * 3 ** (d - 1 - a)).reshape(axes)
    col, inside, rank = (x.reshape(3**d, n) for x in (col, inside, rank))
    keep = inside & free & free[col]
    upto = np.cumsum(keep, axis=0, dtype=np.int32)  # kept entries of each row up to each rank
    count = upto[-1]
    slot = np.where(keep, np.cumsum(count, dtype=np.int32) - count + upto - 1, count.sum(dtype=np.int32))
    indptr = np.concatenate([[0], np.cumsum(count[free])]).astype(np.int32)
    indices = (np.cumsum(free) - 1)[col.T[keep.T]].astype(np.int32)
    bits = np.array(list(itertools.product((0, 1), repeat=d)))
    offset = (bits[None, :, :] - bits[:, None, :] + 1) @ 3 ** np.arange(d - 1, -1, -1)  # (row, column corner)
    # slots by (offset, node grid), the grid padded by its wrapped first layer on a periodic
    # mesh; the row corner c of every element is the node grid shifted by c
    grid = np.take_along_axis(slot, rank, axis=0).reshape((-1,) + shape)
    grid = np.pad(grid, [(0, 0)] + [(0, int(mesh.periodic))] * d, mode="wrap")
    cells = mesh.cells_per_axis
    rows = [grid[(offset[c],) + tuple(slice(b, b + k) for b, k in zip(bc, cells))] for c, bc in enumerate(bits)]
    return indptr, indices, np.stack(rows).reshape(len(bits) ** 2, -1).T.ravel()


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
    corners = element_corner_nodes(mesh)
    pts = mesh.node_coords()[corners[:, 0], None, :] + ref_pts[None, :, :] * h[None, None, :]
    grads = ref_grads / h[None, None, :]
    return QuadratureData(pts, ref_wts * jac, vals, grads, corners)


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
