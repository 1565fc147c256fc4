"""Periodic cell problems, effective tensors and their macroscopic tables.

For each macroscopic sample x the cell problem asks for periodic,
zero-mean functions N_k with

    (a(x, .) (grad N_k + e_k), grad phi) = 0   for all periodic phi,

and the effective tensor is the cell average A0(x) e_k = int a (grad N_k
+ e_k) dy. `solve_cell` returns both from one solve: A0 takes the same
samples of a(x, .) at the cell Gauss points as the stiffness matrix. In
1D it collapses to the harmonic mean of a(x, .). Tables over a
macroscopic grid with linear interpolation in x support corrector
evaluation at arbitrary points; the Lipschitz dependence of a on x keeps
that interpolation error dominated by the homogenization errors measured.
The cell problem is homogeneous of degree zero in the coefficient: for
a(x, .) = g(x) b(x, .) with a scalar g > 0, N[a] = N[b] and A0[a] =
g A0[b]. So table entries whose profiles b agree bit for bit share one
solve, and each scales its A0 by its own g. The table holds each
distinct solve's N once, and per grid entry the index of its solve and
its A0. It samples g and b one row at a time (the entries along the
last x-axis), never the whole table.
The cell's matrix, loads and mean functional go through `fem`'s Q1
assembly with every node free: the matrix into the wrapped stencil
pattern `fem` caches per mesh, the loads by its nodal scatter, and the
mean functional is the load vector of f = 1, cached per cell mesh.
`interpolate_axis`, linear interpolation along one array axis, is the one
interpolator, and `lerp_axis` its arithmetic on a located stencil. Every
evaluation is on a tensor grid of points, so it runs once per axis: in x
on the table grid (A0 at a fine mesh's Gauss points), and in y on the
cell grid padded with its wrapped first node layer.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import fem, linalg
from .core import ConfigError, NumericalError
from .mesh import Mesh, MeshMismatch, _tensor_points, quadrature

X_TABLE_SPACING = 1.0 / 16.0


class EllipticityViolation(NumericalError):
    pass


class TableCoverage(NumericalError):
    pass


def default_cell_m(d):
    return 256 if d == 1 else 64


def _cell_factors(field, xs, cell_mesh):
    """g (m,) and b (m or 1, n_elements, n_gauss) of a(x, .) = g(x) b(x, .)
    at the cell Gauss points for the slow points xs (m, d), or a single x."""
    q = quadrature(cell_mesh)
    n_el, n_g, d = q.points.shape
    g, b = field.eval_factors(xs, q.points.reshape(-1, d))
    return g, b.reshape(-1, n_el, n_g)


def _cell_coefficient(field, xs, cell_mesh):
    """a(x, .) = g(x) b(x, .) at the cell Gauss points, shape (m, n_elements, n_gauss)."""
    g, b = _cell_factors(field, xs, cell_mesh)
    return g[:, None, None] * b


@lru_cache(maxsize=8)
def _mean_functional(cell_mesh):
    """c_i = int phi_i over the unit cell, the load of f = 1; read-only, cached per cell mesh."""
    c = fem.assemble_load(cell_mesh, lambda y: np.ones(len(y)))
    c.flags.writeable = False
    return c


def _periodic_stiffness_and_loads(a_vals, cell_mesh):
    """Stiffness matrix of the samples a_vals (n_elements, n_gauss) on the
    periodic cell, the d loads b_k[i] = -int a e_k . grad phi_i, and the
    samples times their Gauss weights."""
    q = quadrature(cell_mesh)
    matrix = fem._csr(cell_mesh, None, fem._scalar_stiffness(a_vals, q))
    wa = a_vals * q.weights
    loads = -np.einsum("eg,gck->kec", wa, q.shape_grads)
    return matrix, np.stack([fem._nodal(q, load, cell_mesh.n_nodes) for load in loads]), wa


def _interpolate_periodic(columns, cell_mesh, y_axes):
    """Periodic multilinear interpolation of nodal cell functions on a tensor grid.

    columns is a sequence of (n_nodes, d) nodal arrays, one per cell
    solution; y_axes holds the points' coordinates per axis. The cell grid
    is padded with its first node layer repeated past the last, so y and
    y + 1 give the same value, and `interpolate_axis` runs once per axis
    at frac(y), last axis first. Returns the values N_k at the grid of
    points, shape (n_sol,) + (len(y) for y in y_axes) + (d,).
    """
    d = cell_mesh.dim
    shape = cell_mesh.nodes_per_axis
    grid = np.stack(columns).reshape((len(columns),) + shape + (d,))
    vals = np.pad(grid, [(0, 0)] + [(0, 1)] * d + [(0, 0)], mode="wrap")
    for a in reversed(range(d)):
        y = np.asarray(y_axes[a], dtype=float)
        vals = interpolate_axis(vals, np.arange(shape[a] + 1) / shape[a], y - np.floor(y), axis=a + 1)
    return vals


@dataclass
class CellSolution:
    """Corrector cell functions N_k of one coefficient profile a(x, .),
    and the effective tensor A0 they give."""

    cell_mesh: Mesh
    columns: np.ndarray  # (n_nodes, d) nodal values of N_k
    a0: np.ndarray  # (d, d) effective tensor


def solve_cell(field, x, cell_mesh, samples=None):
    """Solve the periodic cell problem at macroscopic point x, and form
    A0(x) = int a(x,y) (I + grad N) dy by cell quadrature.

    samples holds a(x, .) at the cell Gauss points, (n_elements,
    n_gauss), when the caller has evaluated it already; otherwise it is
    evaluated here.
    """
    if not cell_mesh.periodic:
        raise MeshMismatch("cell mesh must be periodic")
    x = np.asarray(x, dtype=float).reshape(field.dim)
    a_vals = _cell_coefficient(field, x, cell_mesh)[0] if samples is None else samples
    if not np.all((a_vals > 0.0) & (a_vals < np.inf)):
        raise EllipticityViolation(f"coefficient nonpositive or not finite at x = {x}")
    q = quadrature(cell_mesh)
    matrix, loads, wa = _periodic_stiffness_and_loads(a_vals, cell_mesh)
    c = _mean_functional(cell_mesh)
    d = field.dim
    columns = np.zeros((cell_mesh.n_nodes, d))
    for k in range(d):
        columns[:, k] = linalg.solve_saddle(matrix, c, loads[k])[0]
    # int a d/dy_j phi_c over each element, rows (element, corner), columns j
    b = (wa @ q.shape_grads.reshape(len(q.weights), -1)).reshape(-1, d)
    a0 = wa.sum() * np.eye(d) + b.T @ columns[q.corners].reshape(-1, d)
    return CellSolution(cell_mesh, columns, a0)


def locate_on_axis(ax, pts):
    """Linear-interpolation stencil on one uniform axis: each point's lower node index and local weight."""
    pts = np.asarray(pts, dtype=float)
    t = (pts - ax[0]) / (ax[1] - ax[0])
    if np.any(t < -1e-9) or np.any(t > len(ax) - 1 + 1e-9):
        raise TableCoverage(
            f"point outside tabulated range: [{ax[0]:g}, {ax[-1]:g}] queried at [{pts.min():g}, {pts.max():g}]"
        )
    # a point within rounding below a node takes the cell above it, so the
    # cell of a point on a node does not depend on how it was computed
    i = np.clip(np.floor(t + 1e-9).astype(int), 0, len(ax) - 2)
    return i, np.clip(t - i, 0.0, 1.0)


def lerp_axis(values, idx, t, axis=0):
    """Apply a `locate_on_axis` stencil along one axis: (1 - t) times the slice at idx plus t times the next."""
    t = t.reshape(t.shape + (1,) * (values.ndim - 1 - axis))
    lower, upper = np.take(values, idx, axis), np.take(values, idx + 1, axis)
    lower *= 1 - t  # in place: no buffer beyond the two gathers
    upper *= t
    return np.add(lower, upper, out=lower)


def interpolate_axis(values, axis_coords, pts, axis=0):
    """Linear interpolation of grid values along one axis, sampled at axis_coords, at the points pts (n,).

    Once per axis, it interpolates multilinearly on a tensor grid of
    points. A point off the axis raises TableCoverage.
    """
    return lerp_axis(values, *locate_on_axis(axis_coords, pts), axis)


@dataclass
class CellTable:
    """Cell solutions tabulated over a macroscopic grid: each distinct
    solve's N once, and per grid entry (C order) its solve and its A0."""

    x_axes: tuple  # per-axis sample coordinates
    cell_mesh: Mesh
    columns: list  # (n_nodes, d) nodal values of N_k, one array per distinct solve, in solve order
    cells: np.ndarray  # int, per grid entry in C order: its solve's index into columns
    tensors: np.ndarray  # grid shape + (d, d): A0 of each entry


def x_axes_for(domain, margin, spacing=X_TABLE_SPACING):
    """Uniform x-grid covering the domain extended by margin on each side."""
    axes = []
    for lo, hi in domain:
        a = lo - margin
        b = hi + margin
        n = int(np.ceil((b - a) / spacing - 1e-12)) + 1
        axes.append(a + (b - a) * np.arange(n) / (n - 1))
    return tuple(axes)


def tabulate_cells(field, x_axes, cell_mesh):
    """Cell solutions over the x-grid, one solve per distinct profile b.

    g and b are sampled one row of the grid at a time (the points along
    the last x-axis); b has one row when it does not read x, so it is
    evaluated and keyed once per row. The exact bytes of b key the
    solves, which take b as is; every entry with that b indexes the
    solve's columns, and its A0 is its g times the solve's A0.
    """
    x_axes = tuple(np.asarray(a, dtype=float) for a in x_axes)
    solved = {}  # profile bytes -> index into columns
    columns, a0s, cells, tensors = [], [], [], []
    for row in _tensor_points(x_axes).reshape(-1, len(x_axes[-1]), len(x_axes)):
        g, profiles = _cell_factors(field, row, cell_mesh)
        bad = ~((g > 0.0) & (g < np.inf))
        if bad.any():
            raise EllipticityViolation(f"slow factor nonpositive or not finite at x = {row[bad][0]}")
        keys = [b.tobytes() for b in profiles]
        for p, b, key in zip(row, profiles, keys):
            if key not in solved:
                sol = solve_cell(field, p, cell_mesh, samples=b)
                solved[key] = len(columns)
                columns.append(sol.columns)
                a0s.append(sol.a0)
        for key, gx in zip(itertools.cycle(keys), g):
            cells.append(solved[key])
            tensors.append(gx * a0s[solved[key]])
    shape = tuple(len(a) for a in x_axes) + a0s[0].shape
    return CellTable(x_axes, cell_mesh, columns, np.array(cells), np.reshape(tensors, shape))


@dataclass
class EffectiveField:
    """Tabulated effective tensors with linear-in-x interpolation."""

    x_axes: tuple
    tensors: np.ndarray  # grid shape + (d, d)

    def at_gauss(self, mesh):
        """A0 at the Gauss points of a structured mesh, shape (n_elements, n_gauss, d, d).

        The Gauss points form a tensor grid: their coordinate k depends only
        on the axis-k cell and Gauss point. So `interpolate_axis` runs once
        per axis, last axis first, replacing table axis k by that axis's
        Gauss coordinates in (cell, Gauss point) order, and one transpose
        puts the values in (element, Gauss point) order. In 1D this is the
        point-wise interpolation itself, bit for bit; in 2D it sums the same
        four corner terms in another order.
        """
        d, cells = mesh.dim, mesh.cells_per_axis
        pts = quadrature(mesh).points.reshape(cells + (2,) * d + (d,))
        vals = self.tensors
        for k in reversed(range(d)):
            # the axis-k coordinates in (cell, Gauss point) order, off the other axes' first ones
            coords = pts[tuple(slice(None) if a % d == k else 0 for a in range(2 * d)) + (k,)]
            try:
                vals = interpolate_axis(vals, self.x_axes[k], coords.ravel(), axis=k)
            except TableCoverage as exc:
                raise TableCoverage(f"mesh axis {k}: {exc}") from exc
        vals = vals.reshape(tuple(x for c in cells for x in (c, 2)) + vals.shape[d:])  # (cell, Gauss point) per axis
        order = [*range(0, 2 * d, 2), *range(1, 2 * d, 2), *range(2 * d, vals.ndim)]
        return vals.transpose(order).reshape((mesh.n_elements, 2**d) + vals.shape[2 * d:])


def tabulate_effective(field, x_axes, cell_mesh):
    """Tabulate A0 over the x-grid; returns (EffectiveField, CellTable)."""
    table = tabulate_cells(field, x_axes, cell_mesh)
    return EffectiveField(table.x_axes, table.tensors), table


def closed_form_1d_effective(field, x):
    """Reference harmonic mean 1 / int dy / a(x, y) by adaptive quadrature."""
    if field.dim != 1:
        raise ConfigError("closed form applies to d = 1 only")
    from scipy.integrate import quad  # imported here: a study never needs it, and it loads slowly

    x_arr = np.asarray([x], dtype=float).reshape(1, 1)

    def integrand(y):
        return 1.0 / float(field.eval(x_arr, np.array([[y]]))[0])

    val, err = quad(integrand, 0.0, 1.0, epsabs=1e-12, epsrel=1e-12, limit=200)
    if err > 1e-9:
        raise NumericalError(f"quadrature failed to converge (err {err:.2e})")
    return 1.0 / val

