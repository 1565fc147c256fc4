"""Per-offset reference assembly of the corrector, for tests only.

This is the original z-quadrature loop: for every window offset z it
locates every shifted node in the slow table, gathers the corner entries
and the grid-aligned gradient blocks, and accumulates. It is slow but
follows the formulas term by term, so the production kernel in
`oscille.corrector` is checked against it. Its chain-rule gradient
eps DK = slow + fast is the oracle for the element gradient of K that
the boundedness check measures.
"""

from __future__ import annotations

import itertools

import numpy as np

from cell_reference import locate_on_axes, multilinear
from oscille.cell import TableCoverage
from oscille.mesh import GridFunction
from oscille.smoothing import _central_diff, window_weights


def _z_offsets(mesh, eps):
    """Tensor z-quadrature: per-axis cell offsets and weights."""
    per_axis = []
    for h in mesh.h:
        rho = eps / h
        if abs(rho - round(rho)) > 1e-9:
            raise ValueError("eps must be an integer multiple of the fine spacing")
        offs, w = window_weights(int(round(rho)))
        per_axis.append((offs, w))
    return per_axis


def _fast_coordinates(mesh, eps):
    """frac(x/eps) at every node, shape (n_nodes, d)."""
    pts = mesh.node_coords()
    y = pts / eps
    return y - np.floor(y)


def interpolate_periodic(columns, cell_mesh, y):
    """The periodic cell interpolant at scattered points y (n, d): the
    corner loop on the cell grid with its first node layer repeated past
    the last, at frac(y). Returns N_k(y), shape (n_sol, n, d)."""
    d = cell_mesh.dim
    shape = cell_mesh.nodes_per_axis
    grid = np.stack(columns, axis=1).reshape(shape + (len(columns), d))
    wrapped = np.pad(grid, [(0, 1)] * d + [(0, 0)] * 2, mode="wrap")
    axes = tuple(np.arange(m + 1) / m for m in shape)
    y = np.asarray(y, dtype=float).reshape(-1, d)
    return multilinear(wrapped, axes, y - np.floor(y)).transpose(1, 0, 2)


def interpolant_gradient(columns, cell_mesh, y):
    """Gradient of the periodic multilinear cell interpolant at points y.

    columns is a sequence of (n_nodes, d) nodal arrays, one per cell
    solution; returns d/dy_j N_k(y), shape (n_sol, n, d, d) indexed
    [sol, point, j, k]. Each corner weight is a product of per-axis hats,
    so its y_j-derivative swaps the axis-j hat for its slope +-1/h_j.
    """
    d = cell_mesh.dim
    m = np.array(cell_mesh.nodes_per_axis)
    y = np.asarray(y, dtype=float).reshape(-1, d)
    t = (y - np.floor(y)) * m
    idx = np.minimum(np.floor(t).astype(int), m - 1)
    loc = t - idx
    hats = (1.0 - loc, loc)
    slopes = (-1.0 / np.array(cell_mesh.h), 1.0 / np.array(cell_mesh.h))
    ids, dwts = [], []
    for bits in itertools.product((0, 1), repeat=d):
        ids.append(np.ravel_multi_index(((idx + bits) % m).T, tuple(m)))
        factors = np.stack([hats[b][:, a] for a, b in enumerate(bits)])  # (d, n)
        dwts.append([slopes[b][a] * np.delete(factors, a, axis=0).prod(axis=0) for a, b in enumerate(bits)])
    ids = np.stack(ids, axis=1)  # (n, corners)
    dwts = np.stack([np.stack(g) for g in dwts], axis=2)  # (j, n, corners)
    corners = np.stack([np.asarray(c)[ids] for c in columns])  # (sol, n, corners, d)
    return np.einsum("jnc,snck->snjk", dwts, corners)


def _table_entry_values(table, y_pts):
    """Every tabulated cell solution, and its y-gradient, at the
    deduplicated node fast-coordinates."""
    uniq, inv = np.unique(np.round(y_pts / 1e-12).astype(np.int64), axis=0, return_inverse=True)
    columns = [table.columns[i] for i in table.cells]
    vals = interpolate_periodic(columns, table.cell_mesh, uniq * 1e-12)
    return vals, interpolant_gradient(columns, table.cell_mesh, uniq * 1e-12), inv.ravel()


def _table_stencil(table, pts):
    """Corner entry ids and weights of the slow interpolation at points."""
    idx, loc = locate_on_axes(table.x_axes, pts)
    if len(table.x_axes) == 1:
        i = idx[0]
        t = loc[0]
        return [(i, 1.0 - t), (i + 1, t)]
    n2 = len(table.x_axes[1])
    i, j = idx
    tx, ty = loc
    return [
        (i * n2 + j, (1 - tx) * (1 - ty)),
        (i * n2 + j + 1, (1 - tx) * ty),
        ((i + 1) * n2 + j, tx * (1 - ty)),
        ((i + 1) * n2 + j + 1, tx * ty),
    ]


def _table_gradient_stencil(table, pts, axis):
    """Stencil of d/dx_axis of the slow interpolation (piecewise constant)."""
    idx, loc = locate_on_axes(table.x_axes, pts)
    hx = [ax[1] - ax[0] for ax in table.x_axes]
    if len(table.x_axes) == 1:
        i = idx[0]
        s = 1.0 / hx[0]
        return [(i, -s + 0.0 * loc[0]), (i + 1, s + 0.0 * loc[0])]
    n2 = len(table.x_axes[1])
    i, j = idx
    tx, ty = loc
    s = 1.0 / hx[axis]
    if axis == 0:
        return [
            (i * n2 + j, -s * (1 - ty)),
            (i * n2 + j + 1, -s * ty),
            ((i + 1) * n2 + j, s * (1 - ty)),
            ((i + 1) * n2 + j + 1, s * ty),
        ]
    return [
        (i * n2 + j, -s * (1 - tx)),
        (i * n2 + j + 1, s * (1 - tx)),
        ((i + 1) * n2 + j, -s * tx),
        ((i + 1) * n2 + j + 1, s * tx),
    ]


class _ShiftedFields:
    """Grid-aligned lookup of the gradient fields at x + eps*z offsets."""

    def __init__(self, mesh, grads):
        self.mesh = mesh
        self.d = self.mesh.dim
        self.grads = grads
        self.shapes = [g.base.reshaped() for g in self.grads]
        self.pads = [g.pad for g in self.grads]
        # derivative of the gradient fields (for the slow part), one per axis
        self.grad_of_grad = {}

    def block(self, comp, cell_offset):
        pad = self.pads[comp]
        arr = self.shapes[comp]
        sl = []
        for ax in range(self.d):
            start = pad[ax] + cell_offset[ax]
            n = self.mesh.nodes_per_axis[ax]
            if start < 0 or start + n > arr.shape[ax]:
                raise TableCoverage("z shift leaves the extended gradient grid")
            sl.append(slice(start, start + n))
        return arr[tuple(sl)].ravel()

    def dblock(self, comp, axis, cell_offset):
        key = (comp, axis)
        if key not in self.grad_of_grad:
            g = self.grads[comp]
            self.grad_of_grad[key] = _central_diff(g.base.reshaped(), g.mesh.h[axis], axis)
        arr = self.grad_of_grad[key]
        pad = self.pads[comp]
        sl = []
        for ax in range(self.d):
            start = pad[ax] + cell_offset[ax] - (1 if ax == axis else 0)
            n = self.mesh.nodes_per_axis[ax]
            if start < 0 or start + n > arr.shape[ax]:
                raise TableCoverage("z shift leaves the differentiated gradient grid")
            sl.append(slice(start, start + n))
        return arr[tuple(sl)].ravel()


def _iter_z(per_axis):
    if len(per_axis) == 1:
        for j, w in zip(*per_axis[0]):
            yield (int(j),), float(w)
        return
    (offs1, w1), (offs2, w2) = per_axis
    for j1, wa in zip(offs1, w1):
        for j2, wb in zip(offs2, w2):
            yield (int(j1), int(j2)), float(wa * wb)


def corrector_apply(setup, grads, table):
    """Assemble the corrector field K on the setup's mesh; only the
    setup's mesh and eps and the table it was built from are read."""
    mesh = setup.mesh
    d = mesh.dim
    per_axis = _z_offsets(mesh, setup.eps)
    y_pts = _fast_coordinates(mesh, setup.eps)
    n_vals, _, inv = _table_entry_values(table, y_pts)
    fields = _ShiftedFields(mesh, grads)
    coords = mesh.node_coords()
    h = np.array(mesh.h)
    out = np.zeros(mesh.n_nodes)
    for cell_offset, w_z in _iter_z(per_axis):
        pts = coords + h[None, :] * np.array(cell_offset)[None, :]
        stencil = _table_stencil(table, pts)
        contrib = np.zeros(mesh.n_nodes)
        blocks = [fields.block(k, cell_offset) for k in range(d)]
        for entry_ids, wts in stencil:
            for k in range(d):
                contrib += wts * n_vals[entry_ids, inv, k] * blocks[k]
        out += w_z * contrib
    return GridFunction(mesh, out)


def corrector_gradient_parts(setup, grads, table):
    """Slow and fast contributions to eps * D K, each a list of d fields.

    part_slow[j] = eps * cube-average of d/dx_j [N_k(x + eps z, y) G_k(x + eps z)],
    part_fast[j] = cube-average of (d/dy_j N_k)(x + eps z, y) G_k(x + eps z),
    and eps * DK = part_slow + part_fast.
    """
    mesh = setup.mesh
    d = mesh.dim
    eps = setup.eps
    per_axis = _z_offsets(mesh, eps)
    y_pts = _fast_coordinates(mesh, eps)
    n_vals, n_grads, inv = _table_entry_values(table, y_pts)
    fields = _ShiftedFields(mesh, grads)
    coords = mesh.node_coords()
    h = np.array(mesh.h)
    slow = [np.zeros(mesh.n_nodes) for _ in range(d)]
    fast = [np.zeros(mesh.n_nodes) for _ in range(d)]
    for cell_offset, w_z in _iter_z(per_axis):
        pts = coords + h[None, :] * np.array(cell_offset)[None, :]
        stencil = _table_stencil(table, pts)
        blocks = [fields.block(k, cell_offset) for k in range(d)]
        for j in range(d):
            dsten = _table_gradient_stencil(table, pts, j)
            acc = np.zeros(mesh.n_nodes)
            for (entry_ids, wts), (dentry_ids, dwts) in zip(stencil, dsten):
                for k in range(d):
                    # (d/dx_j N_k) G_k   +   N_k (d/dx_j G_k)
                    acc += dwts * n_vals[dentry_ids, inv, k] * blocks[k]
                    acc += wts * n_vals[entry_ids, inv, k] * fields.dblock(k, j, cell_offset)
            slow[j] += w_z * eps * acc
            accf = np.zeros(mesh.n_nodes)
            for entry_ids, wts in stencil:
                for k in range(d):
                    accf += wts * n_grads[entry_ids, inv, j, k] * blocks[k]
            fast[j] += w_z * accf
    to_gf = lambda v: GridFunction(mesh, v)  # noqa: E731
    return [to_gf(v) for v in slow], [to_gf(v) for v in fast]
