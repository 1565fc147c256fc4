"""Regularized first-order corrector assembly on the fine mesh.

The corrector applied to a load f is, nodewise,

    K(x) = cube-average over z of < N(x + eps z, frac(x/eps)),
                                    grad u0_delta(x + eps z) >,

where u0 is the effective solution extended off the domain, its gradient
is taken by central differences on the extended grid and mollified when
the regularity exponent s is below 1 (with delta = eps), and N comes from
the macroscopic cell table by linear interpolation in the slow variable
and, in the fast one, by the same `multilinear` on the cell grid wrapped
by one node layer (`cell._interpolate_periodic`). The z average uses the
same window weights as the Steklov smoother, so the two constructions
agree.

The window weights and the slow hats are both products of per-axis
factors and every shift x + eps z is a fine-grid node, so the z average,
`_window_sum`, is d passes of per-axis 1D stencils followed by one
gather of the tabulated cell values. On a 2D mesh each pass is one sparse
product: the axis stencil is a CSR map from the shifted nodes to (slot,
node) rows, applied to every column of the other axis at once. In 1D
the stencil and the gathered values fold into one window kernel (each
offset's two hat weights times the cell values of their slots), so a
load's z average is one pass over the offsets; a 2D kernel would hold
several times the gathered values, so 2D keeps its maps. Stencils,
maps, kernel and gathered values do not depend on the load:
`corrector_setup` builds them once per mesh and eps, interpolating each
of the table's distinct cell solves once and gathering through each
entry's solve index. The setup holds the mesh, eps and table, so
`corrector_apply` takes only it and the gradient fields that
`build_r0` makes of each load's u0.

The gradient of K is the element gradient of its nodal values, the one
the w1_corr error differentiates when it subtracts eps K; the
boundedness check measures that same gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .cell import CellTable, TableCoverage, _interpolate_periodic, locate_on_axes
from .mesh import GridFunction, Mesh, MeshMismatch, _tensor_points
from .norms import lp_norm, w1p_seminorm
from .smoothing import ExtendedFunction, _central_diff, _extended_mesh, _window_per_axis, extend, mollify, window_weights


def table_margin(eps, rho):
    """How far past the domain the corrector reads the cell table at eps.

    `_axis_stencils` locates x + h j for the offsets j of
    `window_weights(rho)`, h = eps / rho, so the widest offset times h is
    the whole reach.
    """
    offsets, _ = window_weights(rho)
    return float(np.max(np.abs(offsets))) * eps / rho


def build_r0(u0, scenario, eps):
    """Extend the effective solution and produce its (mollified) gradient.

    Returns the d gradient components as ExtendedFunctions. Mollification
    with delta = eps applies exactly when scenario.s < 1; for s = 1 the
    gradient is used as is. The extension reaches as far as the gradient
    is read: the window's `table_margin`, plus 2h, one node for each
    central difference (u0 to its gradient, and the gradient to its own,
    as a chain-rule eps DK takes it), plus the mollifier radius eps when
    s < 1.
    """
    mesh = u0.mesh
    d = mesh.dim
    margin = table_margin(eps, scenario.points_per_period) + 2.0 * max(mesh.h)
    if scenario.s < 1.0:
        margin += eps
    u0_ext = extend(u0, margin)
    emesh = u0_ext.mesh
    vals = u0_ext.base.reshaped()
    # central differences drop one node on the differenced axis only;
    # crop one node on every axis to keep the box symmetric
    pad = tuple(p - 1 for p in u0_ext.pad)
    grads = []
    for k in range(d):
        g = _central_diff(vals, emesh.h[k], k)
        g = g[tuple(slice(1, -1) if ax != k else slice(None) for ax in range(d))]
        gext = ExtendedFunction(GridFunction(_extended_mesh(mesh, pad), g.ravel()), mesh, pad)
        if scenario.s < 1.0:
            gext = mollify(gext, eps)
        grads.append(gext)
    return grads


def _fast_coordinates(mesh, eps):
    """The distinct fast coordinates frac(x/eps) and each node's index into them.

    Each axis takes only a few distinct values, so the distinct points are
    their tensor grid: returns y of shape (n_unique, d) and inv of shape
    nodes_per_axis.
    """
    uniq, invs = [], []
    for a in range(mesh.dim):
        y = mesh.axis_coords(a) / eps
        u, inv = np.unique(np.round((y - np.floor(y)) / 1e-12).astype(np.int64), return_inverse=True)
        uniq.append(u * 1e-12)
        invs.append(inv)
    return _tensor_points(uniq), np.ravel_multi_index(np.meshgrid(*invs, indexing="ij"), [len(u) for u in uniq])


@dataclass
class _AxisStencil:
    """Window-weighted slow-table hats along one axis.

    The window offsets j of node i reach the points x_0 + h q, q = i + j;
    each lies in table cell idx[q] with local coordinate t[q] (q counted
    from the first offset). Node i's table indices are stored as slots
    counted from idx[i], the cell of its first offset. On a 2D mesh `op`
    holds the axis pass as a CSR map.
    """

    offsets: np.ndarray  # window offsets in fine-grid cells
    w: np.ndarray  # window weight per offset
    idx: np.ndarray  # (n + n_offsets - 1,)
    t: np.ndarray  # (n + n_offsets - 1,)
    n_slots: int
    op: sp.csr_matrix = None  # (n_slots * n, n + span); None in 1D

    @property
    def span(self):
        return self.offsets[-1] - self.offsets[0]

    @property
    def n(self):
        return len(self.idx) - self.span

    def hat(self, col):
        """Each node's slot for offset number col, and the hat weights
        there: w (1 - t) on cell idx and w t on idx + 1."""
        n = self.n
        q0 = self.offsets[col] - self.offsets[0]
        slot = self.idx[q0 : q0 + n] - self.idx[:n]
        t = self.t[q0 : q0 + n]
        return slot, self.w[col] * (1.0 - t), self.w[col] * t


def _axis_operator(st):
    """The axis pass as one CSR map from n + span shifted nodes to (slot, node).

    Row (s, i) holds node i's offsets whose point lies in table cell
    idx[i] + s - 1 (upper hat) or idx[i] + s (lower hat), columns in offset
    order, so each row sums its terms in window-offset order.
    Built in closed form: a (slot, node, offset) block masked where a hat
    is hit, read in C order, with indptr from the row counts.
    """
    n = st.n
    cols = np.arange(n)[:, None] + (st.offsets - st.offsets[0])  # (node, offset): shifted node
    slot, t = st.idx[cols] - st.idx[:n, None], st.t[cols]
    is_lower = slot == np.arange(st.n_slots)[:, None, None]
    hit = is_lower | (slot + 1 == np.arange(st.n_slots)[:, None, None])
    data = np.where(is_lower, st.w * (1.0 - t), st.w * t)[hit]
    indptr = np.concatenate([[0], np.cumsum(np.count_nonzero(hit, axis=2))])
    return sp.csr_matrix((data, np.broadcast_to(cols, hit.shape)[hit], indptr), shape=(st.n_slots * n, n + st.span))


def _axis_stencils(table, mesh, windows):
    """One _AxisStencil per axis, and the flat table entry of every slot
    and node combination, shape (slots_d..slots_1, n_1..n_d)."""
    d = mesh.dim
    stencils = []
    entry = 0
    for a, (offs, w) in enumerate(windows):
        x_axis = table.x_axes[a]
        n = mesh.nodes_per_axis[a]
        pts = mesh.axis_coords(a)[0] + mesh.h[a] * np.arange(offs[0], n + offs[-1])
        try:
            (idx,), (t,) = locate_on_axes((x_axis,), pts[:, None])
        except TableCoverage as exc:
            raise TableCoverage(f"slow axis {a}: {exc}") from exc
        span = offs[-1] - offs[0]
        n_slots = int(np.max(idx[span : span + n] - idx[:n])) + 2
        st = _AxisStencil(offs, w, idx, t, n_slots)
        if d > 1:
            st.op = _axis_operator(st)
        stencils.append(st)
        # slots past the table end carry zero weight; clip them to a valid entry
        ids = np.minimum(np.arange(n_slots)[:, None] + idx[:n], len(x_axis) - 1)
        shape = [1] * (2 * d)
        shape[d - 1 - a], shape[d + a] = ids.shape
        entry = entry * len(x_axis) + ids.reshape(shape)
    return stencils, entry


def _window_kernel(st, n_at):
    """The 1D window kernel: each offset's two hat weights times the cell
    values of their slots, shape (k, n_offsets, n)."""
    n = st.n
    nodes = np.arange(n)
    flat = n_at.reshape(len(n_at), -1)  # (k, slot * n + node): one flat take per hat
    kernel = np.empty((len(n_at), len(st.offsets), n))
    for col in range(len(st.offsets)):
        slot, lower, upper = st.hat(col)
        at = slot * n + nodes
        kernel[:, col] = lower * flat.take(at, axis=1) + upper * flat.take(at + n, axis=1)
    return kernel


def _kernel_pass(kernel, vals, start):
    """sum over offsets of kernel[col] times the field shifted to start[col], in offset order."""
    n = kernel.shape[1]
    out = kernel[0] * vals[start[0] : start[0] + n]
    for col in range(1, len(start)):
        out += kernel[col] * vals[start[col] : start[col] + n]
    return out


def _sparse_pass(op, vals, ax, s0, n):
    """op @ X along axis ax of vals, starting at node s0; prepends the slot axis."""
    moved = np.moveaxis(vals, ax, 0)[s0 : s0 + op.shape[1]]
    out = (op @ moved.reshape(op.shape[1], -1)).reshape((-1, n) + moved.shape[1:])
    return np.moveaxis(out, 1, 1 + ax)


def _window_sum(setup, fields):
    """sum_z w_z sum_corner W(x + eps z) C[corner, y(x)] . F(x + eps z), nodewise.

    W is the slow-table hat and C the setup's gathered cell values n_at;
    fields holds F_k as (values, pad) on h-aligned grids. Nothing is
    located per offset: in 1D the setup's kernel has W and C folded in, so
    each component is one pass over the offsets; on a 2D mesh each axis is
    one sparse product of its stencil, and C is contracted last.
    """
    d = len(setup.stencils)
    out = 0.0
    for k, (vals, pad) in enumerate(fields):
        for a, st in enumerate(setup.stencils):
            ax = 2 * a  # a slot axes lead, each pass prepends one
            start = pad[a] + st.offsets
            if start[0] < 0 or start[-1] + st.n > vals.shape[ax]:
                raise TableCoverage("z shift leaves the extended gradient grid")
            if setup.kernel is not None:
                out = out + _kernel_pass(setup.kernel[k], vals, start)
            else:
                vals = _sparse_pass(st.op, vals, ax, start[0], st.n)
        if setup.kernel is None:
            out = out + np.sum(setup.n_at[k] * vals, axis=tuple(range(d)))
    return np.ravel(out)


@dataclass
class CorrectorSetup:
    """The load-independent part of the corrector on one mesh and eps:
    the per-axis stencils, the tabulated cell values N gathered at every
    slot and node, components first, and in 1D the window kernel."""

    mesh: Mesh
    eps: float
    table: CellTable
    stencils: list
    n_at: np.ndarray  # (k, slots_d..slots_1, n_1..n_d)
    kernel: np.ndarray | None  # (k, n_offsets, n) in 1D; None on a 2D mesh


def corrector_setup(table, mesh, eps):
    """Build the CorrectorSetup once per mesh and eps; every load reuses it.

    Each of the table's distinct solves is interpolated once, and the
    gather goes through each entry's solve index.
    """
    d = mesh.dim
    stencils, entry = _axis_stencils(table, mesh, _window_per_axis(mesh, eps))
    y, inv = _fast_coordinates(mesh, eps)
    n_vals = _interpolate_periodic(table.columns, table.cell_mesh, y)
    n_at = np.moveaxis(n_vals[table.cells[entry], inv.reshape((1,) * d + mesh.nodes_per_axis)], -1, 0)
    kernel = _window_kernel(stencils[0], n_at) if d == 1 else None
    return CorrectorSetup(mesh, eps, table, stencils, n_at, kernel)


def corrector_apply(setup, grads):
    """Assemble the corrector field K on the setup's mesh from the
    gradient components `build_r0` returns."""
    if any(g.source_mesh != setup.mesh for g in grads):
        raise MeshMismatch("corrector setup was built for another mesh")
    fields = [(g.base.reshaped(), g.pad) for g in grads]
    return GridFunction(setup.mesh, _window_sum(setup, fields))


def corrector_norm_check(K, f_norm, eps, p):
    """(eps ||DK||_p + ||K||_p) / ||f||_p; the sweep should stay level.

    DK is the element gradient of the nodal K, the gradient the w1_corr
    error takes of the eps K it subtracts.
    """
    return (eps * w1p_seminorm(K, p) + lp_norm(K, p)) / f_norm


def first_order(u0, K, eps):
    """The approximation u0 + eps * K, nodewise on the shared mesh."""
    if u0.mesh != K.mesh:
        raise MeshMismatch("u0 and K live on different meshes")
    return GridFunction(u0.mesh, u0.values + eps * K.values)
