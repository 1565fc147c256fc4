"""Regularized first-order corrector assembly on the fine mesh.

The corrector applied to a load f is, nodewise,

    K(x) = cube-average over z of < N(x + eps z, frac(x/eps)),
                                    grad u0_delta(x + eps z) >,

where u0 is the effective solution extended off the domain, its gradient
is taken by central differences on the extended grid and mollified when
the regularity exponent s is below 1 (with delta = eps), and N comes from
the macroscopic cell table by linear interpolation in the slow variable
and periodic interpolation in the fast one. The z average uses the same
window weights as the Steklov smoother, so the two constructions agree.

The gradient of the corrector is a slow part (scaled by eps) plus a fast
part from the cell variable, by the chain rule inside the z average:

    eps DK_j = eps avg_z [ (d_j W) N G + W N (d_j G) ] + avg_z [ W (d_{y_j} N) G ],

with W the slow-table interpolation weights. K and all three gradient
terms are one kernel, `_window_sum`. The window weights and the slow hats
are both products of per-axis factors and every shift x + eps z is a
fine-grid node, so the z average is d passes of per-axis 1D stencils
followed by one gather of the tabulated cell values. On a 2D mesh each
pass is one sparse product: the axis stencil, or its slow-derivative
twin, is a CSR map from the shifted nodes to (slot, node) rows, applied
to every column of the other axis at once. A 1D pass has one column, so
building that map would cost as much as the pass; it loops over the
offsets instead. Stencils, maps and gathered values do not depend on the
load: `corrector_setup` builds them once per mesh and eps, interpolating
each distinct cell solution once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .cell import CellTable, TableCoverage, _interpolate_periodic, locate_on_axes
from .mesh import GridFunction, Mesh, MeshMismatch, r_cell
from .smoothing import ExtendedFunction, _extended_mesh, _window_per_axis, extend, mollify, window_weights

MARGIN_FACTOR = 5.0


@dataclass
class CorrectorInputs:
    u0_ext: ExtendedFunction
    grads: list  # d ExtendedFunction gradient components (mollified if s < 1)
    table: CellTable
    eps: float

    @property
    def mesh(self):
        return self.u0_ext.source_mesh


def corrector_margin(eps, dim, width=None):
    """Extension margin used throughout: five cube radii.

    The reflection can only extend by half the domain width, so the
    five-radius margin is capped when eps is a sizable fraction of the
    domain; the cap always leaves room for the cube shifts themselves.
    """
    margin = MARGIN_FACTOR * r_cell(dim) * eps
    if width is not None:
        margin = min(margin, 0.5 * width * 0.92)
    return margin


def table_margin(eps, rho):
    """How far past the domain the corrector reads the cell table at eps.

    `_axis_stencils` locates x + h j for the offsets j of
    `window_weights(rho)`, h = eps / rho, so the widest offset times h is
    the whole reach; the extension margin of u0 is wider and not needed.
    """
    offsets, _ = window_weights(rho)
    return float(np.max(np.abs(offsets))) * eps / rho


def _central_diff_axis(vals, h, axis):
    moved = np.moveaxis(vals, axis, 0)
    out = (moved[2:] - moved[:-2]) / (2.0 * h)
    return np.moveaxis(out, 0, axis)


def _shrink(ext, n_nodes):
    """Drop n_nodes of padding per side (values array already cropped)."""
    return tuple(p - n_nodes for p in ext.pad)


def build_r0(u0, scenario, eps):
    """Extend the effective solution and produce its (mollified) gradient.

    Returns (u0_ext, grads): the extension of u0 and d gradient component
    ExtendedFunctions. Mollification with delta = eps applies exactly when
    scenario.s < 1; for s = 1 the gradient is used as is.
    """
    mesh = u0.mesh
    d = mesh.dim
    width = min(hi - lo for lo, hi in mesh.extents)
    extra = eps if scenario.s < 1.0 else 0.0  # mollification eats one delta
    margin = corrector_margin(eps, d, width=width) + extra
    hard = 0.5 * eps + 2.0 * max(mesh.h) + extra
    margin = max(min(margin, 0.5 * width - 2.0 * max(mesh.h)), hard)
    u0_ext = extend(u0, margin)
    emesh = u0_ext.mesh
    vals = u0_ext.base.reshaped()
    grads = []
    for k in range(d):
        g = _central_diff_axis(vals, emesh.h[k], k)
        # central differences drop one node on the differenced axis only;
        # crop one node on every axis to keep the box symmetric
        sl = tuple(slice(1, -1) if ax != k else slice(None) for ax in range(d))
        g = g[sl]
        pad = _shrink(u0_ext, 1)
        gext = ExtendedFunction(GridFunction(_extended_mesh(mesh, pad), g.ravel()), mesh, pad)
        if scenario.s < 1.0:
            gext = mollify(gext, eps)
        grads.append(gext)
    return u0_ext, grads


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
    y = np.stack(np.meshgrid(*uniq, indexing="ij"), axis=-1).reshape(-1, mesh.dim)
    return y, np.ravel_multi_index(np.meshgrid(*invs, indexing="ij"), [len(u) for u in uniq])


@dataclass
class _AxisStencil:
    """Window-weighted slow-table hats along one axis.

    The window offsets j of node i reach the points x_0 + h q, q = i + j;
    each lies in table cell idx[q] with local coordinate t[q] (q counted
    from the first offset). Node i's table indices are stored as slots
    counted from idx[i], the cell of its first offset. On a 2D mesh `ops`
    holds the axis pass as CSR maps, the hat's and its x-derivative's.
    """

    offsets: np.ndarray  # window offsets in fine-grid cells
    w: np.ndarray  # window weight per offset
    idx: np.ndarray  # (n + n_offsets - 1,)
    t: np.ndarray  # (n + n_offsets - 1,)
    inv_h: float  # 1 / table spacing
    n_slots: int
    ops: tuple = ()  # (hat, d/dx hat), each (n_slots * n, n + span); empty in 1D

    @property
    def span(self):
        return self.offsets[-1] - self.offsets[0]

    @property
    def n(self):
        return len(self.idx) - self.span

    def hat(self, col, deriv):
        """Each node's slot for offset number col, and the weights there.

        The hat puts w (1 - t) on cell idx and w t on idx + 1; its
        x-derivative puts -w / H and w / H there.
        """
        n = self.n
        q0 = self.offsets[col] - self.offsets[0]
        slot = self.idx[q0 : q0 + n] - self.idx[:n]
        t = self.t[q0 : q0 + n]
        lower, upper = (np.full(n, -self.inv_h), np.full(n, self.inv_h)) if deriv else (1.0 - t, t)
        return slot, self.w[col] * lower, self.w[col] * upper


def _axis_operator(st, deriv):
    """The axis pass as one CSR map from n + span shifted nodes to (slot, node).

    Row (s, i) holds node i's offsets whose point lies in table cell
    idx[i] + s - 1 (upper hat) or idx[i] + s (lower hat), columns in offset
    order, so each row sums its terms in the order the streamed pass does.
    """
    n = st.n
    hats = [st.hat(col, deriv) for col in range(len(st.offsets))]
    slot, lower, upper = (np.stack(parts, axis=1) for parts in zip(*hats))  # each (n, n_offsets)
    cols = np.arange(n)[:, None] + (st.offsets - st.offsets[0])
    data, indices, counts = [], [], []
    for s in range(st.n_slots):
        is_lower = slot == s
        hit = is_lower | (slot == s - 1)
        i, c = np.nonzero(hit)  # node-major, offsets ascending
        data.append(np.where(is_lower[i, c], lower[i, c], upper[i, c]))
        indices.append(cols[i, c])
        counts.append(np.count_nonzero(hit, axis=1))
    indptr = np.concatenate([[0], np.cumsum(np.concatenate(counts))])
    return sp.csr_matrix((np.concatenate(data), np.concatenate(indices), indptr), shape=(st.n_slots * n, n + st.span))


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
        st = _AxisStencil(offs, w, idx, t, 1.0 / (x_axis[1] - x_axis[0]), n_slots)
        if d > 1:
            st.ops = (_axis_operator(st, False), _axis_operator(st, True))
        stencils.append(st)
        # slots past the table end carry zero weight; clip them to a valid entry
        ids = np.minimum(np.arange(n_slots)[:, None] + idx[:n], len(x_axis) - 1)
        shape = [1] * (2 * d)
        shape[d - 1 - a], shape[d + a] = ids.shape
        entry = entry * len(x_axis) + ids.reshape(shape)
    return stencils, entry


def _streamed_pass(st, vals, start, deriv):
    """A 1D pass: one (n_slots, n) weight per offset, accumulated in order."""
    n = st.n
    nodes = np.arange(n)
    acc = 0.0
    for col, s0 in enumerate(start):
        slot, lower, upper = st.hat(col, deriv)
        weight = np.zeros((st.n_slots, n))
        weight[slot, nodes] = lower
        weight[slot + 1, nodes] = upper
        acc = acc + vals[s0 : s0 + n] * weight
    return acc


def _sparse_pass(op, vals, ax, s0, n):
    """op @ X along axis ax of vals, starting at node s0; prepends the slot axis."""
    moved = np.moveaxis(vals, ax, 0)[s0 : s0 + op.shape[1]]
    out = (op @ moved.reshape(op.shape[1], -1)).reshape((-1, n) + moved.shape[1:])
    return np.moveaxis(out, 1, 1 + ax)


def _window_sum(stencils, coeff, fields, deriv_axis=None):
    """sum_z w_z sum_corner W(x + eps z) C[corner, y(x)] . F(x + eps z), nodewise.

    W is the slow-table hat, or its x-derivative along deriv_axis. coeff
    holds C_k at every slot and node, shape (d, slots_d..slots_1, n_1..n_d);
    fields holds F_k as (values, pad) on h-aligned grids. Each axis is one
    pass of its 1D stencil, so nothing is located per offset: a sparse
    product on a 2D mesh, a loop over the offsets in 1D.
    """
    d = len(stencils)
    out = 0.0
    for k, (vals, pad) in enumerate(fields):
        for a, st in enumerate(stencils):
            ax = 2 * a  # a slot axes lead, each pass prepends one
            start = pad[a] + st.offsets
            if start[0] < 0 or start[-1] + st.n > vals.shape[ax]:
                raise TableCoverage("z shift leaves the extended gradient grid")
            deriv = a == deriv_axis
            if st.ops:
                vals = _sparse_pass(st.ops[deriv], vals, ax, start[0], st.n)
            else:
                vals = _streamed_pass(st, vals, start, deriv)
        out = out + np.sum(coeff[k] * vals, axis=tuple(range(d)))
    return np.ravel(out)


@dataclass
class CorrectorSetup:
    """The load-independent part of the corrector on one mesh and eps:
    the per-axis stencils, and the tabulated cell values N and d/dy N
    gathered at every slot and node, components first."""

    mesh: Mesh
    eps: float
    table: CellTable
    stencils: list
    n_at: np.ndarray  # (k, slots_d..slots_1, n_1..n_d)
    dn_at: np.ndarray  # (j, k, slots_d..slots_1, n_1..n_d)


def corrector_setup(table, mesh, eps):
    """Build the CorrectorSetup once per mesh and eps; every load reuses it.

    Entries sharing one CellSolution object share its values, so each
    distinct object is interpolated once and the gather goes through the
    entry -> solution index.
    """
    d = mesh.dim
    stencils, entry = _axis_stencils(table, mesh, _window_per_axis(mesh, eps))
    y, inv = _fast_coordinates(mesh, eps)
    distinct = list({id(sol): sol for sol in table.cells}.values())
    row = {id(sol): i for i, sol in enumerate(distinct)}
    sol_of = np.array([row[id(sol)] for sol in table.cells])
    n_vals, n_grads = _interpolate_periodic([sol.columns for sol in distinct], table.cell_mesh, y)
    at = (sol_of[entry], inv.reshape((1,) * d + mesh.nodes_per_axis))
    n_at = np.moveaxis(n_vals[at], -1, 0)  # (k, ...)
    dn_at = np.moveaxis(n_grads[at], (-2, -1), (0, 1))  # (j, k, ...)
    return CorrectorSetup(mesh, eps, table, stencils, n_at, dn_at)


def _gradient_fields(inputs, setup):
    if setup.mesh != inputs.mesh or setup.eps != inputs.eps or setup.table is not inputs.table:
        raise MeshMismatch("corrector setup was built for another mesh, eps or table")
    return [(g.base.reshaped(), g.pad) for g in inputs.grads]


def corrector_apply(inputs, setup):
    """Assemble the corrector field K on the source mesh."""
    return GridFunction(inputs.mesh, _window_sum(setup.stencils, setup.n_at, _gradient_fields(inputs, setup)))


def corrector_gradient(inputs, setup):
    """eps * D K = slow part + fast part, each a window sum, per component j.

    slow_j = eps * cube-average of (d/dx_j W) N_k G_k + W N_k (d/dx_j G_k),
    fast_j = cube-average of W (d/dy_j N_k) G_k,
    with W the slow-table interpolation weights.
    """
    fields = _gradient_fields(inputs, setup)
    stencils, n_at, dn_at = setup.stencils, setup.n_at, setup.dn_at
    out = []
    for j in range(inputs.mesh.dim):
        dfields = [
            (_central_diff_axis(vals, g.mesh.h[j], j), tuple(p - (a == j) for a, p in enumerate(pad)))
            for g, (vals, pad) in zip(inputs.grads, fields)
        ]
        slow = _window_sum(stencils, n_at, fields, deriv_axis=j) + _window_sum(stencils, n_at, dfields)
        fast = _window_sum(stencils, dn_at[j], fields)
        out.append(GridFunction(inputs.mesh, inputs.eps * slow + fast))
    return out


def corrector_norm_check(K, dk_components, f_norm, eps, p):
    """(eps ||DK||_p + ||K||_p) / ||f||_p; the sweep should stay level."""
    from .norms import lp_norm

    mag = np.zeros(K.mesh.n_nodes)
    for comp in dk_components:
        mag += comp.values**2
    # dk_components already carry the eps scaling from the assembly
    dk_norm = lp_norm(GridFunction(K.mesh, np.sqrt(mag)), p)
    k_norm = lp_norm(K, p)
    return (dk_norm + k_norm) / f_norm


def first_order(u0, K, eps):
    """The approximation u0 + eps * K, nodewise on the shared mesh."""
    if u0.mesh != K.mesh:
        raise MeshMismatch("u0 and K live on different meshes")
    return GridFunction(u0.mesh, u0.values + eps * K.values)
