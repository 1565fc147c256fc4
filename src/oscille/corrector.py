"""Regularized first-order corrector assembly on the fine mesh.

The corrector applied to a load f is, nodewise,

    K(x) = cube-average over z of < N(x + eps z, frac(x/eps)),
                                    grad u0_delta(x + eps z) >,

where u0 is the effective solution extended off the domain, its gradient
is taken by central differences on the extended grid and mollified when
the regularity exponent s is below 1 (with delta = eps), and N comes from
the macroscopic cell table by linear interpolation in the slow variable
and, in the fast one, on the cell grid wrapped by one node layer
(`cell._interpolate_periodic`); both by `cell.lerp_axis`, once per axis
of a tensor grid of points.

The fast argument does not move with z, and the slow interpolation is
N(x, y) = sum_e phi_e(x) N_c(e)(y), with phi_e the table's multilinear
hats (along each axis, each reach point's lower table node and weight,
`cell.locate_on_axis`) and c(e) the distinct cell solve of entry e.
Grouping the entries by solve,

    K = sum_c sum_k N_c,k(frac(x/eps)) S_eps(Phi_c d_k u0_delta),
    Phi_c = sum of phi_e over the entries e of solve c,

where S_eps is `smoothing`'s Steklov cube average, the same window
weights. Phi_c vanishes off its entries' hats, so each average runs only
on the box of nodes whose windows reach that support
(`smoothing.steklov_box`). A table with one distinct solve, as every
separable preset g(x) b(y) gives, has Phi = 1 and builds none: K is
then d whole-grid Steklov averages per load, each times the gathered cell
values. The boxes, Phi_c and the gathered values do not depend on the load:
`corrector_setup` builds them once per mesh and eps, interpolating each
distinct solve once. The setup holds the mesh, eps and table, so
`corrector_apply` takes only it and the gradient fields that `build_r0`
makes of each load's u0.

The gradient of K is the element gradient of its nodal values, the one
the w1_corr error differentiates when it subtracts eps K; the
boundedness check measures that same gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cell import CellTable, TableCoverage, _interpolate_periodic, lerp_axis, locate_on_axis
from .mesh import GridFunction, Mesh, MeshMismatch
from .norms import lp_norm, w1p_seminorm
from .smoothing import ExtendedFunction, InsufficientMargin, _central_diff, _extended_mesh, _window_per_axis, extend
from .smoothing import mollify, steklov_box, window_weights


def table_margin(eps, rho):
    """How far past the domain the corrector reads the cell table at eps.

    `corrector_setup` locates x + h j on the table for the offsets j of
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
    """The distinct fast coordinates frac(x/eps) per axis, and each node's
    index into the tensor grid of points they span.

    Each axis takes only a few distinct values. Returns one coordinate
    array per axis and inv of shape nodes_per_axis, each node's flat (C
    order) index on that grid.
    """
    uniq, invs = [], []
    for a in range(mesh.dim):
        y = mesh.axis_coords(a) / eps
        u, inv = np.unique(np.round((y - np.floor(y)) / 1e-12).astype(np.int64), return_inverse=True)
        uniq.append(u * 1e-12)
        invs.append(inv)
    return uniq, np.ravel_multi_index(np.ix_(*invs), [len(u) for u in uniq])


def _solve_box(on, stencils, spans, nodes):
    """The node box whose windows reach the hats of the entries marked in
    `on`, and Phi = `on` interpolated on the box's reach; None when no window
    reaches them. stencils holds per axis the table stencil (idx, t) of the
    reach points, row q at x_0 + h (offs[0] + q): node i reads rows i .. i + span."""
    box, phi = [], on.astype(float)
    for a, ((idx, t), span, n) in enumerate(zip(stencils, spans, nodes)):
        marked = on.any(axis=tuple(b for b in range(on.ndim) if b != a))
        q = np.flatnonzero((marked[idx] & (t < 1)) | (marked[idx + 1] & (t > 0)))
        if not len(q):
            return None
        lo, hi = max(q[0] - span, 0), min(q[-1] + 1, n)
        box.append((lo, hi))
        phi = lerp_axis(phi, idx[lo : hi + span], t[lo : hi + span], axis=a)
    return tuple(box), phi


@dataclass
class CorrectorSetup:
    """The load-independent part of the corrector on one mesh and eps: for
    each distinct cell solve c whose slow support a window reaches, the box
    of nodes whose windows reach it, Phi_c on that box's reach, and N_c
    gathered at the box's nodes, components first. A one-solve table has
    one whole-grid box and Phi = 1, held as None."""

    mesh: Mesh
    eps: float
    table: CellTable
    boxes: list  # per solve: one node range (lo, hi) per axis
    weights: list  # per solve: Phi_c on the box's reach, or None
    n_at: list  # per solve: (d,) + box shape


def corrector_setup(table, mesh, eps):
    """Build the CorrectorSetup once per mesh and eps; every load reuses it.

    Raises TableCoverage when a window reaches past the table. Each of
    the table's distinct solves is interpolated once at the fast
    coordinates.
    """
    windows = _window_per_axis(mesh, eps)
    stencils = []
    for a, (ax, (offs, _)) in enumerate(zip(table.x_axes, windows)):
        reach = mesh.axis_coords(a)[0] + mesh.h[a] * np.arange(offs[0], mesh.nodes_per_axis[a] + offs[-1])
        try:
            stencils.append(locate_on_axis(ax, reach))
        except TableCoverage as exc:
            raise TableCoverage(f"slow axis {a}: {exc}") from exc
    y, inv = _fast_coordinates(mesh, eps)
    n_vals = _interpolate_periodic(table.columns, table.cell_mesh, y).reshape(len(table.columns), -1, mesh.dim)
    if len(table.columns) == 1:  # Phi = 1, and every window reaches it
        whole = tuple((0, n) for n in mesh.nodes_per_axis)
        return CorrectorSetup(mesh, eps, table, [whole], [None], [n_vals[0].T[:, inv]])
    spans = [offs[-1] - offs[0] for offs, _ in windows]
    cells = table.cells.reshape(tuple(len(ax) for ax in table.x_axes))
    boxes, weights, n_at = [], [], []
    for c in range(len(table.columns)):
        found = _solve_box(cells == c, stencils, spans, mesh.nodes_per_axis)
        if found is not None:
            box, phi = found
            boxes.append(box)
            weights.append(phi)
            n_at.append(n_vals[c].T[:, inv[tuple(slice(lo, hi) for lo, hi in box)]])
    return CorrectorSetup(mesh, eps, table, boxes, weights, n_at)


def corrector_apply(setup, grads):
    """Assemble the corrector field K on the setup's mesh from the
    gradient components `build_r0` returns: per solve and component, the
    gathered cell values times one Steklov average."""
    if any(g.source_mesh != setup.mesh for g in grads):
        raise MeshMismatch("corrector setup was built for another mesh")
    out = np.zeros(setup.mesh.nodes_per_axis)
    for box, phi, n_at in zip(setup.boxes, setup.weights, setup.n_at):
        at = out[tuple(slice(lo, hi) for lo, hi in box)]
        for n_k, g in zip(n_at, grads):
            try:
                at += n_k * steklov_box(g, setup.eps, box, phi)
            except InsufficientMargin as exc:
                raise TableCoverage(f"z shift leaves the extended gradient grid: {exc}") from exc
    return GridFunction(setup.mesh, out.ravel())


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
