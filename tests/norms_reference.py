"""Overlap-mesh reference for the shift-modulus seminorm, for tests only.

This is the original per-shift path: for every shift it builds the
overlap sub-mesh, wraps the nodal difference as a grid function on it and
takes its L_p norm through the mesh quadrature, and every dyadic level
sweeps all shifts up to its own length. It is slow but follows the
definition term by term, so `oscille.norms.besov_seminorm` is checked
against it.
"""

from __future__ import annotations

from oscille.mesh import GridFunction, Mesh
from oscille.norms import lp_norm


def _overlap_mesh(mesh, shift_cells):
    """Sub-mesh of the overlap when shifting by shift_cells (per axis)."""
    new_extents = []
    new_nodes = []
    for k in range(mesh.dim):
        s = shift_cells[k]
        lo, hi = mesh.extents[k]
        n = mesh.nodes_per_axis[k]
        keep = n - abs(s)
        if keep < 2:
            return None, None
        start = abs(s) if s < 0 else 0
        new_lo = lo + start * mesh.h[k]
        new_extents.append((new_lo, new_lo + (keep - 1) * mesh.h[k]))
        new_nodes.append(keep)
    return Mesh(mesh.dim, tuple(new_extents), tuple(new_nodes)), None


def _shift_difference(u, shift_cells):
    """u(.+h') - u on the overlap, as a GridFunction; None if empty."""
    vals = u.reshaped()
    sl_plus = []
    sl_base = []
    for k, s in enumerate(shift_cells):
        n = u.mesh.nodes_per_axis[k]
        if abs(s) >= n - 1:
            return None
        if s >= 0:
            sl_plus.append(slice(s, n))
            sl_base.append(slice(0, n - s))
        else:
            sl_plus.append(slice(0, n + s))
            sl_base.append(slice(-s, n))
    diff = vals[tuple(sl_plus)] - vals[tuple(sl_base)]
    sub, _ = _overlap_mesh(u.mesh, shift_cells)
    if sub is None:
        return None
    return GridFunction(sub, diff.ravel())


def shift_modulus(u, t_cells, p):
    """sup over grid shifts |h'| <= t of the L_p norm of u(.+h') - u.

    Shifts are axis-aligned multiples of the grid spacing; both axes are
    swept in 2D.
    """
    best = 0.0
    for axis in range(u.mesh.dim):
        for k in range(1, t_cells + 1):
            shift = [0] * u.mesh.dim
            shift[axis] = k
            d = _shift_difference(u, shift)
            if d is None:
                continue
            best = max(best, lp_norm(d, p))
    return best


def besov_seminorm(u, r, p):
    """Grid surrogate of sup_t t^(-r) * shift modulus at dyadic scales.

    Scales are t = h * 2^j with t at most a quarter of the shortest domain
    side. Constant fields give 0; Lipschitz fields stay bounded as r -> 1.
    """
    if not (0.0 < r < 1.0):
        raise ValueError("r must lie in (0, 1)")
    h = min(u.mesh.h)
    width = min(hi - lo for lo, hi in u.mesh.extents)
    best = 0.0
    j = 0
    while h * 2**j <= width / 4.0 + 1e-12:
        t = h * 2**j
        omega = shift_modulus(u, 2**j, p)
        best = max(best, t ** (-r) * omega)
        j += 1
    return best
