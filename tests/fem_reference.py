"""Reference fine-mesh assembly, for tests only.

This is the straightforward form that `oscille.fem.assemble` replaced:
the element matrices go into a COO matrix over all nodes, whose
duplicates scipy sums on conversion to CSR, and the reduced system is the
slice `full[free][:, free]`, with the Dirichlet nodes found from the node
coordinates; the load vector goes through `np.add.at`. The element
matrices and load contributions are production's own Gauss contractions,
so the production pattern, scatter and Dirichlet sets are checked against
it bit for bit. The contractions themselves are checked to rounding
against `einsum_element_matrices` and `einsum_load_contributions`, the
einsum forms they replaced. `line_scales` is the preconditioner's line
scaling in its two-pass form: it checks the eigenvalues of A at every
Gauss point for positivity, where `fem._line_scales` checks the diagonal
and the scaled eigenvalues, and then forms the eigenvalues of
D^-1/2 A D^-1/2 of a tensor out of place; `fem._line_scales` is checked
against it bit for bit.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp

from oscille import core, fem, linalg
from oscille.mesh import GridFunction, quadrature


def einsum_element_matrices(a_vals, q, mu):
    """(a grad phi_k, grad phi_c) - mu (phi_k, phi_c) of samples (E, g) or (E, g, d, d) as one einsum each."""
    grads = q.shape_grads
    if a_vals.ndim == 2:
        stiff = np.einsum("eg,g,gcd,gkd->eck", a_vals, q.weights, grads, grads, optimize=True)
    else:
        weights = np.tile(q.weights, (len(a_vals), 1))
        stiff = np.einsum("eg,gcd,egdm,gkm->eck", weights, grads, a_vals, grads, optimize=True)
    if mu != 0.0:
        mass = np.einsum("g,gc,gk->ck", q.weights, q.shape_values, q.shape_values)
        stiff = stiff - mu * mass[None, :, :]
    return stiff


def einsum_load_contributions(f_g, q):
    """int f phi_c over each element of samples f_g (E, g) as one einsum."""
    return np.einsum("eg,g,gc->ec", f_g, q.weights, q.shape_values)


def gauss_samples(mesh, f):
    """A callable of points sampled at the Gauss points, (E, g) or (E, g, d, d)."""
    q = quadrature(mesh)
    vals = np.asarray(f(q.points.reshape(-1, mesh.dim)), dtype=float)
    return vals.reshape(q.points.shape[:2] + vals.shape[1:])


def element_matrices(mesh, sampler, mu):
    """Per element, (a grad phi_k, grad phi_c) - mu (phi_k, phi_c), shape (E, c, k)."""
    return fem._element_matrices(gauss_samples(mesh, sampler), quadrature(mesh), mu)


def full_matrix(mesh, stiff):
    """The element matrices summed over all nodes through COO."""
    corners = quadrature(mesh).corners
    n_c = corners.shape[1]
    rows = np.repeat(corners, n_c, axis=1).ravel()
    cols = np.tile(corners, (1, n_c)).ravel()
    return sp.csr_matrix((stiff.ravel(), (rows, cols)), shape=(mesh.n_nodes, mesh.n_nodes))


def dirichlet_nodes(mesh, bc):
    """Nodes on the Dirichlet edges, by their coordinates."""
    if bc.kind == "neumann":
        return np.zeros(0, dtype=np.intp)
    edges = (core.EDGE_NAMES_1D if mesh.dim == 1 else core.EDGE_NAMES_2D) if bc.kind == "dirichlet" else bc.dirichlet_edges
    pts = mesh.node_coords()
    ends = {"left": (0, 0), "right": (0, 1), "bottom": (1, 0), "top": (1, 1)}
    on = np.zeros(mesh.n_nodes, dtype=bool)
    for e in edges:
        axis, end = ends[e]
        on |= pts[:, axis] == mesh.extents[axis][end]
    return np.nonzero(on)[0]


def assemble(mesh, sampler, mu, bc):
    """(reduced matrix, free dofs, constrained dofs) as the COO assembly gave them."""
    full = full_matrix(mesh, element_matrices(mesh, sampler, mu))
    constrained = dirichlet_nodes(mesh, bc)
    keep = np.ones(mesh.n_nodes, dtype=bool)
    keep[constrained] = False
    free = np.nonzero(keep)[0]
    return full[free][:, free], free, constrained


def assemble_load(mesh, f):
    """F_i = integral f * phi_i, a callable or the nodal interpolant of a GridFunction."""
    q = quadrature(mesh)
    f_g = f.values[q.corners] @ q.shape_values.T if isinstance(f, GridFunction) else gauss_samples(mesh, f)
    contrib = fem._load_contributions(f_g, q)
    out = np.zeros(mesh.n_nodes)
    np.add.at(out, q.corners.ravel(), contrib.ravel())
    return out


def symmetric_eigenvalues(a, d, off):
    """Eigenvalues (lo, hi) of [[a, off/2], [off/2, d]], out of place."""
    mid = 0.5 * (a + d)
    rad = np.hypot(0.5 * (a - d), 0.5 * off)
    return mid - rad, mid + rad


def eigenvalues(a_vals):
    """Smallest and largest eigenvalue of each scalar (E, g) or 2x2 (..., 2, 2) sample."""
    if a_vals.ndim == 2:
        return a_vals, a_vals
    return symmetric_eigenvalues(a_vals[..., 0, 0], a_vals[..., 1, 1], a_vals[..., 0, 1] + a_vals[..., 1, 0])


def coefficient_bounds(a_vals):
    """Extreme eigenvalues (lo, hi) over scalar (E, g) or 2x2 (..., 2, 2) samples."""
    return tuple(float(f(x)) for f, x in zip((np.min, np.max), eigenvalues(a_vals)))


def line_scales(a_vals, cells1):
    """Bounds (lo, hi), alpha and beta of the x1 Gauss lines: alpha = beta = sqrt(lo_l hi_l) of a scalar's
    line extremes, and for a tensor the scales of the A11 and A22 line extremes."""

    def extreme(x, f):  # f (np.minimum or np.maximum) over each line of samples x (E, 4)
        r = x.reshape(cells1, -1, 2, 2)
        lines = np.empty((cells1, 2, r.shape[1]))
        f(r[..., 0], r[..., 1], out=lines.transpose(0, 2, 1))
        return f.reduce(lines, axis=2)

    lo, hi = (extreme(x, f) for x, f in zip(eigenvalues(a_vals), (np.minimum, np.maximum)))
    glo, ghi = coefficient_bounds(np.concatenate([lo, hi], axis=1))
    if not (glo > 0.0 and math.isfinite(ghi / glo)):
        raise linalg.SingularSystem(f"coefficient eigenvalues in [{glo:g}, {ghi:g}] are not uniformly positive")
    if a_vals.ndim == 2:
        s = np.sqrt(lo) * np.sqrt(hi)
        return coefficient_bounds(np.concatenate([lo / s, hi / s], axis=1)), s, s
    diagonal = a_vals[..., 0, 0], a_vals[..., 1, 1]
    alpha, beta = (np.sqrt(extreme(x, np.minimum)) * np.sqrt(extreme(x, np.maximum)) for x in diagonal)
    ra, rb = (1.0 / np.sqrt(x)[:, None, :, None] for x in (alpha, beta))
    b, w = a_vals.reshape(cells1, -1, 2, 2, 2, 2), ra * rb
    off = b[..., 0, 1] * w + b[..., 1, 0] * w
    tlo, thi = symmetric_eigenvalues(b[..., 0, 0] * (ra * ra), b[..., 1, 1] * (rb * rb), off)
    return (float(np.min(tlo)), float(np.max(thi))), alpha, beta
