"""Reference fine-mesh assembly, for tests only.

This is the straightforward form that `oscille.fem.assemble` replaced:
the element matrices go into a COO matrix over all nodes, whose
duplicates scipy sums on conversion to CSR, and the reduced system is the
slice `full[free][:, free]`, with the Dirichlet nodes found from the node
coordinates; the load vector goes through `np.add.at`. The production
code is checked against it bit for bit.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from oscille import core
from oscille.mesh import GridFunction, quadrature


def element_matrices(mesh, sampler, mu):
    """Per element, (a grad phi_k, grad phi_c) - mu (phi_k, phi_c), shape (E, c, k)."""
    q = quadrature(mesh)
    n_el, n_g, d = q.points.shape
    a_vals = np.asarray(sampler(q.points.reshape(-1, d)), dtype=float)
    grads = q.shape_grads
    if a_vals.ndim == 1:
        a_vals = a_vals.reshape(n_el, n_g)
        stiff = np.einsum("eg,g,gcd,gkd->eck", a_vals, q.weights, grads, grads, optimize=True)
    else:
        a_vals = a_vals.reshape(n_el, n_g, d, d)
        stiff = np.einsum("eg,gcd,egdm,gkm->eck", np.tile(q.weights, (n_el, 1)), grads, a_vals, grads, optimize=True)
    if mu != 0.0:
        mass = np.einsum("g,gc,gk->ck", q.weights, q.shape_values, q.shape_values)
        stiff = stiff - mu * mass[None, :, :]
    return stiff


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
    if isinstance(f, GridFunction):
        f_g = f.values[q.corners] @ q.shape_values.T
    else:
        f_g = np.asarray(f(q.points.reshape(-1, mesh.dim)), dtype=float).reshape(q.points.shape[:2])
    contrib = np.einsum("eg,g,gc->ec", f_g, q.weights, q.shape_values)
    out = np.zeros(mesh.n_nodes)
    np.add.at(out, q.corners.ravel(), contrib.ravel())
    return out
