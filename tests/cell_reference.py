"""Reference cell assembly and interpolation, for tests only.

These are the straightforward forms that `oscille.cell` replaced: the
cell stiffness through a COO matrix whose duplicates scipy sums on
conversion to CSR, the loads and the mean functional through
`np.add.at`, and multilinear interpolation that indexes every corner of
the grid afresh. The production code is checked against them bit for bit.
"""

from __future__ import annotations

import itertools

import numpy as np
import scipy.sparse as sp

from oscille.cell import locate_on_axis
from oscille.mesh import quadrature


def stiffness_and_loads(a_vals, cell_mesh):
    """Cell stiffness matrix of the samples a_vals and the d loads."""
    q = quadrature(cell_mesh)
    d = cell_mesh.dim
    grads = q.shape_grads
    stiff = np.einsum("eg,g,gcd,gkd->eck", a_vals, q.weights, grads, grads, optimize=True)
    n_c = q.corners.shape[1]
    rows = np.repeat(q.corners, n_c, axis=1).ravel()
    cols = np.tile(q.corners, (1, n_c)).ravel()
    matrix = sp.csr_matrix((stiff.ravel(), (rows, cols)), shape=(cell_mesh.n_nodes, cell_mesh.n_nodes))
    loads = np.zeros((d, cell_mesh.n_nodes))
    for k in range(d):
        contrib = -np.einsum("eg,g,gc->ec", a_vals, q.weights, grads[:, :, k])
        np.add.at(loads[k], q.corners.ravel(), contrib.ravel())
    return matrix, loads


def mean_functional(cell_mesh):
    """c_i = int phi_i over the unit cell."""
    q = quadrature(cell_mesh)
    c = np.zeros(cell_mesh.n_nodes)
    contrib = np.einsum("g,gc->c", q.weights, q.shape_values)
    np.add.at(c, q.corners.ravel(), np.tile(contrib, q.corners.shape[0]))
    return c


def locate_on_axes(x_axes, pts):
    """Lower index and local weight per axis of the points (n, d)."""
    pts = np.asarray(pts, dtype=float).reshape(-1, len(x_axes))
    idx, loc = zip(*(locate_on_axis(ax, pts[:, k]) for k, ax in enumerate(x_axes)))
    return list(idx), list(loc)


def multilinear(values, x_axes, pts):
    """Corner loop at scattered points (n, d): each corner indexed on the
    grid and weighted by its hats."""
    idx, loc = locate_on_axes(x_axes, pts)
    terms = []
    for bits in itertools.product((0, 1), repeat=len(x_axes)):
        term = values[tuple(i + b for i, b in zip(idx, bits))]
        for t, b in zip(loc, bits):
            t = t.reshape(t.shape + (1,) * (term.ndim - 1))
            term = term * (t if b else 1 - t)
        terms.append(term)
    return sum(terms[1:], terms[0])
