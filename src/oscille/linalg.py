"""Sparse storage and the solvers behind every assembly/solve step.

Matrices live in compressed-row form; solves are deterministic so repeated
runs produce bit-identical results. The iterative path is conjugate
gradients with a Jacobi preconditioner, which is all the structured SPD
systems here need. Solver tolerances sit far below any homogenization
error being measured, keeping algebraic error out of the rate fits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

DEFAULT_TOL = 1e-10


class DimensionMismatch(ValueError):
    pass


class ZeroPivot(RuntimeError):
    pass


class SingularSystem(RuntimeError):
    pass


class NonConvergence(RuntimeError):
    def __init__(self, iterations, residual):
        super().__init__(f"no convergence after {iterations} iterations (residual {residual:.3e})")
        self.iterations = iterations
        self.residual = residual


@dataclass(frozen=True)
class SolveStats:
    iterations: int
    residual: float


@dataclass(frozen=True)
class SparseMatrix:
    """CSR matrix; column indices strictly increasing within each row."""

    n_rows: int
    n_cols: int
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    symmetric: bool = False

    @classmethod
    def from_coo(cls, n_rows, n_cols, rows, cols, vals, symmetric=False):
        m = sp.coo_matrix((vals, (rows, cols)), shape=(n_rows, n_cols)).tocsr()
        m.sum_duplicates()
        m.sort_indices()
        return cls(n_rows, n_cols, m.indptr, m.indices, m.data, symmetric)

    @classmethod
    def from_scipy(cls, m, symmetric=False):
        m = m.tocsr()
        m.sort_indices()
        return cls(m.shape[0], m.shape[1], m.indptr, m.indices, m.data, symmetric)

    def as_scipy(self):
        return sp.csr_matrix((self.data, self.indices, self.indptr), shape=(self.n_rows, self.n_cols))

    def matvec(self, v):
        v = np.asarray(v, dtype=float)
        if v.shape[0] != self.n_cols:
            raise DimensionMismatch(f"matrix is {self.n_rows}x{self.n_cols}, vector has {v.shape[0]}")
        return self.as_scipy() @ v

    def diagonal(self):
        return self.as_scipy().diagonal()

    def symmetry_defect(self):
        """max |M - M^T| relative to max |M|."""
        m = self.as_scipy()
        d = m - m.T
        top = np.max(np.abs(d.data)) if d.nnz else 0.0
        scale = np.max(np.abs(self.data)) if self.data.size else 1.0
        return top / scale if scale > 0 else 0.0


def solve_tridiag(sub, diag, sup, b):
    """Direct elimination for a tridiagonal system (Thomas algorithm).

    Caller guarantees diagonal dominance or positive definiteness; a
    vanishing pivot raises ZeroPivot.
    """
    diag = np.asarray(diag, dtype=float)
    b = np.asarray(b, dtype=float)
    n = diag.shape[0]
    sub = np.asarray(sub, dtype=float)
    sup = np.asarray(sup, dtype=float)
    if b.shape[0] != n or (n > 1 and (sub.shape[0] != n - 1 or sup.shape[0] != n - 1)):
        raise DimensionMismatch("tridiagonal bands and rhs sizes disagree")
    scale = np.max(np.abs(diag)) if n else 1.0
    c = np.empty(n)
    d = np.empty(n)
    piv = diag[0]
    if abs(piv) <= 1e-300 * max(scale, 1.0):
        raise ZeroPivot("zero pivot in tridiagonal elimination")
    c[0] = sup[0] / piv if n > 1 else 0.0
    d[0] = b[0] / piv
    for i in range(1, n):
        piv = diag[i] - sub[i - 1] * c[i - 1]
        if abs(piv) <= 1e-14 * max(scale, 1.0):
            raise ZeroPivot(f"zero pivot at row {i}")
        c[i] = sup[i] / piv if i < n - 1 else 0.0
        d[i] = (b[i] - sub[i - 1] * d[i - 1]) / piv
    x = np.empty(n)
    x[-1] = d[-1]
    for i in range(n - 2, -1, -1):
        x[i] = d[i] - c[i] * x[i + 1]
    return x


def _pcg(matvec, b, diag, tol, max_iter, project=None):
    """Jacobi-preconditioned CG; returns (x, iterations, relative residual)."""
    b = np.asarray(b, dtype=float)
    norm_b = float(np.linalg.norm(b))
    if norm_b == 0.0:
        return np.zeros_like(b), 0, 0.0
    inv_diag = 1.0 / diag
    x = np.zeros_like(b)
    r = b.copy()
    if project is not None:
        r = project(r)
    z = inv_diag * r
    p = z.copy()
    rz = float(r @ z)
    res = float(np.linalg.norm(r)) / norm_b
    it = 0
    while res > tol and it < max_iter:
        ap = matvec(p)
        alpha = rz / float(p @ ap)
        x += alpha * p
        r -= alpha * ap
        if project is not None:
            r = project(r)
        z = inv_diag * r
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
        res = float(np.linalg.norm(r)) / norm_b
        it += 1
    return x, it, res


def solve_spd(matrix, b, tol=DEFAULT_TOL, max_iter=None):
    """Solve M x = b for symmetric positive definite M.

    Returns (x, SolveStats); raises NonConvergence if the relative
    residual target is missed within max_iter iterations or the residual
    is not a number.
    """
    if not (1e-14 <= tol <= 1e-4):
        raise ValueError("tol must lie in [1e-14, 1e-4]")
    b = np.asarray(b, dtype=float)
    if b.shape[0] != matrix.n_rows or matrix.n_rows != matrix.n_cols:
        raise DimensionMismatch("solve_spd needs a square matrix matching the rhs")
    if max_iter is None:
        max_iter = max(1000, 20 * matrix.n_rows)
    m = matrix.as_scipy()
    diag = m.diagonal().copy()
    if np.any(diag <= 0):
        raise SingularSystem("nonpositive diagonal entry; matrix is not SPD")
    x, it, res = _pcg(lambda v: m @ v, b, diag, tol, max_iter)
    if not res <= tol:  # also catches a NaN residual
        raise NonConvergence(it, res)
    return x, SolveStats(it, res)


def solve_saddle(matrix, c, b, beta=0.0, tol=DEFAULT_TOL, max_iter=None):
    """Solve M x + lam*c = b, c.x = beta, for M semidefinite with constant kernel.

    The constraint functional c here is proportional to the kernel vector
    (the discrete mean on a periodic mesh), so the multiplier is fixed by
    projecting the equation onto constants: lam = sum(b)/sum(c). One CG
    solve on the mean-free complement then determines x up to a constant,
    and the constant is set by the constraint.
    """
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    n = matrix.n_rows
    if b.shape[0] != n or c.shape[0] != n:
        raise DimensionMismatch("saddle system sizes disagree")
    csum = float(c.sum())
    scale = max(float(np.abs(c).max()) if c.size else 0.0, 1e-300)
    if abs(csum) <= 1e-14 * scale * n:
        raise SingularSystem("constraint vector is orthogonal to the kernel of M")
    if max_iter is None:
        max_iter = max(1000, 20 * n)
    lam = float(b.sum()) / csum
    rhs = b - lam * c

    m = matrix.as_scipy()
    diag = m.diagonal().copy()
    if np.any(diag <= 0):
        raise SingularSystem("nonpositive diagonal entry in saddle solve")

    def project(v):
        return v - v.mean()

    x, it, res = _pcg(lambda v: m @ v, rhs, diag, tol, max_iter, project=project)
    if not res <= tol:  # also catches a NaN residual
        raise NonConvergence(it, res)
    x = x + (beta - float(c @ x)) / csum
    return x, lam, SolveStats(it, res)
