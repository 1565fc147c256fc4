"""Iterative solvers for the 2D fine-mesh and periodic cell systems.

Matrices are plain `scipy.sparse` CSR matrices as assembled by `fem` and
`cell`; 1D systems are solved in `fem` by banded Cholesky instead. The
solvers here are preconditioned conjugate gradients: `solve_spd` takes
the preconditioner as a callable (`fem` passes the fast diagonalization
of each 2D system) and falls back to Jacobi, which the periodic cell
solve `solve_saddle` uses. They are deterministic, so repeated runs
produce bit-identical results. Convergence is judged on the
recursive residual against `tol`, which sits far below any
homogenization error being measured, keeping algebraic error out of the
rate fits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ConfigError, NumericalError

DEFAULT_TOL = 1e-10


class DimensionMismatch(ConfigError):
    pass


class SingularSystem(NumericalError):
    pass


class NonConvergence(NumericalError):
    def __init__(self, iterations, residual):
        super().__init__(f"no convergence after {iterations} iterations (residual {residual:.3e})")
        self.iterations = iterations
        self.residual = residual


@dataclass(frozen=True)
class SolveStats:
    iterations: int
    residual: float


def _check_tol(tol):
    if not (1e-14 <= tol <= 1e-4):  # also rejects NaN
        raise ConfigError(f"tol must lie in [1e-14, 1e-4], got {tol!r}")


def _jacobi(matrix):
    diag = matrix.diagonal()
    if np.any(diag <= 0):
        raise SingularSystem("nonpositive diagonal entry; matrix is not SPD")
    inv_diag = 1.0 / diag
    return lambda r: inv_diag * r


def _pcg(matvec, b, precondition, tol, max_iter, project=None):
    """Preconditioned CG; returns (x, iterations, relative residual)."""
    b = np.asarray(b, dtype=float)
    norm_b = float(np.linalg.norm(b))
    if norm_b == 0.0:
        return np.zeros_like(b), 0, 0.0
    x = np.zeros_like(b)
    r = b.copy()
    if project is not None:
        r = project(r)
    z = precondition(r)
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
        z = precondition(r)
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
        res = float(np.linalg.norm(r)) / norm_b
        it += 1
    return x, it, res


def solve_spd(matrix, b, tol=DEFAULT_TOL, max_iter=None, preconditioner=None):
    """Solve M x = b for a symmetric positive definite scipy sparse M.

    `preconditioner` maps a residual to an approximation of M^-1 applied
    to it and must be symmetric positive definite; the default is Jacobi.
    Returns (x, SolveStats); raises NonConvergence if the relative
    residual target is missed within max_iter iterations or the residual
    is not a number.
    """
    _check_tol(tol)
    b = np.asarray(b, dtype=float)
    n = matrix.shape[0]
    if b.shape[0] != n or matrix.shape[1] != n:
        raise DimensionMismatch("solve_spd needs a square matrix matching the rhs")
    if max_iter is None:
        max_iter = max(1000, 20 * n)
    if preconditioner is None:
        preconditioner = _jacobi(matrix)
    x, it, res = _pcg(lambda v: matrix @ v, b, preconditioner, tol, max_iter)
    if not res <= tol:  # also catches a NaN residual
        raise NonConvergence(it, res)
    return x, SolveStats(it, res)


def solve_saddle(matrix, c, b, beta=0.0, tol=DEFAULT_TOL, max_iter=None):
    """Solve M x + lam*c = b, c.x = beta, for a scipy sparse M with constant kernel.

    The constraint functional c here is proportional to the kernel vector
    (the discrete mean on a periodic mesh), so the multiplier is fixed by
    projecting the equation onto constants: lam = sum(b)/sum(c). One CG
    solve on the mean-free complement then determines x up to a constant,
    and the constant is set by the constraint. `tol` must lie in
    [1e-14, 1e-4], as for `solve_spd`.
    """
    _check_tol(tol)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    n = matrix.shape[0]
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

    def project(v):
        return v - v.mean()

    x, it, res = _pcg(lambda v: matrix @ v, rhs, _jacobi(matrix), tol, max_iter, project=project)
    if not res <= tol:  # also catches a NaN residual
        raise NonConvergence(it, res)
    x = x + (beta - float(c @ x)) / csum
    return x, lam, SolveStats(it, res)
