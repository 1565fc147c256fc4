"""Iterative solvers for the 2D fine-mesh and periodic cell systems.

Matrices are plain `scipy.sparse` CSR matrices as assembled by `fem`,
fine-mesh and cell systems alike; 1D fine-mesh systems are solved in
`fem` by banded Cholesky instead. The solvers here are preconditioned
conjugate gradients: `solve_spd` takes the preconditioner as a callable
(`fem` passes the per-line fast diagonalization of each 2D system) and
falls back to Jacobi, which the periodic cell solve `solve_saddle` runs on
mean-free vectors. They are deterministic, so repeated runs produce
bit-identical results. Convergence is judged on the recursive residual
against `tol`, which sits far below any homogenization error being
measured, keeping algebraic error out of the rate fits.
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
    """Preconditioned CG; returns (x, iterations, relative residual).

    The residual is tested before it is preconditioned, so a solve applies
    `precondition` once per iteration it continues into and never after the
    last one.
    """
    b = np.asarray(b, dtype=float)
    norm_b = float(np.linalg.norm(b))
    if norm_b == 0.0:
        return np.zeros_like(b), 0, 0.0
    x = np.zeros_like(b)
    r = b.copy()
    if project is not None:
        r = project(r)
    res = float(np.linalg.norm(r)) / norm_b
    it = 0
    while res > tol and it < max_iter:
        z = precondition(r)
        rz_new = float(r @ z)
        p = z.copy() if it == 0 else z + (rz_new / rz) * p
        rz = rz_new
        ap = matvec(p)
        alpha = rz / float(p @ ap)
        x += alpha * p
        r -= alpha * ap
        if project is not None:
            r = project(r)
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


def solve_saddle(matrix, b, tol=DEFAULT_TOL, max_iter=None):
    """Solve M x = b - mean(b) for the mean-free x; M is a scipy sparse
    matrix whose kernel is the constants, as a periodic stiffness's is.

    Jacobi CG projected onto mean-free vectors needs no multiplier
    (Kaasschieter, J. Comput. Appl. Math. 24, 1988). Its relative residual
    is taken against the mean-free load, the one it solves for, and `tol`
    must lie in [1e-14, 1e-4]. Returns (x, SolveStats).
    """
    _check_tol(tol)
    b = np.asarray(b, dtype=float)
    n = matrix.shape[0]
    if b.shape[0] != n or matrix.shape[1] != n:
        raise DimensionMismatch("solve_saddle needs a square matrix matching the rhs")
    if max_iter is None:
        max_iter = max(1000, 20 * n)

    def project(v):
        return v - v.mean()

    x, it, res = _pcg(lambda v: matrix @ v, project(b), _jacobi(matrix), tol, max_iter, project=project)
    if not res <= tol:  # also catches a NaN residual
        raise NonConvergence(it, res)
    return x - float(x @ np.full(n, 1.0 / n)), SolveStats(it, res)
