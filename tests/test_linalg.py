import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import solveh_banded

from oscille import fem, linalg
from oscille.core import ConfigError
from oscille.cell import _mean_functional, _periodic_stiffness_and_loads
from oscille.core import preset_coefficient
from oscille.mesh import build_cell_mesh, build_domain_mesh


def _solve_1d(dense, b):
    """Solve dense x = b through the 1D path of fem.solve_resolvent.

    The hand-built system has one free node per row and a Dirichlet node
    at each end of a 1D mesh, so the banded solve sees exactly `dense`.
    """
    n = dense.shape[0]
    system = fem.AssembledSystem(
        matrix=sp.csr_matrix(dense),
        constrained_dofs=np.array([0, n + 1]),
        free_dofs=np.arange(1, n + 1),
        mesh=build_domain_mesh(((0.0, 1.0),), 1.0 / (n + 1)),
        mu=0.0,
    )
    load = np.zeros(system.n_full)
    load[system.free_dofs] = b
    return fem.solve_resolvent(system, load).values[system.free_dofs]


def test_solve_spd_identity():
    m = sp.csr_matrix(np.eye(5))
    b = np.arange(1.0, 6.0)
    x, stats = linalg.solve_spd(m, b)
    np.testing.assert_allclose(x, b, atol=1e-12)
    assert stats.iterations == 1
    assert stats.residual <= 1e-10


def test_solve_spd_diagonal():
    m = sp.csr_matrix(np.diag([1.0, 2.0, 4.0]))
    x, _ = linalg.solve_spd(m, np.ones(3))
    np.testing.assert_allclose(x, [1.0, 0.5, 0.25], atol=1e-12)


def _laplacian_1d(n, h):
    main = 2.0 * np.ones(n) / h
    off = -np.ones(n - 1) / h
    return sp.diags([off, main, off], [-1, 0, 1]).tocsr(), off, main


def test_solve_spd_matches_tridiagonal_direct():
    n, h = 100, 1.0 / 101.0
    lap, off, main = _laplacian_1d(n, h)
    b = np.ones(n)
    x_cg, stats = linalg.solve_spd(lap, b, tol=1e-12)
    x_direct = solveh_banded(np.stack([np.concatenate([[0.0], off]), main]), b)
    assert stats.residual <= 1e-12
    np.testing.assert_allclose(x_cg, x_direct, rtol=1e-9, atol=1e-12)


def test_solve_spd_residual_contract():
    rng = np.random.default_rng(3)
    a = rng.random((40, 40))
    spd = a @ a.T + 40 * np.eye(40)
    m = sp.csr_matrix(spd)
    b = rng.random(40)
    for tol in (1e-6, 1e-10):
        x, stats = linalg.solve_spd(m, b, tol=tol)
        assert np.linalg.norm(spd @ x - b) / np.linalg.norm(b) <= tol
        assert stats.residual <= tol


def test_solve_spd_exact_preconditioner_one_iteration():
    rng = np.random.default_rng(4)
    a = rng.random((30, 30))
    spd = a @ a.T + 30 * np.eye(30)
    b = rng.random(30)
    x, stats = linalg.solve_spd(sp.csr_matrix(spd), b, preconditioner=lambda r: np.linalg.solve(spd, r))
    assert stats.iterations == 1
    np.testing.assert_allclose(x, np.linalg.solve(spd, b), rtol=1e-12)


def test_solve_spd_errors():
    m = sp.csr_matrix(np.eye(4))
    with pytest.raises(linalg.DimensionMismatch):
        linalg.solve_spd(m, np.ones(5))
    with pytest.raises(ValueError):
        linalg.solve_spd(m, np.ones(4), tol=1e-2)
    lap, _, _ = _laplacian_1d(50, 1.0 / 51)
    with pytest.raises(linalg.NonConvergence) as exc:
        linalg.solve_spd(lap, np.ones(50), max_iter=2)
    assert exc.value.iterations == 2
    assert exc.value.residual > 0


@pytest.mark.parametrize("tol", [0.0, -1.0, np.nan, 1e-3])
def test_solvers_reject_tol_outside_range(tol):
    matrix, mesh = _periodic_laplacian(8)
    with pytest.raises(ConfigError, match=r"tol must lie in \[1e-14, 1e-4\]"):
        linalg.solve_spd(sp.csr_matrix(np.eye(4)), np.ones(4), tol=tol)
    with pytest.raises(ConfigError, match=r"tol must lie in \[1e-14, 1e-4\]"):
        linalg.solve_saddle(matrix, _mean_functional(mesh), np.ones(mesh.n_nodes), tol=tol)


def test_solve_spd_nan_rhs_raises():
    # a NaN residual compares False against the tolerance
    m = sp.csr_matrix(np.eye(3))
    with pytest.raises(linalg.NonConvergence):
        linalg.solve_spd(m, np.array([1.0, np.nan, 1.0]))


def test_tridiag_examples():
    # both through the 1D path of fem.solve_resolvent
    x = _solve_1d(np.array([[2.0, -1.0], [-1.0, 2.0]]), np.ones(2))
    np.testing.assert_allclose(x, [1.0, 1.0], atol=1e-14)
    x = _solve_1d(np.eye(4), np.arange(4.0))
    np.testing.assert_allclose(x, np.arange(4.0))


def test_tridiag_random_spd_vs_cg():
    rng = np.random.default_rng(7)
    n = 50
    sub = -rng.random(n - 1)
    main = 2.5 + rng.random(n)
    dense = np.diag(main) + np.diag(sub, -1) + np.diag(sub, 1)
    b = rng.random(n)
    x_direct = _solve_1d(dense, b)
    x_cg, _ = linalg.solve_spd(sp.csr_matrix(dense), b, tol=1e-12)
    np.testing.assert_allclose(x_direct, x_cg, atol=1e-10)
    np.testing.assert_allclose(x_direct, np.linalg.solve(dense, b), atol=1e-12)


def test_tridiag_zero_pivot():
    # [[0, 1], [1, 1]] has a zero first pivot and is indefinite
    with pytest.raises(linalg.SingularSystem, match="not positive definite"):
        _solve_1d(np.array([[0.0, 1.0], [1.0, 1.0]]), np.ones(2))


def test_tridiag_non_finite_load_raises():
    with pytest.raises(linalg.SingularSystem, match="not finite"):
        _solve_1d(np.array([[2.0, -1.0], [-1.0, 2.0]]), np.array([1.0, np.nan]))


def _periodic_laplacian(m):
    field = preset_coefficient("Constant", [1.0], 1)
    mesh = build_cell_mesh(m, 1)
    matrix, _, _, _ = _periodic_stiffness_and_loads(field, np.zeros(1), mesh)
    return matrix, mesh


def test_saddle_zero_datum():
    matrix, mesh = _periodic_laplacian(32)
    c = _mean_functional(mesh)
    x, lam, _ = linalg.solve_saddle(matrix, c, np.zeros(mesh.n_nodes))
    assert np.max(np.abs(x)) <= 1e-12
    assert abs(lam) <= 1e-12


def test_saddle_fourier_oracle():
    # periodic Laplacian with a mean-zero sine load: compare against the
    # FFT diagonalization of the same circulant system
    matrix, mesh = _periodic_laplacian(64)
    c = _mean_functional(mesh)
    y = mesh.axis_coords(0)
    load = np.sin(2 * np.pi * y)
    load -= load.mean()
    x, lam, _ = linalg.solve_saddle(matrix, c, load, tol=1e-12)
    dense = matrix.toarray()
    first_row = dense[0]
    eig = np.fft.fft(first_row)
    bhat = np.fft.fft(load)
    xhat = np.zeros_like(bhat)
    xhat[1:] = bhat[1:] / eig[1:]
    x_fft = np.real(np.fft.ifft(xhat))
    x_fft -= (c @ x_fft) / c.sum()
    np.testing.assert_allclose(x, x_fft, atol=1e-8)
    assert abs(lam) <= 1e-10


def test_saddle_nonzero_mean_dense_oracle():
    matrix, mesh = _periodic_laplacian(8)
    n = mesh.n_nodes
    c = _mean_functional(mesh)
    rng = np.random.default_rng(11)
    b = rng.random(n)  # nonzero mean
    x, lam, _ = linalg.solve_saddle(matrix, c, b, tol=1e-12)
    # dense bordered oracle
    dense = np.zeros((n + 1, n + 1))
    dense[:n, :n] = matrix.toarray()
    dense[:n, n] = c
    dense[n, :n] = c
    sol = np.linalg.solve(dense, np.concatenate([b, [0.0]]))
    np.testing.assert_allclose(x, sol[:n], atol=1e-8)
    assert lam == pytest.approx(sol[n], abs=1e-8)
    # residual of the constrained system
    res = matrix @ x + lam * c - b
    assert np.linalg.norm(res) / np.linalg.norm(b) <= 1e-9


def test_saddle_constraint_satisfied():
    matrix, mesh = _periodic_laplacian(32)
    c = _mean_functional(mesh)
    rng = np.random.default_rng(5)
    b = rng.standard_normal(mesh.n_nodes)
    x, _, _ = linalg.solve_saddle(matrix, c, b)
    assert abs(c @ x) <= 1e-10 * max(np.linalg.norm(x), 1e-30)


def test_saddle_singular_constraint():
    matrix, mesh = _periodic_laplacian(16)
    c = np.zeros(mesh.n_nodes)
    with pytest.raises(linalg.SingularSystem):
        linalg.solve_saddle(matrix, c, np.ones(mesh.n_nodes))


def test_saddle_nan_load_raises():
    matrix, mesh = _periodic_laplacian(16)
    b = np.ones(mesh.n_nodes)
    b[3] = np.nan
    with pytest.raises(linalg.NonConvergence):
        linalg.solve_saddle(matrix, _mean_functional(mesh), b)


def test_determinism_bit_identical():
    rng = np.random.default_rng(13)
    a = rng.random((60, 60))
    spd = a @ a.T + 60 * np.eye(60)
    m = sp.csr_matrix(spd)
    b = rng.random(60)
    x1, s1 = linalg.solve_spd(m, b)
    x2, s2 = linalg.solve_spd(m, b)
    assert np.array_equal(x1, x2)
    assert s1 == s2

