"""Assembly and solves for (A - mu) u = f on structured meshes.

The operator is the divergence form u -> -div(a grad u) - mu*u with a
scalar or matrix coefficient sampled at Gauss points, under Dirichlet,
Neumann or mixed boundary conditions. With mu <= 0 and either a Dirichlet
part or mu < 0 the reduced system is symmetric positive definite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np
import scipy.sparse as sp
from scipy.linalg import solveh_banded

from . import core, linalg
from .core import ConfigError, NumericalError
from .mesh import ExcessiveSize, GridFunction, Mesh, MeshMismatch, build_domain_mesh, node_cap, quadrature


class SingularOperator(NumericalError):
    pass


class QuadratureFailure(NumericalError):
    pass


@dataclass(frozen=True)
class AssembledSystem:
    """Reduced stiffness-plus-shift matrix with its Dirichlet bookkeeping."""

    matrix: sp.csr_matrix  # reduced to free dofs
    constrained_dofs: np.ndarray  # sorted Dirichlet node indices
    free_dofs: np.ndarray
    mesh: Mesh
    mu: float
    preconditioner: FastDiagonalization | None = None  # 2D systems only

    @property
    def n_full(self):
        return self.mesh.n_nodes


@dataclass(frozen=True)
class FastDiagonalization:
    """Exact inverse of P = abar (K1 x M2 + M1 x K2) - mu M1 x M2 on the free dofs.

    K_a and M_a are the 1D Q1 stiffness and consistent mass of axis a on
    its free nodes. With S = sqrt(2) at free mesh-end nodes and 1 elsewhere,
    one orthonormal sine or cosine transform Q_a gives S K_a S = Q_a diag(k) Q_a^T
    and S M_a S = Q_a diag(m) Q_a^T, k = (2 - 2 cos t)/h, m = h (2 + cos t)/3, so
    P^-1 = S (Q1 x Q2) diag(1 / (abar (k_i m_j + m_i k_j) - mu m_i m_j)) (Q1 x Q2)^T S
    (Lynch, Rice and Thomas, Numer. Math. 6, 1964). With abar = sqrt(lo*hi)
    for coefficient eigenvalues in [lo, hi], cond(P^-1 A) <= hi/lo at
    every mesh size.
    """

    transforms: tuple  # per axis: (Q^T, Q) applied along a given axis
    scale: np.ndarray  # (f1, f2): S, sqrt(2) at each free mesh-end node
    inv_eig: np.ndarray  # (f1, f2): 1 / (abar (k_i m_j + m_i k_j) - mu m_i m_j)
    kappa: float  # certified bound hi/lo on cond(P^-1 A)

    def __call__(self, r):
        (fwd1, inv1), (fwd2, inv2) = self.transforms
        t = fwd2(fwd1(self.scale * r.reshape(self.scale.shape), axis=0), axis=1)
        return (self.scale * inv2(inv1(t * self.inv_eig, axis=0), axis=1)).ravel()

    def max_iter(self, tol):
        """Twice the CG iterations kappa implies for residual tol, plus 50."""
        return 2 * math.ceil(0.5 * math.sqrt(self.kappa) * math.log(2.0 / tol)) + 50


def _coefficient_bounds(a_vals):
    """Extreme eigenvalues (lo, hi) of scalar (E, g) or 2x2 (E, g, 2, 2) samples."""
    if a_vals.ndim == 2:
        return float(a_vals.min()), float(a_vals.max())
    a, d = a_vals[..., 0, 0], a_vals[..., 1, 1]
    mid = 0.5 * (a + d)
    rad = np.hypot(0.5 * (a - d), 0.5 * (a_vals[..., 0, 1] + a_vals[..., 1, 0]))
    return float((mid - rad).min()), float((mid + rad).max())


def _axis_spectrum(h, free):
    """(Q^T, Q), stiffness and mass eigenvalues k and m, and S of one axis on its free nodes.

    The free nodes of an axis are contiguous, so its two ends (Dirichlet
    or natural) pick the transform and the frequencies t = (j + c) pi / (n - 1).
    """
    from scipy import fft  # imported here: only 2D needs it, and it loads slowly

    name, forward, inverse, c = {
        (False, False): ("dst", 1, 1, 1.0),
        (True, True): ("dct", 1, 1, 0.0),
        (False, True): ("dst", 3, 2, 0.5),
        (True, False): ("dct", 3, 2, 0.5),
    }[bool(free[0]), bool(free[-1])]
    q = tuple(partial(getattr(fft, name), type=t, norm="ortho") for t in (forward, inverse))
    cos = np.cos((np.arange(np.count_nonzero(free)) + c) * (math.pi / (free.size - 1)))
    scale = np.ones(free.size)
    scale[[0, -1]] = math.sqrt(2.0)
    return q, (2.0 - 2.0 * cos) / h, h * (2.0 + cos) / 3.0, scale[free]


def _fast_diagonalization(mesh, free_axes, a_vals, mu):
    lo, hi = _coefficient_bounds(a_vals)
    if not (lo > 0.0 and math.isfinite(hi / lo)):
        raise linalg.SingularSystem(f"coefficient eigenvalues in [{lo:g}, {hi:g}] are not uniformly positive")
    abar = math.sqrt(lo * hi)
    (q1, k1, m1, s1), (q2, k2, m2, s2) = (_axis_spectrum(h, f) for h, f in zip(mesh.h, free_axes))
    k1, m1, s1 = k1[:, None], m1[:, None], s1[:, None]
    inv_eig = 1.0 / (abar * (k1 * m2 + m1 * k2) - mu * m1 * m2)
    return FastDiagonalization((q1, q2), s1 * s2, inv_eig, hi / lo)


def _free_axes(mesh, bc):
    """Per-axis masks of the nodes off the Dirichlet ends.

    Dirichlet edges are whole mesh lines, so the free nodes are the tensor
    product of these masks.
    """
    bc.validate_for_dim(mesh.dim)
    if bc.kind == "neumann":
        edges = ()
    elif bc.kind == "dirichlet":
        edges = core.EDGE_NAMES_1D if mesh.dim == 1 else core.EDGE_NAMES_2D
    else:
        edges = bc.dirichlet_edges
    ends = {"left": (0, 0), "right": (0, -1), "bottom": (1, 0), "top": (1, -1)}
    free = [np.ones(n, dtype=bool) for n in mesh.nodes_per_axis]
    for e in edges:
        axis, end = ends[e]
        free[axis][end] = False
    return free


def dirichlet_nodes(mesh, bc):
    """Sorted node indices carrying a homogeneous Dirichlet condition."""
    free = _free_axes(mesh, bc)
    keep = free[0] if mesh.dim == 1 else np.logical_and.outer(free[0], free[1]).ravel()
    return np.nonzero(~keep)[0]


def _sample_coefficient(sampler, points):
    flat = points.reshape(-1, points.shape[-1])
    try:
        vals = np.asarray(sampler(flat), dtype=float)
    except Exception as exc:  # noqa: BLE001 - sampler is user code
        raise QuadratureFailure(f"coefficient sampler failed: {exc}") from exc
    if not np.all(np.isfinite(vals)):
        raise QuadratureFailure("coefficient sampler produced non-finite values")
    return vals


def assemble(mesh, sampler, mu, bc):
    """Assemble the bilinear form (a grad u, grad v) - mu (u, v).

    The sampler maps points (n, d) to scalar values (n,) or to matrices
    (n, d, d). Entries follow the tensor Gauss rule of the mesh exactly.
    A 2D system also carries its CG preconditioner, built from the
    extreme coefficient eigenvalues at these Gauss points; samples whose
    eigenvalues are not uniformly positive raise `linalg.SingularSystem`.
    """
    if mu > 0:
        raise ConfigError("mu must be nonpositive")
    q = quadrature(mesh)
    n_el, n_g, d = q.points.shape
    n_c = q.corners.shape[1]
    a_vals = _sample_coefficient(sampler, q.points)
    grads = q.shape_grads  # (g, c, d)
    if a_vals.ndim == 1:
        a_vals = a_vals.reshape(n_el, n_g)
        # (E,g)*(g,c,d)x(g,c',d) contracted over g,d
        stiff = np.einsum("eg,g,gcd,gkd->eck", a_vals, q.weights, grads, grads, optimize=True)
    else:
        a_vals = a_vals.reshape(n_el, n_g, d, d)
        stiff = np.einsum("eg,gcd,egdm,gkm->eck", np.tile(q.weights, (n_el, 1)), grads, a_vals, grads, optimize=True)
    if mu != 0.0:
        mass = np.einsum("g,gc,gk->ck", q.weights, q.shape_values, q.shape_values)
        stiff = stiff - mu * mass[None, :, :]

    rows = np.repeat(q.corners, n_c, axis=1).ravel()
    cols = np.tile(q.corners, (1, n_c)).ravel()
    full = sp.csr_matrix((stiff.ravel(), (rows, cols)), shape=(mesh.n_nodes, mesh.n_nodes))

    constrained = dirichlet_nodes(mesh, bc)
    if constrained.size == 0 and mu == 0.0:
        raise SingularOperator("pure Neumann with mu = 0 has constants in its kernel")
    keep = np.ones(mesh.n_nodes, dtype=bool)
    keep[constrained] = False
    free = np.nonzero(keep)[0]
    return AssembledSystem(
        matrix=full[free][:, free],
        constrained_dofs=constrained,
        free_dofs=free,
        mesh=mesh,
        mu=mu,
        preconditioner=None if d == 1 else _fast_diagonalization(mesh, _free_axes(mesh, bc), a_vals, mu),
    )


def assemble_load(mesh, f):
    """Load vector F_i = integral f * phi_i by the same Gauss rule.

    f is either a callable of points or a GridFunction on the mesh (then
    its nodal interpolant is integrated).
    """
    q = quadrature(mesh)
    if isinstance(f, GridFunction):
        if f.mesh != mesh:
            raise MeshMismatch("load grid function lives on a different mesh")
        f_g = f.values[q.corners] @ q.shape_values.T
    else:
        f_g = _sample_coefficient(f, q.points).reshape(q.points.shape[0], q.points.shape[1])
    contrib = np.einsum("eg,g,gc->ec", f_g, q.weights, q.shape_values)
    out = np.zeros(mesh.n_nodes)
    np.add.at(out, q.corners.ravel(), contrib.ravel())
    return out


def solve_resolvent(system, f, tol=linalg.DEFAULT_TOL):
    """Solve the assembled system for a load; Dirichlet nodes come back 0.

    1D systems are tridiagonal and SPD, and go through LAPACK banded
    Cholesky (`scipy.linalg.solveh_banded`); 2D systems through conjugate
    gradients (`linalg.solve_spd`) to relative residual `tol`,
    preconditioned by the system's `FastDiagonalization` and stopped at
    the iteration count its certified condition bound implies. Both are
    deterministic. A 1D system that is not positive definite, or a
    non-finite load, raises `linalg.SingularSystem`; a 2D solve that
    misses `tol` raises `linalg.NonConvergence`.
    """
    if isinstance(f, GridFunction) or callable(f):
        load = assemble_load(system.mesh, f)
    else:
        load = np.asarray(f, dtype=float)
        if load.shape[0] != system.n_full:
            raise MeshMismatch("load vector length does not match the mesh")
    b = load[system.free_dofs]
    m = system.matrix
    if system.mesh.dim == 1:
        upper = np.zeros((2, m.shape[0]))
        upper[0, 1:] = m.diagonal(1)
        upper[1] = m.diagonal(0)
        try:
            x = solveh_banded(upper, b)
        except np.linalg.LinAlgError as exc:
            raise linalg.SingularSystem(f"1D system is not positive definite: {exc}") from exc
        except ValueError as exc:  # check_finite rejects infs and NaNs
            raise linalg.SingularSystem(f"1D system or load is not finite: {exc}") from exc
    else:
        pre = system.preconditioner
        linalg._check_tol(tol)  # before max_iter takes log(2 / tol)
        x, _ = linalg.solve_spd(m, b, tol=tol, max_iter=pre.max_iter(tol), preconditioner=pre)
    out = np.zeros(system.n_full)
    out[system.free_dofs] = x
    return GridFunction(system.mesh, out)


def oscillatory_mesh(scenario, eps):
    """Fine mesh with h = eps / points_per_period, aligned with the domain."""
    rho = scenario.points_per_period
    h = eps / rho
    extents = scenario.domain
    for lo, hi in extents:
        ratio = (hi - lo) / h
        if abs(ratio - round(ratio)) > 1e-9:
            raise ConfigError(
                f"h = eps/rho = {h:g} does not divide the extent [{lo}, {hi}]; "
                "choose eps with 1/eps integer"
            )
    total = 1
    for lo, hi in extents:
        total *= int(round((hi - lo) / h)) + 1
    if total > node_cap():
        raise ExcessiveSize(f"oscillatory mesh would need {total} nodes, cap {node_cap()}")
    return build_domain_mesh(extents, h * (1 + 1e-12))
