"""Assembly and solves for (A - mu) u = f on structured meshes.

The operator is the divergence form u -> -div(a grad u) - mu*u with a
scalar or matrix coefficient sampled at Gauss points, under Dirichlet,
Neumann or mixed boundary conditions. With mu <= 0 and either a Dirichlet
part or mu < 0 the reduced system is symmetric positive definite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import solveh_banded

from . import core, linalg
from .mesh import ExcessiveSize, GridFunction, Mesh, MeshMismatch, build_domain_mesh, node_cap, quadrature


class SingularOperator(RuntimeError):
    pass


class QuadratureFailure(RuntimeError):
    pass


@dataclass(frozen=True)
class AssembledSystem:
    """Reduced stiffness-plus-shift matrix with its Dirichlet bookkeeping."""

    matrix: sp.csr_matrix  # reduced to free dofs
    constrained_dofs: np.ndarray  # sorted Dirichlet node indices
    free_dofs: np.ndarray
    mesh: Mesh
    mu: float

    @property
    def n_full(self):
        return self.mesh.n_nodes


def dirichlet_nodes(mesh, bc):
    """Sorted node indices carrying a homogeneous Dirichlet condition."""
    bc.validate_for_dim(mesh.dim)
    if bc.kind == "neumann":
        return np.array([], dtype=int)
    if bc.kind == "dirichlet":
        edges = core.EDGE_NAMES_1D if mesh.dim == 1 else core.EDGE_NAMES_2D
    else:
        edges = bc.dirichlet_edges
    n = mesh.nodes_per_axis
    picked = np.zeros(mesh.n_nodes, dtype=bool)
    if mesh.dim == 1:
        idx = {"left": 0, "right": n[0] - 1}
        for e in edges:
            picked[idx[e]] = True
    else:
        grid = picked.reshape(n)
        for e in edges:
            if e == "left":
                grid[0, :] = True
            elif e == "right":
                grid[-1, :] = True
            elif e == "bottom":
                grid[:, 0] = True
            elif e == "top":
                grid[:, -1] = True
    return np.nonzero(picked)[0]


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
    """
    if mu > 0:
        raise ValueError("mu must be nonpositive")
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
    Cholesky (`scipy.linalg.solveh_banded`); 2D systems through
    Jacobi-preconditioned conjugate gradients (`linalg.solve_spd`) to
    relative residual `tol`. Both are deterministic. A 1D system that is
    not positive definite, or a non-finite load, raises
    `linalg.SingularSystem`.
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
        x, _ = linalg.solve_spd(m, b, tol=tol)
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
            raise ValueError(
                f"h = eps/rho = {h:g} does not divide the extent [{lo}, {hi}]; "
                "choose eps with 1/eps integer"
            )
    total = 1
    for lo, hi in extents:
        total *= int(round((hi - lo) / h)) + 1
    if total > node_cap():
        raise ExcessiveSize(f"oscillatory mesh would need {total} nodes, cap {node_cap()}")
    return build_domain_mesh(extents, h * (1 + 1e-12))


def default_load(dim):
    """The scenario's primary smooth load: constant in 1D terms, f = 1."""
    return lambda pts: np.ones(pts.shape[0])


def solve_oscillatory(scenario, eps, load=None):
    """Reference solve with the two-scale coefficient a(x, x/eps)."""
    if not any(abs(eps - e) < 1e-12 for e in scenario.epsilons):
        raise ValueError("eps must be one of scenario.epsilons")
    if load is None:
        load = default_load(scenario.dim)
    mesh = oscillatory_mesh(scenario, eps)
    system = assemble(
        mesh,
        lambda pts: core.tau_eps(scenario.field, eps, pts),
        scenario.mu,
        scenario.bc,
    )
    return solve_resolvent(system, load), mesh
