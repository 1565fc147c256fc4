"""Assembly and solves for (A - mu) u = f on structured meshes.

The operator is the divergence form u -> -div(a grad u) - mu*u with a
scalar or matrix coefficient sampled at Gauss points, under Dirichlet,
Neumann or mixed boundary conditions. With mu <= 0 and either a Dirichlet
part or mu < 0 the reduced system is symmetric positive definite, and in
2D it carries its CG preconditioner (`FastDiagonalization`).

A coefficient or load comes in one of two forms: a callable of points,
sampled here at the Gauss points, or its samples there already, laid out
(element, Gauss point) as `quadrature(mesh).points` is, with a trailing
(d, d) for a matrix coefficient; a load may also be a GridFunction. The
study hands in A0 as samples (`cell.EffectiveField.at_gauss`). Either form
with the wrong number of values, or a non-finite one, raises
`QuadratureFailure`.

This module is the one Q1 assembler; `cell` assembles its periodic
systems through the same helpers, with every node free (bc None). A
matrix coefficient's element matrices are one matmul of the samples,
(E, g d d), with the rule's (g d d, c k) matrix, and a load's corner
values one matmul of its samples (E, g) with the weighted shape values
(g, c); a scalar coefficient keeps its einsum. One bincount sums the
element matrices into the CSR pattern of the free nodes,
`mesh._stencil_pattern` cached per (mesh, BC), and one bincount sums
per-element corner values into a nodal vector. bincount adds each slot's
terms in input order, so both equal a COO sum and a sequential
scatter-add bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial, reduce

import numpy as np
import scipy.sparse as sp
from scipy.linalg import solveh_banded
from scipy.linalg.lapack import dpttrf, dpttrs

from . import core, linalg
from .core import ConfigError, NumericalError
from .mesh import GridFunction, Mesh, MeshMismatch, build_domain_mesh, quadrature
from .mesh import _reference_rule, _stencil_pattern


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
    preconditioner: FastDiagonalization | None = None  # 2D systems only

    @property
    def n_full(self):
        return self.mesh.n_nodes


@dataclass(frozen=True)
class FastDiagonalization:
    """Exact inverse of P = c (K1[alpha] x M2 + M1[beta] x K2) - mu M1 x M2 on the free dofs.

    P is the system's Gauss-rule form with the coefficient c D_l = c diag(alpha_l, beta_l) on each x1
    Gauss line l (one x1 cell and x1 Gauss point); K1[alpha], M1[beta] are the 1D Q1 stiffness and mass
    of axis 1 under that rule, K2, M2, M1 the plain ones. With S = sqrt(2) at free mesh-end nodes of
    axis 2, an orthonormal sine or cosine transform Q gives S K2 S = Q diag(k) Q^T, S M2 S = Q diag(m) Q^T
    (Lynch, Rice and Thomas, Numer. Math. 6, 1964), leaving per mode j the SPD tridiagonal
    T_j = c m_j K1[alpha] + c k_j M1[beta] - mu m_j M1: Hockney's separable solver (J. ACM 12, 1965)
    as a preconditioner (Concus and Golub, SIAM J. Numer. Anal. 10, 1973), exact when only x1 varies.

    Certificate: with the eigenvalues of D_l^-1/2 A D_l^-1/2 in [lo, hi] at all Gauss points and c = sqrt(lo*hi),
    g.Ag lies in [lo/c, hi/c] times g.(c D_l)g at each point of the shared rule; the -mu mass terms are equal and
    nonnegative, so u.Au / u.Pu lies in [sqrt(lo/hi), sqrt(hi/lo)]: cond(P^-1 A) <= kappa = hi/lo at every h.
    `_line_scales` picks D_l; for a tensor it forms the eigenvalues of A as well, for the isotropic choice and the
    positivity check, only where a bound on the diagonal does not already show that the A11, A22 scales win.
    """

    transform: tuple  # (Q^T, Q) of axis 2, applied along the contiguous array axis
    scale: np.ndarray  # (f2,): S
    factor: tuple | None  # dpttrf's (d, e) of diag(T_j), mode-major; None without free dofs
    kappa: float  # certified bound hi/lo on cond(P^-1 A)

    def __call__(self, r):
        fwd, inv = self.transform
        t = fwd(self.scale * r.reshape(-1, self.scale.size), axis=1)
        x, _ = dpttrs(*self.factor, t.T.ravel())
        return (self.scale * inv(x.reshape(t.shape[::-1]).T, axis=1)).ravel()

    def max_iter(self, tol):
        """Twice the CG iterations kappa implies for residual tol, plus 50."""
        return 2 * math.ceil(0.5 * math.sqrt(self.kappa) * math.log(2.0 / tol)) + 50


def _symmetric_eigenvalues(a, d, off):
    """Eigenvalues (lo, hi) of [[a, off/2], [off/2, d]]: the symmetric part of 2x2 samples, off their A12 + A21.

    Formed in place: a and d are only read, off (the caller's temporary) is overwritten and returned as lo.
    """
    mid = a + d
    mid *= 0.5
    rad = a - d
    rad *= 0.5
    off *= 0.5
    np.hypot(rad, off, out=rad)
    lo = np.subtract(mid, rad, out=off)
    mid += rad
    return lo, mid


def _coefficient_bounds(x):
    """Smallest and largest entry (lo, hi) of x."""
    return float(np.min(x)), float(np.max(x))


def _by_line(x, cells1):
    """Samples x (..., E, 4), laid out (i, j, g1, g2), copied to (..., cells1, 2, n): one row per x1 Gauss line."""
    lead = x.shape[:-2]
    r = np.swapaxes(x.reshape(lead + (cells1, -1, 2, 2)), -3, -2)
    return np.ascontiguousarray(r).reshape(lead + (cells1, 2, -1))


def _isotropic_scales(lo, hi):
    """Line scales alpha = beta = s_l = sqrt(lo_l hi_l) of the line eigenvalue extremes lo, hi (cells1, 2).

    First checks that those extremes are positive with a finite ratio, so that every scale exists.
    """
    glo, ghi = _coefficient_bounds(np.concatenate([lo, hi], axis=1))  # those of a_vals, checked before any scale
    if not (glo > 0.0 and math.isfinite(ghi / glo)):
        raise linalg.SingularSystem(f"coefficient eigenvalues in [{glo:g}, {ghi:g}] are not uniformly positive")
    s = np.sqrt(lo) * np.sqrt(hi)  # sqrt(lo * hi) underflows for tiny coefficients
    return _coefficient_bounds(np.concatenate([lo / s, hi / s], axis=1)), s, s


def _tensor_scales(a, lo1, hi1, lo2, hi2):
    """Line scales alpha, beta from the A11 and A22 line extremes, with the bounds of D^-1/2 A D^-1/2.

    a holds A11, A12, A21, A22 by line as `_by_line` gives them and is scaled in place.
    """
    alpha, beta = np.sqrt(lo1) * np.sqrt(hi1), np.sqrt(lo2) * np.sqrt(hi2)
    ra, rb = (1.0 / np.sqrt(x)[..., None] for x in (alpha, beta))
    w = ra * rb
    a *= np.stack([ra * ra, w, w, rb * rb])  # A_rs / sqrt(D_r D_s)
    a[1] += a[2]
    tlo, thi = _symmetric_eigenvalues(a[0], a[3], a[1])
    return (float(np.min(tlo)), float(np.max(thi))), alpha, beta


def _line_scales(a_vals, cells1):
    """Bounds (lo, hi) of D^-1/2 A D^-1/2 and the scales alpha, beta (cells1, 2) of the x1 Gauss lines.

    Samples lie (i, j, g1, g2) by x1 cell, x2 cell and Gauss point. Line (i, g1) takes alpha = beta = s_l
    = sqrt(lo_l hi_l) of its eigenvalue extremes, which bound those of A / s_l, so kappa = max_l hi_l/lo_l
    <= the global hi/lo; a tensor takes alpha, beta from the ranges of A11, A22 where that gives a smaller
    kappa, the tensor choice on a tie.

    A tensor's components are copied once into line order, and the tensor pass scales that copy in place.
    On each line lo_l <= min(A11, A22) and hi_l >= max(A11, A22), so the isotropic kappa is at least
    L = max_l max(A11, A22) / min(A11, A22); a positive tensor kappa <= L (1 - 1e-12) therefore wins, and
    the eigenvalues of A, the isotropic choice and the positivity check are skipped. The margin covers their
    rounding while the diagonal spans at most a factor 1e3 (lambda_min then errs by under 1e3 u relative),
    and the check would pass there. Such a diagonal takes the tensor pass first; any other sample set,
    scalar ones too, takes the isotropic pass and the check first. The isotropic pass reads a tensor's
    samples in their own order and copies only its eigenvalue extremes into line order.
    """
    if a_vals.ndim == 2:
        x = _by_line(a_vals, cells1)
        return _isotropic_scales(np.min(x, axis=-1), np.max(x, axis=-1))
    comps = np.moveaxis(a_vals.reshape(len(a_vals), 4, 4), -1, 0)  # A11, A12, A21, A22, each (E, g)
    a = _by_line(comps, cells1)
    (lo1, hi1), (lo2, hi2) = ((np.min(x, axis=-1), np.max(x, axis=-1)) for x in (a[0], a[3]))
    dlo, dhi = np.minimum(lo1, lo2), np.maximum(hi1, hi2)  # diagonal extremes per line
    tensor = None
    if 0.0 < np.min(dlo) and np.max(dhi) <= 1e3 * np.min(dlo):  # a non-positive or non-finite one fails the check
        tensor = _tensor_scales(a, lo1, hi1, lo2, hi2)
        (tlo, thi), _, _ = tensor
        if tlo > 0.0 and thi / tlo <= float(np.max(dhi / dlo)) * (1.0 - 1e-12):
            return tensor
    lo, hi = (_by_line(x, cells1) for x in _symmetric_eigenvalues(comps[0], comps[3], comps[1] + comps[2]))
    iso = _isotropic_scales(np.min(lo, axis=-1), np.max(hi, axis=-1))
    tensor = tensor or _tensor_scales(a, lo1, hi1, lo2, hi2)
    return min(tensor, iso, key=lambda choice: choice[0][1] / choice[0][0])


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
    (lo, hi), alpha, beta = _line_scales(a_vals, mesh.cells_per_axis[0])
    q, k, m, s = _axis_spectrum(mesh.h[1], free_axes[1])
    free = free_axes[0]
    if not (k.size and free.any()):  # no free dof: PCG returns before any apply
        return FastDiagonalization(q, s, None, hi / lo)
    h, (_, weights, values, grads) = mesh.h[0], _reference_rule(1)
    shapes = np.stack([grads[..., 0] / h, values, values])  # K1[alpha], M1[beta], M1 as (diagonal, coupling)
    el = np.einsum("neg,g,ngc,ngk->neck", np.stack([alpha, beta, np.ones_like(beta)]), weights * h, shapes, shapes)
    diag = np.pad(el[..., 0, 0], ((0, 0), (0, 1))) + np.pad(el[..., 1, 1], ((0, 0), (1, 0)))
    coupling = np.pad(el[:, free[:-1] & free[1:], 0, 1], ((0, 0), (0, 1)))  # a zero keeps stacked modes apart
    stiff, mass_beta, mass = np.stack([diag[:, free], coupling], axis=1)[:, :, None]
    m, k = m[:, None], k[:, None]
    t = math.sqrt(lo * hi) * (m * stiff + k * mass_beta) - mu * m * mass  # (diagonal or coupling, mode, node)
    d, e, info = dpttrf(t[0].ravel(), t[1].ravel()[: max(t[1].size - 1, 1)])  # one coupling for one dof
    if info:
        raise linalg.SingularSystem(f"preconditioner mode system is not positive definite (dpttrf info {info})")
    return FastDiagonalization(q, s, (d, e), hi / lo)


def _free_axes(mesh, bc):
    """Per-axis masks of the nodes off the Dirichlet ends.

    Dirichlet edges are whole mesh lines, so the free nodes are the tensor
    product of these masks.
    """
    if mesh.periodic:
        raise MeshMismatch("a periodic mesh has no boundary to carry boundary conditions")
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


def _free_nodes(mesh, bc):
    return reduce(np.logical_and.outer, _free_axes(mesh, bc)).ravel()


@lru_cache(maxsize=16)
def _pattern(mesh, bc):
    """`_stencil_pattern` on the free nodes of bc, every node when bc is None (the periodic cell),
    cached per (mesh, bc) as the quadrature is per mesh; read-only, since every matrix assembled
    on it shares its index arrays."""
    pattern = _stencil_pattern(mesh, np.ones(mesh.n_nodes, dtype=bool) if bc is None else _free_nodes(mesh, bc))
    for a in pattern:
        a.flags.writeable = False
    return pattern


def _scalar_stiffness(a_vals, q):
    """Element matrices (a grad phi_k, grad phi_c) of scalar samples a_vals (E, g), shape (E, c, k)."""
    return np.einsum("eg,g,gcd,gkd->eck", a_vals, q.weights, q.shape_grads, q.shape_grads, optimize=True)


def _tensor_stiffness(a_vals, q):
    """Element matrices (A grad phi_k, grad phi_c) of matrix samples a_vals (E, g, d, d), shape (E, c, k):
    one product of the samples as (E, g d d) with the rule's (g d d, c k) matrix w_g dphi_c/dx_r dphi_k/dx_s."""
    g, c, d = q.shape_grads.shape
    rule = np.einsum("g,gcr,gks->grsck", q.weights, q.shape_grads, q.shape_grads).reshape(g * d * d, c * c)
    return (a_vals.reshape(len(a_vals), -1) @ rule).reshape(-1, c, c)


def _element_matrices(a_vals, q, mu):
    """Element matrices (a grad phi_k, grad phi_c) - mu (phi_k, phi_c) of scalar (E, g) or matrix
    (E, g, d, d) samples, shape (E, c, k)."""
    stiff = _scalar_stiffness(a_vals, q) if a_vals.ndim == 2 else _tensor_stiffness(a_vals, q)
    if mu != 0.0:
        mass = np.einsum("g,gc,gk->ck", q.weights, q.shape_values, q.shape_values)
        stiff = stiff - mu * mass[None, :, :]
    return stiff


def _load_contributions(f_g, q):
    """int f phi_c over each element of samples f_g (E, g), shape (E, c): one product with w_g phi_c (g, c)."""
    return f_g @ (q.weights[:, None] * q.shape_values)


def _csr(mesh, bc, stiff):
    """The element matrices stiff (E, c, k) summed into the CSR matrix of `_pattern(mesh, bc)`."""
    indptr, indices, slots = _pattern(mesh, bc)
    # contributions outside the free rows and columns go to the extra slot nnz
    data = np.bincount(slots, stiff.ravel(), len(indices) + 1)[:-1]
    return sp.csr_matrix((data, indices, indptr), shape=(len(indptr) - 1,) * 2)


def _nodal(q, contrib, n_nodes):
    """Per-element corner values contrib (E, c) summed into a vector over the n_nodes nodes of q."""
    return np.bincount(q.corners.ravel(), contrib.ravel(), n_nodes)


def _gauss_samples(what, f, q, tensor):
    """f at the Gauss points of q as (E, g), or (E, g, d, d) when tensor allows matrices.

    f is a callable of points (E g, d) giving (E g,) or (E g, d, d) values,
    or the samples themselves as (E, g) or (E, g, d, d). A failing callable,
    any other shape or a non-finite sample raises `QuadratureFailure`.
    """
    n_el, n_g, d = q.points.shape
    shapes = [(n_el, n_g), (n_el, n_g, d, d)][: 1 + tensor]
    if callable(f):
        try:
            vals = np.asarray(f(q.points.reshape(-1, d)), dtype=float)
        except Exception as exc:  # noqa: BLE001 - f is user code
            raise QuadratureFailure(f"{what} sampler failed: {exc}") from exc
        given, shapes = f"{what} sampler returned shape", {(n_el * n_g,) + s[2:]: s for s in shapes}
    else:
        vals = np.asarray(f, dtype=float)
        given, shapes = f"{what} samples have shape", {s: s for s in shapes}
    if vals.shape not in shapes:
        expected = " or ".join(map(str, shapes))
        raise QuadratureFailure(f"{given} {vals.shape} on {n_el} elements of {n_g} Gauss points, expected {expected}")
    if not np.all(np.isfinite(vals)):
        raise QuadratureFailure(f"{what} has non-finite values at the Gauss points")
    return vals.reshape(shapes[vals.shape])


def assemble(mesh, a, mu, bc):
    """Assemble the bilinear form (a grad u, grad v) - mu (u, v).

    The coefficient a is a callable mapping points (n, d) to scalar values
    (n,) or to matrices (n, d, d), or its samples at `quadrature(mesh)`'s
    Gauss points, (n_elements, n_gauss) or (n_elements, n_gauss, d, d).
    Entries follow the tensor Gauss rule of the mesh exactly.
    A 2D system also carries its CG preconditioner, built from the
    coefficient's extremes on each x1 Gauss line; samples whose
    eigenvalues are not uniformly positive raise `linalg.SingularSystem`.
    """
    if mu > 0:
        raise ConfigError("mu must be nonpositive")
    keep = _free_nodes(mesh, bc)
    free, constrained = np.nonzero(keep)[0], np.nonzero(~keep)[0]
    if constrained.size == 0 and mu == 0.0:
        raise SingularOperator("pure Neumann with mu = 0 has constants in its kernel")
    q = quadrature(mesh)
    a_vals = _gauss_samples("coefficient", a, q, tensor=True)
    return AssembledSystem(
        matrix=_csr(mesh, bc, _element_matrices(a_vals, q, mu)),
        constrained_dofs=constrained,
        free_dofs=free,
        mesh=mesh,
        preconditioner=None if mesh.dim == 1 else _fast_diagonalization(mesh, _free_axes(mesh, bc), a_vals, mu),
    )


def assemble_load(mesh, f):
    """Load vector F_i = integral f * phi_i by the same Gauss rule.

    f is a callable of points, its samples (n_elements, n_gauss) at the
    Gauss points, or a GridFunction on the mesh (then its nodal
    interpolant is integrated).
    """
    q = quadrature(mesh)
    if isinstance(f, GridFunction):
        if f.mesh != mesh:
            raise MeshMismatch("load grid function lives on a different mesh")
        f_g = f.values[q.corners] @ q.shape_values.T
    else:
        f_g = _gauss_samples("load", f, q, tensor=False)
    return _nodal(q, _load_contributions(f_g, q), mesh.n_nodes)


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
    return build_domain_mesh(extents, h * (1 + 1e-12))
