"""Discrete L_p, Sobolev, boundary-strip and shift-modulus seminorms.

All integrals use the element Gauss rule of the mesh, whose tensor
two-point rule gives every Gauss point the same weight w = jac / 2^d. So
each norm is w^(1/p) * ||v||_p of the Gauss values v, one vector p-norm (a
BLAS dot at p = 2), and homogeneity, triangle inequality and mask
additivity of the p-th powers hold to rounding.

The shift-modulus (Lipschitz/Besov type) seminorm replaces the continuum
supremum over all shifts by grid-aligned shifts at dyadic scales. That is
a lower bound of the true seminorm; it can undershoot for strongly
anisotropic fields, which reports should treat as a surrogate, not the
exact value. Each shift length k is one difference of element slices of
the field's Gauss values and one vector p-norm, and the modulus at level
j is the prefix maximum over k <= 2^j. That agrees with the overlap-mesh
definition to rounding, not bit for bit (at most 3e-16 relative on random
1D and 2D fields).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ConfigError
from .mesh import (
    MeshMismatch,
    boundary_strip_mask,
    grads_at_gauss,
    quadrature,
    values_at_gauss,
)


def _element_weights(mesh, mask=None):
    if mask is not None and mask.mesh is not mesh and mask.mesh != mesh:
        raise MeshMismatch("mask lives on a different mesh")
    if mask is None:
        return None
    return mask.included


def _gauss_lp(v, q, p):
    """Gauss-rule L_p norm of Gauss values v: w^(1/p) * ||v||_p, w the common weight."""
    return float(q.weights[0] ** (1.0 / p) * np.linalg.norm(v.ravel(), p))


def lp_norm(u, p, mask=None):
    q = quadrature(u.mesh)
    vals = values_at_gauss(u, q)
    sel = _element_weights(u.mesh, mask)
    return _gauss_lp(vals if sel is None else vals[sel], q, p)


def w1p_seminorm(u, p, mask=None):
    q = quadrature(u.mesh)
    g = grads_at_gauss(u, q)
    mag = np.sqrt(np.einsum("egd,egd->eg", g, g))
    sel = _element_weights(u.mesh, mask)
    return _gauss_lp(mag if sel is None else mag[sel], q, p)


def w1p_norm(u, p, mask=None):
    a = lp_norm(u, p, mask)
    b = w1p_seminorm(u, p, mask)
    return float((a**p + b**p) ** (1.0 / p))


def _shift_moduli(u, k_max, p):
    """omega(k) for k = 1 .. k_max, as an array.

    omega(k) is the largest, over the axes a, L_p norm of
    u(. + k h_a e_a) - u on the overlap of the mesh with its shift; a
    shift that leaves fewer than two node layers on its axis counts 0.
    A shift by k whole cells maps Gauss points to Gauss points, so its
    difference is G[e + k e_a] - G[e] of one Gauss evaluation G, taken into
    one buffer reused across k, and its norm is one vector p-norm with the
    mesh's own weight (the overlap mesh's spacing can differ by rounding).
    """
    mesh = u.mesh
    q = quadrature(mesh)
    vals = values_at_gauss(u, q).reshape(mesh.cells_per_axis + (-1,))
    omega = np.zeros(k_max)
    buf = np.empty(vals.size)
    for axis in range(mesh.dim):
        n = mesh.nodes_per_axis[axis]
        lead = (slice(None),) * axis
        for k in range(1, min(k_max, n - 2) + 1):
            ahead = vals[lead + (slice(k, None),)]
            diff = np.subtract(ahead, vals[lead + (slice(None, -k),)], out=buf[: ahead.size].reshape(ahead.shape))
            omega[k - 1] = np.maximum(omega[k - 1], _gauss_lp(diff, q, p))
    return omega


def _dyadic_supremum(omega, h, r):
    """max over levels j of (h 2^j)^(-r) * max_{k <= 2^j} omega(k).

    omega[k - 1] holds omega(k) for k = 1 .. 2^J, so the levels are
    j = 0 .. J and each inner maximum is a prefix maximum of omega. Empty
    omega gives 0; a NaN in omega gives NaN.
    """
    if len(omega) == 0:
        return 0.0
    running = np.maximum.accumulate(omega)
    levels = []
    j = 0
    while 2**j <= len(omega):
        levels.append((h * 2**j) ** (-r) * float(running[2**j - 1]))
        j += 1
    return float(np.max(levels))


def besov_seminorm(u, r, p):
    """Grid surrogate of sup_t t^(-r) * shift modulus at dyadic scales.

    Scales are t = h * 2^j with t at most a quarter of the shortest domain
    side. Constant fields give 0; Lipschitz fields stay bounded as r -> 1.
    """
    if not (0.0 < r < 1.0):
        raise ConfigError("r must lie in (0, 1)")
    h = min(u.mesh.h)
    width = min(hi - lo for lo, hi in u.mesh.extents)
    levels = 0
    while h * 2**levels <= width / 4.0 + 1e-12:
        levels += 1
    return _dyadic_supremum(_shift_moduli(u, 2**levels // 2, p), h, r)


@dataclass(frozen=True)
class StripRatio:
    eps: float
    strip_norm: float
    predictor: float
    ratio: float


def strip_lemma_check(u, q, eps_list):
    """Boundary-strip inequality probe: strip norm against its predictor.

    The predictor is eps^(1/q) * ||u||_{W^1_q}^(1/q) * ||u||_q^(1/q+),
    with both norms over the whole domain. The inequality bounds the
    strip norm uniformly; for each sample the ratio should stay within a
    factor of 2 between consecutive halvings of eps.
    """
    full = w1p_norm(u, q)
    glob = lp_norm(u, q)
    qplus = q / (q - 1.0)
    rows = []
    for eps in eps_list:
        strip = boundary_strip_mask(u.mesh, eps)
        sn = lp_norm(u, q, strip)
        pred = eps ** (1.0 / q) * full ** (1.0 / q) * glob ** (1.0 / qplus)
        rows.append(StripRatio(eps, sn, pred, sn / pred if pred > 0 else np.inf))
    return rows


def halving_factors(values):
    """Ratios value[i]/value[i+1] along a sweep (guarding zero division)."""
    out = []
    for a, b in zip(values, values[1:]):
        out.append(a / b if b != 0 else np.inf)
    return out
