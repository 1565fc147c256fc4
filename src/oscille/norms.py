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
the field's Gauss values G and one vector p-norm, and the modulus at level
j is the prefix maximum over k <= 2^j. That agrees with the overlap-mesh
definition to rounding, not bit for bit (at most 3e-16 relative on random
1D and 2D fields).

The levels are walked from the finest scale up, and only the shifts a
level adds are evaluated. Minkowski's inequality bounds every shift
modulus by B = 2 w^(1/p) ||G||_p (taken of G / max|G| and given a 1e-9
relative margin), and the level factor (h 2^j)^(-r) falls with j, so the
walk stops at the first level whose factor times B cannot exceed the best
level value so far. The result is bit-identical to the full sweep over
all shifts. Fields where no safe bound exists (NaN or inf values, p-th
powers of differences near overflow or the subnormal range) are swept in
full.
"""

from __future__ import annotations

import math
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


def _gauss_grid(u):
    """Gauss values of u shaped (cells per axis ..., Gauss points), and the rule."""
    q = quadrature(u.mesh)
    return values_at_gauss(u, q).reshape(u.mesh.cells_per_axis + (-1,)), q


def _shift_modulus(vals, k, p, q, buf):
    """omega(k): the largest, over the axes a, L_p norm of u(. + k h_a e_a) - u.

    The norm is over the overlap of the mesh with its shift; a shift that
    leaves fewer than two node layers on its axis counts 0. A shift by k
    whole cells maps Gauss points to Gauss points, so with vals from
    `_gauss_grid` the difference is G[e + k e_a] - G[e], written into buf,
    and its norm is one vector p-norm with the mesh's own weight (the
    overlap mesh's spacing can differ by rounding).
    """
    omega = 0.0
    for axis in range(vals.ndim - 1):
        if k >= vals.shape[axis]:
            continue
        lead = (slice(None),) * axis
        ahead = vals[lead + (slice(k, None),)]
        diff = np.subtract(ahead, vals[lead + (slice(None, -k),)], out=buf[: ahead.size].reshape(ahead.shape))
        omega = np.maximum(omega, _gauss_lp(diff, q, p))
    return omega


def _shift_moduli(u, ks, p):
    """omega(k) for the shift lengths k in the range ks, as an array."""
    vals, q = _gauss_grid(u)
    buf = np.empty(vals.size)
    return np.array([_shift_modulus(vals, k, p, q, buf) for k in ks], dtype=float)


def _shift_bound(vals, weight, p, norm):
    """Upper bound on every computed shift modulus of vals, or None.

    norm(v) is the weighted L_p norm (weight * sum |v|^p)^(1/p) that the
    moduli take of each shift difference. For p >= 1, Minkowski's
    inequality gives every difference a norm of at most 2 * norm(vals). The bound takes that norm
    of vals / max|vals|, so it neither underflows nor overflows, and adds
    a relative margin of 1e-9, far above the rounding of either side.
    A zero field gives 0, which every modulus equals. The answer is None
    (no bound) for p < 1, for non-finite values, and wherever the p-th powers of the
    differences, their sum or its weighted form could leave the normal
    floating-point range with less than 2^54 to spare: an overflow turns a
    modulus into inf, and a subnormal result rounds by an absolute step,
    which can lift a computed modulus above the bound.
    """
    top = float(np.max(np.abs(vals), initial=0.0))
    if top == 0.0:
        return 0.0
    log_n, log_w = math.log2(vals.size), math.log2(weight)
    log_pow = p * math.log2(2.0 * top)  # log2 of the largest p-th power of a difference
    in_range = log_pow + log_n + max(log_w, 0.0) <= 1020.0 and log_pow + min(log_w, 0.0) >= log_n - 1020.0
    if not (p >= 1.0 and in_range):  # NaN or inf values (and p = inf) fail it too
        return None
    return (1.0 + 1e-9) * 2.0 * top * norm(vals / top)


def _dyadic_supremum(moduli, k_max, bound, h, r):
    """max over levels j of (h 2^j)^(-r) * max_{k <= 2^j} omega(k).

    The levels are j = 0 .. log2(k_max); moduli(ks) returns omega(k) for
    the shift lengths in the range ks, and level j adds k in
    (2^(j-1), 2^j]. bound is an upper bound on every omega(k), or None.
    Since (h 2^j)^(-r) falls with j, once it times bound is at most the
    best level value so far no later level can raise the supremum, and
    the walk stops before computing that level. Every level value is the
    one a full sweep forms, so the result is bit-identical to it. k_max = 0
    gives 0; a NaN omega gives NaN.
    """
    best = running = 0.0
    done = j = 0
    while 2**j <= k_max:
        scale = (h * 2**j) ** (-r)
        if bound is not None and scale * bound <= best:
            break
        running = np.maximum(running, np.max(moduli(range(done + 1, 2**j + 1))))
        best = np.maximum(best, scale * float(running))
        done, j = 2**j, j + 1
    return float(best)


def _dyadic_k_max(mesh):
    """Longest shift of the Besov levels: scales h 2^j up to a quarter of the shortest side."""
    h = min(mesh.h)
    width = min(hi - lo for lo, hi in mesh.extents)
    levels = 0
    while h * 2**levels <= width / 4.0 + 1e-12:
        levels += 1
    return 2**levels // 2


def besov_seminorm(u, r, p):
    """Grid surrogate of sup_t t^(-r) * shift modulus at dyadic scales.

    Scales are t = h * 2^j with t at most a quarter of the shortest domain
    side. Constant fields give 0; Lipschitz fields stay bounded as r -> 1.
    The levels are walked from the finest and the walk stops at the first
    level j where (h 2^j)^(-r) * 2 ||u||_p (the Minkowski bound on every
    shift modulus, with a 1e-9 relative margin) cannot exceed the best
    level value so far; the result is bit-identical to the full sweep.
    Needs 0 < r < 1 and p >= 1, where Minkowski's inequality holds.
    """
    if not (0.0 < r < 1.0):
        raise ConfigError("r must lie in (0, 1)")
    if not p >= 1.0:
        raise ConfigError("p must be at least 1")
    vals, q = _gauss_grid(u)
    buf = np.empty(vals.size)
    bound = _shift_bound(vals, q.weights[0], p, lambda v: _gauss_lp(v, q, p))
    return _dyadic_supremum(
        lambda ks: [_shift_modulus(vals, k, p, q, buf) for k in ks], _dyadic_k_max(u.mesh), bound, min(u.mesh.h), r
    )


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
