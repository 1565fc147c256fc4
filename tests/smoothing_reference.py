"""Mollifier references, for tests only: the continuum-normalized kernel and a direct offset loop.

The original kernel is the bump exp(-1/(1 - |x|^2)) scaled by
kappa = 1 / (its integral over the unit ball), taken by adaptive
quadrature, sampled on the grid offsets inside the delta-ball and then
divided by the sum of the samples. The final division cancels kappa up to
rounding, so `oscille.smoothing.mollifier_weights`, which samples the
bare bump, is checked against it. The offset loop checks
`oscille.smoothing.mollify`'s FFT product.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad


def bump_normalizer(d):
    """kappa with kappa * int_{|x|<1} exp(-1/(1-|x|^2)) dx = 1 (quadrature), for d = 1, 2."""

    def profile(r):
        return math.exp(-1.0 / (1.0 - r * r)) if r < 1.0 else 0.0

    if d == 1:
        val, err = quad(profile, -1.0, 1.0, epsabs=1e-13, epsrel=1e-13, limit=200)
    else:
        val, err = quad(lambda r: 2.0 * math.pi * r * profile(r), 0.0, 1.0, epsabs=1e-13, epsrel=1e-13, limit=200)
    assert err <= 1e-10, "bump normalizer quadrature failed"
    return 1.0 / val


def scaled_mollifier_weights(delta, h):
    """Kernel on grid offsets inside the delta-ball from the kappa-scaled bump, renormalized on the grid."""
    k = tuple(int(math.floor(delta / hk + 1e-12)) for hk in h)
    r2 = sum(x**2 for x in np.ix_(*(np.arange(-kk, kk + 1) * hk / delta for kk, hk in zip(k, h))))
    w = np.where(r2 < 1.0, np.exp(-1.0 / np.maximum(1.0 - r2, 1e-300)), 0.0) * bump_normalizer(len(h))
    return w / w.sum(), k


def mollify_loop(vals, w):
    """The mollified block of nodal data vals, one weighted shift per nonzero kernel offset, as
    `steklov_box` loops: output node i is sum_j w[j] vals[i + j] over the kernel's index tuples j,
    so it sits at the data node i + k, k the kernel radius per axis."""
    out_shape = tuple(n - m + 1 for n, m in zip(vals.shape, w.shape))
    out = np.zeros(out_shape)
    for j in zip(*np.nonzero(w)):
        out += w[j] * vals[tuple(slice(jj, jj + n) for jj, n in zip(j, out_shape))]
    return out
