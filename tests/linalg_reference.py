"""Reference preconditioned CG loop, for tests only.

This is the loop `oscille.linalg._pcg` replaced: it preconditions each new
residual before testing it, so a solve applies the preconditioner once
more after its last iteration and discards the result. The production
loop is checked against it bit for bit.
"""

from __future__ import annotations

import numpy as np


def pcg(matvec, b, precondition, tol, max_iter, project=None):
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
