"""Extension, translation, Steklov averaging and mollification.

The Steklov average over the cube of side eps centered at each point is
computed with window weights that integrate piecewise-linear data exactly,
so constants and linear polynomials are reproduced without quadrature
bias. Extension off the domain uses second-order reflection
u(x0 - t) = 3 u(x0 + t) - 2 u(x0 + 2t), which matches values and first
derivatives at the face and preserves second-order smoothness.

The lemma suite turns the operator estimates for these smoothing maps
(contractivity of the averaged trace, the order-eps identity defect, the
mollifier blow-up/convergence trade-off at Hoelder regularity r) into
measurable ratio sweeps. Suite norms are uniform nodal lattice norms, so
the contraction and rearrangement identities hold exactly in the discrete
setting rather than up to quadrature error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cell import multilinear
from .core import ConfigError, NumericalError
from .mesh import GridFunction, Mesh, r_cell
from .norms import _dyadic_supremum, _shift_bound


class MarginTooLarge(NumericalError):
    pass


class InsufficientMargin(NumericalError):
    pass


@dataclass
class ExtendedFunction:
    """Nodal data on a margin-extended box, h-aligned with the source mesh."""

    base: GridFunction
    source_mesh: Mesh
    pad: tuple  # nodes added per side, per axis

    @property
    def mesh(self):
        return self.base.mesh

    def source_block(self):
        sl = tuple(slice(p, p + n) for p, n in zip(self.pad, self.source_mesh.nodes_per_axis))
        return self.base.reshaped()[sl]


def _extended_mesh(source, pad):
    extents = []
    nodes = []
    for (lo, hi), p, h, n in zip(source.extents, pad, source.h, source.nodes_per_axis):
        extents.append((lo - p * h, hi + p * h))
        nodes.append(n + 2 * p)
    return Mesh(source.dim, tuple(extents), tuple(nodes))


def _central_diff(vals, h, axis=0):
    """Central differences along one axis; that axis loses a node per side."""
    moved = np.moveaxis(vals, axis, 0)
    return np.moveaxis((moved[2:] - moved[:-2]) / (2.0 * h), 0, axis)


def _reflect_axis(arr, pad, axis):
    """Second-order reflection on both ends of one axis."""
    n = arr.shape[axis]
    if 2 * pad > n - 1:
        raise MarginTooLarge("reflection would reach past the opposite face")
    arr = np.moveaxis(arr, axis, 0)
    j = np.arange(1, pad + 1)
    left = 3.0 * arr[j] - 2.0 * arr[2 * j]  # node at x0 - j*h
    right = 3.0 * arr[n - 1 - j] - 2.0 * arr[n - 1 - 2 * j]  # node at x1 + j*h
    out = np.concatenate([left[::-1], arr, right], axis=0)
    return np.moveaxis(out, 0, axis)


def extend(u, margin):
    """Extend a grid function past each face by at least `margin`."""
    if margin < 0:
        raise ConfigError("margin must be nonnegative")
    mesh = u.mesh
    pad = tuple(int(math.ceil(margin / h - 1e-12)) for h in mesh.h)
    vals = u.reshaped()
    for axis, p in enumerate(pad):
        if p:
            vals = _reflect_axis(vals, p, axis)
    ext_mesh = _extended_mesh(mesh, pad)
    return ExtendedFunction(GridFunction(ext_mesh, vals.ravel()), mesh, pad)


def extended_from_callable(mesh, margin, fn):
    """Build an ExtendedFunction by sampling an analytic function directly."""
    pad = tuple(int(math.ceil(margin / h - 1e-12)) for h in mesh.h)
    ext_mesh = _extended_mesh(mesh, pad)
    vals = np.asarray(fn(ext_mesh.node_coords()), dtype=float)
    return ExtendedFunction(GridFunction(ext_mesh, vals), mesh, pad)


def window_weights(rho):
    """Node weights integrating P1 data exactly over a centered window.

    The window has width rho grid cells; weight j carries
    (1/width) * integral of the tent at node j over the window. Weights
    are symmetric, nonnegative and sum to 1 exactly in exact arithmetic.
    """
    if rho < 1:
        raise ConfigError("window needs at least one cell")
    half = 0.5 * rho  # in cell units
    j_max = int(math.ceil(half + 1.0 - 1e-12)) - 1

    def tent_integral(lo, hi):
        # integral of max(0, 1 - |s|) over [lo, hi]
        lo = max(lo, -1.0)
        hi = min(hi, 1.0)
        if hi <= lo:
            return 0.0

        def anti(s):
            return s + 0.5 * s * s if s <= 0 else s - 0.5 * s * s

        return anti(hi) - anti(lo)

    offsets = np.arange(-j_max, j_max + 1)
    w = np.array([tent_integral(-half - j, half - j) for j in offsets])
    w = w / rho
    keep = w > 1e-300
    return offsets[keep], w[keep]


def _window_per_axis(mesh, eps):
    """Per-axis (offsets, weights) of the side-eps cube average on mesh."""
    out = []
    for h in mesh.h:
        rho = eps / h
        if abs(rho - round(rho)) > 1e-9:
            raise ConfigError(f"cube side eps = {eps:g} must be an integer multiple of h = {h:g}")
        out.append(window_weights(int(round(rho))))
    return out


def steklov(ext, eps):
    """Cube average (S u)(x) = mean of u over x + eps*Q, on the source mesh.

    Separable: each axis is averaged in turn, consuming that axis's pad.
    """
    mesh = ext.source_mesh
    vals = ext.base.reshaped()
    for axis, (offs, w) in enumerate(_window_per_axis(mesh, eps)):
        if offs[-1] > ext.pad[axis]:
            raise InsufficientMargin(
                f"need {offs[-1]} pad nodes on axis {axis}, extension has {ext.pad[axis]}"
            )
        moved = np.moveaxis(vals, axis, 0)
        start = ext.pad[axis]
        n = mesh.nodes_per_axis[axis]
        acc = np.zeros((n,) + moved.shape[1:])
        for j, wj in zip(offs, w):
            acc += wj * moved[start + j : start + j + n]
        vals = np.moveaxis(acc, 0, axis)
    return GridFunction(mesh, vals.ravel())


def shift_T(ext, eps, z):
    """Translated values u(x + eps*z) on the source mesh (multilinear)."""
    mesh = ext.source_mesh
    z = np.asarray(z, dtype=float).reshape(mesh.dim)
    if np.any(np.abs(z) > r_cell(mesh.dim) + 1e-12):
        raise ConfigError("z must lie in the centered unit cube")
    pts = mesh.node_coords() + eps * z[None, :]
    return GridFunction(mesh, eval_extended(ext, pts))


def eval_extended(ext, pts):
    """Multilinear interpolation of the extended data at arbitrary points.

    A point outside the extended box raises `cell.TableCoverage`.
    """
    emesh = ext.mesh
    x_axes = tuple(emesh.axis_coords(k) for k in range(emesh.dim))
    return multilinear(ext.base.reshaped(), x_axes, pts)


# ---------------------------------------------------------------------------
# Mollification
# ---------------------------------------------------------------------------


@lru_cache(maxsize=4)
def bump_normalizer(d):
    """kappa with kappa * int_{|x|<1} exp(-1/(1-|x|^2)) dx = 1 (quadrature)."""
    from scipy.integrate import quad  # imported here: only s < 1 needs it, and it loads slowly

    def profile(r):
        return math.exp(-1.0 / (1.0 - r * r)) if r < 1.0 else 0.0

    if d == 1:
        val, err = quad(profile, -1.0, 1.0, epsabs=1e-13, epsrel=1e-13, limit=200)
    else:
        val, err = quad(lambda r: 2.0 * math.pi * r * profile(r), 0.0, 1.0, epsabs=1e-13, epsrel=1e-13, limit=200)
    if err > 1e-10:
        raise NumericalError("bump normalizer quadrature failed")
    return 1.0 / val


def mollifier_weights(delta, h, d):
    """Discrete kernel on grid offsets inside the delta-ball.

    Sampled from the scaled bump and renormalized so the weights sum to 1
    exactly; nonnegative by construction.
    """
    k = tuple(int(math.floor(delta / hk + 1e-12)) for hk in h)
    kappa = bump_normalizer(d)
    if d == 1:
        x = np.arange(-k[0], k[0] + 1) * h[0] / delta
        w = np.where(np.abs(x) < 1.0, np.exp(-1.0 / np.maximum(1.0 - x * x, 1e-300)), 0.0) * kappa
    else:
        xa = np.arange(-k[0], k[0] + 1) * h[0] / delta
        xb = np.arange(-k[1], k[1] + 1) * h[1] / delta
        r2 = xa[:, None] ** 2 + xb[None, :] ** 2
        w = np.where(r2 < 1.0, np.exp(-1.0 / np.maximum(1.0 - r2, 1e-300)), 0.0) * kappa
    total = w.sum()
    if total <= 0:
        raise NumericalError("mollifier kernel has no support on the grid; refine h")
    return w / total, k


def mollify(ext, delta):
    """Convolve with the smooth bump of radius delta.

    Returns an ExtendedFunction on the box shrunk by the kernel radius;
    raises InsufficientMargin when the extension cannot absorb it.
    """
    if delta <= 0:
        raise ConfigError("delta must be positive")
    mesh = ext.source_mesh
    w, k = mollifier_weights(delta, ext.mesh.h, mesh.dim)
    new_pad = tuple(p - kk for p, kk in zip(ext.pad, k))
    if any(p < 0 for p in new_pad):
        raise InsufficientMargin("extension margin smaller than the mollification radius")
    vals = ext.base.reshaped()
    if mesh.dim == 1:
        sm = np.convolve(vals, w[::-1], mode="valid")
    else:
        from scipy.signal import convolve  # imported here: only 2D needs it, and it loads slowly

        sm = convolve(vals, w[::-1, ::-1], mode="valid", method="auto")
    out_mesh = _extended_mesh(mesh, new_pad)
    return ExtendedFunction(GridFunction(out_mesh, sm.ravel()), mesh, new_pad)


# ---------------------------------------------------------------------------
# Lemma suite: ratio sweeps for the smoothing estimates
# ---------------------------------------------------------------------------


@dataclass
class LemmaCheck:
    lemma: str
    sample: str
    scales: tuple
    ratios: tuple  # lemma-normalized ratios per scale
    raw: tuple  # un-normalized measured quantity per scale
    passed: bool
    note: str = ""


@dataclass
class PropertyReport:
    checks: list

    @property
    def all_passed(self):
        return all(c.passed for c in self.checks)

    def failed(self):
        return [c for c in self.checks if not c.passed]

    def by(self, lemma, sample=None):
        out = [c for c in self.checks if c.lemma == lemma and (sample is None or c.sample == sample)]
        return out


GROWTH_FLAG = 1.5


def default_samples():
    """(name, callable, Hoelder exponent r) triples; includes a Lipschitz
    kink and a Hoelder-1/2 cusp as the lemma preconditions ask."""
    return [
        ("sine", lambda x: np.sin(2.0 * np.pi * x[:, 0]), 1.0),
        ("poly", lambda x: x[:, 0] * (1.0 - x[:, 0]), 1.0),
        ("hat", lambda x: 1.0 - 2.0 * np.abs(x[:, 0] - 0.5), 1.0),
        ("sqrt_cusp", lambda x: np.sqrt(np.abs(x[:, 0] - 0.5)), 0.5),
    ]


def _nodal_q_norm(vals, h, q):
    return float((np.sum(np.abs(vals) ** q) * h) ** (1.0 / q))


def _lattice(n=1024, margin=0.5):
    mesh = Mesh(1, ((0.0, 1.0),), (n + 1,))
    return mesh, margin


def _holder_seminorm(vals, h, r, q):
    """Grid surrogate of the Hoelder/Besov r-seminorm (dyadic shifts).

    The level walk of `besov_seminorm`, on nodal lattice norms: it stops at
    the first level that cannot raise the supremum, with the same result
    as the full sweep.
    """
    levels = 0
    while 2**levels <= vals.shape[0] // 4:
        levels += 1
    norm = lambda v: _nodal_q_norm(v, h, q)  # noqa: E731
    return _dyadic_supremum(
        lambda ks: [norm(vals[k:] - vals[:-k]) for k in ks], 2**levels // 2, _shift_bound(vals, h, q, norm), h, r
    )


def _growth_ok(ratios):
    return all(b <= GROWTH_FLAG * a + 1e-14 for a, b in zip(ratios, ratios[1:]))


def smoothing_lemma_suite(samples=None, eps_list=(1 / 8, 1 / 16, 1 / 32, 1 / 64), delta_list=None, q=2.0, n=1024):
    """Sweep the smoothing estimates and report lemma-normalized ratios.

    A check fails when its normalized ratio grows by more than the flag
    factor across one halving of the scale, i.e. when the measured
    quantity outruns what the estimate permits.
    """
    samples = samples if samples is not None else default_samples()
    delta_list = tuple(delta_list) if delta_list is not None else tuple(eps_list)
    eps_list = tuple(eps_list)
    mesh, margin = _lattice(n)
    h = mesh.h[0]
    w_fast = lambda y: 2.0 + np.sin(2.0 * np.pi * y)  # noqa: E731
    checks = []

    for name, fn, r in samples:
        ext = extended_from_callable(mesh, margin, fn)
        ext_vals = ext.base.values
        pad = ext.pad[0]
        src = ext.source_block()

        # --- averaged two-scale trace is a contraction (operator norm 1)
        ratios = []
        for eps in eps_list:
            rho = int(round(eps / h))
            offs, _ = window_weights(rho)
            x = mesh.axis_coords(0)
            y = (x / eps) - np.floor(x / eps)
            lhs = _nodal_q_norm(w_fast(y) * steklov(ext, eps).values, h, q)
            lo = pad + offs[0]
            hi = pad + offs[-1] + mesh.nodes_per_axis[0]
            y_cell = np.arange(rho) / rho
            w_mean = float(np.mean(np.abs(w_fast(y_cell)) ** q)) ** (1.0 / q)
            rhs = _nodal_q_norm(ext_vals[lo:hi], h, q) * w_mean
            ratios.append(lhs / rhs)
        checks.append(
            LemmaCheck(
                "steklov_tau_norm", name, eps_list, tuple(ratios), tuple(ratios),
                passed=all(rr <= 1.0 + 1e-8 for rr in ratios),
                note="contraction of the averaged two-scale trace",
            )
        )

        # --- Steklov identity defect is of order eps
        raw = []
        ratios = []
        dg = _central_diff(ext_vals, h)
        dnorm = _nodal_q_norm(dg[pad - 1 : pad - 1 + mesh.nodes_per_axis[0]], h, q)
        for eps in eps_list:
            sv = steklov(ext, eps)
            defect = _nodal_q_norm(sv.values - src.ravel(), h, q)
            raw.append(defect)
            ratios.append(defect / (eps * dnorm))
        checks.append(
            LemmaCheck(
                "steklov_identity", name, eps_list, tuple(ratios), tuple(raw),
                passed=_growth_ok(ratios),
                note="defect / (eps * grad norm)",
            )
        )

        # --- translation identity defect is of order eps
        raw = []
        ratios = []
        for eps in eps_list:
            sh = shift_T(ext, eps, np.array([0.5]))
            defect = _nodal_q_norm(sh.values - src.ravel(), h, q)
            raw.append(defect)
            ratios.append(defect / (eps * 0.5 * dnorm))
        checks.append(
            LemmaCheck(
                "translation_identity", name, eps_list, tuple(ratios), tuple(raw),
                passed=_growth_ok(ratios),
                note="defect / (eps |z| grad norm)",
            )
        )

        # --- mollifier converges at rate delta^r
        sem = _holder_seminorm(src.ravel(), h, r, q)
        raw = []
        ratios = []
        for delta in delta_list:
            mol = mollify(ext, delta)
            block = mol.source_block().ravel()
            defect = _nodal_q_norm(block - src.ravel(), h, q)
            raw.append(defect)
            ratios.append(defect / (delta**r * sem))
        checks.append(
            LemmaCheck(
                "mollify_identity", name, delta_list, tuple(ratios), tuple(raw),
                passed=_growth_ok(ratios),
                note=f"defect / (delta^{r:g} * seminorm)",
            )
        )

        # --- mollified gradient blows up no faster than delta^-(1-r)
        raw = []
        ratios = []
        for delta in delta_list:
            mol = mollify(ext, delta)
            dvals = _central_diff(mol.base.values, h)
            p0 = mol.pad[0] - 1
            dnorm_m = _nodal_q_norm(dvals[p0 : p0 + mesh.nodes_per_axis[0]], h, q)
            raw.append(dnorm_m)
            ratios.append(dnorm_m * delta ** (1.0 - r) / sem)
        checks.append(
            LemmaCheck(
                "mollify_gradient", name, delta_list, tuple(ratios), tuple(raw),
                passed=_growth_ok(ratios),
                note=f"grad norm * delta^{1 - r:g} / seminorm",
            )
        )

    return PropertyReport(checks)


def isometry_check(eps_list=(1 / 8, 1 / 16, 1 / 32), n=256, q=2.0, samples=None):
    """Two-scale translated trace preserves the norm of separable data.

    For u(x, y) = g(x) w(y) the lattice norms of u(x + eps z, x/eps) over
    x and z rearrange exactly into the norm of u, provided shifts wrap on
    the torus. Returns per-sample relative defects (machine-small).
    """
    if samples is None:
        samples = [
            ("sine_x_sine_y", lambda x: np.sin(2.0 * np.pi * x), lambda y: 2.0 + np.sin(2.0 * np.pi * y)),
            ("poly_x_cos_y", lambda x: x * (1.0 - x), lambda y: 1.0 + 0.3 * np.cos(2.0 * np.pi * y)),
        ]
    h = 1.0 / n
    x = np.arange(n) * h
    rows = []
    for name, g_fn, w_fn in samples:
        g = g_fn(x)
        for eps in eps_list:
            rho = eps / h
            if abs(rho - round(rho)) > 1e-12 or int(round(rho)) % 2:
                raise ConfigError("eps/h must be an even integer for the aligned check")
            rho = int(round(rho))
            offs, wts = window_weights(rho)
            y = (x / eps) - np.floor(x / eps)
            wvals = np.abs(w_fn(y)) ** q
            lhs_q = 0.0
            for j, wj in zip(offs, wts):
                gj = np.roll(g, -j)
                lhs_q += wj * float(np.sum(np.abs(gj) ** q * wvals) * h)
            y_cell = np.arange(rho) / rho
            rhs_q = float(np.sum(np.abs(g) ** q) * h) * float(np.mean(np.abs(w_fn(y_cell)) ** q))
            lhs = lhs_q ** (1.0 / q)
            rhs = rhs_q ** (1.0 / q)
            rows.append((name, eps, lhs, rhs, abs(lhs - rhs) / rhs))
    return rows
