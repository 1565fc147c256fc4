"""Extension, translation, Steklov averaging and mollification.

The Steklov average over the cube of side eps centered at each point is
computed with window weights that integrate piecewise-linear data exactly,
so constants and linear polynomials are reproduced without quadrature
bias; `steklov_box` takes it on a sub-box of the nodes only, optionally
of a product, which is how the corrector takes its z average. Extension
off the domain uses second-order reflection u(x0 - t) = 3 u(x0 + t) -
2 u(x0 + 2t), which matches values and first derivatives at the face and
preserves second-order smoothness. The mollifier is the bump
exp(-1/(1 - |x/delta|^2)) sampled on the grid and divided by its own sum,
so it needs no continuum normalizing constant; it is applied in any
dimension by one FFT product at power-of-two sizes.

The lemma suites are fixed sweeps over the module constants. The first
turns the operator estimates for these smoothing maps (contractivity of
the averaged trace, the order-eps identity defect, the mollifier
blow-up/convergence trade-off at Hoelder regularity r) into ratio sweeps,
applying each map once per sample and scale. Suite norms are uniform nodal
lattice norms, so the contraction and rearrangement identities hold
exactly in the discrete setting rather than up to quadrature error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cell import interpolate_axis
from .core import ConfigError, NumericalError
from .mesh import GridFunction, Mesh, r_cell
from .norms import _dyadic_k_max, _dyadic_supremum, _shift_bound


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


@lru_cache(maxsize=64)
def window_weights(rho):
    """Node weights integrating P1 data exactly over a centered window.

    The window has width rho grid cells; weight j carries
    (1/width) * integral of the tent at node j over the window. Weights
    are symmetric, positive (each tent up to j_max overlaps the window)
    and sum to 1 exactly in exact arithmetic.
    Cached per rho, since a study asks for the same few windows at every
    eps; read-only, since every caller shares the arrays.
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
    out = offsets, w / rho
    for a in out:
        a.flags.writeable = False
    return out


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
    """Cube average (S u)(x) = mean of u over x + eps*Q, on the source mesh."""
    whole = tuple((0, n) for n in ext.source_mesh.nodes_per_axis)
    return GridFunction(ext.source_mesh, steklov_box(ext, eps, whole).ravel())


def steklov_box(ext, eps, box, factor=None):
    """The cube average of u, or of factor * u, on the source nodes of a sub-box.

    box holds one source-node range (lo, hi) per axis. The average reads u
    only on the box widened by the window, its reach; factor, when given,
    holds values on that reach and multiplies u there first. Separable:
    each axis is averaged in turn, consuming its part of the reach, so the
    box's values are bit for bit those of `steklov` there. Returns an
    array of the box's shape; raises InsufficientMargin when the reach
    leaves the extension.
    """
    windows = _window_per_axis(ext.source_mesh, eps)
    reach = []
    for axis, ((offs, _), (lo, hi), p, n) in enumerate(zip(windows, box, ext.pad, ext.mesh.nodes_per_axis)):
        start, stop = p + lo + offs[0], p + hi + offs[-1]
        if start < 0 or stop > n:
            raise InsufficientMargin(
                f"the window of nodes {lo}..{hi - 1} on axis {axis} reaches past the extension's {p} pad nodes"
            )
        reach.append(slice(start, stop))
    vals = ext.base.reshaped()[tuple(reach)]
    if factor is not None:
        vals = factor * vals
    for axis, (offs, w) in enumerate(windows):
        moved = np.moveaxis(vals, axis, 0)
        n = len(moved) - (offs[-1] - offs[0])
        acc = w[0] * moved[:n]
        term = np.empty_like(acc)
        for j, wj in zip(offs[1:] - offs[0], w[1:]):
            acc += np.multiply(wj, moved[j : j + n], out=term)
        vals = np.moveaxis(acc, 0, axis)
    return vals


def shift_T(ext, eps, z):
    """Translated values u(x + eps*z) on the source mesh.

    The shifted nodes form a tensor grid, so the extended data is
    interpolated linearly one axis at a time, last axis first. A point
    outside the extended box raises `cell.TableCoverage`.
    """
    mesh = ext.source_mesh
    z = np.asarray(z, dtype=float).reshape(mesh.dim)
    if np.any(np.abs(z) > r_cell(mesh.dim) + 1e-12):
        raise ConfigError("z must lie in the centered unit cube")
    vals = ext.base.reshaped()
    for a in reversed(range(mesh.dim)):
        vals = interpolate_axis(vals, ext.mesh.axis_coords(a), mesh.axis_coords(a) + eps * z[a], axis=a)
    return GridFunction(mesh, vals.ravel())


# ---------------------------------------------------------------------------
# Mollification
# ---------------------------------------------------------------------------


def mollifier_weights(delta, h):
    """Discrete kernel on grid offsets inside the delta-ball.

    The bump exp(-1/(1 - |x/delta|^2)) sampled on the grid and divided by
    its own sum, so the weights sum to 1 on the grid; nonnegative by
    construction.
    """
    k = tuple(int(math.floor(delta / hk + 1e-12)) for hk in h)
    # squared radius |x / delta|^2 over the tensor grid of offsets
    r2 = sum(x**2 for x in np.ix_(*(np.arange(-kk, kk + 1) * hk / delta for kk, hk in zip(k, h))))
    w = np.where(r2 < 1.0, np.exp(-1.0 / np.maximum(1.0 - r2, 1e-300)), 0.0)
    total = w.sum()
    if total <= 0:
        raise NumericalError("mollifier kernel has no support on the grid; refine h")
    return w / total, k


def mollify(ext, delta):
    """Convolve with the grid-normalized smooth bump of radius delta.

    One FFT product for any d: data and kernel are zero-padded per axis to
    a power of two at least the data's node count n, so the circular
    product wraps only into the first 2k nodes, and [2k, n) is the valid
    block. The kernel's offsets enter squared, so it is symmetric bit for
    bit and this convolution equals the centered weighted sum. Returns an
    ExtendedFunction on the box shrunk by the kernel radius k; raises
    InsufficientMargin when the extension cannot absorb it.
    """
    if delta <= 0:
        raise ConfigError("delta must be positive")
    mesh = ext.source_mesh
    w, k = mollifier_weights(delta, ext.mesh.h)
    new_pad = tuple(p - kk for p, kk in zip(ext.pad, k))
    if any(p < 0 for p in new_pad):
        raise InsufficientMargin("extension margin smaller than the mollification radius")
    vals = ext.base.reshaped()
    size = [1 << (n - 1).bit_length() for n in vals.shape]
    axes = tuple(range(vals.ndim))
    sm = np.fft.irfftn(np.fft.rfftn(vals, size, axes) * np.fft.rfftn(w, size, axes), size, axes)
    sm = sm[tuple(slice(2 * kk, n) for kk, n in zip(k, vals.shape))]
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
        return [c for c in self.checks if c.lemma == lemma and (sample is None or c.sample == sample)]


GROWTH_FLAG = 1.5
SUITE_SCALES = (1 / 8, 1 / 16, 1 / 32, 1 / 64)  # cube sides eps, and the same mollifier radii delta
SUITE_CELLS = 1024  # uniform lattice on [0, 1]
SUITE_MARGIN = 0.5  # extension past each face, wider than every window and kernel
ISOMETRY_SCALES = (1 / 8, 1 / 16, 1 / 32)  # each an even number of the isometry lattice's cells
ISOMETRY_CELLS = 256  # periodic lattice on [0, 1)
ISOMETRY_TOL = 1e-12  # relative defect gate; the rearrangement is exact, so rounding is all that is left
Q = 2.0  # exponent of every lattice norm of the suites
# (name, callable, Hoelder exponent r); a Lipschitz kink and a Hoelder-1/2 cusp, as the lemma preconditions ask
SUITE_SAMPLES = (
    ("sine", lambda x: np.sin(2.0 * np.pi * x[:, 0]), 1.0),
    ("poly", lambda x: x[:, 0] * (1.0 - x[:, 0]), 1.0),
    ("hat", lambda x: 1.0 - 2.0 * np.abs(x[:, 0] - 0.5), 1.0),
    ("sqrt_cusp", lambda x: np.sqrt(np.abs(x[:, 0] - 0.5)), 0.5),
)


def _fast_weight(y):
    return 2.0 + np.sin(2.0 * np.pi * y)


def _nodal_q_norm(vals, h):
    return float((np.sum(np.abs(vals) ** Q) * h) ** (1.0 / Q))


def _cell_mean_power(w, rho):
    """Mean of |w|^Q over the rho lattice points of one period."""
    return float(np.mean(np.abs(w(np.arange(rho) / rho)) ** Q))


def _holder_seminorm(vals, mesh, r):
    """Grid surrogate of the Hoelder/Besov r-seminorm (dyadic shifts).

    The level walk of `besov_seminorm`, on nodal lattice norms: it stops at
    the first level that cannot raise the supremum, with the same result
    as the full sweep.
    """
    h = mesh.h[0]
    norm = lambda v: _nodal_q_norm(v, h)  # noqa: E731
    return _dyadic_supremum(
        lambda ks: [norm(vals[k:] - vals[:-k]) for k in ks], _dyadic_k_max(mesh), _shift_bound(vals, h, Q, norm), h, r
    )


def _growth_ok(ratios):
    return all(b <= GROWTH_FLAG * a + 1e-14 for a, b in zip(ratios, ratios[1:]))


def _contracts(ratios):
    return all(rr <= 1.0 + 1e-8 for rr in ratios)


def _measure(ext, src, s):
    """At cube side and mollifier radius s, from one steklov, shift_T and mollify: the averaged
    two-scale trace over its bound, the three identity defects and the mollified gradient's norm."""
    mesh = ext.source_mesh
    h, n = mesh.h[0], mesh.nodes_per_axis[0]
    vals, pad = ext.base.values, ext.pad[0]
    rho = int(round(s / h))
    offs, _ = window_weights(rho)
    x = mesh.axis_coords(0)
    average = steklov(ext, s).values
    trace = _nodal_q_norm(_fast_weight((x / s) - np.floor(x / s)) * average, h)
    reach = vals[pad + offs[0] : pad + offs[-1] + n]  # the data the averages read
    bound = _nodal_q_norm(reach, h) * _cell_mean_power(_fast_weight, rho) ** (1.0 / Q)
    mol = mollify(ext, s)
    p0 = mol.pad[0] - 1
    return (
        trace / bound,
        _nodal_q_norm(average - src, h),
        _nodal_q_norm(shift_T(ext, s, np.array([0.5])).values - src, h),
        _nodal_q_norm(mol.source_block().ravel() - src, h),
        _nodal_q_norm(_central_diff(mol.base.values, h)[p0 : p0 + n], h),
    )


def smoothing_lemma_suite():
    """Sweep the smoothing estimates over SUITE_SCALES and report lemma-normalized ratios.

    Each sample is measured once per scale, and each row of the table turns
    one measured quantity into ratios. A growth check fails when its ratio
    grows by more than the flag factor across one halving of the scale,
    i.e. when the measured quantity outruns what the estimate permits.
    """
    mesh = Mesh(1, ((0.0, 1.0),), (SUITE_CELLS + 1,))
    h, n = mesh.h[0], mesh.nodes_per_axis[0]
    checks = []
    for name, fn, r in SUITE_SAMPLES:
        ext = extended_from_callable(mesh, SUITE_MARGIN, fn)
        src = ext.source_block().ravel()
        pad = ext.pad[0]
        dnorm = _nodal_q_norm(_central_diff(ext.base.values, h)[pad - 1 : pad - 1 + n], h)
        sem = _holder_seminorm(src, mesh, r)
        table = (  # lemma, ratio of a measured value v at scale s, pass rule, note
            ("steklov_tau_norm", lambda v, s: v, _contracts, "contraction of the averaged two-scale trace"),
            ("steklov_identity", lambda v, s: v / (s * dnorm), _growth_ok, "defect / (eps * grad norm)"),
            ("translation_identity", lambda v, s: v / (s * 0.5 * dnorm), _growth_ok, "defect / (eps |z| grad norm)"),
            ("mollify_identity", lambda v, s: v / (s**r * sem), _growth_ok, f"defect / (delta^{r:g} * seminorm)"),
            ("mollify_gradient", lambda v, s: v * s ** (1.0 - r) / sem, _growth_ok,
             f"grad norm * delta^{1 - r:g} / seminorm"),
        )
        measured = zip(*(_measure(ext, src, s) for s in SUITE_SCALES))
        for (lemma, ratio, rule, note), raw in zip(table, measured):
            ratios = tuple(ratio(v, s) for v, s in zip(raw, SUITE_SCALES))
            checks.append(LemmaCheck(lemma, name, SUITE_SCALES, ratios, raw, passed=rule(ratios), note=note))
    return PropertyReport(checks)


def isometry_check():
    """Two-scale translated trace preserves the norm of separable data.

    For u(x, y) = g(x) w(y) the lattice norms of u(x + eps z, x/eps) over
    x and z rearrange exactly into the norm of u, provided shifts wrap on
    the torus. Returns (sample, eps, lhs, rhs, relative defect) rows, one
    per sample and eps of ISOMETRY_SCALES; the defects are machine-small.
    """
    samples = [
        ("sine_x_sine_y", lambda x: np.sin(2.0 * np.pi * x), _fast_weight),
        ("poly_x_cos_y", lambda x: x * (1.0 - x), lambda y: 1.0 + 0.3 * np.cos(2.0 * np.pi * y)),
    ]
    h = 1.0 / ISOMETRY_CELLS
    x = np.arange(ISOMETRY_CELLS) * h
    rows = []
    for name, g_fn, w_fn in samples:
        g = g_fn(x)
        for eps in ISOMETRY_SCALES:
            rho = int(round(eps / h))
            offs, wts = window_weights(rho)
            wvals = np.abs(w_fn((x / eps) - np.floor(x / eps))) ** Q
            lhs_q = 0.0
            for j, wj in zip(offs, wts):
                lhs_q += wj * float(np.sum(np.abs(np.roll(g, -j)) ** Q * wvals) * h)
            rhs_q = float(np.sum(np.abs(g) ** Q) * h) * _cell_mean_power(w_fn, rho)
            lhs, rhs = lhs_q ** (1.0 / Q), rhs_q ** (1.0 / Q)
            rows.append((name, eps, lhs, rhs, abs(lhs - rhs) / rhs))
    return rows
