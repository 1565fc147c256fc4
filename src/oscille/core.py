"""Coefficient presets, two-scale evaluation and ellipticity auditing.

A coefficient is a scalar function a(x, y), Lipschitz in the slow variable x
and 1-periodic in the fast variable y, acting on gradients as a(x, y) * I.
Presets are analytic descriptors, so periodicity is exact and ellipticity
bounds are certified by interval arithmetic rather than sampling. Each
preset is a = g(x) b(y): a scalar slow factor (1 + slope x1 or 1) times
a fast profile, which `CoefficientField.eval_factors` returns apart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

EDGE_NAMES_1D = ("left", "right")
EDGE_NAMES_2D = ("left", "right", "bottom", "top")

# preset id -> the dimensions it is defined in; the first is the default
PRESET_DIMS = {
    "Constant": (1, 2),
    "Sine1D": (1,),
    "Laminate2D": (2,),
    "SineProduct2D": (2,),
    "LocallyPeriodic1D": (1,),
    "LocallyPeriodic2D": (2,),
}


class ConfigError(ValueError):
    """Bad input: a config, flag or argument the program cannot use (exit code 2)."""


class NumericalError(RuntimeError):
    """A computation that cannot give a trustworthy result (exit code 3)."""


class PresetError(ConfigError):
    """Unknown preset id or parameters violating ellipticity."""


class ScenarioError(ConfigError):
    """Scenario field combination violates an invariant."""


def _as_points(v, dim):
    """Coerce a point or an array of points to shape (n, dim)."""
    arr = np.atleast_2d(np.asarray(v, dtype=float))
    if arr.shape[-1] != dim:
        raise ConfigError(f"expected points with {dim} components, got shape {arr.shape}")
    return arr.reshape(-1, dim)


@dataclass(frozen=True)
class CoefficientField:
    """Scalar coefficient a(x, y) with certified bounds.

    c_a and norm_inf bound a over the unit domain x in [0,1]^d and any y;
    lipschitz_x is a certified Lipschitz constant in x. Evaluation outside
    the unit box is permitted (needed for extended grids) but the bounds
    are certified on the box only.
    """

    preset_id: str
    params: tuple
    dim: int
    lipschitz_x: float
    c_a: float
    norm_inf: float

    def eval(self, x, y):
        """Pointwise values a(x_i, y_i); x and y broadcast as (n, dim) arrays."""
        x = _as_points(x, self.dim)
        y = _as_points(y, self.dim)
        return _eval_preset(self.preset_id, self.params, x, y)

    def eval_factors(self, x, y):
        """The factors g(x_i), shape (m,), and b(x_i, y_j) of a = g b for slow
        points x (m, dim) and fast points y (n, dim); b has shape (1, n)
        when it does not read x, as for every preset, and (m, n) otherwise."""
        x = _as_points(x, self.dim)
        y = _as_points(y, self.dim)
        g, b = _preset_factors(self.preset_id, self.params, x[:, None, :], y[None, :, :])
        return (np.ones(len(x)) if g is None else g.reshape(len(x))), b


def _preset_factors(preset_id, params, x, y):
    """The slow factor g(x) (None when it is 1) and the fast profile b(x, y)
    of a = g b, for arrays whose leading axes broadcast and whose last axis
    holds the components; each has the leading shape of what it reads."""
    # wrap into the unit cell first: this makes periodicity exact as a
    # floating-point identity whenever y + e_k is representable
    y = y - np.floor(y)
    if preset_id == "Constant":
        (c,) = params
        return None, np.full(y.shape[:-1], c)
    if preset_id in ("Sine1D", "Laminate2D"):
        c, amp = params
        return None, c + amp * np.sin(2.0 * np.pi * y[..., 0])
    if preset_id == "SineProduct2D":
        c, amp = params
        return None, c + amp * np.sin(2.0 * np.pi * y[..., 0]) * np.sin(2.0 * np.pi * y[..., 1])
    if preset_id in ("LocallyPeriodic1D", "LocallyPeriodic2D"):
        c, amp, slope = params
        return 1.0 + slope * x[..., 0], c + amp * np.sin(2.0 * np.pi * y[..., 0])
    raise PresetError(f"unknown preset {preset_id!r}")


def _eval_preset(preset_id, params, x, y):
    """a(x, y) = g(x) b(x, y) for arrays as `_preset_factors` takes them;
    a fresh array of the broadcast leading shape."""
    shape = np.broadcast_shapes(x.shape[:-1], y.shape[:-1])
    g, vals = _preset_factors(preset_id, params, x, y)
    vals = vals if g is None else g * vals
    # terms of y alone have y's leading shape; spread them over the x block
    return vals if vals.shape == shape else np.broadcast_to(vals, shape).copy()


def preset_coefficient(preset_id, params, dim=None):
    """Build a coefficient field with analytically certified bounds.

    dim defaults to the first dimension the preset is defined in.
    """
    params = tuple(float(p) for p in params)
    if preset_id not in PRESET_DIMS:
        raise PresetError(f"unknown preset {preset_id!r}; choose one of {tuple(PRESET_DIMS)}")
    dim = PRESET_DIMS[preset_id][0] if dim is None else dim
    if dim not in PRESET_DIMS[preset_id]:
        raise PresetError(f"{preset_id} requires dim in {PRESET_DIMS[preset_id]}")
    if not all(math.isfinite(p) for p in params):
        raise PresetError(f"{preset_id} parameters must be finite, got {list(params)}")

    if preset_id == "Constant":
        if len(params) != 1:
            raise PresetError("Constant takes one parameter [value]")
        (c,) = params
        if c <= 0:
            raise PresetError("constant coefficient must be positive")
        return CoefficientField(preset_id, params, dim, 0.0, c, c)

    if preset_id in ("Sine1D", "Laminate2D", "SineProduct2D"):
        if len(params) != 2:
            raise PresetError(f"{preset_id} takes [mean, amplitude]")
        c, amp = params
        if amp < 0 or amp >= c:
            raise PresetError("need 0 <= amplitude < mean for ellipticity")
        return CoefficientField(preset_id, params, dim, 0.0, c - amp, c + amp)

    # LocallyPeriodic1D / LocallyPeriodic2D: (1 + slope*x1) * (c + amp sin 2pi y1)
    if len(params) != 3:
        raise PresetError(f"{preset_id} takes [mean, amplitude, slope]")
    c, amp, slope = params
    if amp < 0 or amp >= c:
        raise PresetError("need 0 <= amplitude < mean for ellipticity")
    g_lo, g_hi = min(1.0, 1.0 + slope), max(1.0, 1.0 + slope)
    if g_lo <= 0:
        raise PresetError("slow modulation 1 + slope*x must stay positive on [0,1]")
    # interval product over x in [0,1], y in [0,1]
    c_a = g_lo * (c - amp)
    norm_inf = g_hi * (c + amp)
    lip = abs(slope) * (c + amp)
    return CoefficientField(preset_id, params, dim, lip, c_a, norm_inf)


def tau_eps(field, eps, x):
    """Two-scale evaluation a(x, x/eps): the oscillatory coefficient, whose
    fast variable the field wraps into the unit cell [0,1)^d."""
    if eps <= 0:
        raise ConfigError("eps must be positive")
    x = _as_points(x, field.dim)
    return field.eval(x, x / eps)


@dataclass(frozen=True)
class EllipticityAudit:
    min_eig: float
    max_eig: float
    lipschitz_estimate: float
    violations: tuple = ()


def audit_ellipticity(field, sample_count, seed=0, tol=1e-12):
    """Randomized check of the certified bounds over x in [0,1]^d, y in [0,1)^d.

    Violations are reported as (kind, point, value) triples; an empty tuple
    means the certificates held on every sample. sample_count lies in
    [10^3, 10^6]; a 2D audit of 10^6 samples peaks near 170 MB.
    """
    if not 1000 <= sample_count <= 10**6:
        raise ConfigError(f"sample_count must lie in [10^3, 10^6], got {sample_count}")
    if seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {seed}")
    rng = np.random.default_rng(seed)
    d = field.dim
    x = rng.random((sample_count, d))
    y = rng.random((sample_count, d))
    vals = field.eval(x, y)
    min_eig = float(vals.min())
    max_eig = float(vals.max())

    x2 = rng.random((sample_count, d))
    vals2 = field.eval(x2, y)
    dx = np.linalg.norm(x - x2, axis=1)
    ok = dx > 1e-8
    lip_est = float(np.max(np.abs(vals - vals2)[ok] / dx[ok])) if ok.any() else 0.0

    violations = []
    if min_eig < field.c_a - tol:
        i = int(np.argmin(vals))
        violations.append(("min_eig", (tuple(x[i]), tuple(y[i])), min_eig))
    if max_eig > field.norm_inf + tol:
        i = int(np.argmax(vals))
        violations.append(("max_eig", (tuple(x[i]), tuple(y[i])), max_eig))
    if lip_est > field.lipschitz_x + 1e-9 + 1e-6 * field.lipschitz_x:
        violations.append(("lipschitz", None, lip_est))
    return EllipticityAudit(min_eig, max_eig, lip_est, tuple(violations))


@dataclass(frozen=True)
class BoundarySpec:
    """Boundary condition selector: dirichlet, neumann, or mixed.

    For mixed, dirichlet_edges names the edges of the box that carry the
    Dirichlet condition, each once; the rest are natural (Neumann). The
    other kinds take no edge list.
    """

    kind: str
    dirichlet_edges: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "dirichlet_edges", tuple(self.dirichlet_edges))  # hashable, as caches key on it
        if self.kind not in ("dirichlet", "neumann", "mixed"):
            raise ScenarioError(f"unknown boundary kind {self.kind!r}")
        if self.kind == "mixed" and not self.dirichlet_edges:
            raise ScenarioError("mixed boundary needs a nonempty edge subset")
        if self.kind != "mixed" and self.dirichlet_edges:
            raise ScenarioError(f"{self.kind} boundary takes no dirichlet_edges; use kind mixed")
        if len(set(self.dirichlet_edges)) < len(self.dirichlet_edges):
            raise ScenarioError(f"dirichlet_edges names an edge twice: {list(self.dirichlet_edges)}")

    def validate_for_dim(self, dim):
        names = EDGE_NAMES_1D if dim == 1 else EDGE_NAMES_2D
        if self.kind != "mixed":
            return
        if any(e not in names for e in self.dirichlet_edges):
            raise ScenarioError(f"mixed edges must be a subset of {names}")
        if len(set(self.dirichlet_edges)) == len(names):
            raise ScenarioError("mixed boundary must be a proper edge subset; use dirichlet")


@dataclass(frozen=True)
class Scenario:
    """Full description of one convergence study."""

    field: CoefficientField
    domain: tuple
    bc: BoundarySpec
    mu: float
    p: float
    s: float
    s_plus: float
    epsilons: tuple
    points_per_period: int
    interior_margin: float
    warnings: tuple = dc_field(default=(), compare=False)

    @property
    def dim(self):
        return self.field.dim

    @property
    def p_plus(self):
        return self.p / (self.p - 1.0)

    def __post_init__(self):
        object.__setattr__(self, "epsilons", tuple(float(e) for e in self.epsilons))
        object.__setattr__(self, "domain", tuple(tuple(map(float, ax)) for ax in self.domain))
        warnings = list(self.warnings)
        numbers = (("mu", self.mu), ("p", self.p), ("s", self.s), ("s_plus", self.s_plus),
                   ("interior_margin", self.interior_margin))
        numbers += tuple(("epsilons", e) for e in self.epsilons)
        numbers += tuple(("domain", v) for ax in self.domain for v in ax)
        for name, v in numbers:
            if not math.isfinite(v):
                raise ScenarioError(f"{name} must be finite, got {v}")
        if len(self.domain) != self.dim or any(len(ax) != 2 for ax in self.domain):
            raise ScenarioError("domain must be one [lo, hi] pair per field dimension")
        for lo, hi in self.domain:
            if not hi > lo:
                raise ScenarioError("degenerate domain extents")
        eps = self.epsilons
        if len(eps) < 3:
            raise ScenarioError("need at least 3 epsilon values")
        if any(e2 >= e1 for e1, e2 in zip(eps, eps[1:])):
            raise ScenarioError("epsilons must be strictly decreasing")
        if eps[0] > 0.25 + 1e-15:
            raise ScenarioError("epsilons must be at most 1/4")
        if eps[-1] <= 0:
            raise ScenarioError("epsilons must be positive")
        if self.mu > 0:
            raise ScenarioError("mu must be nonpositive")
        if self.bc.kind == "neumann" and self.mu >= 0:
            raise ScenarioError("neumann problems need mu < 0")
        self.bc.validate_for_dim(self.dim)
        if not (1.0 < self.p < math.inf):
            raise ScenarioError("p must lie in (1, inf)")
        for name, v in (("s", self.s), ("s_plus", self.s_plus)):
            if not (0.0 < v <= 1.0):
                raise ScenarioError(f"{name} must lie in (0, 1]")
        if self.points_per_period < 1:
            raise ScenarioError("points_per_period must be positive")
        if self.interior_margin < 0:
            raise ScenarioError("interior_margin must be nonnegative")
        if self.interior_margin >= min(hi - lo for lo, hi in self.domain) / 2.0:
            raise ScenarioError("interior_margin must be smaller than half the shortest domain side")
        if self.interior_margin > 0 and self.interior_margin <= 5.0 * eps[0]:
            # Interior theory wants the region separated by >> eps; keep the
            # run legal but flag it so reports can show the caveat.
            warnings.append(
                f"interior_margin {self.interior_margin} is not larger than "
                f"5*max(eps) = {5.0 * eps[0]:g}; coarsest cases may contaminate the interior fit"
            )
        object.__setattr__(self, "warnings", tuple(warnings))
