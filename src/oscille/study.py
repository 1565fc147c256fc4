"""Epsilon sweeps: solve, correct, measure, fit rates, compare to theory.

For each epsilon the oscillatory problem and the effective problem are
solved on the same fine mesh (so leading discretization error cancels in
their difference), the regularized corrector is assembled from the cell
table, and the error norms of each rate target are recorded. Slopes come
from least squares on (log eps, log error); a target passes when its
fitted slope reaches the guaranteed exponent minus a tolerance, since the
theory provides upper bounds for the error, not asymptotics.

Errors are measured for a small dictionary of smooth loads and the worst
normalized error per target enters the fit; this is the declared
surrogate for the operator-norm statements, which quantify over all
p-integrable data.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field as dc_field
from functools import reduce

import numpy as np

from . import cell as cell_mod
from . import core
from . import corrector as corr_mod
from . import fem, linalg
from .core import ConfigError, NumericalError, Scenario
from .mesh import GridFunction, boundary_strip_mask, build_cell_mesh, interior_mask
from .norms import besov_seminorm, lp_norm, w1p_seminorms

FIT_TOLERANCE = 0.1
FIT_RESIDUAL_LIMIT = 0.15
BESOV_R = 0.5
EXCLUSION_FACTOR = 10.0


class InsufficientData(NumericalError):
    pass


class NonPositiveError(NumericalError):
    pass


class NonFiniteMeasurement(NumericalError):
    """A load norm that is not finite and positive, or a non-finite error."""


@dataclass(frozen=True)
class RateTarget:
    name: str
    guaranteed_exponent: float

    def __post_init__(self):
        if not (0.0 < self.guaranteed_exponent <= 2.0):
            raise ConfigError("guaranteed exponent must lie in (0, 2]")


def derive_targets(scenario: Scenario):
    """Rate targets implied by the scenario's regularity exponents.

    The presets are symmetric, so the adjoint problem carries the same
    regularity and the two-sided exponent s/p + s+/p+ applies to the
    resolvent difference in L_p and to interior gradients; the global
    gradient approximation with corrector is guaranteed s/p only. `_case`
    measures each target by its name.
    """
    s_over_p = scenario.s / scenario.p
    two_sided = s_over_p + scenario.s_plus / scenario.p_plus
    targets = [RateTarget("lp", two_sided), RateTarget("w1_corr", s_over_p)]
    if scenario.interior_margin > 0:
        targets.append(RateTarget("w1_corr_interior", two_sided))
    targets.append(RateTarget("besov_half", min(s_over_p, 1.0 - BESOV_R)))
    return targets


# the small load dictionary whose worst error is reported: 1 and prod_k sin(pi x_k), the
# product taken column by column (np.prod over a length-d axis costs as much as the sines)
LOADS = (
    ("one", lambda pts: np.ones(pts.shape[0])),
    ("sine", lambda pts: reduce(np.multiply, np.sin(np.pi * pts).T)),
)


@dataclass
class CaseRow:
    eps: float
    h: float
    errors: dict  # target name -> worst normalized error over the loads
    excluded: dict  # target name -> bool (error at solver noise level)
    aux: dict = dc_field(default_factory=dict)


@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    residual: float


@dataclass
class ConvergenceReport:
    scenario: Scenario
    targets: list
    rows: list  # one CaseRow per eps, in the scenario's decreasing order
    fits: dict  # name -> FitResult | None
    verdicts: dict  # name -> "PASS" | "FAIL" | "NotApplicable"

    @property
    def all_passed(self):
        """Every verdict PASSed. A FAIL fails the run, and so does a target
        with no fit (NotApplicable): its rows sit at solver noise, so the
        run verified nothing about it."""
        return all(v == "PASS" for v in self.verdicts.values())


def fit_rate(points):
    """Least squares in log-log space; slope is the empirical exponent.

    The residual is the root-mean-square misfit of ln(error) around the
    fitted line.
    """
    pts = [(float(e), float(v)) for e, v in points]
    if len(pts) < 3:
        raise InsufficientData(f"need at least 3 points, got {len(pts)}")
    eps = np.array([p[0] for p in pts])
    err = np.array([p[1] for p in pts])
    if np.any(err <= 0):
        raise NonPositiveError("errors must be positive for a log fit")
    if len(np.unique(eps)) != len(eps):
        raise InsufficientData("eps values must be distinct")
    x = np.log(eps)
    y = np.log(err)
    a = np.stack([x, np.ones_like(x)], axis=1)
    coef, *_ = np.linalg.lstsq(a, y, rcond=None)
    res = y - a @ coef
    return FitResult(float(coef[0]), float(coef[1]), float(np.sqrt(np.mean(res**2))))


def verdict(fit, guaranteed_exponent):
    """PASS when the observed slope is at least the guarantee minus FIT_TOLERANCE."""
    if fit is None:
        return "NotApplicable"
    ok = fit.slope >= guaranteed_exponent - FIT_TOLERANCE and fit.residual <= FIT_RESIDUAL_LIMIT
    return "PASS" if ok else "FAIL"


def _case(scenario, eps, eff, ctable, targets):
    mesh = fem.oscillatory_mesh(scenario, eps)
    osc_sys = fem.assemble(
        mesh,
        lambda pts: core.tau_eps(scenario.field, eps, pts),
        scenario.mu,
        scenario.bc,
    )
    eff_sys = fem.assemble(mesh, eff.at_gauss(mesh), scenario.mu, scenario.bc)
    # where the corrected gradient's W^1_p seminorm is taken, by target name
    w1_masks = {"w1_corr": None}
    if scenario.interior_margin > 0:
        w1_masks["w1_corr_interior"] = interior_mask(mesh, scenario.interior_margin)
    strip = boundary_strip_mask(mesh, eps)

    setup = corr_mod.corrector_setup(ctable, mesh, eps)

    errors = {t.name: 0.0 for t in targets}
    aux = {}
    for li, (load_name, load_fn) in enumerate(LOADS):
        f_vec = fem.assemble_load(mesh, load_fn)
        u_eps = fem.solve_resolvent(osc_sys, f_vec)
        u0 = fem.solve_resolvent(eff_sys, f_vec)
        k_field = corr_mod.corrector_apply(setup, corr_mod.build_r0(u0, scenario, eps))
        u_first = corr_mod.first_order(u0, k_field, eps)
        f_norm = lp_norm(GridFunction(mesh, np.asarray(load_fn(mesh.node_coords()))), scenario.p)
        if not (np.isfinite(f_norm) and f_norm > 0.0):
            raise NonFiniteMeasurement(f"L^p norm of load {load_name!r} is {f_norm!r} at eps = {eps:g}")
        diff0 = GridFunction(mesh, u_eps.values - u0.values)
        diff1 = GridFunction(mesh, u_eps.values - u_first.values)
        # one gradient of diff1 serves every mask; load 0 adds the boundary strip probe
        masks = {**w1_masks, "w1_corr_strip": strip} if li == 0 else w1_masks
        measured = dict(zip(masks, w1p_seminorms(diff1, scenario.p, list(masks.values()))))
        measured["lp"] = lp_norm(diff0, scenario.p)
        measured["besov_half"] = besov_seminorm(diff0, BESOV_R, scenario.p)
        for t in targets:
            err = measured[t.name] / f_norm
            if not np.isfinite(err):
                raise NonFiniteMeasurement(f"{t.name} error of load {load_name!r} is {err!r} at eps = {eps:g}")
            errors[t.name] = max(errors[t.name], err)
        if li == 0:
            aux["corrector_ratio"] = corr_mod.corrector_norm_check(k_field, f_norm, eps, scenario.p)
            aux["w1_plain"] = w1p_seminorms(diff0, scenario.p, [None])[0] / f_norm
            aux["w1_corr_strip"] = measured["w1_corr_strip"] / f_norm

    excluded = {t.name: errors[t.name] <= EXCLUSION_FACTOR * linalg.DEFAULT_TOL for t in targets}
    return CaseRow(eps, mesh.h[0], errors, excluded, aux)


def run_study(scenario, threads=1):
    """Run the full sweep of a scenario and fit each target's rate."""
    if not (isinstance(threads, int) and threads >= 1):
        raise ConfigError(f"threads must be a positive integer, got {threads!r}")
    targets = derive_targets(scenario)
    d = scenario.dim
    cell_mesh = build_cell_mesh(cell_mod.default_cell_m(d), d)
    # the corrector reads the cell table only at x + eps*z, and the largest
    # eps (the first) reaches farthest past the domain
    margin = corr_mod.table_margin(scenario.epsilons[0], scenario.points_per_period)
    x_axes = cell_mod.x_axes_for(scenario.domain, margin)
    eff, ctable = cell_mod.tabulate_effective(scenario.field, x_axes, cell_mesh)

    eps_list = list(scenario.epsilons)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(lambda e: _case(scenario, e, eff, ctable, targets), eps_list))
    else:
        rows = [_case(scenario, e, eff, ctable, targets) for e in eps_list]

    fits = {}
    verdicts = {}
    for t in targets:
        pts = [(r.eps, r.errors[t.name]) for r in rows if not r.excluded[t.name]]
        fits[t.name] = fit_rate(pts) if len(pts) >= 3 else None
        verdicts[t.name] = verdict(fits[t.name], t.guaranteed_exponent)
    return ConvergenceReport(scenario, targets, rows, fits, verdicts)


def summarize(report):
    """Human-readable block mirroring the CSV content."""
    lines = []
    sc = report.scenario
    lines.append(
        f"scenario: preset={sc.field.preset_id} params={list(sc.field.params)} d={sc.dim} "
        f"bc={sc.bc.kind} mu={sc.mu:g} p={sc.p:g} s={sc.s:g} s+={sc.s_plus:g} "
        f"rho={sc.points_per_period}"
    )
    for w in sc.warnings:
        lines.append(f"warning: {w}")
    for t in report.targets:
        fit = report.fits[t.name]
        v = report.verdicts[t.name]
        if fit is None:
            noise = sum(r.excluded[t.name] for r in report.rows)
            lines.append(
                f"{t.name}: verdict={v} ({noise} of {len(report.rows)} rows at solver noise level, "
                "fewer than 3 left to fit)"
            )
        else:
            lines.append(
                f"{t.name}: slope={fit.slope:.4f} guaranteed={t.guaranteed_exponent:.4f} "
                f"residual={fit.residual:.4f} verdict={v}"
            )
        for r in report.rows:
            flag = " [excluded]" if r.excluded[t.name] else ""
            lines.append(f"  eps={r.eps:<10.6g} h={r.h:<10.6g} error={r.errors[t.name]:.6e}{flag}")
    ratios = [r.aux.get("corrector_ratio") for r in report.rows if "corrector_ratio" in r.aux]
    if ratios:
        lines.append("corrector boundedness ratio per eps: " + ", ".join(f"{x:.4f}" for x in ratios))
    strips = [r.aux.get("w1_corr_strip") for r in report.rows if "w1_corr_strip" in r.aux]
    if strips:
        lines.append("boundary-strip corrector error per eps: " + ", ".join(f"{x:.3e}" for x in strips))
    unfit = [t.name for t in report.targets if report.fits[t.name] is None]
    if unfit:
        lines.append(f"not verified: {', '.join(unfit)} (no fit above solver noise), so the study does not pass")
    return "\n".join(lines) + "\n"
