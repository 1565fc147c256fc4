"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS line when its criterion holds; the two rate
studies run once per session from the shipped configs.
"""

import os
import time

import numpy as np
import pytest

from oscille import cell, cli, corrector, norms, smoothing, study
from oscille.core import preset_coefficient
from oscille.mesh import (
    GridFunction,
    RegionMask,
    build_cell_mesh,
    build_domain_mesh,
    boundary_strip_mask,
)

SQRT3 = np.sqrt(3.0)
CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")
THREADS = min(4, os.cpu_count() or 1)


def _report(name, detail):
    print(f"\nACCEPTANCE {name}: PASS  ({detail})")


@pytest.fixture(scope="session")
def study_1d():
    sc = cli.load_scenario(os.path.join(CONFIG_DIR, "sine1d.json"))
    t0 = time.time()
    rep = study.run_study(sc, threads=THREADS)
    return rep, time.time() - t0


@pytest.fixture(scope="session")
def study_2d():
    sc = cli.load_scenario(os.path.join(CONFIG_DIR, "laminate2d.json"))
    t0 = time.time()
    rep = study.run_study(sc, threads=THREADS)
    return rep, time.time() - t0


def test_criterion_1_effective_tensor_oracle():
    t0 = time.time()
    f1 = preset_coefficient("Sine1D", [2, 1], 1)
    t = cell.solve_cell(f1, np.zeros(1), build_cell_mesh(256, 1)).a0
    err1 = abs(t[0, 0] - SQRT3)
    assert err1 <= 1e-4
    f2 = preset_coefficient("Laminate2D", [2, 1], 2)
    t2 = cell.solve_cell(f2, np.zeros(2), build_cell_mesh(128, 2)).a0
    err2 = np.max(np.abs(t2 - np.diag([SQRT3, 2.0])))
    assert err2 <= 1e-4
    elapsed = time.time() - t0
    assert elapsed < 5.0
    _report("1 effective-tensor oracle", f"1D err {err1:.2e}, 2D err {err2:.2e}, {elapsed:.2f}s")


def test_criterion_2_cell_solution_oracle():
    t0 = time.time()
    f1 = preset_coefficient("Sine1D", [2, 1], 1)
    cmesh = build_cell_mesh(256, 1)
    sol = cell.solve_cell(f1, np.zeros(1), cmesh)
    ys = cmesh.axis_coords(0)
    # zero-mean antiderivative of sqrt(3)/a - 1, via dense quadrature
    fine = np.linspace(0.0, 1.0, 20001)
    integrand = SQRT3 / (2 + np.sin(2 * np.pi * fine)) - 1.0
    from scipy.integrate import cumulative_trapezoid

    anti = cumulative_trapezoid(integrand, fine, initial=0.0)
    anti -= np.trapezoid(anti, fine)
    exact = np.interp(ys, fine, anti)
    h = cmesh.h[0]
    err = np.sqrt(np.sum((sol.columns[:, 0] - exact) ** 2) * h)
    assert err <= 1e-4
    const = preset_coefficient("Constant", [2.0], 1)
    sol_c = cell.solve_cell(const, np.zeros(1), build_cell_mesh(64, 1))
    norm_c = np.max(np.abs(sol_c.columns))
    assert norm_c <= 1e-10
    elapsed = time.time() - t0
    assert elapsed < 5.0
    _report("2 cell-solution oracle", f"L2 err {err:.2e}, constant |N| {norm_c:.1e}, {elapsed:.2f}s")


def test_criterion_3_rate_study_1d(study_1d):
    rep, elapsed = study_1d
    lp = rep.fits["lp"]
    w1 = rep.fits["w1_corr"]
    assert lp.slope >= 0.9
    assert w1.slope >= 0.5
    assert lp.residual <= 0.15 and w1.residual <= 0.15
    assert elapsed < 120.0
    _report(
        "3 rate study 1D",
        f"L2 slope {lp.slope:.3f} (>=0.9), corrector-W12 slope {w1.slope:.3f} (>=0.5), {elapsed:.0f}s",
    )


def test_criterion_4_rate_study_2d(study_2d):
    rep, elapsed = study_2d
    lp = rep.fits["lp"]
    w1 = rep.fits["w1_corr"]
    wi = rep.fits["w1_corr_interior"]
    assert lp.slope >= 0.85
    assert w1.slope >= 0.45
    assert wi.slope >= 0.8
    assert elapsed < 1800.0
    _report(
        "4 rate study 2D",
        f"L2 {lp.slope:.3f} (>=0.85), W12 {w1.slope:.3f} (>=0.45), "
        f"interior {wi.slope:.3f} (>=0.8), {elapsed:.0f}s",
    )


def test_criterion_5_smoothing_lemma_suite():
    t0 = time.time()
    rep = smoothing.smoothing_lemma_suite()
    # averaged two-scale trace is a contraction
    for c in rep.by("steklov_tau_norm"):
        assert max(c.ratios) <= 1.0 + 1e-8
    # order-eps identity defect for smooth samples
    for sample in ("sine", "poly"):
        (c,) = rep.by("steklov_identity", sample)
        for f in norms.halving_factors(c.ratios):
            assert 1.5 <= f <= 2.5
    # mollifier convergence at Hoelder 1/2: defect halving at least 1.3
    (c,) = rep.by("mollify_identity", "sqrt_cusp")
    for f in norms.halving_factors(c.raw):
        assert f >= 1.3
    # mollified gradient growth at most 1.6 per halving
    (g,) = rep.by("mollify_gradient", "sqrt_cusp")
    growth = [b / a for a, b in zip(g.raw, g.raw[1:])]
    assert all(x <= 1.6 for x in growth)
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _report("5 smoothing lemma suite", f"all sweeps within bounds, {elapsed:.1f}s")


def test_criterion_6_isometry():
    rows = smoothing.isometry_check()
    worst = max(r[4] for r in rows)
    assert worst <= smoothing.ISOMETRY_TOL
    _report("6 isometry", f"worst relative defect {worst:.2e} (<={smoothing.ISOMETRY_TOL:g})")


def test_criterion_7_boundary_strip():
    worst = 0.0
    for sweep in norms.strip_lemma_suite():
        for step in sweep.steps:
            worst = max(worst, step, 1.0 / step)
    assert worst <= 2.0 + 1e-9
    _report("7 boundary strip", f"largest consecutive ratio change {worst:.4f} (<=2)")


def test_criterion_8_corrector_boundedness(study_1d):
    rep, _ = study_1d
    ratios = [r.aux["corrector_ratio"] for r in rep.rows]
    spread = max(ratios) / min(ratios)
    assert spread <= 1.5
    _report("8 corrector boundedness", f"ratio spread {spread:.3f} (<=1.5) over {len(ratios)} eps")


def test_criterion_9_property_suites(study_1d, study_2d):
    t0 = time.time()
    rng = np.random.default_rng(23)
    mesh = build_domain_mesh(((0.0, 1.0), (0.0, 1.0)), 1 / 32)

    # norm homogeneity
    u = GridFunction(mesh, rng.standard_normal(mesh.n_nodes))
    assert norms.lp_norm(GridFunction(mesh, -3.0 * u.values), 2.0) == pytest.approx(
        3.0 * norms.lp_norm(u, 2.0), rel=1e-12
    )

    # mask additivity of p-th powers
    mask = boundary_strip_mask(mesh, 1 / 4)
    total = norms.lp_norm(u, 2.0) ** 2
    split = norms.lp_norm(u, 2.0, mask) ** 2 + norms.lp_norm(u, 2.0, RegionMask(mask.mesh, ~mask.included)) ** 2
    assert split == pytest.approx(total, rel=1e-10)

    # extension linearity
    v = GridFunction(mesh, rng.standard_normal(mesh.n_nodes))
    comb = smoothing.extend(GridFunction(mesh, 2 * u.values - v.values), 0.25).base.values
    parts = (
        2 * smoothing.extend(u, 0.25).base.values - smoothing.extend(v, 0.25).base.values
    )
    np.testing.assert_allclose(comb, parts, rtol=0, atol=1e-12)

    # Voigt-Reuss bracket for a genuinely 2D preset
    f = preset_coefficient("SineProduct2D", [2, 1], 2)
    t = cell.solve_cell(f, np.zeros(2), build_cell_mesh(48, 2)).a0
    eigs = np.linalg.eigvalsh(0.5 * (t + t.T))
    ys = np.linspace(0, 1, 101)[:-1]
    samples = np.array(
        [f.eval(np.zeros((1, 2)), np.array([[y1, y2]]))[0] for y1 in ys[::5] for y2 in ys[::5]]
    )
    assert eigs.min() >= 1.0 / np.mean(1.0 / samples) - 1e-3
    assert eigs.max() <= np.mean(samples) + 1e-3

    # fractional surrogate: shift-modulus slope meets its capped guarantee
    rep1d, _ = study_1d
    assert rep1d.fits["besov_half"].slope >= 0.4

    # corrector improvement and interior <= global on the rate studies
    for rep, _ in (study_1d, study_2d):
        for row in rep.rows:
            if row.eps <= 1 / 16 + 1e-12:
                assert row.errors["w1_corr"] < row.aux["w1_plain"]
            if "w1_corr_interior" in row.errors:
                assert row.errors["w1_corr_interior"] <= row.errors["w1_corr"] + 1e-14

    elapsed = time.time() - t0
    assert elapsed < 300.0
    _report("9 property suites", f"invariant block checks, {elapsed:.1f}s")
