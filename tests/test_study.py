import dataclasses
import os

import numpy as np
import pytest

from oscille import cell as cell_mod
from oscille import corrector, linalg, study
from oscille.cli import load_scenario
from oscille.core import BoundarySpec, ConfigError, Scenario, preset_coefficient


def test_fit_rate_exact_linear():
    fit = study.fit_rate([(0.1, 0.1), (0.05, 0.05), (0.025, 0.025)])
    assert fit.slope == pytest.approx(1.0, abs=1e-12)
    assert fit.residual == pytest.approx(0.0, abs=1e-12)


def test_fit_rate_exact_quadratic():
    eps = [0.2, 0.1, 0.05, 0.025]
    fit = study.fit_rate([(e, 7.0 * e**2) for e in eps])
    assert fit.slope == pytest.approx(2.0, abs=1e-12)


def test_fit_rate_noisy_half_order():
    rng = np.random.default_rng(4)
    eps = [2.0**-k for k in range(3, 9)]
    pts = [(e, e**0.5 * (1.0 + 0.05 * rng.uniform(-1, 1))) for e in eps]
    fit = study.fit_rate(pts)
    assert abs(fit.slope - 0.5) <= 0.05
    assert fit.residual <= 0.15


def test_fit_rate_errors():
    with pytest.raises(study.InsufficientData):
        study.fit_rate([(0.1, 1.0), (0.05, 0.5)])
    with pytest.raises(study.NonPositiveError):
        study.fit_rate([(0.1, 1.0), (0.05, 0.0), (0.025, 0.2)])
    with pytest.raises(study.InsufficientData):
        study.fit_rate([(0.1, 1.0), (0.1, 0.5), (0.025, 0.2)])


def test_verdict_rules():
    fit = study.FitResult(0.97, 0.0, 0.01)
    assert study.verdict(fit, 1.0) == "PASS"
    assert study.verdict(study.FitResult(0.55, 0.0, 0.01), 0.5) == "PASS"
    assert study.verdict(study.FitResult(0.3, 0.0, 0.01), 0.5) == "FAIL"
    assert study.verdict(study.FitResult(1.2, 0.0, 0.3), 1.0) == "FAIL"  # bad residual
    assert study.verdict(None, 1.0) == "NotApplicable"


def test_derive_targets_exponents():
    sc = Scenario(
        field=preset_coefficient("Sine1D", [2, 1], 1),
        domain=((0.0, 1.0),),
        bc=BoundarySpec("dirichlet"),
        mu=0.0,
        p=2.0,
        s=1.0,
        s_plus=1.0,
        epsilons=(1 / 8, 1 / 16, 1 / 32),
        points_per_period=8,
        interior_margin=0.0,
    )
    targets = {t.name: t for t in study.derive_targets(sc)}
    assert targets["lp"].guaranteed_exponent == pytest.approx(1.0)
    assert targets["w1_corr"].guaranteed_exponent == pytest.approx(0.5)
    assert targets["besov_half"].guaranteed_exponent == pytest.approx(0.5)
    assert "w1_corr_interior" not in targets  # no interior margin requested

    sc2 = Scenario(
        field=preset_coefficient("LocallyPeriodic2D", [2, 1, 0.5], 2),
        domain=((0.0, 1.0), (0.0, 1.0)),
        bc=BoundarySpec("mixed", ("left",)),
        mu=-1.0,
        p=2.0,
        s=0.5,
        s_plus=0.5,
        epsilons=(1 / 8, 1 / 16, 1 / 32, 1 / 64, 1 / 128),
        points_per_period=8,
        interior_margin=0.3,
    )
    targets2 = {t.name: t for t in study.derive_targets(sc2)}
    assert targets2["lp"].guaranteed_exponent == pytest.approx(0.5)
    assert targets2["w1_corr"].guaranteed_exponent == pytest.approx(0.25)
    assert targets2["w1_corr_interior"].guaranteed_exponent == pytest.approx(0.5)
    assert targets2["besov_half"].guaranteed_exponent == pytest.approx(0.25)


def test_rate_target_validation():
    with pytest.raises(ValueError):
        study.RateTarget("bad", 2.5, "lp", False, "global")


@pytest.fixture(scope="module")
def constant_report():
    sc = Scenario(
        field=preset_coefficient("Constant", [2.0], 1),
        domain=((0.0, 1.0),),
        bc=BoundarySpec("dirichlet"),
        mu=0.0,
        p=2.0,
        s=1.0,
        s_plus=1.0,
        epsilons=(1 / 4, 1 / 8, 1 / 16),
        points_per_period=8,
        interior_margin=0.0,
    )
    return study.run_study(sc)


def test_constant_field_rows_excluded(constant_report):
    rep = constant_report
    for row in rep.rows:
        for name, err in row.errors.items():
            assert err <= 1e-8
            assert row.excluded[name]
    assert all(v == "NotApplicable" for v in rep.verdicts.values())
    assert all(f is None for f in rep.fits.values())
    assert rep.all_passed  # NotApplicable does not fail the run


@pytest.fixture(scope="module")
def small_sine_report():
    sc = Scenario(
        field=preset_coefficient("Sine1D", [2, 1], 1),
        domain=((0.0, 1.0),),
        bc=BoundarySpec("dirichlet"),
        mu=0.0,
        p=2.0,
        s=1.0,
        s_plus=1.0,
        epsilons=(1 / 8, 1 / 16, 1 / 32, 1 / 64),
        points_per_period=16,
        interior_margin=0.2,
    )
    return study.run_study(sc, threads=2)


def test_small_sine_passes(small_sine_report):
    rep = small_sine_report
    assert rep.verdicts["lp"] == "PASS"
    assert rep.verdicts["w1_corr"] == "PASS"
    assert rep.fits["lp"].slope >= 0.9


def test_corrector_earns_its_keep(small_sine_report):
    # with-corrector gradient error beats the plain one at every eps <= 1/16
    for row in small_sine_report.rows:
        if row.eps <= 1 / 16 + 1e-12:
            assert row.errors["w1_corr"] < row.aux["w1_plain"]


def test_interior_error_below_global(small_sine_report):
    for row in small_sine_report.rows:
        assert row.errors["w1_corr_interior"] <= row.errors["w1_corr"] + 1e-14


def test_corrector_ratio_stable(small_sine_report):
    ratios = [r.aux["corrector_ratio"] for r in small_sine_report.rows]
    assert max(ratios) / min(ratios) <= 1.5


def test_rows_sorted_and_threaded_matches_serial(small_sine_report):
    eps = [r.eps for r in small_sine_report.rows]
    assert eps == sorted(eps, reverse=True)


@pytest.mark.parametrize("threads", [0, -2])
def test_run_study_rejects_thread_count_below_one(threads, monkeypatch):
    def no_cell_solve(*args, **kwargs):
        raise AssertionError("cell problem solved before the thread count was checked")

    monkeypatch.setattr(cell_mod, "solve_cell", no_cell_solve)
    sc = Scenario(
        field=preset_coefficient("Sine1D", [2, 1], 1),
        domain=((0.0, 1.0),),
        bc=BoundarySpec("dirichlet"),
        mu=0.0,
        p=2.0,
        s=1.0,
        s_plus=1.0,
        epsilons=(1 / 8, 1 / 16, 1 / 32),
        points_per_period=8,
        interior_margin=0.0,
    )
    with pytest.raises(ConfigError, match="threads must be a positive integer"):
        study.run_study(sc, threads=threads)


@pytest.mark.parametrize("tol", [0.0, -1.0, np.nan, 1e-3])
def test_run_study_rejects_solver_tol_outside_range(tol, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("a system was solved before the tolerance was checked")

    monkeypatch.setattr(linalg, "_pcg", no_solve)
    scenario = load_scenario(os.path.join(os.path.dirname(__file__), "..", "configs", "sine1d.json"))
    with pytest.raises(ConfigError, match="tol must lie in"):
        study.run_study(scenario, solver_tol=tol)


def test_summarize_contains_verdicts(small_sine_report):
    text = study.summarize(small_sine_report)
    assert "lp:" in text and "verdict=PASS" in text
    assert "corrector boundedness ratio" in text


def test_corrector_setup_once_per_eps_from_distinct_cells(monkeypatch):
    sc = Scenario(
        field=preset_coefficient("LocallyPeriodic2D", [2, 1, 0.5], 2),
        domain=((0.0, 0.5), (0.0, 0.5)),
        bc=BoundarySpec("dirichlet"),
        mu=-1.0,
        p=2.0,
        s=1.0,
        s_plus=1.0,
        epsilons=(1 / 8, 1 / 16, 1 / 32),
        points_per_period=4,
        interior_margin=0.0,
    )
    setups, columns, operators = [], [], []
    build, interpolate = corrector.corrector_setup, corrector._interpolate_periodic
    axis_operator = corrector._axis_operator

    def counting_setup(table, mesh, eps):
        built = len(operators)
        setup = build(table, mesh, eps)
        setups.append((eps, len(table.cells), len({id(sol) for sol in table.cells}), len(operators) - built))
        return setup

    def counting_interpolate(cols, cell_mesh, y):
        columns.append(len(cols))
        return interpolate(cols, cell_mesh, y)

    def counting_operator(st):
        operators.append(st)
        return axis_operator(st)

    monkeypatch.setattr(corrector, "corrector_setup", counting_setup)
    monkeypatch.setattr(corrector, "_interpolate_periodic", counting_interpolate)
    monkeypatch.setattr(corrector, "_axis_operator", counting_operator)
    study.run_study(sc)
    assert [eps for eps, _, _, _ in setups] == list(sc.epsilons)
    assert columns == [distinct for _, _, distinct, _ in setups]
    assert all(distinct < entries for _, entries, distinct, _ in setups)  # the table repeats objects
    # one map per axis, built by the setup and reused by both loads of that eps
    assert [built for _, _, _, built in setups] == [2, 2, 2]
    assert len(operators) == 2 * len(setups)

    # 1D passes stream over the offsets and build no operator
    setups.clear()
    study.run_study(dataclasses.replace(
        sc, field=preset_coefficient("LocallyPeriodic1D", [2, 1, 0.5], 1), domain=((0.0, 1.0),), points_per_period=8
    ))
    assert [built for _, _, _, built in setups] == [0, 0, 0]
    assert len(operators) == 6


# Slopes and per-row errors (eps -> lp, w1_corr, besov_half) of the
# shipped 1D configs, recorded values: a change that only reorders
# floating-point rounding keeps them to 1e-9 relative.
_RECORDED_1D = {
    "mixed1d.json": (
        {"lp": 0.9095022233750959, "w1_corr": 1.0786194232899242, "besov_half": 0.4957675611880151},
        {
            0.125: (0.00484180572824699, 0.0070338855573118, 0.01630090325398783),
            0.0625: (0.0024440713897944132, 0.0028593871391127098, 0.011626019051054612),
            0.03125: (0.001249895401875435, 0.001217693868050797, 0.008253967738701682),
            0.015625: (0.0006546105163938696, 0.0005473451114125973, 0.0058477940879388),
            0.0078125: (0.00035819507412021654, 0.00027405716027415644, 0.004138968175621044),
            0.00390625: (0.00021138292965591231, 0.0001798175824678589, 0.0029280792519747506),
        },
    ),
    "sine1d.json": (
        {"lp": 0.9910775131928434, "w1_corr": 0.9866445953989542, "besov_half": 0.4958146433693324},
        {
            0.125: (0.002131852537937276, 0.007683352322676225, 0.011091922994750947),
            0.0625: (0.0010716766545074937, 0.003870245736377786, 0.007897638453597505),
            0.03125: (0.0005370582253548852, 0.0019444702805670492, 0.005601853098181197),
            0.015625: (0.00026968547935035593, 0.0009790288826500735, 0.003966943363880953),
            0.0078125: (0.00013697457661920493, 0.0005000048020211527, 0.0028070624210731927),
        },
    ),
}


@pytest.mark.parametrize("config", sorted(_RECORDED_1D))
def test_shipped_1d_study_matches_recorded(config):
    # mixed1d is the only shipped study with s < 1, so the only one that mollifies
    scenario = load_scenario(os.path.join(os.path.dirname(__file__), "..", "configs", config))
    rep = study.run_study(scenario)
    slopes, rows = _RECORDED_1D[config]
    assert set(rep.verdicts.values()) == {"PASS"}
    assert {name: fit.slope for name, fit in rep.fits.items()} == pytest.approx(slopes, rel=1e-9)
    assert [r.eps for r in rep.rows] == list(rows)
    for r in rep.rows:
        assert [r.errors[name] for name in ("lp", "w1_corr", "besov_half")] == pytest.approx(rows[r.eps], rel=1e-9)
