import numpy as np
import pytest

from oscille import core


def test_constant_preset():
    f = core.preset_coefficient("Constant", [2.0], 1)
    assert f.c_a == f.norm_inf == 2.0
    assert f.lipschitz_x == 0.0
    assert np.allclose(f.eval(np.array([[0.3]]), np.array([[0.7]])), 2.0)


def test_sine1d_preset_bounds():
    f = core.preset_coefficient("Sine1D", [2.0, 1.0], 1)
    assert f.c_a == 1.0
    assert f.norm_inf == 3.0


def test_locally_periodic_interval_bounds():
    f = core.preset_coefficient("LocallyPeriodic1D", [2.0, 1.0, 0.5], 1)
    assert f.c_a == pytest.approx(1.0)
    assert f.norm_inf == pytest.approx(4.5)
    assert f.lipschitz_x == pytest.approx(1.5)


def test_preset_rejections():
    with pytest.raises(core.PresetError):
        core.preset_coefficient("Nope", [1.0], 1)
    with pytest.raises(core.PresetError):
        core.preset_coefficient("Sine1D", [1.0, 1.0], 1)  # amplitude == mean
    with pytest.raises(core.PresetError):
        core.preset_coefficient("Sine1D", [2.0, 1.0], 2)  # wrong dim


def test_preset_dims_table():
    params = {"Constant": [2.0], "LocallyPeriodic1D": [2, 1, 0.5], "LocallyPeriodic2D": [2, 1, 0.5]}
    for preset, dims in core.PRESET_DIMS.items():
        p = params.get(preset, [2, 1])
        assert core.preset_coefficient(preset, p).dim == dims[0]  # the default
        for d in (1, 2):
            if d in dims:
                assert core.preset_coefficient(preset, p, d).dim == d
            else:
                with pytest.raises(core.PresetError, match="requires dim"):
                    core.preset_coefficient(preset, p, d)
    with pytest.raises(core.PresetError, match="must be finite"):
        core.preset_coefficient("Sine1D", [float("nan"), 1.0])


def test_tau_eps_examples():
    f = core.preset_coefficient("Sine1D", [2.0, 1.0], 1)
    assert core.tau_eps(f, 0.5, np.array([[0.25]]))[0] == pytest.approx(2.0, abs=1e-14)
    assert core.tau_eps(f, 0.1, np.array([[0.025]]))[0] == pytest.approx(3.0, abs=1e-12)
    c = core.preset_coefficient("Constant", [2.5], 2)
    pts = np.random.default_rng(0).random((7, 2))
    assert np.allclose(core.tau_eps(c, 0.37, pts), 2.5)


def test_periodicity_exact():
    # dyadic fast coordinates keep y + 1 exactly representable, so the
    # wrapped evaluation must agree bit for bit
    rng = np.random.default_rng(1)
    for pid, params, d in [
        ("Sine1D", [2, 1], 1),
        ("Laminate2D", [2, 1], 2),
        ("SineProduct2D", [3, 1.5], 2),
        ("LocallyPeriodic2D", [2, 1, 0.5], 2),
    ]:
        f = core.preset_coefficient(pid, params, d)
        x = rng.random((1000, d))
        y = rng.integers(0, 2**20, size=(1000, d)) / 2.0**20
        base = f.eval(x, y)
        for k in range(d):
            shifted = y.copy()
            shifted[:, k] += 1.0
            np.testing.assert_array_equal(f.eval(x, shifted), base)


def test_wrap_consistency_x_independent():
    # tau(field, eps, x) = tau(field, eps, x + eps*e_k) for x-independent presets
    rng = np.random.default_rng(2)
    for pid, params, d in [("Sine1D", [2, 1], 1), ("SineProduct2D", [2, 1], 2)]:
        f = core.preset_coefficient(pid, params, d)
        eps = 0.125
        x = rng.random((500, d))
        for k in range(d):
            x2 = x.copy()
            x2[:, k] += eps
            np.testing.assert_allclose(
                core.tau_eps(f, eps, x2), core.tau_eps(f, eps, x), rtol=0, atol=1e-12
            )


def test_audit_constant():
    f = core.preset_coefficient("Constant", [2.0], 1)
    a = core.audit_ellipticity(f, 2000)
    assert a.min_eig == a.max_eig == 2.0
    assert a.lipschitz_estimate == 0.0
    assert not a.violations


def test_audit_sine_range():
    f = core.preset_coefficient("Sine1D", [2, 1], 1)
    a = core.audit_ellipticity(f, 10_000)
    assert 1.0 <= a.min_eig <= 1.01
    assert 2.99 <= a.max_eig <= 3.0
    assert not a.violations


def test_audit_laminate_range():
    f = core.preset_coefficient("Laminate2D", [2, 1], 2)
    a = core.audit_ellipticity(f, 20_000)
    assert 1.0 <= a.min_eig <= 1.02
    assert 2.98 <= a.max_eig <= 3.0


def test_audit_soundness_never_undershoots_certificate():
    # sampled minimum can never fall below the certified bound minus 1e-12
    for pid, params, d in [
        ("Sine1D", [2, 1], 1),
        ("LocallyPeriodic2D", [2, 1, 0.5], 2),
        ("SineProduct2D", [2, 0.9], 2),
    ]:
        f = core.preset_coefficient(pid, params, d)
        a = core.audit_ellipticity(f, 5000, seed=42)
        assert a.min_eig >= f.c_a - 1e-12
        assert a.max_eig <= f.norm_inf + 1e-12


def test_audit_requires_enough_samples():
    f = core.preset_coefficient("Constant", [1.0], 1)
    with pytest.raises(ValueError):
        core.audit_ellipticity(f, 100)


def _scenario(**kw):
    base = dict(
        field=core.preset_coefficient("Sine1D", [2, 1], 1),
        domain=((0.0, 1.0),),
        bc=core.BoundarySpec("dirichlet"),
        mu=0.0,
        p=2.0,
        s=1.0,
        s_plus=1.0,
        epsilons=(1 / 8, 1 / 16, 1 / 32),
        points_per_period=8,
        interior_margin=0.0,
    )
    base.update(kw)
    return core.Scenario(**base)


def test_scenario_valid():
    sc = _scenario()
    assert sc.p_plus == pytest.approx(2.0)
    assert sc.dim == 1


def test_scenario_epsilon_rules():
    with pytest.raises(core.ScenarioError):
        _scenario(epsilons=(1 / 8, 1 / 16))  # too few
    with pytest.raises(core.ScenarioError):
        _scenario(epsilons=(1 / 2, 1 / 4, 1 / 8))  # starts above 1/4
    with pytest.raises(core.ScenarioError):
        _scenario(epsilons=(1 / 8, 1 / 8, 1 / 16))  # not strictly decreasing


def test_scenario_neumann_needs_negative_mu():
    with pytest.raises(core.ScenarioError):
        _scenario(bc=core.BoundarySpec("neumann"), mu=0.0)
    _scenario(bc=core.BoundarySpec("neumann"), mu=-1.0)


def test_scenario_interior_margin_below_half_shortest_side():
    wide = dict(field=core.preset_coefficient("LocallyPeriodic2D", [2, 1, 0.5], 2), domain=((0.0, 2.0), (0.0, 0.5)))
    with pytest.raises(core.ScenarioError, match="half the shortest domain side"):
        _scenario(interior_margin=0.25, **wide)
    assert _scenario(interior_margin=0.2, **wide).interior_margin == 0.2


def test_scenario_interior_margin_warning():
    sc = _scenario(interior_margin=0.25)
    assert sc.warnings  # margin 0.25 <= 5 * (1/8)
    sc2 = _scenario(epsilons=(1 / 32, 1 / 64, 1 / 128), interior_margin=0.25)
    assert not sc2.warnings


def test_mixed_boundary_validation():
    with pytest.raises(core.ScenarioError):
        core.BoundarySpec("mixed")  # empty subset
    bc = core.BoundarySpec("mixed", ("left",))
    bc.validate_for_dim(1)
    with pytest.raises(core.ScenarioError):
        core.BoundarySpec("mixed", ("left", "right")).validate_for_dim(1)  # not proper
    with pytest.raises(core.ScenarioError):
        core.BoundarySpec("mixed", ("north",)).validate_for_dim(2)
