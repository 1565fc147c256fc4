import inspect

import numpy as np
import pytest

import smoothing_reference
from oscille import core
from oscille import smoothing as sm
from oscille.mesh import GridFunction, Mesh, build_domain_mesh, grid_from_callable
from oscille.norms import halving_factors


@pytest.fixture(scope="module")
def mesh64():
    return build_domain_mesh(((0.0, 1.0),), 1 / 64)


def test_extend_constant(mesh64):
    # dyadic constant: the reflection 3c - 2c is then exact in floats too
    u = grid_from_callable(mesh64, lambda p: np.full(p.shape[0], 4.25))
    ext = sm.extend(u, 0.25)
    np.testing.assert_array_equal(ext.base.values, 4.25)
    u2 = grid_from_callable(mesh64, lambda p: np.full(p.shape[0], 4.2))
    np.testing.assert_allclose(sm.extend(u2, 0.25).base.values, 4.2, rtol=0, atol=1e-14)


def test_extend_linear_exact(mesh64):
    u = grid_from_callable(mesh64, lambda p: 3.0 * p[:, 0] - 0.7)
    ext = sm.extend(u, 0.25)
    xs = ext.mesh.node_coords()[:, 0]
    np.testing.assert_allclose(ext.base.values, 3.0 * xs - 0.7, atol=1e-13)


def test_extend_quadratic_reflection_values(mesh64):
    u = grid_from_callable(mesh64, lambda p: p[:, 0] ** 2)
    ext = sm.extend(u, 0.25)
    xs = ext.mesh.node_coords()[:, 0]
    left = xs < 0
    np.testing.assert_allclose(ext.base.values[left], -5.0 * xs[left] ** 2, atol=1e-13)
    # C1 matching at the face: jump of the first difference stays O(h^2)
    vals = ext.base.values
    h = mesh64.h[0]
    i0 = ext.pad[0]
    d_left = (vals[i0] - vals[i0 - 1]) / h
    d_right = (vals[i0 + 1] - vals[i0]) / h
    assert abs(d_left - d_right) <= 12 * h  # second derivative jump is finite


def test_extend_w2_seminorm_growth_bounded(mesh64):
    u = grid_from_callable(mesh64, lambda p: p[:, 0] ** 2)
    ext = sm.extend(u, 0.25)
    h = mesh64.h[0]
    d2_ext = np.diff(ext.base.values, 2) / h**2
    d2_src = np.diff(u.values, 2) / h**2
    ratio = np.sqrt(np.sum(d2_ext**2)) / np.sqrt(np.sum(d2_src**2))
    assert ratio <= 9.0


def test_extend_linearity(mesh64):
    rng = np.random.default_rng(0)
    u = grid_from_callable(mesh64, lambda p: rng.standard_normal(p.shape[0]))
    v = grid_from_callable(mesh64, lambda p: rng.standard_normal(p.shape[0]))
    a, b = 2.0, -3.5
    from oscille.mesh import GridFunction

    comb = sm.extend(GridFunction(mesh64, a * u.values + b * v.values), 0.25)
    parts = a * sm.extend(u, 0.25).base.values + b * sm.extend(v, 0.25).base.values
    np.testing.assert_allclose(comb.base.values, parts, rtol=0, atol=1e-13)


def test_extend_margin_too_large(mesh64):
    u = grid_from_callable(mesh64, lambda p: p[:, 0])
    with pytest.raises(sm.MarginTooLarge):
        sm.extend(u, 0.75)


def test_extend_2d_restrict_roundtrip():
    m = build_domain_mesh(((0.0, 1.0), (0.0, 1.0)), 1 / 8)
    u = grid_from_callable(m, lambda p: np.sin(p[:, 0]) * p[:, 1])
    ext = sm.extend(u, 0.25)
    np.testing.assert_array_equal(ext.source_block().ravel(), u.values)


def test_window_weights_properties():
    for rho in range(1, 65):
        offs, w = sm.window_weights(rho)
        assert w.sum() == pytest.approx(1.0, abs=1e-14)
        assert np.all(w > 0)  # every offset's tent overlaps the window
        np.testing.assert_allclose(w, w[::-1])  # symmetric
        assert (offs * w).sum() == pytest.approx(0.0, abs=1e-15)  # odd moment


def test_window_weights_cached_read_only():
    for rho in range(1, 65):
        offs, w = sm.window_weights(rho)
        again = sm.window_weights(rho)
        assert again[0] is offs and again[1] is w
        for a in (offs, w):
            with pytest.raises(ValueError):
                a[0] = a[0]
        ref_offs, ref_w = sm.window_weights.__wrapped__(rho)
        assert np.array_equal(offs, ref_offs) and offs.dtype == ref_offs.dtype
        assert np.array_equal(w.view(np.int64), ref_w.view(np.int64))


def test_steklov_constant_and_linear():
    eps, rho = 1 / 8, 16
    m = build_domain_mesh(((0.0, 1.0),), eps / rho)
    x = m.node_coords()[:, 0]
    sc = sm.steklov(sm.extended_from_callable(m, 0.2, lambda p: np.full(p.shape[0], 2.7)), eps)
    np.testing.assert_allclose(sc.values, 2.7, atol=1e-13)
    sl = sm.steklov(sm.extended_from_callable(m, 0.2, lambda p: 3 * p[:, 0] - 1), eps)
    np.testing.assert_allclose(sl.values, 3 * x - 1, atol=1e-12)


def test_steklov_quadratic_shift():
    eps, rho = 1 / 8, 16
    m = build_domain_mesh(((0.0, 1.0),), eps / rho)
    h = m.h[0]
    x = m.node_coords()[:, 0]
    s = sm.steklov(sm.extended_from_callable(m, 0.2, lambda p: p[:, 0] ** 2), eps)
    # the continuum average is x^2 + eps^2/12; integrating the interpolant
    # adds exactly h^2/6
    np.testing.assert_allclose(s.values, x**2 + eps**2 / 12 + h**2 / 6, atol=1e-14)
    assert np.max(np.abs(s.values - x**2 - eps**2 / 12)) <= h**2 / 6 + 1e-14


def test_steklov_2d_separable():
    eps, rho = 1 / 4, 8
    m = build_domain_mesh(((0.0, 1.0), (0.0, 1.0)), eps / rho)
    ext = sm.extended_from_callable(m, 0.2, lambda p: p[:, 0] * p[:, 1])
    s = sm.steklov(ext, eps)
    pts = m.node_coords()
    np.testing.assert_allclose(s.values, pts[:, 0] * pts[:, 1], atol=1e-13)


def test_steklov_insufficient_margin():
    m = build_domain_mesh(((0.0, 1.0),), 1 / 64)
    ext = sm.extended_from_callable(m, 1 / 64, lambda p: p[:, 0])
    with pytest.raises(sm.InsufficientMargin):
        sm.steklov(ext, 1 / 4)


def _rectangle_ext(margin):
    # unequal node counts per axis, and data that is neither separable nor polynomial
    m = build_domain_mesh(((0.0, 1.0), (0.0, 0.5)), 1 / 32)
    return m, sm.extended_from_callable(m, margin, lambda p: np.sin(3 * p[:, 0]) * np.exp(p[:, 1]) + p[:, 0] ** 2)


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


def test_steklov_box_is_the_whole_grid_average_restricted():
    eps = 1 / 4  # an 8-cell window: offsets -4..4
    m, ext = _rectangle_ext(0.2)
    n0, n1 = m.nodes_per_axis
    assert n0 != n1
    whole = sm.steklov(ext, eps).reshaped()
    for box in (((0, n0), (0, n1)), ((3, 20), (5, 9)), ((0, 1), (n1 - 1, n1)), ((n0 - 7, n0), (0, 4))):
        sl = tuple(slice(lo, hi) for lo, hi in box)
        assert np.array_equal(_bits(sm.steklov_box(ext, eps, box)), _bits(whole[sl]))


def test_steklov_box_factor_is_the_average_of_the_product():
    # factor multiplies u on the box's reach only; the result equals the
    # whole-grid average of the product, restricted to the box, bit for bit
    eps = 1 / 4
    m, ext = _rectangle_ext(0.2)
    emesh = ext.mesh
    factor = 1.0 + 0.5 * np.cos(7.0 * emesh.node_coords()[:, 0]) * emesh.node_coords()[:, 1]
    product = sm.ExtendedFunction(GridFunction(emesh, factor * ext.base.values), m, ext.pad)
    whole = sm.steklov(product, eps).reshaped()
    box = ((6, 15), (2, 11))
    reach = tuple(slice(p + lo - 4, p + hi + 4) for p, (lo, hi) in zip(ext.pad, box))
    got = sm.steklov_box(ext, eps, box, factor.reshape(emesh.nodes_per_axis)[reach])
    assert np.array_equal(_bits(got), _bits(whole[tuple(slice(lo, hi) for lo, hi in box)]))


def test_steklov_box_reads_only_its_reach():
    # a 2-node pad is too short for the 4-node window at the faces, yet an
    # interior box reads no pad node and agrees with a well-padded average
    eps = 1 / 4
    m, short = _rectangle_ext(2 / 32)
    _, wide = _rectangle_ext(0.2)
    assert short.pad == (2, 2)
    n0, n1 = m.nodes_per_axis
    inner = ((4, n0 - 4), (2, n1 - 2))
    with pytest.raises(sm.InsufficientMargin):
        sm.steklov(short, eps)
    for box in (((0, n0), (2, n1 - 2)), ((4, n0 - 4), (0, 3)), ((n0 - 3, n0), (5, 6))):
        with pytest.raises(sm.InsufficientMargin):
            sm.steklov_box(short, eps, box)
    np.testing.assert_array_equal(sm.steklov_box(short, eps, inner), sm.steklov_box(wide, eps, inner))


def test_shift_identity_and_linears():
    m = build_domain_mesh(((0.0, 1.0),), 1 / 64)
    ext = sm.extended_from_callable(m, 0.3, lambda p: 2 * p[:, 0] + 1)
    x = m.node_coords()[:, 0]
    sh0 = sm.shift_T(ext, 0.25, np.array([0.0]))
    np.testing.assert_allclose(sh0.values, 2 * x + 1, atol=1e-13)
    sh = sm.shift_T(ext, 0.25, np.array([0.4]))
    np.testing.assert_allclose(sh.values, 2 * (x + 0.1) + 1, atol=1e-12)


def test_shift_sine_interpolation_error():
    m = build_domain_mesh(((0.0, 1.0),), 1 / 100)
    ext = sm.extended_from_callable(m, 0.2, lambda p: np.sin(2 * np.pi * p[:, 0]))
    sh = sm.shift_T(ext, 0.25, np.array([0.5]))
    x = m.node_coords()[:, 0]
    assert np.max(np.abs(sh.values - np.sin(2 * np.pi * (x + 0.125)))) <= 5e-4


def test_shift_T_bilinear_2d_and_outside_box():
    # the shifted nodes of a 2D mesh, one axis at a time, reproduce bilinear
    # data up to rounding; a shift past the extension raises
    m = build_domain_mesh(((0.0, 1.0), (0.0, 1.0)), 1 / 16)
    fn = lambda p: 1 + 2 * p[:, 0] - p[:, 1] + 3 * p[:, 0] * p[:, 1]  # noqa: E731
    ext = sm.extended_from_callable(m, 0.25, fn)
    for z in np.random.default_rng(5).uniform(-0.5, 0.5, (20, 2)):
        sh = sm.shift_T(ext, 0.5, z)
        np.testing.assert_allclose(sh.values, fn(m.node_coords() + 0.5 * z), rtol=0, atol=1e-13)
    with pytest.raises(core.NumericalError):
        sm.shift_T(sm.extended_from_callable(m, 0.125, fn), 0.5, np.array([0.5, 0.0]))


def test_mollifier_kernel_normalized():
    for h in ((1 / 256,), (1 / 64, 1 / 64)):
        w, k = sm.mollifier_weights(1 / 8, h)
        assert np.all(w >= 0)
        assert w.sum() == pytest.approx(1.0, abs=1e-15)


def test_mollifier_weights_match_scaled_reference():
    # the grid sum cancels the continuum constant kappa up to rounding
    for h, delta in (((1 / 256,), 1 / 8), ((1 / 1024,), 1 / 32), ((1 / 200,), 0.07), ((1 / 64, 1 / 64), 1 / 8),
                     ((1 / 128, 1 / 64), 1 / 16), ((0.01, 0.02), 0.1)):
        w, k = sm.mollifier_weights(delta, h)
        ref, ref_k = smoothing_reference.scaled_mollifier_weights(delta, h)
        assert k == ref_k and w.shape == ref.shape
        np.testing.assert_allclose(w, ref, rtol=4e-16, atol=0)


def test_mollify_constant_and_linear():
    m = build_domain_mesh(((0.0, 1.0),), 1 / 1024)
    ec = sm.extended_from_callable(m, 0.3, lambda p: np.full(p.shape[0], 1.3))
    np.testing.assert_allclose(sm.mollify(ec, 1 / 8).base.values, 1.3, atol=1e-12)
    el = sm.extended_from_callable(m, 0.3, lambda p: 2 * p[:, 0] - 0.3)
    ml = sm.mollify(el, 1 / 8)
    xs = ml.mesh.node_coords()[:, 0]
    np.testing.assert_allclose(ml.base.values, 2 * xs - 0.3, atol=1e-12)


def test_mollify_smooth_halving_factor():
    m = build_domain_mesh(((0.0, 1.0),), 1 / 1024)
    es = sm.extended_from_callable(m, 0.3, lambda p: np.sin(2 * np.pi * p[:, 0]))
    errs = []
    for delta in (1 / 8, 1 / 16, 1 / 32):
        mol = sm.mollify(es, delta)
        errs.append(np.max(np.abs(mol.source_block().ravel() - es.source_block().ravel())))
    for f in halving_factors(errs):
        assert 3.2 <= f <= 4.8


def _wavy(p):
    # O(1) data with content on every axis
    return np.sin(3.0 * p[:, 0] + 0.4) + np.cos(2.0 * p[:, -1]) * p[:, 0]


@pytest.mark.parametrize(
    "mesh, delta",
    [
        (Mesh(1, ((0.0, 1.0),), (257,)), 0.07),
        # unequal node counts and spacings, so each axis has its own kernel radius and FFT size
        (Mesh(2, ((0.0, 1.0), (0.0, 0.5)), (41, 13)), 0.1),
    ],
    ids=["1d", "2d_rectangle"],
)
def test_mollify_matches_offset_loop(mesh, delta):
    ext = sm.extended_from_callable(mesh, 1.5 * delta, _wavy)
    w, k = sm.mollifier_weights(delta, ext.mesh.h)
    assert min(k) >= 2 and len(set(k)) == mesh.dim
    mol = sm.mollify(ext, delta)
    assert mol.pad == tuple(p - kk for p, kk in zip(ext.pad, k))
    ref = smoothing_reference.mollify_loop(ext.base.reshaped(), w)
    assert mol.base.reshaped().shape == ref.shape
    np.testing.assert_allclose(mol.base.reshaped(), ref, rtol=0, atol=1e-13)


@pytest.mark.parametrize("dim", [1, 2])
def test_mollify_below_grid_spacing_is_identity(dim):
    # delta < h: the kernel is the single weight 1 (k = 0), so the FFT product returns the data to rounding
    mesh = Mesh(dim, ((0.0, 1.0), (0.0, 0.5))[:dim], (33, 9)[:dim])
    ext = sm.extended_from_callable(mesh, 0.1, _wavy)
    mol = sm.mollify(ext, 0.5 * min(mesh.h))
    assert mol.pad == ext.pad
    np.testing.assert_allclose(mol.base.values, ext.base.values, rtol=0, atol=1e-14)


def test_mollify_insufficient_margin():
    m = build_domain_mesh(((0.0, 1.0),), 1 / 256)
    e = sm.extended_from_callable(m, 1 / 32, lambda p: p[:, 0])
    with pytest.raises(sm.InsufficientMargin):
        sm.mollify(e, 1 / 8)


@pytest.fixture(scope="module")
def suite_report():
    return sm.smoothing_lemma_suite()


def test_suite_all_pass(suite_report):
    assert suite_report.all_passed, [c.lemma + "/" + c.sample for c in suite_report.failed()]


def test_suite_trace_contraction(suite_report):
    for c in suite_report.by("steklov_tau_norm"):
        assert max(c.ratios) <= 1.0 + 1e-8


def test_suite_steklov_identity_smooth_halving(suite_report):
    for sample in ("sine", "poly"):
        (c,) = suite_report.by("steklov_identity", sample)
        for f in halving_factors(c.ratios):
            assert 1.7 <= f <= 2.3


def test_suite_mollify_hoelder_half(suite_report):
    (c,) = suite_report.by("mollify_identity", "sqrt_cusp")
    for f in halving_factors(c.raw):
        assert f >= 1.3
    (g,) = suite_report.by("mollify_gradient", "sqrt_cusp")
    growth = [b / a for a, b in zip(g.raw, g.raw[1:])]
    assert all(gr <= 1.6 for gr in growth)


def test_suite_lipschitz_gradient_bounded(suite_report):
    # hat function: mollified gradient norm stays bounded as delta shrinks
    (c,) = suite_report.by("mollify_gradient", "hat")
    assert max(c.raw) / min(c.raw) <= 1.5


def test_suite_applies_each_operator_once_per_scale(monkeypatch):
    calls = dict.fromkeys(("steklov", "shift_T", "mollify"), 0)
    for op in calls:

        def counted(*args, _op=op, _real=getattr(sm, op)):
            calls[_op] += 1
            return _real(*args)

        monkeypatch.setattr(sm, op, counted)
    report = sm.smoothing_lemma_suite()
    # steklov and shift_T once per (sample, eps), mollify once per (sample, delta)
    once = len({c.sample for c in report.checks}) * len(report.checks[0].scales)
    assert calls == {"steklov": once, "shift_T": once, "mollify": once}


def test_suites_take_no_parameters():
    for suite in (sm.smoothing_lemma_suite, sm.isometry_check):
        assert not inspect.signature(suite).parameters


def test_isometry_defect_small():
    rows = sm.isometry_check()
    for name, eps, lhs, rhs, rel in rows:
        assert rel <= sm.ISOMETRY_TOL


def test_suite_requires_kink_and_cusp():
    names = {s[0] for s in sm.SUITE_SAMPLES}
    assert "hat" in names and "sqrt_cusp" in names
