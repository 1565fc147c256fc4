import norms_reference as reference
import numpy as np
import pytest

from oscille import norms
from oscille.core import ConfigError
from oscille.mesh import (
    GridFunction,
    Mesh,
    RegionMask,
    boundary_strip_mask,
    build_domain_mesh,
    grads_at_gauss,
    grid_from_callable,
    quadrature,
)


@pytest.fixture(scope="module")
def fine_1d():
    return build_domain_mesh(((0.0, 1.0),), 1 / 512)


def test_lp_constant(fine_1d):
    u = grid_from_callable(fine_1d, lambda p: np.ones(p.shape[0]))
    assert norms.lp_norm(u, 2.0) == pytest.approx(1.0, abs=1e-13)


def test_lp_sine(fine_1d):
    u = grid_from_callable(fine_1d, lambda p: np.sin(2 * np.pi * p[:, 0]))
    assert norms.lp_norm(u, 2.0) == pytest.approx(1 / np.sqrt(2), abs=1e-4)


def test_w1_seminorm_sine(fine_1d):
    u = grid_from_callable(fine_1d, lambda p: np.sin(2 * np.pi * p[:, 0]))
    assert norms.w1p_seminorm(u, 2.0) == pytest.approx(2 * np.pi / np.sqrt(2), abs=1e-3)


def test_w1p_norm_linear(fine_1d):
    u = grid_from_callable(fine_1d, lambda p: p[:, 0])
    expect = np.sqrt(1.0 / 3.0 + 1.0)
    assert norms.w1p_norm(u, 2.0) == pytest.approx(expect, abs=1e-6)


def test_homogeneity(fine_1d):
    rng = np.random.default_rng(0)
    u = GridFunction(fine_1d, rng.standard_normal(fine_1d.n_nodes))
    for p in (1.5, 2.0, 3.0):
        n1 = norms.lp_norm(u, p)
        n2 = norms.lp_norm(GridFunction(fine_1d, -2.5 * u.values), p)
        assert n2 == pytest.approx(2.5 * n1, rel=1e-12)
        s1 = norms.w1p_seminorm(u, p)
        s2 = norms.w1p_seminorm(GridFunction(fine_1d, -2.5 * u.values), p)
        assert s2 == pytest.approx(2.5 * s1, rel=1e-12)


def test_triangle_inequality_random_pairs():
    mesh = build_domain_mesh(((0.0, 1.0), (0.0, 1.0)), 1 / 16)
    rng = np.random.default_rng(1)
    for _ in range(100):
        a = rng.standard_normal(mesh.n_nodes)
        b = rng.standard_normal(mesh.n_nodes)
        p = rng.uniform(1.1, 4.0)
        lhs = norms.lp_norm(GridFunction(mesh, a + b), p)
        rhs = norms.lp_norm(GridFunction(mesh, a), p) + norms.lp_norm(GridFunction(mesh, b), p)
        assert lhs <= rhs + 1e-10


def test_mask_additivity():
    mesh = build_domain_mesh(((0.0, 1.0), (0.0, 1.0)), 1 / 16)
    rng = np.random.default_rng(2)
    u = GridFunction(mesh, rng.standard_normal(mesh.n_nodes))
    mask = boundary_strip_mask(mesh, 1 / 4)
    p = 2.0
    total = norms.lp_norm(u, p) ** p
    part = norms.lp_norm(u, p, mask) ** p + norms.lp_norm(u, p, RegionMask(mask.mesh, ~mask.included)) ** p
    assert part == pytest.approx(total, rel=1e-10)


def test_besov_constant_zero(fine_1d):
    u = grid_from_callable(fine_1d, lambda p: np.full(p.shape[0], 3.3))
    assert norms.besov_seminorm(u, 0.5, 2.0) == 0.0


def test_besov_linear_stable_under_halving():
    vals = []
    for h in (1 / 256, 1 / 512):
        m = build_domain_mesh(((0.0, 1.0),), h)
        u = grid_from_callable(m, lambda p: p[:, 0])
        vals.append(norms.besov_seminorm(u, 0.5, 2.0))
    assert vals[0] > 0
    assert abs(vals[0] - vals[1]) / vals[1] <= 0.05
    # shift modulus of x at scale t is t*sqrt(1-t); the dyadic cap t=1/4 wins
    assert vals[1] == pytest.approx(0.5 * np.sqrt(0.75), rel=0.02)


def test_besov_rejects_bad_r(fine_1d):
    u = grid_from_callable(fine_1d, lambda p: p[:, 0])
    with pytest.raises(ValueError):
        norms.besov_seminorm(u, 1.0, 2.0)


def test_besov_lipschitz_bounded_near_one():
    # hat function: Lipschitz functions have bounded high-r seminorms
    m = build_domain_mesh(((0.0, 1.0),), 1 / 512)
    u = grid_from_callable(m, lambda p: 1 - 2 * np.abs(p[:, 0] - 0.5))
    for r in (0.9, 0.95, 0.99):
        val = norms.besov_seminorm(u, r, 2.0)
        assert val <= 2.0 + 1e-9  # Lipschitz constant 2


def _random_field(mesh, seed):
    return GridFunction(mesh, np.random.default_rng(seed).standard_normal(mesh.n_nodes))


@pytest.mark.parametrize(
    "extents, h, r, p",
    [
        (((0.3, 1.3), (0.0, 0.7)), 1 / 48, 0.5, 2.0),  # offset, non-square 2D
        (((0.3, 1.3), (0.0, 0.7)), 1 / 48, 0.25, 1.5),
        (((0.1, 1.37),), 1 / 300, 0.5, 1.5),
        (((0.1, 1.37),), 1 / 300, 0.9, 3.0),
        (((-0.6, 0.45),), 1 / 1000, 0.5, 2.0),
    ],
)
def test_besov_matches_overlap_mesh_reference(extents, h, r, p):
    u = _random_field(build_domain_mesh(extents, h), 7)
    assert norms.besov_seminorm(u, r, p) == pytest.approx(reference.besov_seminorm(u, r, p), rel=1e-12)


def test_besov_matches_reference_with_skipped_shifts():
    # 3 nodes on the second axis: every shift of 2 cells or more along it
    # leaves fewer than two node layers and is skipped
    u = _random_field(Mesh(2, ((0.0, 1.0), (0.2, 1.2)), (65, 3)), 8)
    val = norms.besov_seminorm(u, 0.5, 2.0)
    assert val > 0.0
    assert val == pytest.approx(reference.besov_seminorm(u, 0.5, 2.0), rel=1e-12)


@pytest.mark.parametrize(
    "mesh, p",
    [
        (build_domain_mesh(((0.3, 1.3), (0.0, 0.7)), 1 / 48), 1.5),  # non-square 2D
        (Mesh(2, ((0.0, 1.0), (0.2, 1.2)), (65, 3)), 2.0),  # shifts of 2 or more skip axis 1
    ],
)
def test_shift_moduli_match_reference_per_shift(mesh, p):
    u = _random_field(mesh, 10)
    k_max = max(mesh.nodes_per_axis)  # the last two shifts leave no overlap on any axis
    omega = norms._shift_moduli(u, range(1, k_max + 1), p)
    expected = [reference.shift_norm(u, k, p) for k in range(1, k_max + 1)]
    assert omega == pytest.approx(expected, rel=1e-12)
    assert omega[-2:].tolist() == [0.0, 0.0] and np.all(omega[:-2] > 0.0)


def test_besov_spacing_above_quarter_width_is_zero():
    u = _random_field(Mesh(1, ((0.0, 1.0),), (3,)), 9)
    assert norms.besov_seminorm(u, 0.5, 2.0) == 0.0
    assert reference.besov_seminorm(u, 0.5, 2.0) == 0.0


def test_besov_nan_field_is_nan(fine_1d):
    u = grid_from_callable(fine_1d, lambda p: p[:, 0])
    u.values[100] = np.nan
    assert np.isnan(norms.besov_seminorm(u, 0.5, 2.0))


def _full_sweep(u, r, p):
    """besov_seminorm without the early stop: every level, every shift."""
    moduli = lambda ks: norms._shift_moduli(u, ks, p)  # noqa: E731
    return norms._dyadic_supremum(moduli, norms._dyadic_k_max(u.mesh), None, min(u.mesh.h), r)


def _sweep_field(kind, dim):
    mesh = build_domain_mesh(((0.0, 1.0),) * dim, 1 / 1024 if dim == 1 else 1 / 128)
    x = mesh.node_coords()
    rng = np.random.default_rng(12)
    if kind == "noise":
        vals = rng.standard_normal(mesh.n_nodes)
    elif kind == "oscillating":  # eps = 1/32 in every axis, plus a slow term
        vals = np.prod(np.sin(2 * np.pi * x * 32), axis=1) + 0.3 * np.sin(np.pi * x[:, 0])
    elif kind == "linear":  # the supremum sits at the quarter-width cap
        vals = x[:, 0].copy()
    elif kind == "zero":
        vals = np.zeros(mesh.n_nodes)
    elif kind == "constant":
        vals = np.full(mesh.n_nodes, -2.5)
    elif kind in ("nan", "inf"):
        vals = x[:, 0].copy()
        vals[mesh.n_nodes // 3] = np.nan if kind == "nan" else np.inf
    elif kind == "tiny":  # squares of the values and their differences underflow
        vals = rng.choice([-1.0, 1.0], mesh.n_nodes) * 1e-162 * (1.0 + 0.5 * rng.random(mesh.n_nodes))
    return GridFunction(mesh, vals)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize(
    "kind, dim",
    [
        ("noise", 1),
        ("oscillating", 1),
        ("oscillating", 2),
        ("linear", 1),
        ("zero", 1),
        ("constant", 2),
        ("nan", 1),
        pytest.param("inf", 1, marks=pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")),
        ("tiny", 1),
    ],
)
def test_besov_early_stop_is_bit_identical_to_full_sweep(kind, dim, p):
    u = _sweep_field(kind, dim)
    stopped, full = norms.besov_seminorm(u, 0.5, p), _full_sweep(u, 0.5, p)
    assert stopped == full or (np.isnan(stopped) and np.isnan(full))
    assert np.isnan(full) == (kind in ("nan", "inf"))


def test_besov_overflowing_powers_match_full_sweep():
    # values within +-0.6 keep their 5000th powers finite; differences
    # reach about 0.9 at shift 16 but pass 1.15, where the 5000th power
    # overflows, only at longer shifts. Those moduli are taken of the
    # rescaled differences, so they stay finite, and with no safe bound the
    # walk sweeps every level
    mesh = build_domain_mesh(((0.0, 1.0),), 1 / 256)
    u = grid_from_callable(mesh, lambda x: 0.6 * np.sin(2 * np.pi * 4.4 * x[:, 0]))
    stopped = norms.besov_seminorm(u, 0.5, 5000.0)
    assert stopped == _full_sweep(u, 0.5, 5000.0)
    assert np.isfinite(stopped) and stopped > 0.0


@pytest.mark.parametrize("p", [400.0, 5000.0, 1e308])
@pytest.mark.parametrize("norm", [norms.lp_norm, norms.w1p_seminorm])
def test_large_p_norms_neither_underflow_nor_overflow(fine_1d, norm, p):
    # |v|^p underflows for the small field and overflows for the large one;
    # both norms are the unit field's, scaled, and close to its maximum
    unit = grid_from_callable(fine_1d, lambda x: np.sin(2 * np.pi * x[:, 0]))
    ref = norm(unit, p)
    assert np.isfinite(ref) and ref > 0.0
    for c in (1e-3, 1e3):
        got = norm(GridFunction(fine_1d, c * unit.values), p)
        assert got == pytest.approx(c * ref, rel=1e-12)
    top = 1.0 if norm is norms.lp_norm else 2 * np.pi
    assert top * 0.97 <= ref <= top * (1 + 1e-9)


def test_besov_subnormal_powers_match_full_sweep():
    # the 1.2th powers of these differences are subnormal and round by an
    # absolute step, which lifts a later shift's modulus above the
    # Minkowski bound of the exact values
    mesh = build_domain_mesh(((0.0, 1.0),), 1 / 32)
    u = GridFunction(mesh, np.resize([1.0, -2.0, -1.0, 2.0], mesh.n_nodes) * 3.4e-270)
    assert norms.besov_seminorm(u, 0.7, 1.2) == _full_sweep(u, 0.7, 1.2) > 0.0


@pytest.mark.parametrize("kind, evaluated", [("oscillating", 16), ("linear", 256)])
def test_besov_early_stop_skips_shifts_only_below_the_supremum(monkeypatch, kind, evaluated):
    # the oscillating field (32 cells per period) stops before level 5, the
    # first level whose factor times the bound cannot beat levels 0-4; the
    # linear field's supremum sits at the cap, so it sweeps all 256 shifts
    u = _sweep_field(kind, 1)
    assert norms._dyadic_k_max(u.mesh) == 256
    full = _full_sweep(u, 0.5, 2.0)
    seen = []
    per_shift = norms._shift_modulus
    monkeypatch.setattr(norms, "_shift_modulus", lambda vals, k, *args: seen.append(k) or per_shift(vals, k, *args))
    assert norms.besov_seminorm(u, 0.5, 2.0) == full
    assert seen == list(range(1, evaluated + 1))


@pytest.mark.parametrize("p", [0.5, 0.999, -2.0, np.nan])
def test_besov_rejects_p_below_one(fine_1d, p):
    u = grid_from_callable(fine_1d, lambda x: x[:, 0])
    with pytest.raises(ConfigError, match="p must be at least 1"):
        norms.besov_seminorm(u, 0.5, p)


@pytest.mark.parametrize("p", [400.0, 5000.0, 1e308])
def test_large_p_w1p_norm_is_finite(fine_1d, p):
    # a**p of the seminorm 2 pi overflows a float from p = 386 on
    u = grid_from_callable(fine_1d, lambda x: np.sin(2 * np.pi * x[:, 0]))
    a, b = norms.lp_norm(u, p), norms.w1p_seminorm(u, p)
    got = norms.w1p_norm(u, p)
    assert np.isfinite(got) and got >= max(a, b)
    assert got <= max(a, b) * 2 ** (1 / p) * (1 + 1e-15)


def test_w1p_norm_of_zero_and_nan(fine_1d):
    zero = GridFunction(fine_1d, np.zeros(fine_1d.n_nodes))
    assert norms.w1p_norm(zero, 2.0) == 0.0
    nan = GridFunction(fine_1d, np.full(fine_1d.n_nodes, np.nan))
    assert np.isnan(norms.w1p_norm(nan, 2.0))


@pytest.mark.parametrize("norm", [norms.lp_norm, norms.w1p_seminorm])
def test_nan_node_is_nan_unless_masked_out(fine_1d, norm):
    u = grid_from_callable(fine_1d, lambda p: np.sin(2 * np.pi * p[:, 0]))
    u.values[0] = np.nan  # touches the first element only
    strip = boundary_strip_mask(fine_1d, 1 / 8)
    assert np.isnan(norm(u, 2.0))
    assert np.isnan(norm(u, 1.5, strip))
    inner = norm(u, 1.5, RegionMask(strip.mesh, ~strip.included))
    assert np.isfinite(inner) and inner > 0.0


def test_strip_lemma_constant_ratio_one():
    # mesh aligned so the element strip is exactly [0, eps/2] on each side
    for eps in (1 / 8, 1 / 16, 1 / 32):
        m = build_domain_mesh(((0.0, 1.0),), eps / 2)
        u = grid_from_callable(m, lambda p: np.ones(p.shape[0]))
        rows = norms.strip_lemma_check(u, 2.0, [eps])
        assert rows[0].ratio == pytest.approx(1.0, abs=1e-12)


def test_strip_lemma_sine_halving_steps():
    m = build_domain_mesh(((0.0, 1.0),), 2**-9)
    u = grid_from_callable(m, lambda p: np.sin(np.pi * p[:, 0]))
    eps_list = [2.0**-k for k in range(3, 8)]
    rows = norms.strip_lemma_check(u, 2.0, eps_list)
    ratios = [r.ratio for r in rows]
    assert all(r > 0 for r in ratios)
    for step in norms.halving_factors(ratios):
        assert max(step, 1 / step) <= 2.0 + 1e-9


def test_strip_suite_probes_a_nonzero_trace_per_dimension():
    # a sample that vanishes on the boundary halves its ratio with eps; one
    # with a nonzero trace meets the inequality where it is sharp, level
    sweeps = norms.strip_lemma_suite()
    assert [(s.dim, s.sample) for s in sweeps] == [
        (1, "sin(pi x)"), (1, "cos(pi x)"), (2, "sin(pi x1) sin(pi x2)"), (2, "cos(pi x1) cos(pi x2)")]
    for sweep in sweeps:
        assert sweep.passed and len(sweep.steps) == len(norms.STRIP_SCALES) - 1
        level = sweep.sample.startswith("cos")
        assert all((0.9 <= f <= 1.1) if level else (1.9 <= f <= 2.0 + 1e-9) for f in sweep.steps)


def test_strip_lemma_degenerate_eps():
    m = build_domain_mesh(((0.0, 1.0),), 1 / 32)
    u = grid_from_callable(m, lambda p: 1.0 + p[:, 0])
    rows = norms.strip_lemma_check(u, 2.0, [10.0])
    assert np.isfinite(rows[0].ratio)  # strip is the whole domain


def test_mask_mesh_mismatch(fine_1d):
    other = build_domain_mesh(((0.0, 1.0),), 1 / 8)
    mask = boundary_strip_mask(other, 0.25)
    u = grid_from_callable(fine_1d, lambda p: p[:, 0])
    with pytest.raises(Exception):
        norms.lp_norm(u, 2.0, mask)


@pytest.mark.parametrize("dim", [1, 2])
def test_w1p_seminorms_equal_separate_calls_bit_for_bit(dim):
    # one gradient for several masks gives each mask's seminorm exactly as
    # a call of its own, and as the masked Gauss-rule norm of |grad u|
    m = build_domain_mesh(((0.0, 1.0), (0.0, 0.75))[:dim], 1 / 24)
    u = GridFunction(m, np.random.default_rng(dim).standard_normal(m.n_nodes))
    strip = boundary_strip_mask(m, 0.1)
    masks = [None, strip, RegionMask(m, ~strip.included), strip]
    q = quadrature(m)
    g = grads_at_gauss(u, q)
    mag = np.sqrt(np.einsum("egd,egd->eg", g, g))
    for p in (1.0, 2.0, 3.5, 400.0):
        got = norms.w1p_seminorms(u, p, masks)
        assert np.array_equal(np.array(got).view(np.int64), np.array([norms.w1p_seminorm(u, p, k) for k in masks]).view(np.int64))
        want = [norms._gauss_lp(mag if k is None else mag[k.included], q, p) for k in masks]
        assert np.array_equal(np.array(got).view(np.int64), np.array(want).view(np.int64))
    assert norms.w1p_seminorms(u, 2.0, []) == []
