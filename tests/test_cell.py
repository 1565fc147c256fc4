import itertools
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import cell_reference
import corrector_reference as reference
from oscille import cell, cli, corrector, fem, linalg
from oscille import mesh as mesh_mod
from oscille.core import preset_coefficient
from oscille.mesh import build_cell_mesh, quadrature

SQRT3 = np.sqrt(3.0)


@pytest.fixture(scope="module")
def sine_field():
    return preset_coefficient("Sine1D", [2, 1], 1)


@pytest.fixture(scope="module")
def sine_cell(sine_field):
    return cell.solve_cell(sine_field, np.zeros(1), build_cell_mesh(256, 1))


def test_constant_cell_solution_is_zero():
    const = preset_coefficient("Constant", [2.0], 1)
    sol = cell.solve_cell(const, np.zeros(1), build_cell_mesh(64, 1))
    assert np.max(np.abs(sol.columns)) <= 1e-10
    np.testing.assert_allclose(sol.a0, 2.0 * np.eye(1), atol=1e-12)


def test_effective_tensor_sine_1d(sine_field, sine_cell):
    assert abs(sine_cell.a0[0, 0] - SQRT3) <= 1e-4


def _exact_n(ys):
    # zero-mean antiderivative of sqrt(3)/a(y) - 1 for a = 2 + sin 2 pi y
    def raw(y):
        v, _ = quad(lambda t: SQRT3 / (2 + np.sin(2 * np.pi * t)) - 1.0, 0.0, y, limit=200)
        return v

    vals = np.array([raw(y) for y in ys])
    mean, _ = quad(raw, 0.0, 1.0, limit=200)
    return vals - mean


def test_cell_solution_matches_antiderivative(sine_cell):
    ys = sine_cell.cell_mesh.axis_coords(0)
    exact = _exact_n(ys)
    err = np.sqrt(np.mean((sine_cell.columns[:, 0] - exact) ** 2))
    assert err <= 1e-4


def test_mean_zero(sine_cell):
    mean = cell_reference.mean_functional(sine_cell.cell_mesh) @ sine_cell.columns
    assert np.max(np.abs(mean)) <= 1e-10


def test_laminate_reduces_to_1d(sine_cell):
    lam = preset_coefficient("Laminate2D", [2, 1], 2)
    cmesh = build_cell_mesh(64, 2)
    sol = cell.solve_cell(lam, np.zeros(2), cmesh)
    cols = sol.columns.reshape(64, 64, 2)
    # N1 depends on y1 only; N2 vanishes
    spread = cols[:, :, 0].max(axis=1) - cols[:, :, 0].min(axis=1)
    assert np.max(spread) <= 1e-8
    assert np.max(np.abs(cols[:, :, 1])) <= 1e-8
    sol1d = cell.solve_cell(preset_coefficient("Sine1D", [2, 1], 1), np.zeros(1), build_cell_mesh(64, 1))
    np.testing.assert_allclose(cols[:, 0, 0], sol1d.columns[:, 0], atol=1e-8)


def test_laminate_effective_tensor():
    lam = preset_coefficient("Laminate2D", [2, 1], 2)
    t = cell.solve_cell(lam, np.zeros(2), build_cell_mesh(128, 2)).a0
    assert abs(t[0, 0] - SQRT3) <= 1e-4
    assert abs(t[1, 1] - 2.0) <= 1e-12  # arithmetic mean, exact for the laminate
    assert abs(t[0, 1]) <= 1e-8 and abs(t[1, 0]) <= 1e-8


@pytest.mark.parametrize(
    "preset, params, d, m",
    [(pid, params, 1, m) for pid, params in (("Sine1D", [2, 1]), ("LocallyPeriodic1D", [2, 1, 0.5])) for m in (12, 32, 256)]
    + [("Laminate2D", [2, 1], 2, m) for m in (12, 64)],
)
def test_a0_matches_exact_discrete_oracle_for_laminates(preset, params, d, m):
    # a varies along y1 only, so the Q1 cell solution N_1 is piecewise
    # linear in y1 and N_2 vanishes: A0_11 is the harmonic mean, over the
    # y1 cells, of the 2-point Gauss mean of a on each, and A0_22 the
    # arithmetic mean
    field = preset_coefficient(preset, params, d)
    x = np.full(d, 0.7)
    y = np.zeros((2 * m, d))
    y[:, 0] = ((np.arange(m)[:, None] + 0.5 + np.array([-0.5, 0.5]) / SQRT3) / m).ravel()
    a_bar = field.eval(x[None], y).reshape(m, 2).mean(axis=1)
    want = np.diag([1.0 / np.mean(1.0 / a_bar), np.mean(a_bar)][:d])
    got = cell.solve_cell(field, x, build_cell_mesh(m, d)).a0
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_effective_tensor_symmetry():
    f = preset_coefficient("SineProduct2D", [2, 1], 2)
    t = cell.solve_cell(f, np.zeros(2), build_cell_mesh(32, 2)).a0
    assert abs(t[0, 1] - t[1, 0]) <= 1e-8


def test_voigt_reuss_bracket():
    # harmonic mean <= eigenvalues of A0 <= arithmetic mean
    for pid, params, d in [("Sine1D", [2, 1], 1), ("SineProduct2D", [2, 1], 2), ("Laminate2D", [3, 2], 2)]:
        f = preset_coefficient(pid, params, d)
        m = 128 if d == 1 else 48
        t = cell.solve_cell(f, np.zeros(d), build_cell_mesh(m, d)).a0
        eigs = np.linalg.eigvalsh(0.5 * (t + t.T))

        def a_point(y):
            return float(f.eval(np.zeros((1, d)), np.array(y).reshape(1, d))[0])

        ys = np.linspace(0, 1, 201)[:-1]
        if d == 1:
            samples = np.array([a_point([y]) for y in ys])
        else:
            samples = np.array([a_point([y1, y2]) for y1 in ys[::10] for y2 in ys[::10]])
        harm = 1.0 / np.mean(1.0 / samples)
        arith = np.mean(samples)
        assert eigs.min() >= harm - 1e-3  # sampling tolerance on the bounds
        assert eigs.max() <= arith + 1e-3
        assert eigs.min() >= f.c_a - 1e-6
        assert eigs.max() <= f.norm_inf + 1e-6


def test_cell_mesh_convergence_order():
    # |A0_m - A0_2m| shrinks by at least a factor 3 per doubling
    for pid, params, d, ms in [
        ("Sine1D", [2, 1], 1, (32, 64, 128)),
        ("SineProduct2D", [2, 1], 2, (16, 32, 64)),
        ("Laminate2D", [2, 1], 2, (16, 32, 64)),
    ]:
        f = preset_coefficient(pid, params, d)
        tensors = [cell.solve_cell(f, np.zeros(d), build_cell_mesh(m, d)).a0 for m in ms]
        d1 = np.max(np.abs(tensors[1] - tensors[0]))
        d2 = np.max(np.abs(tensors[2] - tensors[1]))
        assert d1 / d2 >= 3.0


def test_uniqueness_under_dof_permutation(sine_field):
    # permuted unknown ordering must give the same cell function
    cmesh = build_cell_mesh(64, 1)
    sol = cell.solve_cell(sine_field, np.zeros(1), cmesh)
    a_vals = cell._cell_coefficient(sine_field, np.zeros(1), cmesh)[0]
    matrix, loads, _ = cell._periodic_stiffness_and_loads(a_vals, cmesh)
    rng = np.random.default_rng(17)
    perm = rng.permutation(cmesh.n_nodes)
    x_p, _ = linalg.solve_saddle(matrix[perm][:, perm], loads[0][perm])
    x = np.empty_like(x_p)
    x[perm] = x_p
    l2 = np.sqrt(np.mean((x - sol.columns[:, 0]) ** 2))
    assert l2 <= 1e-8


def test_tabulate_constant_in_x(sine_field):
    cmesh = build_cell_mesh(64, 1)
    axes = (np.linspace(-0.25, 1.25, 25),)
    eff, table = cell.tabulate_effective(sine_field, axes, cmesh)
    assert np.max(np.abs(eff.tensors - eff.tensors[0])) <= 1e-12
    got = cell.interpolate_axis(eff.tensors, eff.x_axes[0], np.array([0.123, 0.9]))
    np.testing.assert_allclose(got[:, 0, 0], eff.tensors[0, 0, 0], atol=1e-12)


@pytest.fixture(scope="module")
def lp_table():
    f = preset_coefficient("LocallyPeriodic1D", [2, 1, 0.5], 1)
    axes = (np.linspace(0.0, 1.0, 17),)
    eff, table = cell.tabulate_effective(f, axes, build_cell_mesh(128, 1))
    return f, eff, table


def test_tabulated_locally_periodic_values(lp_table):
    f, eff, _ = lp_table
    for x in (0.0, 0.5, 1.0):
        got = cell.interpolate_axis(eff.tensors, eff.x_axes[0], np.array([x]))[0, 0, 0]
        assert abs(got - (1 + 0.5 * x) * SQRT3) <= 1e-4


def test_tabulated_lipschitz_estimate(lp_table):
    _, eff, _ = lp_table
    # d/dx of (1 + x/2) sqrt(3) is sqrt(3)/2
    slope = np.max(np.abs(np.diff(eff.tensors, axis=0))) / np.diff(eff.x_axes[0])[0]
    assert slope == pytest.approx(0.5 * SQRT3, rel=0.05)


def _bilinear(coef, x, y):
    """coef[0] + x coef[1] + y coef[2] + x y coef[3] on the tensor grid of x and y."""
    x, y = np.meshgrid(x, y, indexing="ij")
    x, y = x[..., None, None], y[..., None, None]
    return coef[0] + x * coef[1] + y * coef[2] + x * y * coef[3]


def test_multilinear_reproduces_bilinear_tensors():
    # once per axis on a tensor grid of points, interpolation reproduces
    # tensors bilinear in x exactly, up to rounding
    axes = (np.linspace(-0.5, 1.5, 9), np.linspace(0.0, 1.0, 5))
    coef = np.arange(16.0).reshape(4, 2, 2)  # bilinear in x per tensor entry
    values = _bilinear(coef, *axes)
    rng = np.random.default_rng(4)
    x, y = rng.uniform(-0.5, 1.5, 12), rng.uniform(0.0, 1.0, 10)
    got = cell.interpolate_axis(cell.interpolate_axis(values, axes[1], y, axis=1), axes[0], x)
    np.testing.assert_allclose(got, _bilinear(coef, x, y), rtol=1e-13, atol=1e-13)


def test_table_coverage_error(lp_table):
    _, eff, _ = lp_table
    with pytest.raises(cell.TableCoverage):
        cell.interpolate_axis(eff.tensors, eff.x_axes[0], np.array([1.5]))


def test_ellipticity_violation():
    f = preset_coefficient("LocallyPeriodic1D", [2, 1, 0.5], 1)
    with pytest.raises(cell.EllipticityViolation):
        cell.solve_cell(f, np.array([-2.5]), build_cell_mesh(16, 1))


def test_ellipticity_violation_nan_coefficient():
    # np.min of an array holding a NaN is NaN, and NaN <= 0 is False; +inf
    # is positive, yet it leaves the saddle solve with NaN residuals
    base = preset_coefficient("Sine1D", [2, 1], 1)

    class OneBad:
        dim = 1

        def __init__(self, bad):
            self.bad = bad

        def eval_factors(self, x, y):
            g, b = base.eval_factors(x, y)
            b[0, 3] = self.bad
            return g, b

    for bad in (np.nan, np.inf):
        with pytest.raises(cell.EllipticityViolation, match="not finite"):
            cell.solve_cell(OneBad(bad), np.zeros(1), build_cell_mesh(16, 1))


def _counted_solves(monkeypatch):
    calls = []
    solve = cell.solve_cell

    def counting(*args, **kwargs):
        calls.append(args[1])
        return solve(*args, **kwargs)

    monkeypatch.setattr(cell, "solve_cell", counting)
    return calls


def _assert_per_entry_equal(field, axes, cmesh, eff, table):
    # each entry against its own solve: reuse must be bit-identical
    points = [np.array(p) for p in itertools.product(*axes)]
    assert len(table.cells) == len(points)
    flat = eff.tensors.reshape(len(points), field.dim, field.dim)
    for p, c, a0 in zip(points, table.cells, flat):
        ref = cell.solve_cell(field, p, cmesh)
        assert np.array_equal(table.columns[c], ref.columns)
        assert np.array_equal(a0, ref.a0)


def test_table_solves_each_distinct_profile_once_2d(monkeypatch):
    # LocallyPeriodic2D is (1 + 0.5 x1) b(y): one profile for the whole table
    field = preset_coefficient("LocallyPeriodic2D", [2, 1, 0.5], 2)
    axes = (np.linspace(0.0, 1.0, 4), np.linspace(-0.5, 1.5, 5))
    cmesh = build_cell_mesh(8, 2)
    calls = _counted_solves(monkeypatch)
    eff, table = cell.tabulate_effective(field, axes, cmesh)
    assert len(calls) == 1
    monkeypatch.undo()
    points = [np.array(p) for p in itertools.product(*axes)]
    assert len(table.cells) == len(points)
    assert len(table.columns) == 1 and not table.cells.any()
    assert eff.tensors is table.tensors
    g, b = cell._cell_factors(field, np.array(points), cmesh)
    profile = cell.solve_cell(field, points[0], cmesh, samples=b[0])
    assert np.array_equal(profile.columns, table.columns[0])
    flat = eff.tensors.reshape(len(points), 2, 2)
    for p, gx, a0 in zip(points, g, flat):
        # the profile's A0 scaled by g bit for bit, and the solve of a(x, .) itself to rounding
        assert np.array_equal(_bits(a0), _bits(gx * profile.a0))
        ref = cell.solve_cell(field, p, cmesh)
        assert np.max(np.abs(a0 - ref.a0)) <= 1e-12 * np.max(np.abs(ref.a0))
        assert np.max(np.abs(table.columns[0] - ref.columns)) <= 1e-11 * np.max(np.abs(ref.columns))


class _Modulated:
    """a(x, y) = c + (alpha + beta x1) sin(2 pi y1): a profile that reads x, so it has no slow factor."""

    def __init__(self, dim=1, c=2.0, alpha=0.5, beta=0.5):
        self.dim, self.c, self.alpha, self.beta = dim, c, alpha, beta

    def eval_factors(self, x, y):
        x = np.asarray(x, dtype=float).reshape(-1, self.dim)
        y = np.asarray(y, dtype=float).reshape(-1, self.dim)
        amp = self.alpha + self.beta * x[:, :1]
        return np.ones(len(x)), self.c + amp * np.sin(2.0 * np.pi * y[:, 0])


def test_table_without_repeats_solves_every_entry(monkeypatch):
    field = _Modulated()
    axes = (np.linspace(-0.25, 1.25, 7),)
    cmesh = build_cell_mesh(32, 1)
    calls = _counted_solves(monkeypatch)
    eff, table = cell.tabulate_effective(field, axes, cmesh)
    assert len(calls) == len(axes[0])
    monkeypatch.undo()
    _assert_per_entry_equal(field, axes, cmesh, eff, table)


def test_x_independent_table_solves_once(monkeypatch):
    field = preset_coefficient("Laminate2D", [2, 1], 2)
    axes = (np.linspace(0.0, 1.0, 3), np.linspace(0.0, 1.0, 4))
    cmesh = build_cell_mesh(8, 2)
    calls = _counted_solves(monkeypatch)
    eff, table = cell.tabulate_effective(field, axes, cmesh)
    assert len(calls) == 1
    assert len(table.cells) == 12
    assert np.array_equal(eff.tensors, np.broadcast_to(eff.tensors[0, 0], eff.tensors.shape))


def test_table_ellipticity_violation_in_one_entry():
    # 1 + 0.5 x1 is nonpositive only at the last two x1 samples
    field = preset_coefficient("LocallyPeriodic2D", [2, 1, 0.5], 2)
    axes = (np.linspace(1.0, -2.5, 8), np.linspace(0.0, 1.0, 3))
    with pytest.raises(cell.EllipticityViolation):
        cell.tabulate_effective(field, axes, build_cell_mesh(8, 2))


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_table_rejects_nonfinite_slow_factor(bad):
    base = preset_coefficient("Sine1D", [2, 1], 1)

    class BadScale:
        dim = 1

        def eval_factors(self, x, y):
            g, b = base.eval_factors(x, y)
            g[-1] = bad
            return g, b

    with pytest.raises(cell.EllipticityViolation):
        cell.tabulate_effective(BadScale(), (np.linspace(0.0, 1.0, 3),), build_cell_mesh(16, 1))


def test_eval_n_periodic_interpolation(sine_cell):
    ys = np.array([0.1, 0.37, 1.1, -0.9])
    vals = cell._interpolate_periodic([sine_cell.columns], sine_cell.cell_mesh, (ys,))[0]
    np.testing.assert_allclose(vals[2], vals[0], atol=1e-12)
    np.testing.assert_allclose(vals[3], vals[0], atol=1e-12)
    exact = _exact_n([0.37])
    assert abs(vals[1, 0] - exact[0]) <= 1e-4


def test_eval_n_bilinear_2d():
    # nodal data on a 2D periodic cell: the values interpolated on a
    # tensor grid of points, and the interpolant gradients the corrector
    # reference differentiates with, against the corner formulas of the
    # bilinear element, including wrapped corners. The wrap coordinates sit
    # where the cell grid's repeated first layer meets locate_on_axis'
    # rounding nudge: frac(-1e-20) rounds to 1.0, 1 - 2^-53 lies below 1 by
    # less than the nudge, 0 and 3 are whole periods; on each axis they all
    # read the first node layer
    cmesh = build_cell_mesh(8, 2)
    rng = np.random.default_rng(3)
    columns = rng.standard_normal((cmesh.n_nodes, 2))
    wrap = [-1e-20, 1.0 - 2.0**-53, 0.0, 3.0]
    y_axes = [np.concatenate([rng.random(7) * 3.0 - 1.0, wrap]) for _ in range(2)]
    ys = np.stack(np.meshgrid(*y_axes, indexing="ij"), axis=-1).reshape(-1, 2)
    m, h = 8, 1.0 / 8
    t = (ys - np.floor(ys)) * m
    i0 = np.minimum(np.floor(t).astype(int), m - 1)  # t = m only where frac rounds to 1
    tx, ty = (t - i0)[:, 0:1], (t - i0)[:, 1:2]
    i1 = (i0 + 1) % m
    v00 = columns[i0[:, 0] * m + i0[:, 1]]
    v01 = columns[i0[:, 0] * m + i1[:, 1]]
    v10 = columns[i1[:, 0] * m + i0[:, 1]]
    v11 = columns[i1[:, 0] * m + i1[:, 1]]
    vals = v00 * (1 - tx) * (1 - ty) + v01 * (1 - tx) * ty + v10 * tx * (1 - ty) + v11 * tx * ty
    gx = ((v10 - v00) * (1 - ty) + (v11 - v01) * ty) / h
    gy = ((v01 - v00) * (1 - tx) + (v11 - v10) * tx) / h
    got = cell._interpolate_periodic([columns], cmesh, y_axes)
    assert got.shape == (1, len(y_axes[0]), len(y_axes[1]), 2)
    np.testing.assert_allclose(got[0].reshape(-1, 2), vals, rtol=0, atol=1e-13)
    n = len(wrap)
    np.testing.assert_allclose(got[0, -n:, -n:], np.broadcast_to(columns[0], (n, n, 2)), rtol=0, atol=1e-13)
    grad = reference.interpolant_gradient([columns], cmesh, ys)[0]  # (n, j, k): d/dy_j of N_k
    np.testing.assert_allclose(grad[:, 0, :], gx, rtol=0, atol=1e-12)
    np.testing.assert_allclose(grad[:, 1, :], gy, rtol=0, atol=1e-12)


def test_interpolate_periodic_matches_corner_loop():
    # the per-axis passes on a tensor grid of fast points against the
    # reference's corner loop at the same points, scattered: bit for bit
    # in 1D, within rounding of the other summation order in 2D
    rng = np.random.default_rng(6)
    for d, m in ((1, 16), (2, 8)):
        cmesh = build_cell_mesh(m, d)
        columns = [rng.uniform(1.0, 2.0, (cmesh.n_nodes, d)) for _ in range(3)]
        y_axes = [np.concatenate([rng.random(9) * 3.0 - 1.0, [-1e-20, 1.0 - 2.0**-53, 0.0]]) for _ in range(d)]
        got = cell._interpolate_periodic(columns, cmesh, y_axes).reshape(len(columns), -1, d)
        ys = np.stack(np.meshgrid(*y_axes, indexing="ij"), axis=-1).reshape(-1, d)
        want = reference.interpolate_periodic(columns, cmesh, ys)
        if d == 1:
            assert np.array_equal(_bits(got), _bits(want))
        else:
            assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want))


class _FourierCell:
    """a(y) = scale * (c + sum_k amp_k cos(2 pi n_k . (y + shift) + phase_k)), x-independent.

    c exceeds sum |amp_k|, so a is positive; a general direction n_k makes
    A0 a full 2x2 tensor in 2D.
    """

    def __init__(self, dim, c, modes, scale=1.0, shift=0.0):
        self.dim, self.c, self.modes, self.scale, self.shift = dim, c, modes, scale, shift

    def eval_factors(self, x, y):
        x = np.asarray(x, dtype=float).reshape(-1, self.dim)
        y = np.asarray(y, dtype=float).reshape(-1, self.dim) + self.shift
        vals = np.full(y.shape[0], self.c)
        for n, amp, phase in self.modes:
            vals += amp * np.cos(2.0 * np.pi * (y @ np.array(n[: self.dim])) + phase)
        return np.ones(len(x)), (self.scale * vals)[None]


@st.composite
def _cells(draw):
    """A random x-independent coefficient and a cell mesh with m <= 16."""
    dim = draw(st.sampled_from([1, 2]))
    mode = st.tuples(st.tuples(st.integers(-2, 2), st.integers(-2, 2)), st.floats(0.0, 1.0), st.floats(0.0, 6.3))
    modes = draw(st.lists(mode, min_size=1, max_size=3))
    c = sum(amp for _, amp, _ in modes) + draw(st.floats(0.05, 2.0))
    return _FourierCell(dim, c, modes), build_cell_mesh(draw(st.integers(4, 16)), dim)


def _a0(coef, cmesh):
    return cell.solve_cell(coef, np.zeros(coef.dim), cmesh).a0


def _a0_einsum(coef, x, cmesh, sol):
    """A0 = sum_g w a (I + grad N) from grad N at every Gauss point, the
    reference for the single matrix product that solve_cell forms A0 by."""
    q = quadrature(cmesh)
    a_vals = cell._cell_coefficient(coef, x, cmesh)[0]
    grad_gauss = np.einsum("ecd,gcj->egjd", sol.columns[q.corners], q.shape_grads)
    integrand = a_vals[:, :, None, None] * (np.eye(coef.dim) + grad_gauss)
    return np.einsum("g,egjk->jk", q.weights, integrand)


def _assert_a0_matches_einsum(coef, x, cmesh):
    sol = cell.solve_cell(coef, x, cmesh)
    want = _a0_einsum(coef, x, cmesh, sol)
    got = sol.a0
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize(
    "preset, params, m",
    [("LocallyPeriodic2D", [2, 1, 0.5], 64), ("Laminate2D", [2, 1], 128)],
)
def test_a0_matches_einsum_reference(preset, params, m):
    _assert_a0_matches_einsum(preset_coefficient(preset, params, 2), np.array([0.3, 0.7]), build_cell_mesh(m, 2))


_PROPERTY = settings(max_examples=25, deadline=None, database=None, derandomize=True)


@_PROPERTY
@given(_cells())
def test_a0_symmetric_within_discrete_voigt_reuss(case):
    # the discrete A0 minimizes the Gauss-rule energy over periodic Q1 fields,
    # so the Gauss-weighted arithmetic and harmonic means of the same samples
    # bound its eigenvalues exactly
    coef, cmesh = case
    a0 = _a0(coef, cmesh)
    scale = np.max(np.abs(a0))
    assert np.max(np.abs(a0 - a0.T)) <= 1e-8 * scale
    a_vals = cell._cell_coefficient(coef, np.zeros(coef.dim), cmesh)[0]
    w = np.broadcast_to(quadrature(cmesh).weights, a_vals.shape)
    arith = np.sum(w * a_vals)
    harm = 1.0 / np.sum(w / a_vals)
    eig = np.linalg.eigvalsh(0.5 * (a0 + a0.T))
    assert harm * (1 - 1e-8) <= eig.min() and eig.max() <= arith * (1 + 1e-8)


@_PROPERTY
@given(_cells(), st.floats(0.1, 10.0))
def test_a0_scales_with_coefficient(case, c):
    coef, cmesh = case
    scaled = _FourierCell(coef.dim, coef.c, coef.modes, scale=c)
    np.testing.assert_allclose(_a0(scaled, cmesh), c * _a0(coef, cmesh), rtol=1e-8, atol=1e-8 * c * coef.c)


@_PROPERTY
@given(_cells(), st.tuples(st.integers(-16, 16), st.integers(-16, 16)))
def test_a0_invariant_under_whole_node_y_shift(case, k):
    coef, cmesh = case
    shift = np.array(k[: coef.dim]) / np.array(cmesh.nodes_per_axis)
    shifted = _FourierCell(coef.dim, coef.c, coef.modes, shift=shift)
    np.testing.assert_allclose(_a0(shifted, cmesh), _a0(coef, cmesh), rtol=1e-8, atol=1e-8 * coef.c)


@_PROPERTY
@given(_cells())
def test_a0_matches_einsum_reference_random_cells(case):
    coef, cmesh = case
    _assert_a0_matches_einsum(coef, np.zeros(coef.dim), cmesh)


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


def _assert_assembly_matches_reference(a_vals, cmesh):
    matrix, loads, _ = cell._periodic_stiffness_and_loads(a_vals, cmesh)
    ref_matrix, ref_loads = cell_reference.stiffness_and_loads(a_vals, cmesh)
    assert np.array_equal(matrix.indptr, ref_matrix.indptr)
    assert np.array_equal(matrix.indices, ref_matrix.indices)
    assert np.array_equal(_bits(matrix.data), _bits(ref_matrix.data))
    assert np.array_equal(_bits(loads), _bits(ref_loads))


@_PROPERTY
@given(st.sampled_from([1, 2]), st.integers(4, 16), st.integers(0, 2**32 - 1))
def test_cached_pattern_assembly_matches_coo_reference(dim, m, seed):
    cmesh = build_cell_mesh(m, dim)
    rng = np.random.default_rng(seed)
    a_vals = rng.uniform(0.05, 5.0, quadrature(cmesh).points.shape[:2])
    _assert_assembly_matches_reference(a_vals, cmesh)


@pytest.mark.parametrize("dim, m", [(1, 256), (2, 64)])
def test_cached_pattern_assembly_matches_coo_reference_default_cells(dim, m):
    cmesh = build_cell_mesh(m, dim)
    a_vals = np.random.default_rng(m).uniform(0.05, 5.0, quadrature(cmesh).points.shape[:2])
    _assert_assembly_matches_reference(a_vals, cmesh)


def test_pattern_built_once_per_cell_mesh_over_a_table(monkeypatch):
    field = preset_coefficient("LocallyPeriodic2D", [2, 1, 0.5], 2)
    axes = (np.linspace(0.0, 1.0, 4), np.linspace(-0.5, 1.5, 5))
    built = []
    build = mesh_mod._stencil_pattern

    def counting(m, free):
        built.append(m)
        return build(m, free)

    monkeypatch.setattr(fem, "_stencil_pattern", counting)
    fem._pattern.cache_clear()
    cmesh = build_cell_mesh(8, 2)
    cell.tabulate_effective(field, axes, cmesh)
    info = fem._pattern.cache_info()
    # the table's one solve builds it
    assert (info.misses, info.hits) == (1, 0) and len(built) == 1
    # a profile that reads x1 takes one solve per x1 row, and each reads it
    cell.tabulate_effective(_Modulated(dim=2), axes, cmesh)
    info = fem._pattern.cache_info()
    assert (info.misses, info.hits) == (1, len(axes[0])) and len(built) == 1


def _interpolation_points(axis, rng):
    """Random points, every node, and the ends and just below the upper end of one axis."""
    return np.concatenate([rng.uniform(axis[0], axis[-1], 20), axis, [axis[-1], axis[-1] - 1e-12, axis[0]]])


def _per_axis(values, axes, pts):
    """`interpolate_axis` once per axis at the per-axis points, last axis first."""
    for k in reversed(range(len(axes))):
        values = cell.interpolate_axis(values, axes[k], pts[k], axis=k)
    return values


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("tensor", [False, True])
def test_multilinear_matches_corner_loop(dim, tensor):
    # per axis on a tensor grid of points against the corner loop at the
    # same points, scattered: bit for bit in 1D, within rounding of the
    # other summation order in 2D (values away from 0, so the bound is
    # relative to each value)
    rng = np.random.default_rng(dim + 2 * tensor)
    axes = (np.linspace(-0.3, 1.3, 9), np.linspace(0.0, 1.0, 6))[:dim]
    trailing = (dim, dim) if tensor else ()
    values = rng.uniform(1.0, 2.0, tuple(len(a) for a in axes) + trailing)
    pts = [_interpolation_points(a, rng) for a in axes]
    got = _per_axis(values, axes, pts)
    grid = tuple(len(p) for p in pts)
    want = cell_reference.multilinear(values, axes, np.stack(np.meshgrid(*pts, indexing="ij"), axis=-1).reshape(-1, dim))
    assert got.shape == grid + trailing
    got = got.reshape(want.shape)
    if dim == 1:
        assert np.array_equal(_bits(got), _bits(want))
    else:
        assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want))
    # on the table's nodes the interpolant is the nodes' values
    np.testing.assert_allclose(_per_axis(values, axes, axes), values, rtol=0, atol=1e-14)
    for k, a in enumerate(axes):
        for outside in (a[-1] + 0.01, a[0] - 0.01):
            with pytest.raises(cell.TableCoverage, match="tabulated range"):
                cell.interpolate_axis(values, a, np.array([a[0], outside]), axis=k)


def _laminate2d_mesh_and_axes():
    """The first fine mesh of the shipped 2D study and the x-axes of its table."""
    sc = cli.load_scenario(os.path.join(os.path.dirname(__file__), "..", "configs", "laminate2d.json"))
    margin = corrector.table_margin(sc.epsilons[0], sc.points_per_period)
    return fem.oscillatory_mesh(sc, sc.epsilons[0]), cell.x_axes_for(sc.domain, margin)


@pytest.mark.parametrize(
    "extents, h",
    [
        (((0.0, 1.0),), 1 / 96),
        (((-0.5, 1.0),), 1 / 12),
        (None, None),  # laminate2d's mesh and table axes
        (((-0.5, 1.0), (0.25, 0.5)), 1 / 12),  # extents off the table nodes
    ],
)
def test_effective_at_gauss_matches_pointwise_multilinear(extents, h):
    if extents is None:
        m, axes = _laminate2d_mesh_and_axes()
    else:
        m = mesh_mod.build_domain_mesh(extents, h)
        axes = cell.x_axes_for(extents, 0.1)
    d = m.dim
    rng = np.random.default_rng(d)
    eff = cell.EffectiveField(axes, rng.uniform(1.0, 2.0, tuple(len(a) for a in axes) + (d, d)))
    got = eff.at_gauss(m)
    q = quadrature(m)
    want = cell_reference.multilinear(eff.tensors, axes, q.points.reshape(-1, d)).reshape(got.shape)
    assert got.shape == q.points.shape[:2] + (d, d)
    if d == 1:
        assert np.array_equal(_bits(got), _bits(want))
    else:
        assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want))


@pytest.mark.parametrize("axis", [0, 1])
def test_effective_at_gauss_off_the_table_raises(axis):
    extents = [(-0.5, 1.0), (0.25, 0.5)]
    axes = cell.x_axes_for(extents, 0.0)
    eff = cell.EffectiveField(axes, np.ones(tuple(len(a) for a in axes) + (2, 2)))
    extents[axis] = (extents[axis][0], extents[axis][1] + 0.25)
    with pytest.raises(cell.TableCoverage, match=f"mesh axis {axis}"):
        eff.at_gauss(mesh_mod.build_domain_mesh(extents, 1 / 12))
