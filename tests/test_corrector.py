from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

import corrector_reference as reference
from oscille import cell, corrector, fem
from oscille.core import BoundarySpec, Scenario, preset_coefficient
from oscille.mesh import GridFunction, MeshMismatch, build_cell_mesh, grid_from_callable
from oscille.norms import lp_norm

SQRT3 = np.sqrt(3.0)


def _scenario(field, eps_list, rho, s=1.0, mu=0.0):
    return Scenario(
        field=field,
        domain=tuple(((0.0, 1.0),) * field.dim),
        bc=BoundarySpec("dirichlet"),
        mu=mu,
        p=2.0,
        s=s,
        s_plus=s,
        epsilons=tuple(eps_list),
        points_per_period=rho,
        interior_margin=0.0,
    )


def _table_for(field, eps, cell_m=128):
    cmesh = build_cell_mesh(cell_m, field.dim)
    margin = corrector.corrector_margin(eps, field.dim) + eps
    axes = cell.x_axes_for(tuple(((0.0, 1.0),) * field.dim), margin)
    return cell.tabulate_cells(field, axes, cmesh)


def _inputs(scenario, eps, u0, table):
    u0_ext, grads = corrector.build_r0(u0, scenario, eps)
    return corrector.CorrectorInputs(u0_ext, grads, table, eps)


def _setup(inputs):
    return corrector.corrector_setup(inputs.table, inputs.mesh, inputs.eps)


def _apply(inputs):
    return corrector.corrector_apply(inputs, _setup(inputs))


def _gradient(inputs):
    return corrector.corrector_gradient(inputs, _setup(inputs))


@pytest.fixture(scope="module")
def sine_setup():
    field = preset_coefficient("Sine1D", [2, 1], 1)
    eps = 1 / 16
    sc = _scenario(field, (1 / 8, 1 / 16, 1 / 32), rho=32)
    table = _table_for(field, 1 / 8)
    mesh = fem.oscillatory_mesh(sc, eps)
    return field, sc, eps, table, mesh


def test_constant_field_gives_zero_corrector():
    field = preset_coefficient("Constant", [2.0], 1)
    sc = _scenario(field, (1 / 8, 1 / 16, 1 / 32), rho=16)
    table = _table_for(field, 1 / 8, cell_m=32)
    for eps in sc.epsilons:
        mesh = fem.oscillatory_mesh(sc, eps)
        u0 = grid_from_callable(mesh, lambda p: np.sin(np.pi * p[:, 0]))
        k = _apply(_inputs(sc, eps, u0, table))
        assert np.max(np.abs(k.values)) <= 1e-10


def test_constant_u0_gives_zero_corrector(sine_setup):
    field, sc, eps, table, mesh = sine_setup
    u0 = grid_from_callable(mesh, lambda p: np.full(p.shape[0], 3.0))
    k = _apply(_inputs(sc, eps, u0, table))
    assert np.max(np.abs(k.values)) <= 1e-12


def test_two_scale_oracle_1d(sine_setup):
    # f chosen so the effective solution is sin(2 pi x); the corrector then
    # equals N(x/eps) times the cube-averaged gradient of u0
    field, sc, eps, table, mesh = sine_setup
    f_fn = lambda p: SQRT3 * (2 * np.pi) ** 2 * np.sin(2 * np.pi * p[:, 0])  # noqa: E731
    eff_sys = fem.assemble(mesh, lambda p: SQRT3 * np.ones(p.shape[0]), sc.mu, sc.bc)
    u0 = fem.solve_resolvent(eff_sys, f_fn)
    k = _apply(_inputs(sc, eps, u0, table))

    # independent oracle: exact N, exact u0' = 2 pi cos(2 pi x), exact cube
    # average of the cosine over [x - eps/2, x + eps/2]
    def n_exact(y):
        def raw(t):
            v, _ = quad(lambda s: SQRT3 / (2 + np.sin(2 * np.pi * s)) - 1.0, 0.0, t, limit=100)
            return v

        mean, _ = quad(raw, 0.0, 1.0, limit=100)
        return np.array([raw(t) for t in np.atleast_1d(y)]) - mean

    x = mesh.node_coords()[:, 0]
    y = x / eps - np.floor(x / eps)
    sinc = np.sin(np.pi * eps) / (np.pi * eps)
    oracle = n_exact(y) * 2 * np.pi * np.cos(2 * np.pi * x) * sinc
    rel = lp_norm(GridFunction(mesh, k.values - oracle), 2.0) / lp_norm(GridFunction(mesh, oracle), 2.0)
    assert rel <= 0.02


def test_linearity_in_f(sine_setup):
    field, sc, eps, table, mesh = sine_setup
    sys_eff = fem.assemble(mesh, lambda p: SQRT3 * np.ones(p.shape[0]), sc.mu, sc.bc)
    f1 = lambda p: np.ones(p.shape[0])  # noqa: E731
    f2 = lambda p: np.sin(np.pi * p[:, 0])  # noqa: E731
    a, b = 2.0, -0.7
    u1 = fem.solve_resolvent(sys_eff, f1)
    u2 = fem.solve_resolvent(sys_eff, f2)
    u12 = fem.solve_resolvent(sys_eff, lambda p: a * f1(p) + b * f2(p))
    k1 = _apply(_inputs(sc, eps, u1, table))
    k2 = _apply(_inputs(sc, eps, u2, table))
    k12 = _apply(_inputs(sc, eps, u12, table))
    combo = a * k1.values + b * k2.values
    scale = np.max(np.abs(combo)) + 1e-30
    assert np.max(np.abs(k12.values - combo)) / scale <= 1e-8


def test_gradient_split_identity(sine_setup):
    field, sc, eps, table, mesh = sine_setup
    sys_eff = fem.assemble(mesh, lambda p: SQRT3 * np.ones(p.shape[0]), sc.mu, sc.bc)
    u0 = fem.solve_resolvent(sys_eff, lambda p: np.ones(p.shape[0]))
    inputs = _inputs(sc, eps, u0, table)
    fused = _gradient(inputs)
    slow, fast = reference.corrector_gradient_parts(inputs)
    for j in range(mesh.dim):
        summed = slow[j].values + fast[j].values
        scale = np.max(np.abs(summed)) + 1e-30
        assert np.max(np.abs(fused[j].values - summed)) / scale <= 1e-6


@pytest.fixture(scope="module")
def lp2d_table():
    field = preset_coefficient("LocallyPeriodic2D", [2, 1, 0.5], 2)
    return field, _table_for(field, 1 / 4, cell_m=16)


def test_gradient_split_identity_2d(lp2d_table):
    field, table = lp2d_table
    sc = _scenario(field, (1 / 4, 1 / 8, 1 / 16), rho=8, mu=-1.0)
    eps = 1 / 8
    mesh = fem.oscillatory_mesh(sc, eps)
    u0 = grid_from_callable(mesh, lambda p: np.sin(np.pi * p[:, 0]) * p[:, 1])
    inputs = _inputs(sc, eps, u0, table)
    fused = _gradient(inputs)
    slow, fast = reference.corrector_gradient_parts(inputs)
    for j in range(2):
        summed = slow[j].values + fast[j].values
        scale = np.max(np.abs(summed)) + 1e-30
        assert np.max(np.abs(fused[j].values - summed)) / scale <= 1e-6


def _entry_scaled(table):
    # every preset is g(x) b(y), whose cell solutions do not depend on x;
    # scaling each entry's columns differently gives the slow d/dx terms data
    cells = [replace(sol, columns=sol.columns * (1.0 + 0.3 * np.sin(0.7 * i))) for i, sol in enumerate(table.cells)]
    return cell.CellTable(table.x_axes, table.cell_mesh, cells)


def _row_scaled(table):
    # one CellSolution object per slow index along x_1, shared by every
    # entry of that row: the table repeats objects, yet N depends on x_1
    n2 = len(table.x_axes[1])
    rows = [replace(table.cells[i * n2], columns=table.cells[i * n2].columns * (1.0 + 0.3 * np.sin(0.7 * i)))
            for i in range(len(table.x_axes[0]))]
    return cell.CellTable(table.x_axes, table.cell_mesh, [rows[e // n2] for e in range(len(table.cells))])


def _assert_matches_reference(inputs):
    setup = _setup(inputs)
    k = corrector.corrector_apply(inputs, setup).values
    k_ref = reference.corrector_apply(inputs).values
    assert np.max(np.abs(k - k_ref)) <= 1e-12 * np.max(np.abs(k_ref))
    dk = corrector.corrector_gradient(inputs, setup)
    slow, fast = reference.corrector_gradient_parts(inputs)
    for j in range(inputs.mesh.dim):
        assert np.max(np.abs(slow[j].values)) > 1e-3  # the slow terms carry data
        dk_ref = slow[j].values + fast[j].values
        assert np.max(np.abs(dk[j].values - dk_ref)) <= 1e-12 * np.max(np.abs(dk_ref))


def test_kernel_matches_reference_loop_1d_mollified():
    field = preset_coefficient("LocallyPeriodic1D", [2, 1, 0.5], 1)
    sc = _scenario(field, (1 / 8, 1 / 16, 1 / 32), rho=32, s=0.5, mu=-1.0)
    eps = 1 / 16
    mesh = fem.oscillatory_mesh(sc, eps)
    u0 = grid_from_callable(mesh, lambda p: np.sin(np.pi * p[:, 0]))
    inputs = _inputs(sc, eps, u0, _entry_scaled(_table_for(field, 1 / 8, cell_m=64)))
    assert inputs.grads[0].pad[0] < inputs.u0_ext.pad[0] - 1  # mollified pads
    _assert_matches_reference(inputs)


def test_kernel_matches_reference_loop_2d(lp2d_table):
    field, table = lp2d_table
    sc = _scenario(field, (1 / 4, 1 / 8, 1 / 16), rho=8, mu=-1.0)
    eps = 1 / 8
    mesh = fem.oscillatory_mesh(sc, eps)
    u0 = grid_from_callable(mesh, lambda p: np.sin(np.pi * p[:, 0]) * p[:, 1])
    _assert_matches_reference(_inputs(sc, eps, u0, _entry_scaled(table)))


def test_kernel_matches_reference_loop_2d_shared_cells(lp2d_table):
    field, table = lp2d_table
    sc = _scenario(field, (1 / 4, 1 / 8, 1 / 16), rho=8, mu=-1.0)
    eps = 1 / 8
    mesh = fem.oscillatory_mesh(sc, eps)
    u0 = grid_from_callable(mesh, lambda p: np.sin(np.pi * p[:, 0]) * p[:, 1])
    table = _row_scaled(table)
    assert len({id(sol) for sol in table.cells}) == len(table.x_axes[0]) < len(table.cells)
    _assert_matches_reference(_inputs(sc, eps, u0, table))


def test_setup_for_another_mesh_eps_or_table_raises(sine_setup):
    field, sc, eps, table, mesh = sine_setup
    inputs = _inputs(sc, eps, grid_from_callable(mesh, lambda p: np.sin(np.pi * p[:, 0])), table)
    coarse = fem.oscillatory_mesh(sc, 1 / 8)
    for other in (
        corrector.corrector_setup(table, mesh, 1 / 8),
        corrector.corrector_setup(table, coarse, eps),
        corrector.corrector_setup(_entry_scaled(table), mesh, eps),
    ):
        with pytest.raises(MeshMismatch):
            corrector.corrector_apply(inputs, other)
        with pytest.raises(MeshMismatch):
            corrector.corrector_gradient(inputs, other)


def test_window_outside_table_raises(sine_setup):
    field, sc, eps, _, mesh = sine_setup
    narrow = cell.tabulate_cells(field, cell.x_axes_for(((0.0, 1.0),), 0.0), build_cell_mesh(16, 1))
    with pytest.raises(cell.TableCoverage, match="tabulated range"):
        corrector.corrector_setup(narrow, mesh, eps)


def test_window_outside_gradient_grid_raises(sine_setup):
    field, sc, eps, table, mesh = sine_setup
    u0 = grid_from_callable(mesh, lambda p: np.sin(np.pi * p[:, 0]))
    # gradient fields extended for a window of one fine cell only
    u0_ext, grads = corrector.build_r0(u0, sc, mesh.h[0])
    inputs = corrector.CorrectorInputs(u0_ext, grads, table, eps)
    with pytest.raises(cell.TableCoverage, match="gradient grid"):
        _apply(inputs)
    with pytest.raises(cell.TableCoverage, match="gradient grid"):
        _gradient(inputs)


def test_first_order_examples(sine_setup):
    field, sc, eps, table, mesh = sine_setup
    u0 = grid_from_callable(mesh, lambda p: np.sin(np.pi * p[:, 0]))
    zero = GridFunction(mesh, np.zeros(mesh.n_nodes))
    np.testing.assert_array_equal(corrector.first_order(u0, zero, eps).values, u0.values)
    k = grid_from_callable(mesh, lambda p: p[:, 0])
    np.testing.assert_array_equal(corrector.first_order(u0, k, 0.0).values, u0.values)
    from oscille.mesh import build_domain_mesh

    other = grid_from_callable(build_domain_mesh(((0.0, 1.0),), 0.5), lambda p: p[:, 0])
    with pytest.raises(MeshMismatch):
        corrector.first_order(u0, other, eps)


def test_corrector_norm_check_zero(sine_setup):
    field, sc, eps, table, mesh = sine_setup
    zero = GridFunction(mesh, np.zeros(mesh.n_nodes))
    ratio = corrector.corrector_norm_check(zero, [zero], 1.0, eps, 2.0)
    assert ratio == 0.0


def _lacunary(x):
    # partial Weierstrass sum: a profile with the 3/2-regularity saturated
    # at every scale, so the delta^(1/2) mollification rate is sharp
    out = np.zeros_like(x)
    for k in range(2, 9):
        out += 2.0 ** (-1.5 * k) * np.cos(2 * np.pi * 2**k * x)
    return out


def test_mollified_gradient_path_s_half():
    # s < 1 activates mollification with delta = eps; on a saturating
    # profile the regularized gradient defect shrinks like delta^(1/2)
    field = preset_coefficient("Sine1D", [2, 1], 1)
    diffs = []
    for eps in (1 / 16, 1 / 32):
        sc = _scenario(field, (1 / 8, eps, eps / 2), rho=64, s=0.5)
        mesh = fem.oscillatory_mesh(sc, eps)
        u0 = grid_from_callable(mesh, lambda p: _lacunary(p[:, 0]))
        u0_ext, grads = corrector.build_r0(u0, sc, eps)
        assert grads[0].pad[0] < u0_ext.pad[0] - 1  # mollification consumed padding
        # compare the mollified gradient against the raw central difference
        sc1 = _scenario(field, (1 / 8, eps, eps / 2), rho=64, s=1.0)
        _, grads_raw = corrector.build_r0(u0, sc1, eps)
        d = grads[0].source_block().ravel() - grads_raw[0].source_block().ravel()
        h = mesh.h[0]
        diffs.append(np.sqrt(np.sum(d**2) * h))
    factor = diffs[0] / diffs[1]
    assert 1.2 <= factor <= 1.6


def test_build_r0_s1_keeps_gradient_unmollified(sine_setup):
    field, sc, eps, table, mesh = sine_setup
    u0 = grid_from_callable(mesh, lambda p: p[:, 0] * (1 - p[:, 0]))
    u0_ext, grads = corrector.build_r0(u0, sc, eps)
    assert grads[0].pad[0] == u0_ext.pad[0] - 1  # only the difference stencil
    # interior nodes carry the exact central difference; the two face nodes
    # see the curvature jump of the reflected extension, an O(h) effect
    x = mesh.node_coords()[:, 0]
    got = grads[0].source_block().ravel()
    h = mesh.h[0]
    np.testing.assert_allclose(got[1:-1], (1 - 2 * x)[1:-1], atol=1e-10)
    assert abs(got[0] - 1.0) <= 3 * h + 1e-12
    assert abs(got[-1] + 1.0) <= 3 * h + 1e-12


def test_table_spacing_halving_changes_little():
    # halving the slow-variable table spacing moves the measured
    # first-order gradient error by well under 10 percent
    from oscille.norms import w1p_seminorm

    field = preset_coefficient("LocallyPeriodic1D", [2, 1, 0.5], 1)
    eps = 1 / 16
    sc = _scenario(field, (1 / 8, 1 / 16, 1 / 32), rho=32, mu=-1.0)
    mesh = fem.oscillatory_mesh(sc, eps)
    f_fn = lambda p: np.ones(p.shape[0])  # noqa: E731
    from oscille.core import tau_eps

    u_eps = fem.solve_resolvent(
        fem.assemble(mesh, lambda p: tau_eps(field, eps, p), sc.mu, sc.bc), f_fn
    )
    errs = []
    for spacing in (1 / 16, 1 / 32):
        cmesh = build_cell_mesh(128, 1)
        margin = corrector.corrector_margin(eps, 1) + eps
        axes = cell.x_axes_for(((0.0, 1.0),), margin, spacing=spacing)
        eff, table = cell.tabulate_effective(field, axes, cmesh)
        sys_eff = fem.assemble(mesh, lambda p: eff.tensor_at(p), sc.mu, sc.bc)
        u0 = fem.solve_resolvent(sys_eff, f_fn)
        k = _apply(_inputs(sc, eps, u0, table))
        uo1 = corrector.first_order(u0, k, eps)
        errs.append(w1p_seminorm(GridFunction(mesh, u_eps.values - uo1.values), 2.0))
    assert abs(errs[0] - errs[1]) / errs[1] <= 0.10


def test_corrector_q_norm_bounded():
    # with s = 1 the embedding-exponent bound says ||K||_q / ||f||_p stays
    # bounded for q between p and the embedding limit; probe q = 4, p = 2
    field = preset_coefficient("Sine1D", [2, 1], 1)
    sc = _scenario(field, (1 / 8, 1 / 16, 1 / 32), rho=32)
    table = _table_for(field, 1 / 8)
    ratios = []
    for eps in sc.epsilons:
        mesh = fem.oscillatory_mesh(sc, eps)
        sys_eff = fem.assemble(mesh, lambda p: SQRT3 * np.ones(p.shape[0]), sc.mu, sc.bc)
        u0 = fem.solve_resolvent(sys_eff, lambda p: np.ones(p.shape[0]))
        k = _apply(_inputs(sc, eps, u0, table))
        f_norm = lp_norm(grid_from_callable(mesh, lambda p: np.ones(p.shape[0])), 2.0)
        ratios.append(lp_norm(k, 4.0) / f_norm)
    assert max(ratios) / min(ratios) <= 1.5
