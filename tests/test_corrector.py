import functools
import json
import os
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

import cell_reference
import corrector_reference as reference
from oscille import cell, corrector, fem, smoothing
from oscille.cli import scenario_from_dict
from oscille.core import BoundarySpec, Scenario, preset_coefficient
from oscille.mesh import GridFunction, MeshMismatch, build_cell_mesh, build_domain_mesh, grid_from_callable
from oscille.norms import lp_norm

SQRT3 = np.sqrt(3.0)
CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def _scenario(field, eps_list, rho, s=1.0, mu=0.0, domain=None):
    return Scenario(
        field=field,
        domain=domain or tuple(((0.0, 1.0),) * field.dim),
        bc=BoundarySpec("dirichlet"),
        mu=mu,
        p=2.0,
        s=s,
        s_plus=s,
        epsilons=tuple(eps_list),
        points_per_period=rho,
        interior_margin=0.0,
    )


def _table_for(sc, cell_m=128):
    """The cell table run_study builds: the corrector's reach at the largest eps."""
    return cell.tabulate_cells(sc.field, _tight_axes(sc), build_cell_mesh(cell_m, sc.field.dim))


def _config(name, rho):
    """A shipped config's scenario at rho points per period."""
    with open(os.path.join(CONFIG_DIR, name), encoding="utf-8") as fh:
        return scenario_from_dict(dict(json.load(fh), points_per_period=rho))


def _solve(system, f):
    return fem.solve_resolvent(system, fem.assemble_load(system.mesh, f))


def _inputs(scenario, eps, u0, table):
    """The corrector setup on u0's mesh, the gradient fields of u0, and the
    table the setup was built from, which the references read."""
    return corrector.corrector_setup(table, u0.mesh, eps), corrector.build_r0(u0, scenario, eps), table


def _apply(inputs):
    return corrector.corrector_apply(*inputs[:2])


def _assert_mollified(scenario, eps, u0, grads):
    # s < 1 extends u0 by the mollifier radius eps more, and mollifying
    # consumes exactly that: the pads are those of the plain gradient,
    # the values are not
    plain = corrector.build_r0(u0, replace(scenario, s=1.0, s_plus=1.0), eps)
    assert [g.pad for g in grads] == [g.pad for g in plain]
    assert not np.allclose(grads[0].base.values, plain[0].base.values)


@pytest.fixture(scope="module")
def sine_setup():
    field = preset_coefficient("Sine1D", [2, 1], 1)
    eps = 1 / 16
    sc = _scenario(field, (1 / 8, 1 / 16, 1 / 32), rho=32)
    table = _table_for(sc)
    mesh = fem.oscillatory_mesh(sc, eps)
    return field, sc, eps, table, mesh


def test_constant_field_gives_zero_corrector():
    field = preset_coefficient("Constant", [2.0], 1)
    sc = _scenario(field, (1 / 8, 1 / 16, 1 / 32), rho=16)
    table = _table_for(sc, cell_m=32)
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
    u0 = _solve(eff_sys, f_fn)
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
    u1 = _solve(sys_eff, f1)
    u2 = _solve(sys_eff, f2)
    u12 = _solve(sys_eff, lambda p: a * f1(p) + b * f2(p))
    k1 = _apply(_inputs(sc, eps, u1, table))
    k2 = _apply(_inputs(sc, eps, u2, table))
    k12 = _apply(_inputs(sc, eps, u12, table))
    combo = a * k1.values + b * k2.values
    scale = np.max(np.abs(combo)) + 1e-30
    assert np.max(np.abs(k12.values - combo)) / scale <= 1e-8


def _assert_norm_check_matches_split_gradient(inputs, f_norm=1.0):
    # the check differentiates the nodal K elementwise; the reference sums
    # the chain-rule parts eps DK = slow + fast at the nodes. The two
    # discretize the same gradient, so the ratios agree to 2 percent
    setup = inputs[0]
    mesh = setup.mesh
    k = _apply(inputs)
    slow, fast = reference.corrector_gradient_parts(*inputs)
    mag = np.sqrt(sum((sl.values + fa.values) ** 2 for sl, fa in zip(slow, fast)))
    dk_norm, k_norm = lp_norm(GridFunction(mesh, mag), 2.0), lp_norm(k, 2.0)
    assert dk_norm > 3.0 * k_norm  # the gradient term dominates the ratio
    expected = (dk_norm + k_norm) / f_norm
    ratio = corrector.corrector_norm_check(k, f_norm, setup.eps, 2.0)
    assert abs(ratio - expected) <= 0.02 * expected


def test_gradient_split_identity(sine_setup):
    field, sc, eps, table, mesh = sine_setup
    sys_eff = fem.assemble(mesh, lambda p: SQRT3 * np.ones(p.shape[0]), sc.mu, sc.bc)
    u0 = _solve(sys_eff, lambda p: np.ones(p.shape[0]))
    _assert_norm_check_matches_split_gradient(_inputs(sc, eps, u0, table), f_norm=2.0)


@pytest.fixture(scope="module")
def lp2d_table():
    field = preset_coefficient("LocallyPeriodic2D", [2, 1, 0.5], 2)
    return field, _table_for(_scenario(field, (1 / 4, 1 / 8, 1 / 16), rho=8), cell_m=32)


def test_gradient_split_identity_2d(lp2d_table):
    field, table = lp2d_table
    sc = _scenario(field, (1 / 4, 1 / 8, 1 / 16), rho=8, mu=-1.0)
    eps = 1 / 8
    mesh = fem.oscillatory_mesh(sc, eps)
    u0 = grid_from_callable(mesh, lambda p: np.sin(np.pi * p[:, 0]) * p[:, 1])
    _assert_norm_check_matches_split_gradient(_inputs(sc, eps, u0, table))


def _entry_scaled(table):
    # every preset is g(x) b(y), whose cell solutions do not depend on x
    # (the table holds one solve for all its entries); giving each entry
    # its own differently scaled columns gives the slow d/dx terms data
    columns = [table.columns[c] * (1.0 + 0.3 * np.sin(0.7 * i)) for i, c in enumerate(table.cells)]
    return cell.CellTable(table.x_axes, table.cell_mesh, columns, np.arange(len(columns)), table.tensors)


def _row_scaled(table):
    # one solve per slow index along x_1, indexed by every entry of that
    # row: the table repeats solves, yet N depends on x_1
    n2 = len(table.x_axes[1])
    columns = [table.columns[table.cells[i * n2]] * (1.0 + 0.3 * np.sin(0.7 * i)) for i in range(len(table.x_axes[0]))]
    return cell.CellTable(table.x_axes, table.cell_mesh, columns, np.arange(len(table.cells)) // n2, table.tensors)


def _solves_per_node(setup):
    """How many solves' boxes hold each node: the solves its window reaches."""
    count = np.zeros(setup.mesh.nodes_per_axis, dtype=int)
    for box in setup.boxes:
        count[tuple(slice(lo, hi) for lo, hi in box)] += 1
    return count


def _assert_matches_reference(inputs):
    k = _apply(inputs).values
    k_ref = reference.corrector_apply(*inputs).values
    assert np.max(np.abs(k - k_ref)) <= 1e-12 * np.max(np.abs(k_ref))


def _mollified_1d_inputs():
    field = preset_coefficient("LocallyPeriodic1D", [2, 1, 0.5], 1)
    sc = _scenario(field, (1 / 8, 1 / 16, 1 / 32), rho=32, s=0.5, mu=-1.0)
    eps = 1 / 16
    mesh = fem.oscillatory_mesh(sc, eps)
    u0 = grid_from_callable(mesh, lambda p: np.sin(np.pi * p[:, 0]))
    inputs = _inputs(sc, eps, u0, _entry_scaled(_table_for(sc, cell_m=64)))
    _assert_mollified(sc, eps, u0, inputs[1])
    return inputs


def test_kernel_matches_reference_loop_1d_mollified():
    _assert_matches_reference(_mollified_1d_inputs())


@pytest.mark.parametrize("s", [1.0, 0.5])
@pytest.mark.parametrize("rho", [5, 32])
def test_window_kernel_matches_reference_loop_1d_largest_eps(rho, s):
    # at the largest eps each window straddles table nodes, so a node's
    # window reaches the hats of more than two entries, and the
    # entry-scaled columns give each entry its own solve
    field = preset_coefficient("LocallyPeriodic1D", [2, 1, 0.5], 1)
    sc = _scenario(field, (1 / 8, 1 / 16, 1 / 32), rho=rho, s=s, mu=-1.0)
    eps = sc.epsilons[0]
    mesh = fem.oscillatory_mesh(sc, eps)
    u0 = grid_from_callable(mesh, lambda p: np.sin(np.pi * p[:, 0]) + p[:, 0])
    inputs = _inputs(sc, eps, u0, _entry_scaled(_table_for(sc, cell_m=64)))
    assert np.max(_solves_per_node(inputs[0])) > 2
    if s < 1.0:
        _assert_mollified(sc, eps, u0, inputs[1])
    _assert_matches_reference(inputs)


def test_norm_check_matches_reference_gradient_1d_mollified():
    _assert_norm_check_matches_split_gradient(_mollified_1d_inputs())


def test_norm_check_matches_reference_gradient_2d_x_dependent(lp2d_table):
    # scaled entries make N depend on x, so the slow chain-rule terms of
    # the reference carry data
    field, table = lp2d_table
    sc = _scenario(field, (1 / 4, 1 / 8, 1 / 16), rho=12, mu=-1.0)
    eps = 1 / 8
    mesh = fem.oscillatory_mesh(sc, eps)
    u0 = grid_from_callable(mesh, lambda p: np.sin(np.pi * p[:, 0]) * p[:, 1])
    inputs = _inputs(sc, eps, u0, _entry_scaled(table))
    slow, _ = reference.corrector_gradient_parts(*inputs)
    assert all(np.max(np.abs(part.values)) > 1e-3 for part in slow)
    _assert_norm_check_matches_split_gradient(inputs)


def test_corrector_norm_check_closed_form():
    # K = sin(pi x) on [0, 1]: ||K||_2 = 1/sqrt(2) and ||K'||_2 = pi/sqrt(2)
    k = grid_from_callable(build_domain_mesh(((0.0, 1.0),), 1 / 256), lambda p: np.sin(np.pi * p[:, 0]))
    eps, f_norm = 1 / 16, 0.5
    exact = (eps * np.pi + 1.0) / np.sqrt(2.0) / f_norm
    assert abs(corrector.corrector_norm_check(k, f_norm, eps, 2.0) - exact) <= 1e-4 * exact


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
    assert len(table.columns) == 1 and not table.cells.any()  # one solve serves the separable table
    table = _row_scaled(table)
    n_rows = len(table.x_axes[0])
    assert len(table.columns) == len(set(table.cells.tolist())) == n_rows
    assert n_rows < len(table.cells)
    _assert_matches_reference(_inputs(sc, eps, u0, table))


def test_setup_interpolates_each_columns_array_once(lp2d_table, monkeypatch):
    # the separable table's entries differ in A0 but share one solve;
    # per-entry copies of its columns give the same gathered values, one
    # array per solve over that solve's box
    field, table = lp2d_table
    assert len({a0.tobytes() for a0 in table.tensors.reshape(len(table.cells), 2, 2)}) > 1
    copied = cell.CellTable(table.x_axes, table.cell_mesh, [table.columns[c].copy() for c in table.cells],
                            np.arange(len(table.cells)), table.tensors)
    interpolated = []
    interpolate = corrector._interpolate_periodic

    def counting(cols, cell_mesh, y):
        interpolated.append(len(cols))
        return interpolate(cols, cell_mesh, y)

    monkeypatch.setattr(corrector, "_interpolate_periodic", counting)
    sc = _scenario(field, (1 / 4, 1 / 8, 1 / 16), rho=8, mu=-1.0)
    mesh = fem.oscillatory_mesh(sc, 1 / 8)
    shared = corrector.corrector_setup(table, mesh, 1 / 8)
    own = corrector.corrector_setup(copied, mesh, 1 / 8)
    assert interpolated == [1, len(table.cells)]
    # one solve: one whole-grid box, Phi = 1 held as None
    assert shared.boxes == [tuple((0, n) for n in mesh.nodes_per_axis)] and shared.weights == [None]
    # the table reaches as far as the windows at eps = 1/4, so at 1/8 some entries lie out of reach
    assert len(shared.n_at) == 1 and 1 < len(own.n_at) < len(table.cells)
    for box, n_at in zip(own.boxes, own.n_at):
        assert np.array_equal(n_at, shared.n_at[0][(slice(None),) + tuple(slice(lo, hi) for lo, hi in box)])


def test_kernel_matches_reference_loop_2d_mollified_rectangle(lp2d_table):
    # s < 1 sends u0 through the 2D convolution, and unequal node
    # counts give each axis its own operators
    field, table = lp2d_table
    sc = _scenario(field, (1 / 4, 1 / 8, 1 / 16), rho=8, s=0.5, mu=-1.0, domain=((0.0, 1.0), (0.0, 0.5)))
    eps = 1 / 8
    mesh = fem.oscillatory_mesh(sc, eps)
    assert mesh.nodes_per_axis[0] > mesh.nodes_per_axis[1]
    u0 = grid_from_callable(mesh, lambda p: np.sin(np.pi * p[:, 0]) * p[:, 1] * (2.0 - p[:, 1]))
    inputs = _inputs(sc, eps, u0, _entry_scaled(table))
    _assert_mollified(sc, eps, u0, inputs[1])
    _assert_matches_reference(inputs)


def _tight_axes(sc, narrower_by=0.0):
    """The x-grid run_study tabulates: the corrector's reach at the largest eps."""
    return cell.x_axes_for(sc.domain, corrector.table_margin(sc.epsilons[0], sc.points_per_period) - narrower_by)


def _stub_table(x_axes, per_entry=False):
    """A table of zero cell functions on the x-grid: one solve for every
    entry, or one solve per entry."""
    d = len(x_axes)
    cell_mesh = build_cell_mesh(4, d)
    entries = int(np.prod([len(ax) for ax in x_axes]))
    cells = np.arange(entries) if per_entry else np.zeros(entries, dtype=int)
    return cell.CellTable(tuple(x_axes), cell_mesh, [np.zeros((cell_mesh.n_nodes, d))] * (cells[-1] + 1), cells, None)


@pytest.mark.parametrize("config", ["sine1d.json", "mixed1d.json", "laminate2d.json"])
@pytest.mark.parametrize("rho", [1, 2, 3, 5, 12, 32])
def test_table_margin_is_the_reach_at_the_largest_eps(config, rho):
    sc = _config(config, rho)
    eps = sc.epsilons[0]
    mesh = fem.oscillatory_mesh(sc, eps)
    windows = smoothing._window_per_axis(mesh, eps)
    axes = _tight_axes(sc)
    corrector.corrector_setup(_stub_table(axes), mesh, eps)  # no TableCoverage
    for a, ((offs, _), ax) in enumerate(zip(windows, axes)):
        # the first and last slow points the windows reach
        x = mesh.axis_coords(a)
        assert abs(x[0] + mesh.h[a] * offs[0] - ax[0]) <= 1e-12
        assert abs(x[-1] + mesh.h[a] * offs[-1] - ax[-1]) <= 1e-12
    for narrow in (_tight_axes(sc, narrower_by=mesh.h[0]), [ax[1:-1] for ax in axes]):  # one fine cell, one table step
        with pytest.raises(cell.TableCoverage, match="tabulated range"):
            corrector.corrector_setup(_stub_table(narrow), mesh, eps)


@pytest.mark.parametrize("rho", [5, 12])
def test_solve_weights_match_interpolated_indicator(rho):
    # with one solve per entry each solve's weight Phi_c is its entry's hat;
    # scattered onto the window's reach and weighted by per-entry values,
    # the weights sum to the multilinear interpolant of those values there.
    # On laminate2d's largest eps the windows straddle table nodes
    sc = _config("laminate2d.json", rho)
    eps = sc.epsilons[0]
    mesh = fem.oscillatory_mesh(sc, eps)
    windows = smoothing._window_per_axis(mesh, eps)
    axes = _tight_axes(sc)
    table = _stub_table(axes, per_entry=True)
    setup = corrector.corrector_setup(table, mesh, eps)
    assert len(setup.boxes) == len(table.cells)  # every entry's hat lies within reach
    assert np.max(_solves_per_node(setup)) > 4
    values = np.random.default_rng(0).uniform(1.0, 2.0, len(table.cells))
    spans = [offs[-1] - offs[0] for offs, _ in windows]
    summed = np.zeros([n + span for n, span in zip(mesh.nodes_per_axis, spans)])
    for v, box, phi in zip(values, setup.boxes, setup.weights):
        summed[tuple(slice(lo, hi + span) for (lo, hi), span in zip(box, spans))] += v * phi
    reach = [mesh.axis_coords(a)[0] + mesh.h[a] * np.arange(offs[0], n + offs[-1])
             for a, ((offs, _), n) in enumerate(zip(windows, mesh.nodes_per_axis))]
    pts = np.stack(np.meshgrid(*reach, indexing="ij"), axis=-1).reshape(-1, mesh.dim)
    expected = cell_reference.multilinear(values.reshape([len(ax) for ax in axes]), axes, pts)
    np.testing.assert_allclose(summed.ravel(), expected, rtol=0, atol=1e-14)


def _hand_built_hats(x_axis, mesh, axis, offs):
    """The slow hats written entry by entry: 1 - t on each point's table
    cell and t on the next."""
    n = mesh.nodes_per_axis[axis]
    pts = mesh.axis_coords(axis)[0] + mesh.h[axis] * np.arange(offs[0], n + offs[-1])
    idx, t = cell.locate_on_axis(x_axis, pts)
    hats = np.zeros((len(pts), len(x_axis)))
    rows = np.arange(len(pts))
    hats[rows, idx] = 1.0 - t
    hats[rows, idx + 1] = t
    return hats


@pytest.mark.parametrize("config", ["sine1d.json", "mixed1d.json", "laminate2d.json"])
@pytest.mark.parametrize("rho", [5, 12, 32])
def test_solve_boxes_and_weights_are_the_hand_built_hats(config, rho):
    # with one solve per entry, each entry a window reaches has one box: the
    # nodes whose windows meet its hats' nonzero rows; its Phi is the outer
    # product of those hats on the box's reach, bit for bit
    sc = _config(config, rho)
    axes = _tight_axes(sc)
    table = _stub_table(axes, per_entry=True)
    for eps in sc.epsilons[:2]:
        mesh = fem.oscillatory_mesh(sc, eps)
        windows = smoothing._window_per_axis(mesh, eps)
        hats = [_hand_built_hats(ax, mesh, a, offs) for a, ((offs, _), ax) in enumerate(zip(windows, axes))]
        spans = [offs[-1] - offs[0] for offs, _ in windows]
        expected = []
        for entry in np.ndindex(*[len(ax) for ax in axes]):
            box = []
            for h, e, span, n in zip(hats, entry, spans, mesh.nodes_per_axis):
                met = np.concatenate([[0], np.cumsum(h[:, e] != 0)])  # nonzero rows before each row
                nodes = np.flatnonzero(met[span + 1 : span + 1 + n] > met[:n])  # window i reads rows i .. i + span
                if len(nodes):
                    assert np.array_equal(nodes, np.arange(nodes[0], nodes[-1] + 1))
                    box.append((nodes[0], nodes[-1] + 1))
            if len(box) == mesh.dim:
                reach = [h[lo : hi + span, e] for h, e, (lo, hi), span in zip(hats, entry, box, spans)]
                expected.append((tuple(box), functools.reduce(np.multiply.outer, reach)))
        setup = corrector.corrector_setup(table, mesh, eps)
        assert 0 < len(setup.boxes) == len(expected) <= len(table.cells)
        for box, phi, (box_ref, phi_ref) in zip(setup.boxes, setup.weights, expected):
            assert box == box_ref
            assert np.array_equal(phi, phi_ref)


@pytest.mark.parametrize("config", ["sine1d.json", "mixed1d.json", "laminate2d.json"])
@pytest.mark.parametrize("rho", [1, 2, 3, 5, 12, 32])
def test_build_r0_extends_u0_by_the_reach(config, rho):
    # the gradient fields reach one node past the widest window offset, so
    # the chain-rule reference can central-difference them there, and no
    # further; the mollifier (mixed1d, s = 0.5) takes its radius on top
    sc = _config(config, rho)
    eps = sc.epsilons[0]
    mesh = fem.oscillatory_mesh(sc, eps)
    grads = corrector.build_r0(grid_from_callable(mesh, lambda p: np.sum(p, axis=1)), sc, eps)
    for a, (offs, _) in enumerate(smoothing._window_per_axis(mesh, eps)):
        assert all(g.pad[a] == offs[-1] + 1 for g in grads)


@pytest.mark.parametrize(
    "preset, params, dim, rho, cell_m",
    [("Sine1D", [2, 1], 1, 32, 64), ("LocallyPeriodic2D", [2, 1, 0.5], 2, 12, 16)],
)
def test_kernel_matches_reference_loop_at_the_table_edge(preset, params, dim, rho, cell_m):
    # on the tight table at the largest eps the last window point sits on
    # the last table node, whose cell is the table's last; at rho = 12 fine
    # nodes also sit on table nodes, where rounding picks the cell
    field = preset_coefficient(preset, params, dim)
    sc = _scenario(field, (1 / 8, 1 / 16, 1 / 32), rho=rho, mu=-1.0)
    eps = sc.epsilons[0]
    mesh = fem.oscillatory_mesh(sc, eps)
    table = cell.tabulate_cells(field, _tight_axes(sc), build_cell_mesh(cell_m, field.dim))
    for a, ((offs, _), ax) in enumerate(zip(smoothing._window_per_axis(mesh, eps), table.x_axes)):
        assert abs(mesh.axis_coords(a)[-1] + mesh.h[a] * offs[-1] - ax[-1]) <= 1e-12
    u0 = grid_from_callable(mesh, lambda p: np.prod(np.sin(np.pi * p), axis=1) + p[:, -1])
    _assert_matches_reference(_inputs(sc, eps, u0, _entry_scaled(table)))


def test_setup_for_another_mesh_raises(sine_setup):
    # eps and table live only in the setup; the gradient fields carry the
    # mesh they were taken on
    field, sc, eps, table, mesh = sine_setup
    grads = corrector.build_r0(grid_from_callable(mesh, lambda p: np.sin(np.pi * p[:, 0])), sc, eps)
    other = corrector.corrector_setup(table, fem.oscillatory_mesh(sc, 1 / 8), eps)
    with pytest.raises(MeshMismatch):
        corrector.corrector_apply(other, grads)


def test_window_outside_table_raises(sine_setup):
    field, sc, eps, _, mesh = sine_setup
    narrow = cell.tabulate_cells(field, cell.x_axes_for(((0.0, 1.0),), 0.0), build_cell_mesh(16, 1))
    with pytest.raises(cell.TableCoverage, match="tabulated range"):
        corrector.corrector_setup(narrow, mesh, eps)


def test_window_outside_gradient_grid_raises(sine_setup):
    field, sc, eps, table, mesh = sine_setup
    u0 = grid_from_callable(mesh, lambda p: np.sin(np.pi * p[:, 0]))
    # gradient fields extended for a window of one fine cell only
    grads = corrector.build_r0(u0, sc, mesh.h[0])
    with pytest.raises(cell.TableCoverage, match="gradient grid"):
        corrector.corrector_apply(corrector.corrector_setup(table, mesh, eps), grads)


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
    ratio = corrector.corrector_norm_check(zero, 1.0, eps, 2.0)
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
        grads = corrector.build_r0(u0, sc, eps)
        # compare the mollified gradient against the raw central difference
        sc1 = _scenario(field, (1 / 8, eps, eps / 2), rho=64, s=1.0)
        grads_raw = corrector.build_r0(u0, sc1, eps)
        assert grads[0].pad == grads_raw[0].pad  # mollification consumed the extra radius
        d = grads[0].source_block().ravel() - grads_raw[0].source_block().ravel()
        h = mesh.h[0]
        diffs.append(np.sqrt(np.sum(d**2) * h))
    factor = diffs[0] / diffs[1]
    assert 1.2 <= factor <= 1.6


def _differenced_then_mollified(u0, sc, eps):
    """The gradient fields in the order build_r0 once took: central
    differences of the extended u0, cropped, then `mollify` on each."""
    mesh = u0.mesh
    ext = smoothing.extend(u0, corrector.table_margin(eps, sc.points_per_period) + 2.0 * max(mesh.h) + eps)
    vals = ext.base.reshaped()
    pad = tuple(p - 1 for p in ext.pad)
    out = []
    for k in range(mesh.dim):
        g = smoothing._central_diff(vals, ext.mesh.h[k], k)
        g = g[tuple(slice(1, -1) if ax != k else slice(None) for ax in range(mesh.dim))]
        g = smoothing.ExtendedFunction(GridFunction(smoothing._extended_mesh(mesh, pad), g.ravel()), mesh, pad)
        out.append(smoothing.mollify(g, eps))
    return out


@pytest.mark.parametrize("dim", [1, 2])
def test_build_r0_mollifies_u0_once_then_differences(dim, monkeypatch):
    # mollification commutes with central differences, so mollifying u0 once
    # gives the per-component order's fields and pads up to rounding; the 2D
    # case is the rectangle of test_kernel_matches_reference_loop_2d_mollified_rectangle
    if dim == 1:
        field = preset_coefficient("LocallyPeriodic1D", [2, 1, 0.5], 1)
        sc = _scenario(field, (1 / 8, 1 / 16, 1 / 32), rho=32, s=0.5, mu=-1.0)
        eps, fn = 1 / 16, lambda p: np.sin(np.pi * p[:, 0])
    else:
        field = preset_coefficient("LocallyPeriodic2D", [2, 1, 0.5], 2)
        sc = _scenario(field, (1 / 4, 1 / 8, 1 / 16), rho=8, s=0.5, mu=-1.0, domain=((0.0, 1.0), (0.0, 0.5)))
        eps, fn = 1 / 8, lambda p: np.sin(np.pi * p[:, 0]) * p[:, 1] * (2.0 - p[:, 1])
    u0 = grid_from_callable(fem.oscillatory_mesh(sc, eps), fn)
    calls = []
    monkeypatch.setattr(corrector, "mollify", lambda *args: calls.append(args) or smoothing.mollify(*args))
    grads = corrector.build_r0(u0, sc, eps)
    assert len(calls) == 1
    old = _differenced_then_mollified(u0, sc, eps)
    assert [g.pad for g in grads] == [g.pad for g in old]
    for g, o in zip(grads, old):
        scale = np.max(np.abs(o.base.values))
        np.testing.assert_allclose(g.base.values, o.base.values, rtol=0, atol=1e-12 * scale)


def test_build_r0_s1_keeps_gradient_unmollified(sine_setup):
    field, sc, eps, table, mesh = sine_setup
    u0 = grid_from_callable(mesh, lambda p: p[:, 0] * (1 - p[:, 0]))
    grads = corrector.build_r0(u0, sc, eps)
    # the extension's pad less the difference stencil's node, nothing mollified
    u0_ext = smoothing.extend(u0, corrector.table_margin(eps, sc.points_per_period) + 2.0 * mesh.h[0])
    assert grads[0].pad[0] == u0_ext.pad[0] - 1
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

    u_eps = _solve(
        fem.assemble(mesh, lambda p: tau_eps(field, eps, p), sc.mu, sc.bc), f_fn
    )
    errs = []
    for spacing in (1 / 16, 1 / 32):
        cmesh = build_cell_mesh(128, 1)
        margin = corrector.table_margin(eps, sc.points_per_period)
        axes = cell.x_axes_for(((0.0, 1.0),), margin, spacing=spacing)
        eff, table = cell.tabulate_effective(field, axes, cmesh)
        sys_eff = fem.assemble(mesh, eff.at_gauss(mesh), sc.mu, sc.bc)
        u0 = _solve(sys_eff, f_fn)
        k = _apply(_inputs(sc, eps, u0, table))
        uo1 = corrector.first_order(u0, k, eps)
        errs.append(w1p_seminorm(GridFunction(mesh, u_eps.values - uo1.values), 2.0))
    assert abs(errs[0] - errs[1]) / errs[1] <= 0.10


def test_corrector_q_norm_bounded():
    # with s = 1 the embedding-exponent bound says ||K||_q / ||f||_p stays
    # bounded for q between p and the embedding limit; probe q = 4, p = 2
    field = preset_coefficient("Sine1D", [2, 1], 1)
    sc = _scenario(field, (1 / 8, 1 / 16, 1 / 32), rho=32)
    table = _table_for(sc)
    ratios = []
    for eps in sc.epsilons:
        mesh = fem.oscillatory_mesh(sc, eps)
        sys_eff = fem.assemble(mesh, lambda p: SQRT3 * np.ones(p.shape[0]), sc.mu, sc.bc)
        u0 = _solve(sys_eff, lambda p: np.ones(p.shape[0]))
        k = _apply(_inputs(sc, eps, u0, table))
        f_norm = lp_norm(grid_from_callable(mesh, lambda p: np.ones(p.shape[0])), 2.0)
        ratios.append(lp_norm(k, 4.0) / f_norm)
    assert max(ratios) / min(ratios) <= 1.5
