import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid
from scipy.sparse.linalg import spsolve

from oscille import core, fem, linalg
from oscille.mesh import GridFunction, build_domain_mesh, grid_from_callable
from oscille.norms import lp_norm, w1p_norm

ONES = lambda p: np.ones(p.shape[0])  # noqa: E731


def test_hand_assembled_reduced_system():
    m = build_domain_mesh(((0.0, 1.0),), 0.5)
    sys1 = fem.assemble(m, ONES, 0.0, core.BoundarySpec("dirichlet"))
    np.testing.assert_allclose(sys1.matrix.toarray(), [[4.0]], atol=1e-14)
    np.testing.assert_array_equal(sys1.constrained_dofs, [0, 2])


def test_mass_shift_against_dense_oracle():
    # mu = -1 adds the consistent mass matrix; check against dense assembly
    m = build_domain_mesh(((0.0, 1.0),), 1 / 8)
    sys0 = fem.assemble(m, ONES, 0.0, core.BoundarySpec("dirichlet"))
    sys1 = fem.assemble(m, ONES, -1.0, core.BoundarySpec("dirichlet"))
    h = 1 / 8
    diff = sys1.matrix.toarray() - sys0.matrix.toarray()
    n = sys0.matrix.shape[0]
    mass = np.zeros((n, n))
    for i in range(n):
        mass[i, i] = 2 * h / 3
        if i + 1 < n:
            mass[i, i + 1] = mass[i + 1, i] = h / 6
    np.testing.assert_allclose(diff, mass, atol=1e-14)


def test_pure_neumann_singular():
    m = build_domain_mesh(((0.0, 1.0),), 0.5)
    with pytest.raises(fem.SingularOperator):
        fem.assemble(m, ONES, 0.0, core.BoundarySpec("neumann"))


def test_symmetry_defect_small():
    m = build_domain_mesh(((0.0, 1.0), (0.0, 1.0)), 1 / 16)
    field = core.preset_coefficient("SineProduct2D", [2, 1], 2)
    sys2 = fem.assemble(m, lambda p: core.tau_eps(field, 0.25, p), -1.0, core.BoundarySpec("dirichlet"))
    a = sys2.matrix
    assert abs(a - a.T).max() <= 1e-14 * abs(a).max()


def test_resolvent_1d_analytic():
    m = build_domain_mesh(((0.0, 1.0),), 1 / 512)
    s = fem.assemble(m, ONES, -1.0, core.BoundarySpec("dirichlet"))
    u = fem.solve_resolvent(s, lambda p: (4 * np.pi**2 + 1) * np.sin(2 * np.pi * p[:, 0]))
    exact = np.sin(2 * np.pi * m.node_coords()[:, 0])
    assert np.max(np.abs(u.values - exact)) <= 1e-4
    assert u.values[0] == 0.0 and u.values[-1] == 0.0


def test_resolvent_neumann_constant():
    m = build_domain_mesh(((0.0, 1.0),), 1 / 64)
    s = fem.assemble(m, ONES, -1.0, core.BoundarySpec("neumann"))
    u = fem.solve_resolvent(s, lambda p: np.full(p.shape[0], 2.0))
    np.testing.assert_allclose(u.values, 2.0, atol=1e-8)


def test_resolvent_2d_manufactured_rate():
    a0 = np.diag([np.sqrt(3.0), 2.0])

    def sampler(p):
        out = np.empty((p.shape[0], 2, 2))
        out[:] = a0[None]
        return out

    c = (np.sqrt(3.0) + 2.0) * np.pi**2

    def solve(h):
        m = build_domain_mesh(((0.0, 1.0), (0.0, 1.0)), h)
        s = fem.assemble(m, sampler, 0.0, core.BoundarySpec("dirichlet"))
        u = fem.solve_resolvent(s, lambda p: c * np.sin(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1]))
        ex = grid_from_callable(m, lambda p: np.sin(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1]))
        return lp_norm(GridFunction(m, u.values - ex.values), 2.0)

    e1, e2 = solve(1 / 16), solve(1 / 32)
    assert 3.0 <= e1 / e2 <= 5.0  # second order in h


def test_mixed_bc_left_edge_only():
    m = build_domain_mesh(((0.0, 1.0), (0.0, 1.0)), 1 / 4)
    nodes = fem.dirichlet_nodes(m, core.BoundarySpec("mixed", ("left",)))
    pts = m.node_coords()[nodes]
    assert np.all(pts[:, 0] == 0.0)
    assert len(nodes) == 5
    s = fem.assemble(m, ONES, 0.0, core.BoundarySpec("mixed", ("left",)))
    u = fem.solve_resolvent(s, ONES)
    assert np.all(u.values.reshape(5, 5)[0] == 0.0)


def _scenario_1d(eps_list=(1 / 8, 1 / 16, 1 / 32), rho=32, mu=0.0):
    return core.Scenario(
        field=core.preset_coefficient("Sine1D", [2, 1], 1),
        domain=((0.0, 1.0),),
        bc=core.BoundarySpec("dirichlet"),
        mu=mu,
        p=2.0,
        s=1.0,
        s_plus=1.0,
        epsilons=tuple(eps_list),
        points_per_period=rho,
        interior_margin=0.0,
    )


def _oscillatory_oracle_1d(a_fn, eps, f_fn, n_fine=200_001):
    """Closed-form quadrature solution of -(a(x/eps) u')' = f, u(0)=u(1)=0.

    a u' = C - F with F the antiderivative of f; C is fixed by u(1) = 0.
    """
    x = np.linspace(0.0, 1.0, n_fine)
    a = a_fn(x / eps)
    f = f_fn(x)
    big_f = cumulative_trapezoid(f, x, initial=0.0)
    inv_a = 1.0 / a
    c = np.trapezoid(big_f * inv_a, x) / np.trapezoid(inv_a, x)
    du = (c - big_f) * inv_a
    u = cumulative_trapezoid(du, x, initial=0.0)
    return x, u


def test_oscillatory_1d_matches_quadrature_oracle():
    sc = _scenario_1d()
    eps = 1 / 16
    mesh = fem.oscillatory_mesh(sc, eps)
    u = fem.solve_resolvent(fem.assemble(mesh, lambda p: core.tau_eps(sc.field, eps, p), sc.mu, sc.bc), ONES)
    xf, uf = _oscillatory_oracle_1d(lambda y: 2 + np.sin(2 * np.pi * y), eps, lambda x: np.ones_like(x))
    oracle = np.interp(mesh.node_coords()[:, 0], xf, uf)
    rel = lp_norm(GridFunction(mesh, u.values - oracle), 2.0) / lp_norm(GridFunction(mesh, oracle), 2.0)
    assert rel <= 1e-3


def test_oscillatory_constant_field_equals_effective():
    sc = core.Scenario(
        field=core.preset_coefficient("Constant", [2.0], 1),
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
    mesh = fem.oscillatory_mesh(sc, 1 / 8)
    u = fem.solve_resolvent(fem.assemble(mesh, lambda p: core.tau_eps(sc.field, 1 / 8, p), sc.mu, sc.bc), ONES)
    s_eff = fem.assemble(mesh, lambda p: 2.0 * np.ones(p.shape[0]), 0.0, sc.bc)
    u_eff = fem.solve_resolvent(s_eff, ONES)
    np.testing.assert_array_equal(u.values, u_eff.values)


def test_one_cell_oscillatory_vs_dense_oracle():
    # x-independent coefficient sampled at scale eps=1 on a coarse mesh:
    # compare the assembled solve against a dense direct solve
    field = core.preset_coefficient("Sine1D", [2, 1], 1)
    m = build_domain_mesh(((0.0, 1.0),), 1 / 16)
    s = fem.assemble(m, lambda p: core.tau_eps(field, 1.0, p), 0.0, core.BoundarySpec("dirichlet"))
    u = fem.solve_resolvent(s, ONES)
    dense = s.matrix.toarray()
    b = fem.assemble_load(m, ONES)[s.free_dofs]
    x = np.linalg.solve(dense, b)
    np.testing.assert_allclose(u.values[s.free_dofs], x, atol=1e-10)


def test_uniform_stability_across_sweep():
    # ||u||_W12 <= C ||f||_L2 with C independent of eps and h
    sc = _scenario_1d(eps_list=(1 / 8, 1 / 16, 1 / 32, 1 / 64), rho=16)
    ratios = []
    for eps in sc.epsilons:
        mesh = fem.oscillatory_mesh(sc, eps)
        u = fem.solve_resolvent(fem.assemble(mesh, lambda p: core.tau_eps(sc.field, eps, p), sc.mu, sc.bc), ONES)
        ratios.append(w1p_norm(u, 2.0) / 1.0)
    assert max(ratios) / min(ratios) <= 1.5


def test_fem_self_consistency_h_refinement():
    # halving h moves u_eps by much less than the homogenization error
    field = core.preset_coefficient("Sine1D", [2, 1], 1)
    eps = 1 / 8
    errs = {}
    for rho in (16, 32):
        sc = _scenario_1d(eps_list=(1 / 4, 1 / 8, 1 / 16), rho=rho)
        mesh = fem.oscillatory_mesh(sc, eps)
        u = fem.solve_resolvent(fem.assemble(mesh, lambda p: core.tau_eps(sc.field, eps, p), sc.mu, sc.bc), ONES)
        errs[rho] = (u, mesh)
    u16, m16 = errs[16]
    u32, m32 = errs[32]
    # restrict the fine solution to the coarse nodes (nested meshes)
    u32_on_16 = u32.values[::2]
    fem_shift = lp_norm(GridFunction(m16, u16.values - u32_on_16), 2.0)
    # homogenization error at this eps (effective limit = harmonic mean sqrt(3))
    s_eff = fem.assemble(m16, lambda p: np.sqrt(3.0) * np.ones(p.shape[0]), 0.0, core.BoundarySpec("dirichlet"))
    u0 = fem.solve_resolvent(s_eff, ONES)
    homog = lp_norm(GridFunction(m16, u16.values - u0.values), 2.0)
    assert fem_shift <= 0.25 * homog


def test_oscillatory_mesh_alignment_error():
    sc_bad = _scenario_1d(eps_list=(0.21, 0.11, 0.07), rho=10)
    with pytest.raises(core.ConfigError):
        fem.oscillatory_mesh(sc_bad, 0.21)  # h does not divide the domain


def test_quadrature_failure_propagates():
    m = build_domain_mesh(((0.0, 1.0),), 0.25)

    def bad(p):
        raise RuntimeError("boom")

    with pytest.raises(fem.QuadratureFailure):
        fem.assemble(m, bad, 0.0, core.BoundarySpec("dirichlet"))


def test_fem_self_consistency_2d_single_eps():
    # 2D spot check of the h-refinement guard at the coarsest sweep point
    field = core.preset_coefficient("LocallyPeriodic2D", [2, 1, 0.5], 2)

    def scen(rho):
        return core.Scenario(
            field=field,
            domain=((0.0, 1.0), (0.0, 1.0)),
            bc=core.BoundarySpec("dirichlet"),
            mu=-1.0,
            p=2.0,
            s=1.0,
            s_plus=1.0,
            epsilons=(1 / 8, 1 / 16, 1 / 32),
            points_per_period=rho,
            interior_margin=0.0,
        )

    eps = 1 / 8
    load = lambda p: np.sin(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1])  # noqa: E731
    solved = []
    for sc in (scen(12), scen(24)):
        mesh = fem.oscillatory_mesh(sc, eps)
        system = fem.assemble(mesh, lambda p: core.tau_eps(sc.field, eps, p), sc.mu, sc.bc)
        solved += [fem.solve_resolvent(system, load), mesh]
    u12, m12, u24, m24 = solved
    u24_on_12 = u24.values.reshape(m24.nodes_per_axis)[::2, ::2].ravel()
    fem_shift = lp_norm(GridFunction(m12, u12.values - u24_on_12), 2.0)
    # effective reference on the same mesh: (1 + x1/2) diag(sqrt(3), 2)
    def eff_sampler(p):
        out = np.zeros((p.shape[0], 2, 2))
        g = 1.0 + 0.5 * p[:, 0]
        out[:, 0, 0] = g * np.sqrt(3.0)
        out[:, 1, 1] = g * 2.0
        return out

    s_eff = fem.assemble(m12, eff_sampler, -1.0, core.BoundarySpec("dirichlet"))
    u0 = fem.solve_resolvent(s_eff, load)
    homog = lp_norm(GridFunction(m12, u12.values - u0.values), 2.0)
    assert fem_shift <= 0.25 * homog


@pytest.mark.parametrize(
    "edges, mu",
    [
        (("left", "right", "bottom", "top"), 0.0),
        ((), -1.5),
        (("left", "top"), 0.0),
        (("bottom", "right", "top"), -0.5),
        (("right", "bottom"), -1.0),
    ],
)
def test_fast_diagonalization_is_the_constant_coefficient_operator(edges, mu):
    # non-square box: n1 != n2 and h1 != h2, so swapped axes would show;
    # the cases put Dirichlet-Dirichlet, natural-natural, Dirichlet-natural
    # and natural-Dirichlet ends on each axis
    m = build_domain_mesh(((0.0, 1.0), (0.0, 0.75)), 0.1)
    assert m.nodes_per_axis == (11, 9) and m.h[0] != m.h[1]
    if len(edges) == 4:
        bc = core.BoundarySpec("dirichlet")
    elif edges:
        bc = core.BoundarySpec("mixed", edges)
    else:
        bc = core.BoundarySpec("neumann")
    s = fem.assemble(m, lambda p: np.full(p.shape[0], 2.5), mu, bc)
    pre = s.preconditioner
    assert pre.kappa == 1.0
    a = s.matrix.toarray()
    inverse = np.column_stack([pre(a[:, i]) for i in range(a.shape[1])])
    np.testing.assert_allclose(inverse, np.eye(a.shape[0]), rtol=0, atol=1e-12)


def test_coefficient_bounds_closed_form():
    rng = np.random.default_rng(1)
    b = rng.standard_normal((5, 4, 2, 2))
    samples = b @ np.swapaxes(b, -1, -2) + 0.1 * np.eye(2)
    eig = np.linalg.eigvalsh(samples)
    lo, hi = fem._coefficient_bounds(samples)
    assert lo == pytest.approx(eig.min(), rel=1e-12)
    assert hi == pytest.approx(eig.max(), rel=1e-12)
    assert fem._coefficient_bounds(np.array([[2.0, 3.0], [0.5, 1.0]])) == (0.5, 3.0)


@pytest.mark.parametrize(
    "sampler",
    [
        lambda p: p[:, 0] - 0.5,  # changes sign
        lambda p: np.full(p.shape[0], 1e-320) + (p[:, 0] > 0.5),  # hi/lo overflows
        lambda p: np.broadcast_to(np.diag([1.0, -1.0]), (p.shape[0], 2, 2)),  # indefinite
    ],
)
def test_preconditioner_rejects_non_elliptic_coefficient(sampler):
    m = build_domain_mesh(((0.0, 1.0), (0.0, 1.0)), 1 / 4)
    with pytest.raises(linalg.SingularSystem, match="not uniformly positive"):
        fem.assemble(m, sampler, -1.0, core.BoundarySpec("dirichlet"))


def test_elongated_strip_under_node_cap_solves(monkeypatch):
    # a 41 x 3 strip fits a cap of 1000 nodes; the preconditioner keeps no
    # per-axis factor, so the long axis needs no room of its own
    monkeypatch.setenv("OSCILLE_NODE_CAP", "1000")
    strip = build_domain_mesh(((0.0, 1.0), (0.0, 0.05)), (1 + 1e-12) / 40)
    assert strip.nodes_per_axis == (41, 3)
    s = fem.assemble(strip, lambda p: 1.0 + p[:, 0], -1.0, core.BoundarySpec("neumann"))
    load = lambda p: np.cos(np.pi * p[:, 0]) + p[:, 1]  # noqa: E731
    u = fem.solve_resolvent(s, load)
    exact = spsolve(s.matrix.tocsc(), fem.assemble_load(strip, load)[s.free_dofs])
    np.testing.assert_allclose(u.values[s.free_dofs], exact, rtol=0, atol=1e-9 * np.abs(exact).max())


def test_few_free_dofs_solve():
    # all-Dirichlet meshes with 0 and 1 free dofs; with none, PCG returns before any transform
    unit = ((0.0, 1.0), (0.0, 1.0))
    for h, free, centre in ((1.0, 0, None), (0.5, 1, 0.09)):
        m = build_domain_mesh(unit, h * (1 + 1e-12))
        s = fem.assemble(m, ONES, -1.0, core.BoundarySpec("dirichlet"))
        assert s.free_dofs.size == free
        u = fem.solve_resolvent(s, ONES)
        if centre is None:
            np.testing.assert_array_equal(u.values, 0.0)
        else:
            # (8/3 + 4 h^2/9) u = h^2 at the centre node
            assert u.values[4] == pytest.approx(centre, rel=1e-12)
            assert np.count_nonzero(u.values) == 1


def test_fast_diagonalization_iterations_do_not_grow_with_h():
    field = core.preset_coefficient("LocallyPeriodic2D", [2, 1, 0.5], 2)
    rho, tol = 12, linalg.DEFAULT_TOL
    load = lambda p: np.sin(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1])  # noqa: E731
    iterations = []
    for n in (96, 192, 384):
        eps = rho / n
        m = build_domain_mesh(((0.0, 1.0), (0.0, 1.0)), (1 + 1e-12) / n)
        s = fem.assemble(m, lambda p: core.tau_eps(field, eps, p), -1.0, core.BoundarySpec("dirichlet"))
        b = fem.assemble_load(m, load)[s.free_dofs]
        pre = s.preconditioner
        x, stats = linalg.solve_spd(s.matrix, b, tol=tol, max_iter=pre.max_iter(tol), preconditioner=pre)
        assert np.linalg.norm(b - s.matrix @ x) <= tol * np.linalg.norm(b)
        x_jacobi, _ = linalg.solve_spd(s.matrix, b, tol=tol)
        assert np.linalg.norm(x - x_jacobi) <= 1e-9 * np.linalg.norm(x_jacobi)
        np.testing.assert_array_equal(fem.solve_resolvent(s, load).values[s.free_dofs], x)
        iterations.append(stats.iterations)
    # on coarser meshes the Gauss samples span less of the coefficient's
    # range (kappa 3.3, 3.8 and 17, 21 iterations at h = 1/24, 1/48); from
    # h = 1/96 on kappa is 4.1-4.4 and the count settles (24, 25, 26 here)
    assert max(iterations) <= 30
    assert max(iterations) - min(iterations) <= 3


@pytest.mark.parametrize("tol", [0.0, np.nan])
def test_2d_resolvent_rejects_tol_before_sizing_iterations(tol):
    # the iteration cap takes log(2 / tol), which a zero tol divides by
    s = fem.assemble(build_domain_mesh(((0.0, 1.0),) * 2, 1 / 8), ONES, -1.0, core.BoundarySpec("dirichlet"))
    with pytest.raises(core.ConfigError, match="tol must lie in"):
        fem.solve_resolvent(s, ONES, tol=tol)
