import itertools
import os
import re
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.integrate import cumulative_trapezoid
from scipy.sparse.linalg import spsolve

import fem_reference
from oscille import cell, cli, core, corrector, fem, linalg, study
from oscille import mesh as mesh_mod
from oscille.mesh import GridFunction, MeshMismatch, build_cell_mesh, build_domain_mesh, grid_from_callable
from oscille.norms import lp_norm, w1p_norm

ONES = lambda p: np.ones(p.shape[0])  # noqa: E731


def _solve(system, f):
    """The resolvent solve of load f, assembled on the system's mesh as the study does."""
    return fem.solve_resolvent(system, fem.assemble_load(system.mesh, f))


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
    u = _solve(s, lambda p: (4 * np.pi**2 + 1) * np.sin(2 * np.pi * p[:, 0]))
    exact = np.sin(2 * np.pi * m.node_coords()[:, 0])
    assert np.max(np.abs(u.values - exact)) <= 1e-4
    assert u.values[0] == 0.0 and u.values[-1] == 0.0


def test_resolvent_neumann_constant():
    m = build_domain_mesh(((0.0, 1.0),), 1 / 64)
    s = fem.assemble(m, ONES, -1.0, core.BoundarySpec("neumann"))
    u = _solve(s, lambda p: np.full(p.shape[0], 2.0))
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
        u = _solve(s, lambda p: c * np.sin(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1]))
        ex = grid_from_callable(m, lambda p: np.sin(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1]))
        return lp_norm(GridFunction(m, u.values - ex.values), 2.0)

    e1, e2 = solve(1 / 16), solve(1 / 32)
    assert 3.0 <= e1 / e2 <= 5.0  # second order in h


def test_mixed_bc_left_edge_only():
    m = build_domain_mesh(((0.0, 1.0), (0.0, 1.0)), 1 / 4)
    s = fem.assemble(m, ONES, 0.0, core.BoundarySpec("mixed", ("left",)))
    pts = m.node_coords()[s.constrained_dofs]
    assert np.all(pts[:, 0] == 0.0)
    assert len(s.constrained_dofs) == 5
    u = _solve(s, ONES)
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
    u = _solve(fem.assemble(mesh, lambda p: core.tau_eps(sc.field, eps, p), sc.mu, sc.bc), ONES)
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
    u = _solve(fem.assemble(mesh, lambda p: core.tau_eps(sc.field, 1 / 8, p), sc.mu, sc.bc), ONES)
    s_eff = fem.assemble(mesh, lambda p: 2.0 * np.ones(p.shape[0]), 0.0, sc.bc)
    u_eff = _solve(s_eff, ONES)
    np.testing.assert_array_equal(u.values, u_eff.values)


def test_one_cell_oscillatory_vs_dense_oracle():
    # x-independent coefficient sampled at scale eps=1 on a coarse mesh:
    # compare the assembled solve against a dense direct solve
    field = core.preset_coefficient("Sine1D", [2, 1], 1)
    m = build_domain_mesh(((0.0, 1.0),), 1 / 16)
    s = fem.assemble(m, lambda p: core.tau_eps(field, 1.0, p), 0.0, core.BoundarySpec("dirichlet"))
    u = _solve(s, ONES)
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
        u = _solve(fem.assemble(mesh, lambda p: core.tau_eps(sc.field, eps, p), sc.mu, sc.bc), ONES)
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
        u = _solve(fem.assemble(mesh, lambda p: core.tau_eps(sc.field, eps, p), sc.mu, sc.bc), ONES)
        errs[rho] = (u, mesh)
    u16, m16 = errs[16]
    u32, m32 = errs[32]
    # restrict the fine solution to the coarse nodes (nested meshes)
    u32_on_16 = u32.values[::2]
    fem_shift = lp_norm(GridFunction(m16, u16.values - u32_on_16), 2.0)
    # homogenization error at this eps (effective limit = harmonic mean sqrt(3))
    s_eff = fem.assemble(m16, lambda p: np.sqrt(3.0) * np.ones(p.shape[0]), 0.0, core.BoundarySpec("dirichlet"))
    u0 = _solve(s_eff, ONES)
    homog = lp_norm(GridFunction(m16, u16.values - u0.values), 2.0)
    assert fem_shift <= 0.25 * homog


def test_oscillatory_mesh_alignment_error():
    sc_bad = _scenario_1d(eps_list=(0.21, 0.11, 0.07), rho=10)
    with pytest.raises(core.ConfigError):
        fem.oscillatory_mesh(sc_bad, 0.21)  # h does not divide the domain


def test_oscillatory_mesh_node_cap(monkeypatch):
    # sine1d has 32 points per period, so eps = 1/8 needs 257 nodes and 1/16 needs 513
    sc = cli.load_scenario(os.path.join(os.path.dirname(__file__), "..", "configs", "sine1d.json"))
    monkeypatch.setenv("OSCILLE_NODE_CAP", "300")
    assert fem.oscillatory_mesh(sc, 1 / 8).n_nodes == 257
    with pytest.raises(mesh_mod.ExcessiveSize, match=r"^mesh would have 513 nodes, cap is 300$"):
        fem.oscillatory_mesh(sc, 1 / 16)


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
        solved += [_solve(system, load), mesh]
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
    u0 = _solve(s_eff, load)
    homog = lp_norm(GridFunction(m12, u12.values - u0.values), 2.0)
    assert fem_shift <= 0.25 * homog


BC_CASES = [
    (("left", "right", "bottom", "top"), 0.0),
    ((), -1.5),
    (("left", "top"), 0.0),
    (("bottom", "right", "top"), -0.5),
    (("right", "bottom"), -1.0),
]


def _box_system(edges, mu, sampler):
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
    return fem.assemble(m, sampler, mu, bc)


def _preconditioned(s):
    """P^-1 A of an assembled 2D system as a dense matrix, one apply per column of A."""
    return np.column_stack([s.preconditioner(col) for col in s.matrix.toarray().T])


def _x1_only_tensor(p):
    a = np.zeros((p.shape[0], 2, 2))
    a[:, 0, 0] = 1.0 + p[:, 0]
    a[:, 1, 1] = 2.0 + np.cos(7.0 * p[:, 0])
    return a


@pytest.mark.parametrize("edges, mu", BC_CASES)
def test_fast_diagonalization_is_the_constant_coefficient_operator(edges, mu):
    constant = _box_system(edges, mu, lambda p: np.full(p.shape[0], 2.5))
    assert constant.preconditioner.kappa == 1.0
    # a coefficient that varies along x1 only, scalar or a diagonal tensor,
    # is constant on every x1 Gauss line, so P = A there too
    x1_only = (_box_system(edges, mu, sampler) for sampler in (lambda p: 2.0 + np.sin(9.0 * p[:, 0]), _x1_only_tensor))
    for s in (constant, *x1_only):
        assert s.preconditioner.kappa <= 1.0 + 1e-12
        np.testing.assert_allclose(_preconditioned(s), np.eye(s.free_dofs.size), rtol=0, atol=1e-12)


def _random_spd(stretch):
    """SPD samples near diag(stretch, 1), drawn per Gauss point, off-diagonals varying along both axes."""

    def sample(p):
        b = np.random.default_rng(7).standard_normal((p.shape[0], 2, 2))
        a = 0.3 * b @ np.swapaxes(b, -1, -2) + np.diag([stretch, 1.0])
        a[:, 0, 1] += 0.2 * np.sin(5.0 * p[:, 0] + 3.0 * p[:, 1])
        a[:, 1, 0] = a[:, 0, 1]
        return a

    return sample


@pytest.mark.parametrize("edges, mu", BC_CASES)
def test_fast_diagonalization_certificate_holds(edges, mu):
    # cond(P^-1 A) never exceeds the certified kappa, and kappa stays within the
    # global hi/lo but on the _random_spd fields, whose off-diagonals take it above
    scalar = lambda p: np.random.default_rng(3).uniform(0.2, 5.0, p.shape[0])  # noqa: E731
    spd = (_random_spd(1.0), _random_spd(10.0))
    for sampler in (scalar, _rough_sampler(2, False), *spd, _rough_sampler(2, True)):
        s = _box_system(edges, mu, sampler)
        pre = s.preconditioner
        ev = np.linalg.eigvals(_preconditioned(s)).real
        assert ev.min() > 0.0
        assert ev.max() / ev.min() <= pre.kappa * (1.0 + 1e-9)
        if sampler not in spd:
            samples = sampler(mesh_mod.quadrature(s.mesh).points.reshape(-1, 2))
            lo, hi = fem_reference.coefficient_bounds(samples.reshape((-1, 4) + samples.shape[1:]))
            assert pre.kappa <= hi / lo


@pytest.mark.parametrize("edges, mu", BC_CASES)
def test_random_tensor_solves_within_the_certified_count(edges, mu):
    # _random_spd(1)'s kappa lies above its global hi/lo, yet it bounds the
    # solve: PCG meets the tolerance on each study load within max_iter
    s = _box_system(edges, mu, _random_spd(1.0))
    for _, load in study.LOADS:
        f_vec = fem.assemble_load(s.mesh, load)
        b = f_vec[s.free_dofs]
        u = fem.solve_resolvent(s, f_vec)  # NonConvergence past max_iter(DEFAULT_TOL)
        residual = np.linalg.norm(b - s.matrix @ u.values[s.free_dofs])
        assert residual <= linalg.DEFAULT_TOL * np.linalg.norm(b)


def test_coefficient_bounds_closed_form():
    rng = np.random.default_rng(1)
    b = rng.standard_normal((5, 4, 2, 2))
    samples = b @ np.swapaxes(b, -1, -2) + 0.1 * np.eye(2)
    eig = np.linalg.eigvalsh(samples)
    lo, hi = fem_reference.coefficient_bounds(samples)
    assert lo == pytest.approx(eig.min(), rel=1e-12)
    assert hi == pytest.approx(eig.max(), rel=1e-12)
    # the in-place form the preconditioner uses
    lo, hi = fem._symmetric_eigenvalues(samples[..., 0, 0], samples[..., 1, 1], samples[..., 0, 1] + samples[..., 1, 0])
    assert np.allclose(lo, eig[..., 0], rtol=1e-12, atol=0.0) and np.allclose(hi, eig[..., 1], rtol=1e-12, atol=0.0)
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


def test_preconditioner_rejects_indefinite_mode_system():
    # assemble refuses mu > 0; a shift past the lowest eigenvalue (2 pi^2 here)
    # makes the tridiagonal of the lowest mode indefinite, which dpttrf reports
    m = build_domain_mesh(((0.0, 1.0), (0.0, 1.0)), 1 / 4)
    free_axes = fem._free_axes(m, core.BoundarySpec("dirichlet"))
    with pytest.raises(linalg.SingularSystem, match="mode system is not positive definite"):
        fem._fast_diagonalization(m, free_axes, np.ones((m.n_elements, 4)), 100.0)


def test_elongated_strip_under_node_cap_solves(monkeypatch):
    # a 41 x 3 strip fits a cap of 1000 nodes; the preconditioner keeps one
    # tridiagonal factor entry per free dof and no dense per-axis factor,
    # so the long axis needs no room of its own
    monkeypatch.setenv("OSCILLE_NODE_CAP", "1000")
    strip = build_domain_mesh(((0.0, 1.0), (0.0, 0.05)), (1 + 1e-12) / 40)
    assert strip.nodes_per_axis == (41, 3)
    s = fem.assemble(strip, lambda p: 1.0 + p[:, 0], -1.0, core.BoundarySpec("neumann"))
    load = lambda p: np.cos(np.pi * p[:, 0]) + p[:, 1]  # noqa: E731
    u = _solve(s, load)
    exact = spsolve(s.matrix.tocsc(), fem.assemble_load(strip, load)[s.free_dofs])
    np.testing.assert_allclose(u.values[s.free_dofs], exact, rtol=0, atol=1e-9 * np.abs(exact).max())


def test_few_free_dofs_solve():
    # meshes with 0 and 1 free dofs, 2D all-Dirichlet and 1D Dirichlet or mixed: with none the 2D
    # preconditioner factors nothing and PCG returns before any apply; with one LAPACK factors a
    # 1 x 1 system, a 2D mode or the 1D system, and is passed a coupling it does not read
    dirichlet, unit1, unit2 = core.BoundarySpec("dirichlet"), ((0.0, 1.0),), ((0.0, 1.0), (0.0, 1.0))
    for extents, h, bc, value in (
        (unit2, 1.0, dirichlet, None),
        (unit2, 0.5, dirichlet, 0.09),  # (8/3 + 4 h^2/9) u = h^2 at the centre node
        (unit1, 1.0, dirichlet, None),
        (unit1, 0.5, dirichlet, 1.5 / 13),  # (2/h + 2h/3) u = h at the middle node
        (unit1, 1.0, core.BoundarySpec("mixed", ("left",)), 0.375),  # (1/h + h/3) u = h/2 at the natural end
        (unit1, 1.0, core.BoundarySpec("mixed", ("right",)), 0.375),
    ):
        s = fem.assemble(build_domain_mesh(extents, h * (1 + 1e-12)), ONES, -1.0, bc)
        assert s.free_dofs.size == (value is not None)
        u = _solve(s, ONES)
        assert np.count_nonzero(u.values) == s.free_dofs.size
        if value is not None:
            assert u.values[s.free_dofs[0]] == pytest.approx(value, rel=1e-12)


def test_fast_diagonalization_iterations_do_not_grow_with_h():
    rho, tol = 12, linalg.DEFAULT_TOL
    load = lambda p: np.sin(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1])  # noqa: E731
    iterations = {}
    for preset, params in (("LocallyPeriodic2D", [2, 1, 0.5]), ("SineProduct2D", [2, 1])):
        field = core.preset_coefficient(preset, params, 2)
        for n in (96, 192, 384):
            eps = rho / n
            m = build_domain_mesh(((0.0, 1.0), (0.0, 1.0)), (1 + 1e-12) / n)
            s = fem.assemble(m, lambda p: core.tau_eps(field, eps, p), -1.0, core.BoundarySpec("dirichlet"))
            b = fem.assemble_load(m, load)[s.free_dofs]
            pre = s.preconditioner
            x, stats = linalg.solve_spd(s.matrix, b, tol=tol, max_iter=pre.max_iter(tol), preconditioner=pre)
            assert np.linalg.norm(b - s.matrix @ x) <= tol * np.linalg.norm(b)
            if preset == "SineProduct2D":
                x_jacobi, _ = linalg.solve_spd(s.matrix, b, tol=tol)
                assert np.linalg.norm(x - x_jacobi) <= 1e-9 * np.linalg.norm(x_jacobi)
            np.testing.assert_array_equal(_solve(s, load).values[s.free_dofs], x)
            iterations.setdefault(preset, []).append(stats.iterations)
    # LocallyPeriodic2D varies along x1 only, so the preconditioner is the operator
    assert max(iterations["LocallyPeriodic2D"]) <= 2
    # SineProduct2D varies along both axes (kappa about 2.95); the count
    # settles and does not grow as h shrinks (18-19 here)
    sine = iterations["SineProduct2D"]
    assert max(sine) <= 30
    assert max(sine) - min(sine) <= 3


@pytest.mark.parametrize("dim", [1, 2])
def test_solve_takes_only_the_assembled_load_vector(dim):
    # a callable, a GridFunction, a list and a vector of the wrong shape are refused, not
    # assembled or converted: the study assembles each load once for both of its systems
    m = build_domain_mesh(((0.0, 1.0), (0.0, 0.75))[:dim], 0.25)
    s = fem.assemble(m, ONES, -1.0, core.BoundarySpec("dirichlet"))
    f_vec = fem.assemble_load(m, ONES)
    expected = re.escape(f"a load must be the ({m.n_nodes},) vector fem.assemble_load makes")
    for load in (ONES, GridFunction(m, f_vec), list(f_vec), f_vec[:-1], np.append(f_vec, 0.0), f_vec[:, None]):
        with pytest.raises(MeshMismatch, match=expected):
            fem.solve_resolvent(s, load)
    assert np.count_nonzero(fem.solve_resolvent(s, f_vec).values) == s.free_dofs.size


@pytest.mark.parametrize("tol", [0.0, np.nan])
def test_2d_resolvent_rejects_tol_before_sizing_iterations(tol):
    # the iteration cap takes log(2 / tol), which a zero tol divides by
    s = fem.assemble(build_domain_mesh(((0.0, 1.0),) * 2, 1 / 8), ONES, -1.0, core.BoundarySpec("dirichlet"))
    with pytest.raises(core.ConfigError, match="tol must lie in"):
        fem.solve_resolvent(s, fem.assemble_load(s.mesh, ONES), tol=tol)


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


def _boundary_specs(dim):
    """Dirichlet, Neumann and every mixed edge subset."""
    names = core.EDGE_NAMES_1D if dim == 1 else core.EDGE_NAMES_2D
    yield core.BoundarySpec("dirichlet")
    yield core.BoundarySpec("neumann")
    for r in range(1, len(names)):
        for edges in itertools.combinations(names, r):
            yield core.BoundarySpec("mixed", edges)


def _rough_sampler(dim, tensor):
    """Positive samples that vary from Gauss point to Gauss point, scalar or SPD (d, d)."""

    def sample(p):
        v = np.exp(np.sin(37.0 * p[:, 0]) + np.cos(53.0 * p[:, -1]))
        if not tensor:
            return v
        a = v[:, None, None] * np.eye(dim)
        if dim == 2:
            a[:, 0, 1] = a[:, 1, 0] = 0.5 * v * np.sin(11.0 * p[:, 0])
        return a

    return sample


def _laminate2d_a0():
    """The first fine mesh of the shipped 2D study (eps = 1/8), A0 sampled on it, and the scenario."""
    sc = cli.load_scenario(os.path.join(os.path.dirname(__file__), "..", "configs", "laminate2d.json"))
    margin = corrector.table_margin(sc.epsilons[0], sc.points_per_period)
    cell_mesh = build_cell_mesh(cell.default_cell_m(2), 2)
    eff, _ = cell.tabulate_effective(sc.field, cell.x_axes_for(sc.domain, margin), cell_mesh)
    m = fem.oscillatory_mesh(sc, sc.epsilons[0])
    return m, eff.at_gauss(m), sc


def _isotropic(p):
    return (1.5 + np.sin(4.0 * p[:, 0] + 3.0 * p[:, 1]))[:, None, None] * np.eye(2)


DIAGONAL_SAMPLERS = [  # scalar or diagonal samples; None stands for laminate2d's A0 at eps = 1/8
    lambda p: np.random.default_rng(3).uniform(0.2, 5.0, p.shape[0]),  # scalar
    _x1_only_tensor,  # the laminate case: kappa = 1
    _isotropic,  # a scalar times I, as a tensor
    lambda p: np.exp(10.0 * p[:, 0])[:, None, None] * _x1_only_tensor(p),  # a diagonal spanning over 1e4
    None,
]


@pytest.mark.parametrize(
    "sampler", [*DIAGONAL_SAMPLERS, _random_spd(1.0), _random_spd(10.0), _rough_sampler(2, True)]
)
def test_line_scales_match_the_two_pass_reference(sampler):
    if sampler is None:
        m, a_vals, _ = _laminate2d_a0()
    else:
        m = build_domain_mesh(((0.0, 1.0), (0.0, 0.75)), 1 / 12)
        a_vals = fem_reference.gauss_samples(m, sampler)
    cells1 = m.cells_per_axis[0]
    (lo, hi), alpha, beta = fem._line_scales(a_vals, cells1)
    (ref_lo, ref_hi), ref_alpha, ref_beta = fem_reference.line_scales(a_vals, cells1)
    assert _bits(np.array([lo, hi])).tolist() == _bits(np.array([ref_lo, ref_hi])).tolist()
    assert np.array_equal(_bits(alpha), _bits(ref_alpha)) and np.array_equal(_bits(beta), _bits(ref_beta))
    if sampler in DIAGONAL_SAMPLERS:
        # on each line the extremes of a scalar, or of A11 and A22 of a diagonal
        # tensor, lie inside the eigenvalue extremes, so kappa <= the global hi/lo
        glo, ghi = fem_reference.coefficient_bounds(a_vals)
        assert hi / lo <= ghi / glo


@pytest.mark.parametrize(
    "matrix",
    [
        np.zeros((2, 2)),
        np.diag([-1.0, 2.0]),  # a negative diagonal
        np.diag([1.0, -1.0]),
        np.array([[1.0, 2.0], [2.0, 1.0]]),  # indefinite with a positive diagonal
    ],
)
def test_line_scales_reject_what_the_reference_rejects(matrix):
    # a bad diagonal fails before any root with the reference's message; an
    # indefinite matrix with a positive diagonal fails on D^-1/2 A D^-1/2
    m = build_domain_mesh(((0.0, 1.0), (0.0, 0.75)), 1 / 12)
    a_vals = fem_reference.gauss_samples(m, _x1_only_tensor)
    a_vals[5, 2] = matrix  # one bad Gauss point
    for samples in (a_vals, np.broadcast_to(matrix, a_vals.shape).copy()):
        with pytest.raises(linalg.SingularSystem) as want:
            fem_reference.line_scales(samples, m.cells_per_axis[0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(linalg.SingularSystem) as got:
                fem._line_scales(samples, m.cells_per_axis[0])
        if np.all(np.diag(matrix) > 0.0):
            assert "not uniformly positive" in str(got.value)
        else:
            assert str(got.value) == str(want.value)


def test_tensor_build_takes_one_eigenvalue_pass(monkeypatch):
    # every tensor build forms the eigenvalues of D^-1/2 A D^-1/2 once, the
    # laminate's diagonal A0 and an isotropic tensor alike; a scalar none
    m, a0, sc = _laminate2d_a0()
    eigenvalues, calls = fem._symmetric_eigenvalues, []

    def counted(*args):
        calls.append(args[0].size)
        return eigenvalues(*args)

    monkeypatch.setattr(fem, "_symmetric_eigenvalues", counted)
    fem.assemble(m, a0, sc.mu, sc.bc)
    assert len(calls) == 1
    calls.clear()
    fem.assemble(m, a0[..., :1, :1] * np.eye(2), sc.mu, sc.bc)
    assert len(calls) == 1
    calls.clear()
    fem.assemble(m, a0[..., 0, 0], sc.mu, sc.bc)
    assert not calls


def _assert_csr_equal(got, want):
    assert got.shape == want.shape
    assert got.indptr.dtype == want.indptr.dtype and got.indices.dtype == want.indices.dtype
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert np.array_equal(_bits(got.data), _bits(want.data))


@pytest.mark.parametrize(
    "extents, h",
    [
        (((0.0, 1.0),), 1 / 13),
        (((-0.5, 1.25),), 0.25),
        (((0.0, 1.0),), 1.0),  # 2 nodes
        (((0.0, 1.0), (0.0, 0.75)), 0.1),
        (((-0.5, 1.0), (0.25, 0.5)), 1 / 12),
        (((0.0, 1.0), (0.0, 1.0)), 1.0),  # 2 x 2 nodes; all-Dirichlet leaves no free dof
        (((0.0, 2.0), (0.0, 1.0)), 1.0),
    ],
)
@pytest.mark.parametrize("mu", [0.0, -1.0])
@pytest.mark.parametrize("tensor", [False, True])
def test_assembly_matches_coo_reference(extents, h, mu, tensor):
    m = build_domain_mesh(extents, h)
    sampler = _rough_sampler(m.dim, tensor)
    for bc in _boundary_specs(m.dim):
        if bc.kind == "neumann" and mu == 0.0:
            with pytest.raises(fem.SingularOperator):
                fem.assemble(m, sampler, mu, bc)
            continue
        s = fem.assemble(m, sampler, mu, bc)
        matrix, free, constrained = fem_reference.assemble(m, sampler, mu, bc)
        _assert_csr_equal(s.matrix, matrix)
        assert np.array_equal(s.free_dofs, free)
        assert np.array_equal(s.constrained_dofs, constrained)
        if bc.kind == "dirichlet" and m.n_nodes == 4:
            assert s.matrix.shape == (0, 0)


@pytest.mark.parametrize("periodic", [False, True])
@pytest.mark.parametrize("dim", [1, 2])
def test_stencil_pattern_on_a_scattered_node_mask(dim, periodic):
    # a mask that is no tensor product of per-axis masks, on domain and
    # periodic meshes, against the COO sum sliced by the same mask
    m = build_cell_mesh(6, dim) if periodic else build_domain_mesh(((0.0, 1.0), (0.0, 0.7))[:dim], 0.1)
    rng = np.random.default_rng(dim + 2 * periodic)
    for keep in (rng.random(m.n_nodes) < 0.6, np.ones(m.n_nodes, dtype=bool), np.zeros(m.n_nodes, dtype=bool)):
        stiff = rng.uniform(-1.0, 1.0, (m.n_elements, 2**dim, 2**dim))
        indptr, indices, slots = mesh_mod._stencil_pattern(m, keep)
        assert indptr.dtype == indices.dtype == np.int32
        data = np.bincount(slots, stiff.ravel(), len(indices) + 1)[:-1]
        n_free = np.count_nonzero(keep)
        got = sp.csr_matrix((data, indices, indptr), shape=(n_free, n_free))
        free = np.nonzero(keep)[0]
        _assert_csr_equal(got, fem_reference.full_matrix(m, stiff)[free][:, free])


def test_periodic_mesh_rejected():
    # an 8 x 8 cell mesh has no boundary: its nodes 0 and m - 1 are
    # neighbours across the wrap, not Dirichlet nodes
    cm = build_cell_mesh(8, 2)
    for bc in (core.BoundarySpec("dirichlet"), core.BoundarySpec("mixed", ("left",)), core.BoundarySpec("neumann")):
        with pytest.raises(MeshMismatch):
            fem.assemble(cm, ONES, -1.0, bc)


def test_pattern_built_once_per_mesh_and_bc_over_studies(monkeypatch):
    sc = core.Scenario(
        field=core.preset_coefficient("LocallyPeriodic2D", [2, 1, 0.5], 2),
        domain=((0.0, 0.5), (0.0, 0.5)),
        bc=core.BoundarySpec("mixed", ("left", "bottom")),
        mu=-1.0,
        p=2.0,
        s=1.0,
        s_plus=1.0,
        epsilons=(1 / 8, 1 / 16, 1 / 32),
        points_per_period=4,
        interior_margin=0.0,
    )
    built = []
    build = mesh_mod._stencil_pattern

    def counting(m, free):
        built.append((m, free.tobytes()))
        return build(m, free)

    monkeypatch.setattr(fem, "_stencil_pattern", counting)
    fem._pattern.cache_clear()
    study.run_study(sc)
    # one pattern per fine mesh, shared by its oscillatory and effective
    # systems, and one for the cell mesh, all in the one cache
    assert len(built) == len(set(built)) == len(sc.epsilons) + 1
    assert fem._pattern.cache_info().hits >= len(sc.epsilons)
    study.run_study(sc)  # a second study reuses them all
    assert len(built) == len(sc.epsilons) + 1


@pytest.mark.parametrize("dim", [1, 2])
def test_load_scatter_matches_add_at_reference(dim):
    m = build_domain_mesh(((0.0, 1.0), (0.0, 0.7))[:dim], 0.05)
    load = lambda p: np.sin(3.0 * p[:, 0]) * (p[:, -1] + 0.5)  # noqa: E731
    assert np.array_equal(_bits(fem.assemble_load(m, load)), _bits(fem_reference.assemble_load(m, load)))


@pytest.mark.parametrize("mu", [0.0, -1.0])
@pytest.mark.parametrize("tensor", [False, True])
@pytest.mark.parametrize("dim", [1, 2])
def test_gauss_contractions_match_the_einsums_they_replace(dim, tensor, mu):
    m = build_domain_mesh(((0.0, 1.0), (0.0, 0.7))[:dim], 0.05)
    q = mesh_mod.quadrature(m)
    a_vals = fem_reference.gauss_samples(m, _rough_sampler(dim, tensor))
    got = fem._element_matrices(a_vals, q, mu)
    want = fem_reference.einsum_element_matrices(a_vals, q, mu)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    f_g = a_vals if a_vals.ndim == 2 else a_vals[..., 0, 0]
    got, want = fem._load_contributions(f_g, q), fem_reference.einsum_load_contributions(f_g, q)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("tensor", [False, True])
@pytest.mark.parametrize("dim", [1, 2])
def test_gauss_samples_assemble_as_their_callable(dim, tensor):
    m = build_domain_mesh(((0.0, 1.0), (0.0, 0.7))[:dim], 0.1)
    bc = core.BoundarySpec("dirichlet")
    sampler = _rough_sampler(dim, tensor)
    samples = fem_reference.gauss_samples(m, sampler)
    _assert_csr_equal(fem.assemble(m, samples, -1.0, bc).matrix, fem.assemble(m, sampler, -1.0, bc).matrix)
    if not tensor:
        assert np.array_equal(_bits(fem.assemble_load(m, samples)), _bits(fem.assemble_load(m, sampler)))


@pytest.mark.parametrize("dim", [1, 2])
def test_wrong_sample_count_is_a_quadrature_failure(dim):
    m = build_domain_mesh(((0.0, 1.0), (0.0, 0.7))[:dim], 0.25)
    bc = core.BoundarySpec("dirichlet")
    n_el, n_g = mesh_mod.quadrature(m).points.shape[:2]
    n = n_el * n_g
    callables = (
        lambda p: np.ones(len(p) + 1),
        lambda p: np.ones((len(p), dim + 1, dim + 1)),
        lambda p: np.ones((len(p), 1)),
    )
    arrays = (np.ones((n_el + 1, n_g)), np.ones(n), np.ones((n_el, n_g, dim + 1, dim + 1)))
    for f in callables:
        with pytest.raises(fem.QuadratureFailure, match=re.escape(f"expected ({n},) or ({n}, {dim}, {dim})")):
            fem.assemble(m, f, -1.0, bc)
    expected = f"expected ({n_el}, {n_g}) or ({n_el}, {n_g}, {dim}, {dim})"
    for a in arrays:
        with pytest.raises(fem.QuadratureFailure, match=re.escape(expected)):
            fem.assemble(m, a, -1.0, bc)
    # a load is scalar: matrices are the wrong shape too
    for f in callables + (lambda p: np.ones((len(p), dim, dim)),):
        with pytest.raises(fem.QuadratureFailure, match=re.escape(f"expected ({n},)") + "$"):
            fem.assemble_load(m, f)
    for a in arrays + (np.ones((n_el, n_g, dim, dim)),):
        with pytest.raises(fem.QuadratureFailure, match=re.escape(f"expected ({n_el}, {n_g})") + "$"):
            fem.assemble_load(m, a)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
@pytest.mark.parametrize("tensor", [False, True])
def test_nonfinite_samples_are_a_quadrature_failure(tensor, bad):
    m = build_domain_mesh(((0.0, 1.0), (0.0, 0.7)), 0.25)
    bc = core.BoundarySpec("dirichlet")
    sampler = _rough_sampler(2, tensor)

    def spoiled(p):
        v = sampler(p)
        v[3] = bad
        return v

    samples = fem_reference.gauss_samples(m, spoiled)
    for f in (spoiled, samples):
        with pytest.raises(fem.QuadratureFailure, match="non-finite"):
            fem.assemble(m, f, -1.0, bc)
        if not tensor:
            with pytest.raises(fem.QuadratureFailure, match="non-finite"):
                fem.assemble_load(m, f)
