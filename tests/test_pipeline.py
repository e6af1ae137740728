from dataclasses import replace

import numpy as np
import pytest

from pschrod.asymptotic import ExponentP, lambda_dist
from pschrod.grid import GridFunction, GridSpec, integrate, sample, zero_boundary
from pschrod.pipeline import (
    SchemeConfig,
    check_energy_estimate,
    check_localized_identity,
    check_stability,
    check_superlevel_bound,
    check_tail_bound,
    distributional_residual,
    mollify_datum,
    regularize_datum,
    run_scheme,
    save_scheme_result,
    truncation_perturbation,
)
from pschrod.potentials import bad_set_measure, polynomial_trap, sample_potential, sparse_wells
from pschrod.presets import (
    gaussian,
    identity_case,
    small_scheme,
    standard_grid,
    standard_potential,
    two_bump_datum,
)
from pschrod.solver import Problem, SolveResult, solve


def test_regularize_identity_when_inactive():
    spec = GridSpec(1, 4.0, 65)
    f = sample(spec, lambda x: 0.5 * np.exp(-(x**2)))
    fk = regularize_datum(f, 8.0)
    assert np.array_equal(fk.values, f.values)


def test_regularize_constant_clipping():
    spec = GridSpec(1, 4.0, 257)
    f = GridFunction(spec, np.full(spec.num_nodes, 10.0))
    f2 = regularize_datum(f, 2.0)
    inside = spec.radii() < 2.0
    assert np.all(f2.values[inside] == 2.0)
    assert np.all(f2.values[~inside] == 0.0)
    assert integrate(f2.abs()) == pytest.approx(8.0, rel=0.02)


def test_regularize_never_gains_mass(rng):
    spec = GridSpec(1, 4.0, 65)
    for _ in range(50):
        f = GridFunction(spec, 5.0 * rng.standard_normal(65))
        for k in (0.5, 1.0, 3.0, 10.0):
            assert integrate(regularize_datum(f, k).abs()) <= integrate(f.abs()) + 1e-12


def test_mollify_preserves_mass_and_degenerates(rng):
    spec = GridSpec(1, 8.0, 129)
    f = two_bump_datum(spec)
    soft = mollify_datum(f, 1.0)
    hard = regularize_datum(f, 1.0)
    assert not np.array_equal(soft.values, hard.values)
    assert integrate(soft.abs()) <= integrate(hard.abs()) + 1e-12
    # kernel narrower than the spacing collapses to the identity
    assert np.array_equal(mollify_datum(f, 8.0).values, regularize_datum(f, 8.0).values)


@pytest.mark.parametrize("n, m", [(1, 129), (2, 33)])
def test_mollify_kernel_longer_than_axis(n, m):
    # k = 0.2 gives a kernel half-width of 12.5, more than the box width 16
    spec = GridSpec(n, 8.0, m)
    f = sample(spec, lambda *x: 12.0 * np.exp(-sum(c * c for c in x)))
    soft = mollify_datum(f, 0.2)
    assert soft.values.size == spec.num_nodes
    assert integrate(soft.abs()) <= integrate(regularize_datum(f, 0.2).abs()) + 1e-12


@pytest.fixture(scope="module")
def small_case():
    spec = GridSpec(1, 8.0, 129)
    V_pot = standard_potential()
    V = sample_potential(V_pot, spec)
    f = regularize_datum(two_bump_datum(spec), 4.0)
    prob = Problem(spec=spec, p=ExponentP(2.0, degenerate_ok=True), V=V, f=f)
    return prob, V_pot, solve(prob)


def test_energy_estimate_zero_solution():
    spec = GridSpec(1, 4.0, 65)
    V = sample_potential(standard_potential(), spec)
    f = GridFunction(spec, np.zeros(65))
    prob = Problem(spec=spec, p=ExponentP(2.0, degenerate_ok=True), V=V, f=f)
    rep = check_energy_estimate(solve(prob), prob, t=1.0, f_ref_l1=0.0)
    assert rep.lhs == 0.0 and rep.passed


def test_energy_estimate_rhs_linear_in_t(small_case):
    prob, _, res = small_case
    f_l1 = integrate(prob.f.abs())
    r1 = check_energy_estimate(res, prob, 1.0, f_l1)
    r2 = check_energy_estimate(res, prob, 2.0, f_l1)
    assert r2.rhs == pytest.approx(2.0 * r1.rhs, rel=1e-14)


def test_energy_estimate_passes(small_case):
    prob, _, res = small_case
    f_l1 = integrate(prob.f.abs())
    for t in (0.1, 0.5, 1.0, 2.0, 5.0):
        rep = check_energy_estimate(res, prob, t, f_l1)
        assert rep.passed and rep.slack >= 0.0


def test_energy_estimate_3d_in_solver_norm():
    # two Gaussian bumps in a 3D trap at level k = 1: the energy norm is
    # measured with the solver's cell gradient, where the estimate holds
    # for every t (the nodal central difference overshot at t = 0.1)
    spec = GridSpec(3, 6.0, 13)

    def datum(x, y, z):
        return (12.0 * np.exp(-((x + 2.0) ** 2 + y**2 + z**2) / 0.8**2)
                + 4.0 * np.exp(-((x - 2.0) ** 2 + (y - 1.0) ** 2 + (z + 1.0) ** 2)))

    f1 = regularize_datum(sample(spec, datum), 1.0)
    V = sample_potential(polynomial_trap(gamma=2.0), spec)
    prob = Problem(spec=spec, p=ExponentP(3.0, degenerate_ok=True), V=V, f=f1)
    res = solve(prob)
    assert res.converged
    for t in (0.1, 0.5, 1.0, 2.0, 5.0):
        rep = check_energy_estimate(res, prob, t, integrate(f1.abs()))
        assert rep.passed, (t, rep.lhs / rep.rhs)


def _tail_bound(res, prob, pot, t, R):
    """:func:`check_tail_bound` with |E_R| and ||f||_1 measured as run_scheme does."""
    bad = bad_set_measure(pot, prob.spec, R, Vg=prob.V)
    return check_tail_bound(res, prob, pot, t, (R,), (bad,), integrate(prob.f.abs()))[0]


def test_tail_bound_trap_formula(small_case):
    prob, pot, res = small_case
    f_l1 = integrate(prob.f.abs())
    for t in (0.5, 1.0):
        for R in (2.0, 4.0, 6.0):
            rep = _tail_bound(res, prob, pot, t, R)
            assert rep.passed
            assert rep.context["bad_measure"] == 0.0
            assert rep.rhs == pytest.approx(t * f_l1 / R**2, rel=1e-12)
    rhs_list = [_tail_bound(res, prob, pot, 1.0, R).rhs for R in (2.0, 4.0, 6.0)]
    assert rhs_list[0] > rhs_list[1] > rhs_list[2]


def test_tail_bound_zero_for_compact_support(small_case):
    prob, pot, _ = small_case
    x = prob.spec.axis_coords()
    vals = np.where(np.abs(x) <= 2.0, np.exp(-(x**2)), 0.0)
    compact = SolveResult(
        u=zero_boundary(GridFunction(prob.spec, vals)),
        iterations=0, residual_sup=0.0, energy=0.0, energy_trace=(0.0,),
        converged=True, linear_iterations=(),
    )
    rep = _tail_bound(compact, prob, pot, t=1.0, R=7.5)
    assert rep.lhs == 0.0 and rep.passed


def test_tail_bound_rejects_outside_radius(small_case):
    prob, pot, res = small_case
    with pytest.raises(ValueError):
        check_tail_bound(res, prob, pot, t=1.0, R_grid=(9.0,), bad_measures=(0.0,), f_l1=1.0)


def test_stability_identical_data_is_exact_zero(small_case):
    prob, _, res = small_case
    res2 = solve(prob)
    rep = check_stability(res, res2, prob.f, prob.f, prob, t=1.0)
    assert rep.lhs == 0.0 and rep.rhs == 0.0 and rep.passed


def test_stability_constant_is_exactly_one_at_p2(small_case):
    prob, _, res = small_case
    rep = check_stability(res, res, prob.f, prob.f, prob, t=0.5)
    assert rep.context["C_p"] == 1.0


def test_superlevel_bound(small_case):
    prob, _, res = small_case
    f_l1 = integrate(prob.f.abs())
    for m in (0.1, 0.5, 1.0, 2.0):
        assert check_superlevel_bound(res, prob, m, f_l1).passed


def test_truncation_perturbation_zero_phi(rng):
    spec = GridSpec(1, 4.0, 65)
    u = GridFunction(spec, 3.0 * rng.standard_normal(65))
    phi = GridFunction(spec, np.zeros(65))
    assert truncation_perturbation(u, phi, 2.0, 0.5).max_abs() == 0.0


def test_truncation_perturbation_support(rng):
    spec = GridSpec(1, 4.0, 65)
    for _ in range(50):
        u = GridFunction(spec, 3.0 * rng.standard_normal(65))
        mask = rng.random(65) < 0.3
        phi = GridFunction(spec, np.where(mask, rng.standard_normal(65), 0.0))
        big = truncation_perturbation(u, phi, 5.0, 0.5)
        assert np.all(big.values[phi.values == 0.0] == 0.0)


def test_gaussian_needs_one_center_component_per_coordinate():
    x = np.linspace(-1.0, 1.0, 5)
    on_axis = gaussian((0.0, 0.0), 1.0, 2.0)(x, 0.0 * x)
    assert on_axis.tolist() == gaussian((0.0,), 1.0, 2.0)(x).tolist()
    # a short center must not give a ridge constant along the missing axis
    with pytest.raises(ValueError, match="takes 1 coordinates, got 2"):
        gaussian((0.0,), 1.0, 2.0)(x, x)


def test_identity_preconditions():
    prob, phi = identity_case(2.0, 65)
    res = solve(prob)
    with pytest.raises(ValueError, match="alpha"):
        check_localized_identity(res, prob, phi, alpha=0.8, t=0.3)
    bad_phi = sample(prob.spec, lambda x: 1.0 + 0.0 * x)
    with pytest.raises(ValueError, match="support"):
        check_localized_identity(res, prob, bad_phi, alpha=2.0, t=0.3)


def test_identity_budget_freezes_and_passes():
    # the budget is fixed by the solve, residual_sup * ||Phi||_1, with no
    # calibrated constant; the verify suite runs m = 65, 129, 257 and this
    # adds the next refinement step
    for m in (129, 257, 513):
        prob, phi = identity_case(3.0, m)
        res = solve(prob)
        rep = check_localized_identity(res, prob, phi, alpha=1.2, t=0.3)
        big_phi = truncation_perturbation(res.u, phi, 1.2, 0.3)
        assert rep.rhs == res.residual_sup * integrate(big_phi.abs())
        assert rep.passed
        assert rep.context["supp_contained"] is True


def test_identity_defect_halves_with_h(manufactured_case):
    # at the sampled exact solution the identity's defect is the weak
    # form's consistency error, which at least halves per refinement
    defects = []
    for m in (129, 257, 513):
        prob, u = manufactured_case(2.0, GridSpec(1, 8.0, m))
        exact = SolveResult(
            u=u, iterations=0, residual_sup=0.0, energy=0.0, energy_trace=(0.0,),
            converged=True, linear_iterations=(),
        )
        phi = zero_boundary(sample(prob.spec, gaussian((1.0,), 1.0, 0.6)))
        rep = check_localized_identity(exact, prob, phi, alpha=1.2, t=0.3)
        assert rep.context["supp_contained"] is True
        defects.append(rep.lhs)
    assert defects[-1] > 0.0
    assert all(a >= 2.0 * b for a, b in zip(defects, defects[1:]))


@pytest.mark.parametrize("m", [65, 257])
def test_identity_within_residual_bound_where_truncation_acts(m):
    prob = identity_case(3.0, m)[0]
    phi = zero_boundary(sample(prob.spec, gaussian((-2.5,), 0.5, 0.6)))
    alpha, t = 1.0, 0.3
    res = solve(prob)
    inside = phi.values != 0.0
    assert np.any(np.abs(res.u.values[inside]) > alpha)
    assert np.any(np.abs(res.u.values[inside]) < alpha)
    rep = check_localized_identity(res, prob, phi, alpha, t)
    assert rep.passed
    assert rep.context["supp_contained"] is True


def test_identity_within_residual_bound_in_2d(manufactured_case):
    # |u| crosses alpha inside supp phi (in 3D at m = 17, u jumps between
    # nodes by more than alpha - t - max|phi|, against the check's premise)
    prob, _ = manufactured_case(3.0, GridSpec(2, 4.0, 65))
    phi = zero_boundary(sample(prob.spec, gaussian((0.25, 0.0), 0.5, 0.6)))
    res = solve(prob)
    inside = np.abs(res.u.values[phi.values != 0.0])
    assert inside.max() > 0.95 > inside.min()
    rep = check_localized_identity(res, prob, phi, alpha=0.95, t=0.3)
    assert rep.passed and rep.context["supp_contained"] is True


@pytest.mark.parametrize("m", [65, 257])
def test_identity_fails_off_the_solution(m):
    # one node moved by 1e-6 leaves the discrete minimizer: the residual
    # paired with Phi outgrows the bound the returned residual gives
    prob, phi = identity_case(3.0, m)
    res = solve(prob)
    kick = np.zeros(prob.spec.num_nodes)
    kick[np.argmax(phi.values)] = 1e-6
    off = replace(res, u=res.u + GridFunction(prob.spec, kick))
    assert not check_localized_identity(off, prob, phi, alpha=1.2, t=0.3).passed


def test_distributional_residual_zero_psi(small_case):
    prob, _, res = small_case
    psi = GridFunction(prob.spec, np.zeros(prob.spec.num_nodes))
    assert distributional_residual(res.u, prob, psi) == 0.0


def test_distributional_residual_linear_in_psi(small_case):
    prob, _, res = small_case
    psi = zero_boundary(sample(prob.spec, gaussian((0.5,), 0.7, 1.0)))
    one = distributional_residual(res.u, prob, psi)
    two = distributional_residual(res.u, prob, 2.0 * psi)
    assert one > 0.0
    assert two == pytest.approx(2.0 * one, rel=1e-12)


def test_distributional_residual_manufactured_second_order(manufactured_case):
    # the consistency error of the scheme's weak form at the exact solution
    vals = []
    for m in (129, 257, 513):
        prob, u = manufactured_case(2.0, GridSpec(1, 8.0, m))
        psi = zero_boundary(sample(prob.spec, gaussian((0.0,), 1.0, 1.0)))
        vals.append(distributional_residual(u, prob, psi))
    orders = [np.log2(a / b) for a, b in zip(vals, vals[1:])]
    assert min(orders) >= 1.9


def test_scheme_config_validation():
    with pytest.raises(ValueError):
        SchemeConfig(k_list=(), t_grid=(1.0,))
    with pytest.raises(ValueError):
        SchemeConfig(k_list=(2.0, 1.0), t_grid=(1.0,))
    with pytest.raises(ValueError):
        SchemeConfig(k_list=(1.0, 2.0), t_grid=())


@pytest.mark.parametrize("name", ["t_grid", "alpha_grid", "eps_grid"])
@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
def test_scheme_config_rejects_nonpositive_or_non_finite_levels(name, bad):
    grids = {"t_grid": (1.0,), name: (0.5, bad)}
    with pytest.raises(ValueError, match="finite and positive"):
        SchemeConfig(k_list=(1.0,), **grids)


@pytest.mark.parametrize("k_list", [(1.0, 2.0, np.nan), (0.0, 1.0), (-1.0, 2.0), (1.0, np.inf)])
def test_scheme_config_rejects_nonpositive_or_nan_levels(k_list):
    with pytest.raises(ValueError, match="must be positive"):
        SchemeConfig(k_list=k_list, t_grid=(1.0,))


def _no_solve(*args, **kwargs):
    raise AssertionError("solve must not be called")


@pytest.mark.parametrize("R", [0.0, -2.0, np.nan, 8.0, 9.0])
def test_run_scheme_rejects_radius_outside_box_before_solving(R, monkeypatch):
    monkeypatch.setattr("pschrod.pipeline.solve", _no_solve)
    spec = GridSpec(1, 8.0, 65)
    cfg = SchemeConfig(k_list=(1.0, 2.0), t_grid=(1.0,), R_grid=(2.0, R))
    with pytest.raises(ValueError, match="inside the box"):
        run_scheme(two_bump_datum(spec), standard_potential(), 3.0, cfg)


def test_run_scheme_zero_datum():
    spec = GridSpec(1, 8.0, 65)
    f = GridFunction(spec, np.zeros(65))
    cfg = SchemeConfig(k_list=(1.0, 2.0), t_grid=(0.5, 1.0), R_grid=(2.0, 4.0))
    res = run_scheme(f, standard_potential(), 2.0, cfg)
    assert not res.failed_k
    assert np.all(res.pairwise_lambda == 0.0)
    for sol in res.solutions.values():
        assert sol.u.max_abs() == 0.0
    assert all(r.passed for r in res.reports)


@pytest.fixture(scope="module")
def small_scheme_p3():
    return small_scheme(3.0)


def test_run_scheme_all_reports_pass(small_scheme_p3):
    res = small_scheme_p3
    assert not res.failed_k
    assert not res.failed_reports()
    names = {r.name for r in res.reports}
    assert names == {"energy_estimate", "tail_bound", "stability", "superlevel_bound"}


def test_run_scheme_matrices(small_scheme_p3):
    res = small_scheme_p3
    mat = res.pairwise_lambda
    assert mat.shape == (4, 4)
    assert np.array_equal(mat, mat.T)
    assert np.all(np.diag(mat) == 0.0)
    for eps, m in res.measure_diag.items():
        assert np.array_equal(m, m.T)
        assert np.all(np.diag(m) == 0.0)


def test_run_scheme_distance_to_reference_decreases(small_scheme_p3):
    res = small_scheme_p3
    dists = [row["lambda_dist_to_ref"] for row in res.convergence["rows"]]
    assert all(b < a for a, b in zip(dists[:-1], dists[1:-1]))
    assert dists[-1] == 0.0
    assert res.convergence["caveat"] == "finite-sequence surrogate"


def test_run_scheme_continues_from_the_last_converged_level(small_scheme_p3):
    res = small_scheme_p3
    spec = standard_grid(m=129)
    f = two_bump_datum(spec)
    V = sample_potential(standard_potential(), spec)
    assert res.started_from == {1.0: None, 2.0: 1.0, 4.0: 2.0, 8.0: 4.0}
    for k in res.k_list:
        start = res.started_from[k]
        u0 = None if start is None else res.solutions[start].u
        expected = solve(Problem(spec, 3.0, V, regularize_datum(f, k)), u0=u0)
        assert np.array_equal(res.solutions[k].u.values, expected.u.values)


def test_run_scheme_continuation_saves_newton_steps_in_3d():
    spec = GridSpec(3, 6.0, 9)

    def datum(x, y, z):
        return (12.0 * np.exp(-((x + 2.0) ** 2 + y**2 + z**2) / 0.64)
                + 4.0 * np.exp(-((x - 2.0) ** 2 + (y - 1.0) ** 2 + (z + 1.0) ** 2)))

    f = sample(spec, datum)
    cfg = SchemeConfig(k_list=(1.0, 2.0, 4.0, 8.0), t_grid=(1.0,), R_grid=(2.0,))
    res = run_scheme(f, standard_potential(), 3.0, cfg)
    assert not res.failed_k
    assert sum(res.solutions[k].iterations for k in cfg.k_list) == 35
    assert sum(sum(res.solutions[k].linear_iterations) for k in cfg.k_list) == 176
    V = sample_potential(standard_potential(), spec)
    cold = [solve(Problem(spec, 3.0, V, regularize_datum(f, k))) for k in cfg.k_list]
    assert sum(r.iterations for r in cold) == 43
    assert sum(sum(r.linear_iterations) for r in cold) == 217


def test_run_scheme_counts_hold_under_one_ulp_datum_perturbations():
    # the 3D trap benchmark data: after the residual meets tol, solve takes
    # one polish step whatever the last bits say, so a one-ulp change to the
    # datum leaves every level's Newton and CG counts as they are
    spec = GridSpec(3, 6.0, 17)
    left, right = gaussian((-2.0, 0.0, 0.0), 0.8, 12.0), gaussian((2.0, 1.0, -1.0), 1.0, 4.0)
    f = sample(spec, lambda *x: left(*x) + right(*x))
    cfg = SchemeConfig(k_list=(1.0, 2.0, 4.0, 8.0), t_grid=(1.0,), R_grid=(2.0,))

    def counts(values):
        res = run_scheme(GridFunction(spec, values), standard_potential(), 3.0, cfg)
        assert not res.failed_k
        return [(res.solutions[k].iterations, sum(res.solutions[k].linear_iterations))
                for k in cfg.k_list]

    base = counts(f.values)
    for direction in (np.inf, -np.inf):
        nudged = np.where(f.values == 0.0, 0.0, np.nextafter(f.values, direction))
        assert not np.array_equal(nudged, f.values)
        assert counts(nudged) == base


def test_run_scheme_tails_share_one_power_per_truncation():
    # sparse wells, where |E_R| > 0: each (k, t) gives [energy, tails by R,
    # superlevel], and every tail has the bits of its own plain-numpy power.
    # h = 1/8 puts every R on a node, so the strict |x| > R shows
    spec = GridSpec(1, 40.0, 641)
    cfg = SchemeConfig(k_list=(1.0, 4.0, 16.0), t_grid=(0.1, 1.0, 5.0),
                       R_grid=(2.0, 4.0, 6.0, 12.0, 24.0))
    res = run_scheme(two_bump_datum(spec), sparse_wells(2.0), 3.0, cfg)
    assert not res.failed_k
    w, r = spec.weights(), spec.radii()
    block = 2 + len(cfg.R_grid)
    levels = [(k, t) for k in cfg.k_list for t in cfg.t_grid]
    for i, (k, t) in enumerate(levels):
        reps = res.reports[i * block:(i + 1) * block]
        assert [rep.name for rep in reps] == \
            ["energy_estimate"] + ["tail_bound"] * len(cfg.R_grid) + ["superlevel_bound"]
        assert all(rep.context["k"] == k for rep in reps)
        assert [rep.context["t"] for rep in reps[:-1]] + [reps[-1].context["m"]] == [t] * block
        assert tuple(rep.context["R"] for rep in reps[1:-1]) == cfg.R_grid
        u = res.solutions[k].u.values
        for rep in reps[1:-1]:
            m = r > rep.context["R"]
            assert rep.lhs == float(np.minimum(np.abs(np.clip(u, -t, t))[m], 1.0) ** 3.0 @ w[m])
    assert res.reports[len(levels) * block].name == "stability"
    assert max(rep.context["bad_measure"] for rep in res.reports if rep.name == "tail_bound") > 0.0


@pytest.fixture(scope="module")
def non_convergent_scheme():
    """p = 4 on levels 1, 4, 8 with 12 Newton steps: level 4 does not converge."""
    cfg = SchemeConfig(
        k_list=(1.0, 4.0, 8.0), t_grid=(1.0,), R_grid=(4.0,), max_iters=12,
        tol_residual=1e-10,
    )
    return run_scheme(two_bump_datum(GridSpec(1, 8.0, 129)), standard_potential(), 4.0, cfg)


def test_run_scheme_starts_past_a_non_convergent_level(non_convergent_scheme):
    res = non_convergent_scheme
    assert res.failed_k == (4.0,)
    assert res.started_from == {1.0: None, 4.0: 1.0, 8.0: 1.0}


def test_run_scheme_flags_non_convergent_levels(non_convergent_scheme):
    res = non_convergent_scheme
    assert res.failed_k
    for k in res.failed_k:
        assert all(r.context.get("k") != k and r.context.get("l") != k
                   for r in res.reports)


def test_run_scheme_distance_to_reference_is_the_pairwise_entry(non_convergent_scheme):
    res = non_convergent_scheme
    rows = [(row["k"], row["lambda_dist_to_ref"]) for row in res.convergence["rows"]]
    assert rows == [(1.0, res.pairwise_lambda[0, 2]), (8.0, 0.0)]
    u_ref = res.solutions[8.0].u
    assert rows == [(k, lambda_dist(res.solutions[k].u, u_ref, 4.0)) for k in (1.0, 8.0)]


def test_duality_regime_levels_coincide():
    # datum bounded by 12 and supported in the box: every level k >= 16
    # reproduces the same problem, hence bitwise the same solution
    spec = standard_grid(m=129)
    f = two_bump_datum(spec)
    cfg = SchemeConfig(k_list=(16.0, 32.0), t_grid=(1.0,), R_grid=(4.0,))
    res = run_scheme(f, standard_potential(), 2.0, cfg)
    assert np.array_equal(res.solutions[16.0].u.values, res.solutions[32.0].u.values)
    assert res.pairwise_lambda[0, 1] == 0.0


def test_run_scheme_reuses_a_level_with_the_same_datum():
    spec = standard_grid(m=129)
    cfg = SchemeConfig(k_list=(8.0, 16.0, 32.0), t_grid=(1.0,), R_grid=(4.0,))
    res = run_scheme(two_bump_datum(spec), standard_potential(), 3.0, cfg)
    assert res.started_from == {8.0: None, 16.0: 8.0, 32.0: 16.0}
    assert res.solutions[32.0] is res.solutions[16.0]
    assert res.solutions[16.0] is not res.solutions[8.0]


def test_scheme_independence_canonical_vs_mollified(std_datum, std_config, std_scheme_p2):
    # the verify uniqueness suite runs the small scheme; this is the standard one
    canon = std_scheme_p2
    moll = run_scheme(
        std_datum, standard_potential(), 2.0, std_config, regularizer=mollify_datum
    )
    k_ref = std_config.k_list[-1]
    d_ref = lambda_dist(canon.solutions[k_ref].u, moll.solutions[k_ref].u, 2.0)
    assert d_ref <= 1e-3
    d_first = lambda_dist(canon.solutions[1.0].u, moll.solutions[1.0].u, 2.0)
    assert d_first > 0.0


def test_save_scheme_result_files(small_scheme_p3, tmp_path):
    import json

    res = small_scheme_p3
    save_scheme_result(res, tmp_path)
    assert (tmp_path / "reports.json").exists()
    assert (tmp_path / "distances.csv").exists()
    assert (tmp_path / "diagnostics.json").exists()
    for k in res.k_list:
        assert (tmp_path / f"u_k{k:g}.json").exists()
        assert (tmp_path / f"u_k{k:g}.bin").exists()
    reports = json.loads((tmp_path / "reports.json").read_text())
    assert len(reports) == len(res.reports)
    assert all(r["pass"] for r in reports)


def test_save_scheme_result_records_level_starts(small_scheme_p3, tmp_path):
    import json

    save_scheme_result(small_scheme_p3, tmp_path)
    diagnostics = json.loads((tmp_path / "diagnostics.json").read_text())
    assert diagnostics["started_from"] == {"1": None, "2": "1", "4": "2", "8": "4"}


def test_save_scheme_result_distances_are_numbers(small_scheme_p3, tmp_path):
    import csv

    save_scheme_result(small_scheme_p3, tmp_path)
    with open(tmp_path / "distances.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    cells = np.array([[float(cell) for cell in row] for row in rows[1:]])
    assert np.array_equal(cells[:, 1:], small_scheme_p3.pairwise_lambda)


def test_save_scheme_result_non_convergent_pairs_are_null(tmp_path):
    import json

    def reject(token):
        raise ValueError(f"non-JSON constant {token}")

    spec = GridSpec(1, 8.0, 65)
    cfg = SchemeConfig(k_list=(1.0, 2.0, 4.0), t_grid=(1.0,), R_grid=(4.0,),
                       max_iters=1, tol_residual=1e-14)
    res = run_scheme(two_bump_datum(spec), standard_potential(), 4.0, cfg)
    assert len(res.failed_k) >= 2
    save_scheme_result(res, tmp_path)
    diagnostics = json.loads((tmp_path / "diagnostics.json").read_text(),
                             parse_constant=reject)
    for mat in diagnostics["measure_diag"].values():
        assert mat[0][1] is None and mat[1][0] is None
