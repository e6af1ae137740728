import numpy as np
import pytest

from pschrod.asymptotic import ExponentP, lambda_dist
from pschrod.grid import GridFunction, GridSpec, gradient, integrate, sample, zero_boundary
from pschrod.pipeline import (
    SchemeConfig,
    check_energy_estimate,
    check_localized_identity,
    check_stability,
    check_superlevel_bound,
    check_tail_bound,
    distributional_residual,
    identity_budget,
    identity_defect,
    mollify_datum,
    regularize_datum,
    run_scheme,
    save_scheme_result,
    truncation_perturbation,
)
from pschrod.potentials import bad_set_measure, polynomial_trap, sample_potential
from pschrod.presets import (
    gaussian,
    identity_case,
    manufactured_p2_datum,
    small_scheme,
    standard_grid,
    standard_potential,
    two_bump_datum,
)
from pschrod.solver import Problem, solve


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
    return check_tail_bound(res, prob, pot, t, R, bad, integrate(prob.f.abs()))


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
    from pschrod.solver import SolveResult

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
        check_tail_bound(res, prob, pot, t=1.0, R=9.0, bad_measure=0.0, f_l1=1.0)


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
        identity_defect(res, prob, phi, alpha=0.8, t=0.3)
    bad_phi = sample(prob.spec, lambda x: 1.0 + 0.0 * x)
    with pytest.raises(ValueError, match="support"):
        identity_defect(res, prob, bad_phi, alpha=2.0, t=0.3)


def test_identity_defect_halves_with_h():
    # the verify suite runs m = 65, 129, 257; this is the next refinement step
    alpha, t = 1.2, 0.3
    defects = []
    for m in (129, 257, 513):
        prob, phi = identity_case(3.0, m)
        defect, supp_ok = identity_defect(solve(prob), prob, phi, alpha, t)
        assert supp_ok
        defects.append(defect)
    assert defects[0] / defects[1] >= 2.0
    assert defects[1] / defects[2] >= 2.0


def test_identity_budget_freezes_and_passes():
    alpha, t = 1.2, 0.3
    coarse, phi = identity_case(3.0, 65)
    defect, _ = identity_defect(solve(coarse), coarse, phi, alpha, t)
    c_budget = identity_budget(defect, coarse, t)
    for m in (129, 257):
        prob, phi = identity_case(3.0, m)
        rep = check_localized_identity(solve(prob), prob, phi, alpha, t, c_budget)
        assert rep.passed
        assert rep.context["supp_contained"] is True
        assert rep.context["c_budget"] == c_budget


def test_distributional_residual_zero_psi(small_case):
    prob, _, res = small_case
    psi = GridFunction(prob.spec, np.zeros(prob.spec.num_nodes))
    assert distributional_residual(res.u, gradient(res.u), prob, psi) == 0.0


def test_distributional_residual_rejects_misshaped_gradient(small_case):
    # a flat (m,) gradient would broadcast against the (m, 1) test gradient
    prob, _, res = small_case
    psi = zero_boundary(sample(prob.spec, gaussian((0.5,), 0.7, 1.0)))
    with pytest.raises(ValueError, match="shape"):
        distributional_residual(res.u, gradient(res.u).ravel(), prob, psi)


def test_distributional_residual_linear_in_psi(small_case):
    prob, _, res = small_case
    psi = zero_boundary(sample(prob.spec, gaussian((0.5,), 0.7, 1.0)))
    grad = gradient(res.u)
    one = distributional_residual(res.u, grad, prob, psi)
    two = distributional_residual(res.u, grad, prob, 2.0 * psi)
    assert two == pytest.approx(2.0 * one, rel=1e-12)


def test_distributional_residual_manufactured_second_order():
    vals = []
    for m in (129, 257):
        spec = GridSpec(1, 8.0, m)
        V = sample(spec, lambda x: 1.0 + 0.0 * x)
        f = sample(spec, manufactured_p2_datum)
        prob = Problem(spec=spec, p=ExponentP(2.0, degenerate_ok=True), V=V, f=f)
        res = solve(prob)
        psi = zero_boundary(sample(spec, gaussian((0.0,), 1.0, 1.0)))
        vals.append(distributional_residual(res.u, gradient(res.u), prob, psi))
    assert vals[0] / vals[1] >= 3.0


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
    assert sum(res.solutions[k].iterations for k in cfg.k_list) == 42
    assert sum(sum(res.solutions[k].linear_iterations) for k in cfg.k_list) == 243
    V = sample_potential(standard_potential(), spec)
    cold = [solve(Problem(spec, 3.0, V, regularize_datum(f, k))) for k in cfg.k_list]
    assert sum(r.iterations for r in cold) == 52
    assert sum(sum(r.linear_iterations) for r in cold) == 303


def test_run_scheme_starts_past_a_non_convergent_level():
    spec = GridSpec(1, 8.0, 129)
    cfg = SchemeConfig(
        k_list=(1.0, 4.0, 8.0), t_grid=(1.0,), R_grid=(4.0,), max_iters=12,
        tol_residual=1e-10,
    )
    res = run_scheme(two_bump_datum(spec), standard_potential(), 4.0, cfg)
    assert res.failed_k == (4.0,)
    assert res.started_from == {1.0: None, 4.0: 1.0, 8.0: 1.0}


def test_run_scheme_flags_non_convergent_levels():
    spec = GridSpec(1, 8.0, 129)
    f = two_bump_datum(spec)
    cfg = SchemeConfig(
        k_list=(1.0, 4.0, 8.0), t_grid=(1.0,), R_grid=(4.0,), max_iters=12,
        tol_residual=1e-10,
    )
    res = run_scheme(f, standard_potential(), 4.0, cfg)
    assert res.failed_k
    for k in res.failed_k:
        assert all(r.context.get("k") != k and r.context.get("l") != k
                   for r in res.reports)


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
