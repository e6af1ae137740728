from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import cho_solve_banded, cholesky_banded

from pschrod.asymptotic import ExponentP, lambda_fnorm_rows, lp_norm, tail_lambda, x_norm_p
from pschrod.grid import (
    GridFunction,
    GridSpec,
    annulus_integrate,
    cell_gradient_matrix,
    integrate,
    sample,
    zero_boundary,
)
from pschrod.presets import (
    manufactured_p2_datum,
    manufactured_p2_solution,
    manufactured_p4_datum,
    standard_problem_factory,
)
from pschrod.solver import (
    MAX_ITERS,
    Problem,
    _energy_arrays,
    _gradient_arrays,
    _hessian_interior,
    _line_band,
    _line_preconditioner,
    _newton_solve,
    energy,
    monotonicity_margin,
    residual,
    solve,
)


def make_problem(p=2.0, m=65, L=8.0, V_field=None, f_field=None, **kwargs):
    spec = GridSpec(1, L, m)
    V = sample(spec, V_field or (lambda x: 1.0 + 0.0 * x))
    f = sample(spec, f_field or (lambda x: np.exp(-(x**2))))
    return Problem(spec=spec, p=p, V=V, f=f, **kwargs)


def test_problem_rejects_small_p():
    with pytest.raises(ValueError, match="p >= 2"):
        make_problem(p=1.5)


@pytest.mark.parametrize("p", [np.nan, np.inf])
def test_problem_rejects_nan_and_inf_p(p):
    with pytest.raises(ValueError, match="p >= 2"):
        make_problem(p=p)


def test_problem_stores_p_as_float():
    assert type(make_problem(p=3).p) is float
    prob = make_problem(p=ExponentP(3.0, degenerate_ok=True))
    assert prob.p == 3.0 and type(prob.p) is float


def test_problem_rejects_small_potential():
    with pytest.raises(ValueError):
        make_problem(V_field=lambda x: 0.9 + 0.0 * x)


def test_newton_regularization_is_derived_from_the_datum():
    with pytest.raises(TypeError):
        make_problem(eps_reg=1e-6)
    for height in (0.5, 3e4):
        prob = make_problem(f_field=lambda x: height * np.exp(-(x**2)))
        assert prob.eps_reg == 1e-8 * max(1.0, prob.f.max_abs())


def test_energy_zero_candidate():
    prob = make_problem(f_field=lambda x: 1.0 + 0.0 * x)
    zero = GridFunction(prob.spec, np.zeros(prob.spec.num_nodes))
    assert energy(zero, prob) == 0.0


def test_energy_requires_zero_boundary():
    prob = make_problem()
    v = sample(prob.spec, lambda x: x)
    with pytest.raises(ValueError, match="boundary"):
        energy(v, prob)


def test_energy_matches_continuum_for_smooth_profile():
    # v = x - x^3 on [-1, 1] vanishes at the boundary:
    # (1/2) int (1 - 3x^2)^2 = 4/5, (1/2) int v^2 = 8/105, int 1*v = 0
    prob = make_problem(m=1601, L=1.0, f_field=lambda x: 1.0 + 0.0 * x)
    v = zero_boundary(sample(prob.spec, lambda x: x - x**3))
    expected = 4.0 / 5.0 + 8.0 / 105.0
    assert energy(v, prob) == pytest.approx(expected, rel=1e-4)


def test_energy_terms_linear_profile():
    # the three functional terms evaluated on v(x) = x with V = 1, f = 1:
    # (1/2)(int 1 + int x^2) - 0 tends to 4/3
    spec = GridSpec(1, 1.0, 801)
    v = sample(spec, lambda x: x)
    V = sample(spec, lambda x: 1.0 + 0.0 * x)
    f = sample(spec, lambda x: 1.0 + 0.0 * x)
    total = 0.5 * x_norm_p(v, V, 2.0) - integrate(
        GridFunction(spec, f.values * v.values)
    )
    assert total == pytest.approx(4.0 / 3.0, rel=1e-4)


@pytest.mark.parametrize("p", [2.0, 3.0, 4.0])
def test_energy_is_x_norm_p_over_p_minus_source(p, rng):
    # the solver's energy and the checks' X-norm share one discretization
    spec = GridSpec(2, 2.0, 17)
    V = sample(spec, lambda x, y: 1.0 + x**2 + y**2)
    f = sample(spec, lambda x, y: np.exp(-(x**2) - 2.0 * y**2))
    prob = Problem(spec=spec, p=p, V=V, f=f)
    v = zero_boundary(GridFunction(spec, rng.standard_normal(spec.num_nodes)))
    expected = x_norm_p(v, V, p) / p - integrate(GridFunction(spec, f.values * v.values))
    assert energy(v, prob) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("p", [2.0, 3.0, 4.0])
def test_energy_lower_bound_constant_chain(p, rng):
    # J(v) >= -C_p ||f||_{p'}^{p'} with C_p = 2^(p'/p) / p' from the
    # coercivity chain (Hoelder, V >= 1, Young with delta = 1/(2p))
    prob = make_problem(p=p, m=129, f_field=lambda x: np.cos(x) * np.exp(-np.abs(x)))
    pconj = p / (p - 1.0)
    c_p = 2.0 ** (pconj / p) / pconj
    f_pconj = lp_norm(prob.f, pconj) ** pconj
    bound = -c_p * f_pconj
    for _ in range(50):
        v = zero_boundary(GridFunction(prob.spec, 2.0 * rng.standard_normal(129)))
        assert energy(v, prob) >= bound - 1e-12 * abs(bound)


def test_residual_zero_for_zero_datum():
    prob = make_problem(f_field=lambda x: 0.0 * x)
    zero = GridFunction(prob.spec, np.zeros(prob.spec.num_nodes))
    assert residual(zero, prob).max_abs() == 0.0


@pytest.mark.parametrize("p", [2.0, 3.0, 4.0])
def test_residual_is_exact_energy_gradient(p, rng):
    prob = make_problem(p=p, m=33)
    spec = prob.spec
    w = spec.weights()
    for _ in range(5):
        v = zero_boundary(GridFunction(spec, rng.standard_normal(spec.num_nodes)))
        d = zero_boundary(GridFunction(spec, rng.standard_normal(spec.num_nodes)))
        r = residual(v, prob)
        pairing = float(np.dot(w * r.values, d.values))
        eps = 1e-6
        vp = GridFunction(spec, v.values + eps * d.values)
        vm = GridFunction(spec, v.values - eps * d.values)
        fd = (energy(vp, prob) - energy(vm, prob)) / (2 * eps)
        assert fd == pytest.approx(pairing, rel=1e-6, abs=1e-10)


def _trap_problem(n, m, p):
    spec = GridSpec(n, 2.0, m)
    x = spec.node_coords()
    V = GridFunction(spec, 1.0 + np.sum(x**2, axis=1))
    f = GridFunction(spec, np.exp(-np.sum((x - 0.3) ** 2, axis=1)))
    return Problem(spec=spec, p=p, V=V, f=f)


@pytest.mark.parametrize("n, m", [(2, 7), (3, 5)])
@pytest.mark.parametrize("p, eps", [(2.0, 0.0), (3.0, 1e-12)])
def test_hessian_matches_finite_difference_of_gradient(n, m, p, eps, rng):
    prob = _trap_problem(n, m, p)
    spec = prob.spec
    interior = np.flatnonzero(~spec.boundary_mask())
    v = np.zeros(spec.num_nodes)
    v[interior] = rng.standard_normal(interior.size)
    H = _hessian_interior(v, prob, eps).toarray()
    delta = 1e-6
    fd = np.empty_like(H)
    for col, node in enumerate(interior):
        step = np.zeros(spec.num_nodes)
        step[node] = delta
        dg = _gradient_arrays(v + step, prob) - _gradient_arrays(v - step, prob)
        fd[:, col] = dg[interior] / (2.0 * delta)
    assert np.allclose(H, H.T, rtol=0, atol=1e-14 * np.abs(H).max())
    assert np.abs(H - fd).max() <= 1e-8 * np.abs(H).max()


def test_solve_zero_datum_is_zero():
    prob = make_problem(p=3.0, f_field=lambda x: 0.0 * x)
    res = solve(prob)
    assert res.converged
    assert res.iterations <= 1
    assert res.u.max_abs() == 0.0
    assert res.energy == 0.0


def test_solve_residual_below_tolerance():
    prob = make_problem(p=3.0, m=129)
    res = solve(prob)
    assert res.converged
    assert res.residual_sup <= prob.tol_residual
    assert residual(res.u, prob).max_abs() == res.residual_sup


@pytest.mark.parametrize("n, m", [(1, 129), (2, 17), (3, 3), (3, 9)])
@pytest.mark.parametrize("p", [2.0, 3.0, 4.0])
@pytest.mark.parametrize("max_iters", [MAX_ITERS, 1], ids=["converged", "capped"])
def test_residual_sup_is_the_residual_of_the_returned_iterate(n, m, p, max_iters):
    prob = replace(_trap_problem(n, m, p), max_iters=max_iters)
    res = solve(prob)
    assert res.converged or max_iters == 1
    assert res.residual_sup == residual(res.u, prob).max_abs()


def test_manufactured_p2_second_order():
    errors = {}
    for m in (129, 257, 513):
        spec = GridSpec(1, 8.0, m)
        V = sample(spec, lambda x: 1.0 + 0.0 * x)
        f = sample(spec, manufactured_p2_datum)
        prob = Problem(spec=spec, p=ExponentP(2.0, degenerate_ok=True), V=V, f=f)
        res = solve(prob)
        exact = zero_boundary(sample(spec, manufactured_p2_solution))
        errors[m] = (res.u - exact).max_abs()
    assert errors[129] / errors[257] >= 3.0
    assert errors[257] / errors[513] >= 3.0


def test_manufactured_p4_refinement():
    errors = []
    for m in (129, 257, 513):
        spec = GridSpec(1, 8.0, m)
        V = sample(spec, lambda x: 1.0 + 0.0 * x)
        prob = Problem(
            spec=spec, p=ExponentP(4.0, degenerate_ok=True), V=V,
            f=manufactured_p4_datum(spec),
        )
        res = solve(prob)
        exact = zero_boundary(sample(spec, manufactured_p2_solution))
        errors.append((res.u - exact).max_abs())
    assert errors[0] > errors[1] > errors[2]
    assert errors[0] / errors[2] > 4.0


@pytest.mark.parametrize("p", [3.0, 4.0])
def test_energy_trace_nonincreasing(p):
    prob, _ = standard_problem_factory(p, m=129)
    res = solve(prob)
    trace = np.asarray(res.energy_trace)
    assert np.all(np.diff(trace) <= 0.0)
    assert res.energy == trace[-1]


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_uniqueness_from_two_starts(p, rng):
    prob, _ = standard_problem_factory(p, m=129)
    prob = Problem(
        spec=prob.spec, p=prob.p, V=prob.V, f=prob.f, tol_residual=1e-9,
    )
    zero = GridFunction(prob.spec, np.zeros(prob.spec.num_nodes))
    noisy = zero_boundary(
        GridFunction(prob.spec, 0.5 * rng.standard_normal(prob.spec.num_nodes))
    )
    a = solve(prob, u0=zero)
    b = solve(prob, u0=noisy)
    assert a.converged and b.converged
    assert (a.u - b.u).max_abs() <= 10.0 * prob.tol_residual


def test_non_convergence_is_flagged():
    prob, _ = standard_problem_factory(4.0, m=129)
    prob = Problem(
        spec=prob.spec, p=prob.p, V=prob.V, f=prob.f, max_iters=2,
        tol_residual=1e-12,
    )
    res = solve(prob)
    assert not res.converged
    assert res.iterations == 2
    assert len(res.energy_trace) == 3
    assert res.u.max_abs() > 0.0


def test_boundary_values_exactly_zero():
    prob, _ = standard_problem_factory(3.0, m=129)
    res = solve(prob)
    assert np.all(res.u.values[prob.spec.boundary_mask()] == 0.0)


def test_solve_2d_smoke():
    spec = GridSpec(2, 4.0, 17)
    V = sample(spec, lambda x, y: 1.0 + x**2 + y**2)
    f = sample(spec, lambda x, y: 3.0 * np.exp(-(x**2 + y**2)))
    prob = Problem(spec=spec, p=ExponentP(3.0, degenerate_ok=True), V=V, f=f)
    res = solve(prob)
    assert res.converged
    assert res.residual_sup <= prob.tol_residual
    assert np.all(res.u.values[spec.boundary_mask()] == 0.0)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("p", [2.0, 3.0])
def test_solve_one_interior_node(n, p):
    # m = 3 leaves a single unknown: every grid line is a 1 x 1 block
    spec = GridSpec(n, 1.0, 3)
    V = GridFunction(spec, np.full(spec.num_nodes, 2.0))
    f = GridFunction(spec, np.ones(spec.num_nodes))
    prob = Problem(spec=spec, p=p, V=V, f=f)
    res = solve(prob)
    assert res.converged
    assert res.residual_sup <= prob.tol_residual
    assert np.count_nonzero(res.u.values) == 1 and res.u.values[spec.num_nodes // 2] > 0.0


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("m", [4, 5, 17])
@pytest.mark.parametrize("p", [2.0, 3.0, 4.0])
def test_newton_solve_matches_direct_solve(n, m, p, rng):
    prob = _trap_problem(n, m, p)
    spec = prob.spec
    v = np.zeros(spec.num_nodes)
    if p == 2.0:
        # the p = 2, eps = 0 matrix of the linear warm start
        eps = 0.0
    else:
        eps = prob.eps_reg
        v[~spec.boundary_mask()] = rng.standard_normal(int(np.sum(~spec.boundary_mask())))
    H = _hessian_interior(v, prob, eps)
    rhs = rng.standard_normal(H.shape[0])
    x, count = _newton_solve(H, rhs, m)
    exact = spla.spsolve(H.tocsc(), rhs)
    assert np.linalg.norm(x - exact) <= 1e-8 * np.linalg.norm(exact)
    if n == 1:
        assert count == 1


@pytest.mark.parametrize("n", [2, 3])
def test_line_band_is_the_line_blocks_of_the_hessian(n, rng):
    # at m = 4 each line holds 2 unknowns, and the last node of one line and
    # the first of the next share a cell, so H couples them across the break
    m = 4
    prob = _trap_problem(n, m, 3.0)
    interior = ~prob.spec.boundary_mask()
    v = np.zeros(prob.spec.num_nodes)
    v[interior] = rng.standard_normal(int(np.sum(interior)))
    H = _hessian_interior(v, prob, prob.eps_reg)
    band = _line_band(H, m)
    dense = H.toarray()
    line = np.arange(dense.shape[0]) // (m - 2)
    breaks = line[1:] != line[:-1]
    upper = dense.diagonal(1)
    assert np.all(upper[breaks] != 0.0)
    assert np.array_equal(band[1], dense.diagonal())
    assert np.array_equal(band[0, 1:], np.where(breaks, 0.0, upper))
    assert band[0, 0] == 0.0


def _spgemm_hessian(v, prob, eps):
    """``h^n G_int^T K G_int + diag`` by sparse products, K assembled blockwise."""
    spec, p, n = prob.spec, prob.p, prob.spec.n
    interior = ~spec.boundary_mask()
    G = cell_gradient_matrix(spec)
    G_int = G[:, interior].tocsr()
    comps = (G @ v).reshape(n, -1)
    s = np.sum(comps * comps, axis=0) + eps * eps
    w1 = s ** ((p - 2.0) / 2.0)
    w2 = (p - 2.0) * s ** ((p - 4.0) / 2.0) if p != 2.0 else np.zeros_like(s)
    K = sp.bmat([[sp.diags(w2 * comps[a] * comps[b] + (w1 if a == b else 0.0))
                  for b in range(n)] for a in range(n)], format="csr")
    nodal = spec.weights() * prob.V.values * (p - 1.0) * (v * v + eps * eps) ** ((p - 2.0) / 2.0)
    return spec.h**n * (G_int.T @ (K @ G_int)) + sp.diags(nodal[interior])


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("m", [3, 4, 5, 17])
@pytest.mark.parametrize("p", [2.0, 3.0, 4.0])
@pytest.mark.parametrize("regularized", [False, True], ids=["eps0", "eps_reg"])
def test_hessian_matches_sparse_product_assembly(n, m, p, regularized, rng):
    prob = _trap_problem(n, m, p)
    spec = prob.spec
    eps = prob.eps_reg if regularized else 0.0
    interior = ~spec.boundary_mask()
    v = np.zeros(spec.num_nodes)
    v[interior] = rng.standard_normal(int(np.sum(interior)))
    H = _hessian_interior(v, prob, eps)
    oracle = _spgemm_hessian(v, prob, eps).tocsr()
    assert H.has_canonical_format
    assert abs(H - oracle).max() <= 1e-14 * abs(oracle).max()
    # every entry the products keep is stored in H; H may also store exact zeros
    stored = sp.csr_matrix((np.ones(H.nnz), H.indices, H.indptr), shape=H.shape)
    rows, cols = oracle.nonzero()
    assert np.all(np.asarray(stored[rows, cols]).ravel() == 1.0)


def test_hessian_matches_sparse_product_assembly_past_int32_keys(rng):
    # 217^2 interior nodes: the (row, col) sort keys no longer fit in int32
    prob = _trap_problem(2, 219, 3.0)
    interior = ~prob.spec.boundary_mask()
    assert np.sum(interior) ** 2 > np.iinfo(np.int32).max
    v = np.zeros(prob.spec.num_nodes)
    v[interior] = rng.standard_normal(int(np.sum(interior)))
    H = _hessian_interior(v, prob, prob.eps_reg)
    oracle = _spgemm_hessian(v, prob, prob.eps_reg)
    assert H.has_canonical_format and H.nnz == oracle.nnz
    assert abs(H - oracle).max() <= 1e-14 * abs(oracle).max()


def test_hessian_pattern_keeps_entries_that_cancel():
    # at 2D p = 2 the two gradient components cancel on cell edges, and the
    # sparse products drop those exact zeros
    prob = _trap_problem(2, 17, 2.0)
    v = np.zeros(prob.spec.num_nodes)
    H = _hessian_interior(v, prob, 0.0)
    oracle = _spgemm_hessian(v, prob, 0.0)
    assert (H.nnz, oracle.nnz) == (1849, 1009)
    assert abs(H - oracle).max() <= 1e-14 * abs(oracle).max()


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("m", [4, 17])
def test_line_preconditioner_matches_banded_cholesky(n, m, rng):
    prob = _trap_problem(n, m, 3.0)
    interior = ~prob.spec.boundary_mask()
    v = np.zeros(prob.spec.num_nodes)
    v[interior] = rng.standard_normal(int(np.sum(interior)))
    H = _hessian_interior(v, prob, prob.eps_reg)
    r = rng.standard_normal(H.shape[0])
    x = _line_preconditioner(H, m)(r)
    exact = cho_solve_banded((cholesky_banded(_line_band(H, m)), False), r)
    assert x.shape == r.shape
    assert np.linalg.norm(x - exact) <= 1e-12 * np.linalg.norm(exact)


def test_line_preconditioner_rejects_indefinite_line_block():
    H = sp.diags([2.0, 2.0, -1.0, 2.0], format="csr")
    with pytest.raises(np.linalg.LinAlgError, match="positive definite"):
        _line_preconditioner(H, 4)


def test_1d_newton_steps_take_one_cg_iteration():
    prob, _ = standard_problem_factory(3.0, m=129)
    res = solve(prob)
    assert res.converged
    assert res.linear_iterations == (1,) * res.iterations
    assert res.diagnostics()["linear_iterations"] == [1] * res.iterations


def test_solve_3d_m25_matches_direct_solve_reference():
    # the 3D benchmark trap and datum at m = 25; the sparse direct solve took
    # 12 Newton steps to the energy below
    spec = GridSpec(3, 6.0, 25)
    x = spec.node_coords()
    V = GridFunction(spec, 1.0 + np.sum(x**2, axis=1))
    f = GridFunction(
        spec,
        12.0 * np.exp(-np.sum((x - [-2.0, 0.0, 0.0]) ** 2, axis=1) / 0.64)
        + 4.0 * np.exp(-np.sum((x - [2.0, 1.0, -1.0]) ** 2, axis=1)),
    )
    res = solve(Problem(spec=spec, p=3.0, V=V, f=f))
    assert res.converged
    assert res.iterations == 12
    assert res.energy == pytest.approx(-22.16469913622148, rel=1e-12)
    assert len(res.linear_iterations) == res.iterations


@pytest.mark.parametrize("p", [2.0, 2.5, 3.0, 4.0])
def test_flux_monotonicity_vectors_and_scalars(p, rng):
    xi = rng.standard_normal((100_000, 3))
    eta = rng.standard_normal((100_000, 3))
    rhs = 2.0 ** (2.0 - p) * np.sum((xi - eta) ** 2, axis=-1) ** (p / 2.0)
    margin = monotonicity_margin(xi, eta, p)
    assert float(np.min(margin / np.maximum(rhs, 1e-300))) >= -1e-12
    a = 3.0 * rng.standard_normal(100_000)
    b = 3.0 * rng.standard_normal(100_000)
    rhs_s = 2.0 ** (2.0 - p) * np.abs(a - b) ** p
    margin_s = monotonicity_margin(a, b, p)
    assert float(np.min(margin_s / np.maximum(rhs_s, 1e-300))) >= -1e-12


@pytest.mark.parametrize("n, m", [(1, 4097), (2, 65), (3, 17)])
@pytest.mark.parametrize("p", [2.0, 2.5, 3.0, 6.0])
def test_grid_powers_bit_identical_on_underflowing_tail(n, m, p):
    # exp(-18.5 |x|) on [-40, 40]^n: most |u|^p fall below the double range
    spec = GridSpec(n, 40.0, m)
    x = spec.node_coords()
    r = np.sqrt(np.sum(x**2, axis=1))
    V = GridFunction(spec, 1.0 + r**2)
    f = GridFunction(spec, np.exp(-(r**2)))
    prob = Problem(spec=spec, p=p, V=V, f=f)
    u = zero_boundary(GridFunction(spec, np.cos(x[:, 0]) * np.exp(-18.5 * r)))
    v = u.values
    assert np.count_nonzero((np.abs(v) ** p == 0.0) & (v != 0.0)) > v.size // 4

    h_n, w = spec.h**spec.n, spec.weights()
    G = cell_gradient_matrix(spec)
    comps = (G @ v).reshape(n, -1)
    s = np.sum(comps * comps, axis=0)
    J = (h_n / p * float(np.sum(s ** (p / 2.0)))
         + float(np.dot(w, V.values * np.abs(v) ** p)) / p
         - float(np.dot(w, f.values * v)))
    assert _energy_arrays(v, prob) == J
    g = h_n * (G.T @ (s ** ((p - 2.0) / 2.0) * comps).ravel())
    g += w * V.values * np.abs(v) ** (p - 2.0) * v
    g -= w * f.values
    assert _gradient_arrays(v, prob).tobytes() == g.tobytes()

    xnorm = (h_n * float(np.sum(s ** (p / 2.0)))
             + integrate(GridFunction(spec, V.values * np.abs(v) ** p)))
    assert x_norm_p(u, V, p) == xnorm
    clipped = np.minimum(np.abs(v), 1.0) ** p
    for R in (0.0, 1.0, 12.0):
        assert tail_lambda(u, R, p) == annulus_integrate(GridFunction(spec, clipped), R)
    rows = np.stack([v, 1e3 * v, 1e-3 * v])
    expected = (np.minimum(np.abs(rows), 1.0) ** p @ w) ** (1.0 / p)
    assert lambda_fnorm_rows(rows, w, p).tobytes() == expected.tobytes()
