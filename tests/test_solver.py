import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import cho_solve_banded, cholesky_banded
from scipy.linalg.lapack import dpttrf, dpttrs

from pschrod.asymptotic import ExponentP, lambda_fnorm_rows, lp_norm, tail_lambda, x_norm_p
from pschrod.grid import (
    GridFunction,
    GridSpec,
    cell_gradient_squared,
    cell_stencil,
    integrate,
    sample,
    zero_boundary,
)
from pschrod.potentials import sample_potential, sparse_wells
from pschrod.presets import standard_problem, two_bump_datum
from pschrod import solver
from pschrod.solver import (
    MAX_ITERS,
    Problem,
    _energy_arrays,
    _gradient_arrays,
    _hessian_interior,
    _hessian_pattern,
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
# explicit ids keep the names of these cases stable in the suite
@pytest.mark.parametrize("p", [2.0, 3.0], ids=["2.0-0.0", "3.0-1e-12"])
def test_hessian_matches_finite_difference_of_gradient(n, m, p, rng):
    prob = _trap_problem(n, m, p)
    spec = prob.spec
    interior = np.flatnonzero(~spec.boundary_mask())
    v = np.zeros(spec.num_nodes)
    v[interior] = rng.standard_normal(interior.size)
    H = _hessian_interior(v, prob)[0].toarray()
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


def _sup_errors(manufactured_case, p, n, L, ms):
    """Sup-norm error of the solve against the exact solution, one per m."""
    return [(solve(prob).u - exact).max_abs()
            for prob, exact in (manufactured_case(p, GridSpec(n, L, m)) for m in ms)]


def test_manufactured_p2_second_order(manufactured_case):
    errors = _sup_errors(manufactured_case, 2.0, 1, 8.0, (129, 257, 513))
    assert errors[0] / errors[1] >= 3.0
    assert errors[1] / errors[2] >= 3.0


def test_manufactured_p4_refinement(manufactured_case):
    errors = _sup_errors(manufactured_case, 4.0, 1, 8.0, (129, 257, 513))
    assert errors[0] > errors[1] > errors[2]
    assert errors[0] / errors[2] > 4.0


@pytest.mark.parametrize("n, ms", [(2, (33, 65, 129)), (3, (9, 17, 33))])
def test_manufactured_p2_second_order_nd(manufactured_case, n, ms):
    errors = _sup_errors(manufactured_case, 2.0, n, 4.0, ms)
    orders = [np.log2(a / b) for a, b in zip(errors, errors[1:])]
    assert min(orders) >= 1.9, orders


# Sup errors and u_h(0) of the one-point cell gradient, whose hourglass
# mode shows at the degenerate point r = 0 (at 3D m = 17, u_h(0) < 0 where
# u(0) = 1).  A P1 gradient on the Kuhn triangulation is expected to move
# these pins; a change that does reports them before and after.
@pytest.mark.parametrize("n, ms, pins, origin", [
    (2, (17, 33, 65), (0.355121088513, 0.0344985369498, 0.0105062269593), 0.989493773041),
    (3, (9, 17), (1.05800681346, 1.16385016566), -0.163850165663),
])
def test_manufactured_p4_nd_pins(manufactured_case, n, ms, pins, origin):
    for m, pin in zip(ms, pins):
        prob, exact = manufactured_case(4.0, GridSpec(n, 4.0, m))
        u = solve(prob).u
        assert (u - exact).max_abs() == pytest.approx(pin, rel=1e-6)
    assert u.values[u.spec.num_nodes // 2] == pytest.approx(origin, rel=1e-6)  # finest m


@pytest.mark.parametrize("p", [3.0, 4.0])
def test_energy_trace_nonincreasing(p):
    prob = standard_problem(p, m=129)
    res = solve(prob)
    trace = np.asarray(res.energy_trace)
    assert np.all(np.diff(trace) <= 0.0)
    assert res.energy == trace[-1]


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_uniqueness_from_two_starts(p, rng):
    prob = standard_problem(p, m=129)
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
    prob = standard_problem(4.0, m=129)
    prob = Problem(
        spec=prob.spec, p=prob.p, V=prob.V, f=prob.f, max_iters=2,
        tol_residual=1e-12,
    )
    res = solve(prob)
    assert not res.converged
    assert res.iterations == 2
    assert len(res.energy_trace) == 3
    assert res.u.max_abs() > 0.0


def test_continuation_in_p_stops_on_an_indefinite_line_block():
    # each solve starts from the last; at p = 16 the nodal diagonal of the
    # Hessian underflows to 0 on a grid line and that line block is singular
    u, steps = None, []
    for p in [2.0, 3.0, 4.0, 6.0, 8.0, 12.0]:
        prob = standard_problem(p)
        res = solve(prob, u0=u)
        assert res.converged
        steps.append(res.iterations)
        u = res.u
    assert steps == [2, 11, 10, 21, 16, 17]
    prob = standard_problem(16.0)
    res = solve(prob, u0=u)
    assert not res.converged
    assert res.iterations < prob.max_iters
    assert res.residual_sup > prob.tol_residual
    assert np.all(np.diff(res.energy_trace) <= 0.0)


def test_boundary_values_exactly_zero():
    prob = standard_problem(3.0, m=129)
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
    # at p = 2, v = 0 gives the matrix of the linear warm start
    if p != 2.0:
        v[~spec.boundary_mask()] = rng.standard_normal(int(np.sum(~spec.boundary_mask())))
    H, band = _hessian_interior(v, prob)
    rhs = rng.standard_normal(H.shape[0])
    x, count = _newton_solve(H, band, rhs, 1e-10)
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
    H, band = _hessian_interior(v, prob)
    dense = H.toarray()
    line = np.arange(dense.shape[0]) // (m - 2)
    breaks = line[1:] != line[:-1]
    upper = dense.diagonal(1)
    assert np.all(upper[breaks] != 0.0)
    assert np.array_equal(band[1], dense.diagonal())
    assert np.array_equal(band[0, 1:], np.where(breaks, 0.0, upper))
    assert band[0, 0] == 0.0


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("m", [3, 4, 5, 17])
def test_line_band_reads_the_diagonals_of_the_hessian(n, m, rng):
    prob = _trap_problem(n, m, 3.0)
    interior = ~prob.spec.boundary_mask()
    v = np.zeros(prob.spec.num_nodes)
    v[interior] = rng.standard_normal(int(np.sum(interior)))
    H, band = _hessian_interior(v, prob)
    expected = np.zeros((2, H.shape[0]))
    expected[1] = H.diagonal()
    expected[0, 1:] = H.diagonal(1)
    expected[0, ::m - 2] = 0.0
    assert band.tobytes() == expected.tobytes()


def _spgemm_hessian(v, prob, G):
    """``h^n G_int^T K G_int + diag`` by sparse products, K assembled blockwise."""
    spec, p, n, eps = prob.spec, prob.p, prob.spec.n, prob.eps_reg
    interior = ~spec.boundary_mask()
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
# "eps0": the flat state v = 0, where eps alone sets every cell weight (at
# p = 2 the matrix of the linear warm start); "eps_reg": a random state
@pytest.mark.parametrize("flat", [True, False], ids=["eps0", "eps_reg"])
def test_hessian_matches_sparse_product_assembly(n, m, p, flat, rng, kronecker_gradient):
    prob = _trap_problem(n, m, p)
    spec = prob.spec
    interior = ~spec.boundary_mask()
    v = np.zeros(spec.num_nodes)
    if not flat:
        v[interior] = rng.standard_normal(int(np.sum(interior)))
    H, _ = _hessian_interior(v, prob)
    oracle = _spgemm_hessian(v, prob, kronecker_gradient(spec)).tocsr()
    assert H.has_canonical_format
    assert abs(H - oracle).max() <= 1e-14 * abs(oracle).max()
    # every entry the products keep is stored in H; H may also store exact zeros
    stored = sp.csr_matrix((np.ones(H.nnz), H.indices, H.indptr), shape=H.shape)
    rows, cols = oracle.nonzero()
    assert np.all(np.asarray(stored[rows, cols]).ravel() == 1.0)


def test_hessian_matches_sparse_product_assembly_past_int32_keys(rng, kronecker_gradient):
    # the one large grid checked against the sparse products: with 217^2
    # interior nodes a flat (row, col) index no longer fits in int32, so the
    # pattern must index its entries some other way
    prob = _trap_problem(2, 219, 3.0)
    interior = ~prob.spec.boundary_mask()
    assert np.sum(interior) ** 2 > np.iinfo(np.int32).max
    v = np.zeros(prob.spec.num_nodes)
    v[interior] = rng.standard_normal(int(np.sum(interior)))
    H, _ = _hessian_interior(v, prob)
    oracle = _spgemm_hessian(v, prob, kronecker_gradient(prob.spec))
    assert H.has_canonical_format and H.nnz == oracle.nnz
    assert abs(H - oracle).max() <= 1e-14 * abs(oracle).max()


def test_hessian_pattern_keeps_entries_that_cancel(kronecker_gradient):
    # at 2D p = 2 the two gradient components cancel on cell edges, and the
    # sparse products drop those exact zeros
    prob = _trap_problem(2, 17, 2.0)
    v = np.zeros(prob.spec.num_nodes)
    H, _ = _hessian_interior(v, prob)
    oracle = _spgemm_hessian(v, prob, kronecker_gradient(prob.spec))
    assert (H.nnz, oracle.nnz) == (1849, 1009)
    assert abs(H - oracle).max() <= 1e-14 * abs(oracle).max()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_hessian_pattern_groups_antipodal_corners(n):
    # corner k and its antipode 2^n - 1 - k have opposite stencil columns,
    # so one value per pair of groups carries every corner pair of a cell
    spec = GridSpec(n, 2.0, 5)
    _, coeffs = cell_stencil(spec)
    pattern = _hessian_pattern(spec)
    groups = 2 ** (n - 1)
    assert pattern.signs.shape == (groups, n)
    assert len(pattern.pairs) == groups * (groups + 1) // 2
    for k in range(2**n):
        low = min(k, 2**n - 1 - k)
        assert np.array_equal(coeffs[:, low], -coeffs[:, 2**n - 1 - low])
    constants = pattern.scale * pattern.overlap
    for k, (a, b) in enumerate(pattern.pairs):
        ga, gb = coeffs[:, a], coeffs[:, b]  # the first corner of each group
        assert np.array_equal(np.sign(ga), pattern.signs[a])
        assert constants[k] == pytest.approx(spec.h**n * np.dot(ga, gb), rel=1e-15)


@pytest.mark.parametrize("m", [3, 4, 17, 4097])
@pytest.mark.parametrize("p", [2.0, 3.0, 4.0])
@pytest.mark.parametrize("flat", [True, False], ids=["eps0", "eps_reg"])
def test_1d_hessian_bytes_match_outer_product_fill(m, p, flat, rng):
    # in 1D the cell block is the outer product of the cell weight K and the
    # 2 x 2 block M, and each diagonal entry adds the two blocks that meet on
    # it in cell order
    prob = _trap_problem(1, m, p)
    spec, eps = prob.spec, prob.eps_reg
    interior = ~spec.boundary_mask()
    v = np.zeros(spec.num_nodes)
    if not flat:
        v[interior] = rng.standard_normal(m - 2)
    comps, s = cell_gradient_squared(v, spec)
    s += eps * eps
    w1 = s ** ((p - 2.0) / 2.0)
    w2 = (p - 2.0) * s ** ((p - 4.0) / 2.0) if p != 2.0 else np.zeros_like(s)
    K = (w2 * comps[0]) * comps[0]
    K += w1
    g = cell_stencil(spec)[1][0]
    M = spec.h * (g[:, None] * g[None, :])
    KM = K[:, None, None] * M  # (cells, corner i, corner j)
    diagonal = KM[:-1, 1, 1] + KM[1:, 0, 0]
    diagonal += (spec.weights() * prob.V.values * (p - 1.0)
                 * (v * v + eps * eps) ** ((p - 2.0) / 2.0))[interior]
    tridiagonal = sp.diags(
        [KM[1:-1, 1, 0], diagonal, KM[1:-1, 0, 1]], [-1, 0, 1], format="csr"
    )
    H, _ = _hessian_interior(v, prob)
    assert np.array_equal(H.indptr, tridiagonal.indptr)
    assert np.array_equal(H.indices, tridiagonal.indices)
    assert H.data.tobytes() == tridiagonal.data.tobytes()


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("m", [3, 4, 5])
@pytest.mark.parametrize("p", [2.0, 3.0, 4.0])
@pytest.mark.parametrize("flat", [True, False], ids=["eps0", "eps_reg"])
def test_nd_hessian_bytes_match_cell_order_fill(n, m, p, flat, rng):
    # each cell's 2^n x 2^n block, from the same products the fill takes,
    # added into H in increasing cell order, then the nodal diagonal: the
    # summation order that keeps nD artifacts byte-identical
    prob = _trap_problem(n, m, p)
    spec, eps = prob.spec, prob.eps_reg
    interior = ~spec.boundary_mask()
    size = int(np.sum(interior))
    v = np.zeros(spec.num_nodes)
    if not flat:
        v[interior] = rng.standard_normal(size)
    comps, s = cell_gradient_squared(v, spec)
    s += eps * eps
    w1 = s ** ((p - 2.0) / 2.0)
    w2 = (p - 2.0) * s ** ((p - 4.0) / 2.0) if p != 2.0 else np.zeros_like(s)
    steps, coeffs = cell_stencil(spec)
    corners = steps.shape[1]
    sigma = np.sign(coeffs)  # every column is c sigma_k, one magnitude c
    y = np.empty((corners, s.size))  # sigma_k . xi, components added in axis order
    for k in range(corners):
        y[k] = sigma[0, k] * comps[0]
        for axis in range(1, n):
            y[k] += sigma[axis, k] * comps[axis]
    # corner k and its antipode share a group; the lower group's value comes first
    group = np.minimum(np.arange(corners), corners - 1 - np.arange(corners))
    scale = spec.h**n * (coeffs[0, 0] * coeffs[0, 0])
    block = np.empty((s.size, corners, corners))
    for i in range(corners):
        for j in range(corners):
            lo, hi = (i, j) if group[i] <= group[j] else (j, i)
            value = (w2 * y[lo]) * y[hi]
            overlap = sigma[:, i] @ sigma[:, j]
            if overlap != 0.0:
                value += overlap * w1
            block[:, i, j] = value * scale
    local = np.full(spec.num_nodes, -1)
    local[interior] = np.arange(size)
    reference = np.zeros((size, size))
    stored = np.zeros((size, size), dtype=bool)
    # the corner nodes of every cell, cells row-major, corners in table order
    lowest = np.arange(spec.num_nodes).reshape(spec.shape)[(slice(0, m - 1),) * n].ravel()
    corner_nodes = lowest[:, None] + m ** np.arange(n - 1, -1, -1) @ steps
    for c, nodes in enumerate(local[corner_nodes]):
        keep = nodes >= 0
        entries = np.ix_(nodes[keep], nodes[keep])
        reference[entries] += block[c][np.ix_(keep, keep)]
        stored[entries] = True
    reference[np.diag_indices(size)] += (spec.weights() * prob.V.values * (p - 1.0)
                                         * (v * v + eps * eps) ** ((p - 2.0) / 2.0))[interior]
    H, _ = _hessian_interior(v, prob)
    assert H.has_canonical_format
    rows = np.repeat(np.arange(size), np.diff(H.indptr))
    assert np.array_equal(sp.coo_matrix((np.ones(H.nnz), (rows, H.indices)),
                                        shape=H.shape).toarray() == 1.0, stored)
    assert H.data.tobytes() == reference[rows, H.indices].tobytes()


def test_hessian_pattern_memory_on_3d_grid():
    # per stored entry a column (4 bytes) and a position in the offset
    # arrays (8 bytes): 8.7 MiB here
    spec = GridSpec(3, 2.0, 33)
    cell_stencil(spec)
    tracemalloc.start()
    try:
        pattern = _hessian_pattern.__wrapped__(spec)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert pattern.indices.size > 7 * 10**5
    assert held <= 12 * 2**20


def test_hessian_fill_memory_on_cached_pattern(rng):
    # a fill holds the (pairs, cells) group values with the offset arrays,
    # then the offset arrays with the line band and the CSR data: 10.0 MiB here
    prob = _trap_problem(3, 33, 3.0)
    interior = ~prob.spec.boundary_mask()
    v = np.zeros(prob.spec.num_nodes)
    v[interior] = rng.standard_normal(int(np.sum(interior)))
    _hessian_interior(v, prob)
    tracemalloc.start()
    try:
        _hessian_interior(v, prob)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 11 * 2**20


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("m", [4, 17])
def test_line_preconditioner_matches_banded_cholesky(n, m, rng):
    prob = _trap_problem(n, m, 3.0)
    interior = ~prob.spec.boundary_mask()
    v = np.zeros(prob.spec.num_nodes)
    v[interior] = rng.standard_normal(int(np.sum(interior)))
    H, band = _hessian_interior(v, prob)
    r = rng.standard_normal(H.shape[0])
    # before the preconditioner factors the band in place
    exact = cho_solve_banded((cholesky_banded(band), False), r)
    x = _line_preconditioner(band)(r)
    assert x.shape == r.shape
    assert np.linalg.norm(x - exact) <= 1e-12 * np.linalg.norm(exact)


def test_line_preconditioner_rejects_indefinite_line_block():
    prob = _trap_problem(2, 4, 2.0)
    _, band = _hessian_interior(np.zeros(prob.spec.num_nodes), prob)
    band[1, 2] = -1.0
    with pytest.raises(np.linalg.LinAlgError, match="positive definite"):
        _line_preconditioner(band)


def test_1d_newton_steps_take_one_cg_iteration():
    prob = standard_problem(3.0, m=129)
    res = solve(prob)
    assert res.converged
    assert res.linear_iterations == (1,) * res.iterations
    assert res.diagnostics()["linear_iterations"] == [1] * res.iterations


def _benchmark_trap_problem(n, m, p):
    """The 3D benchmark trap ``1 + |x|^2`` and two-Gaussian datum on [-6, 6]^n."""
    spec = GridSpec(n, 6.0, m)
    x = spec.node_coords()
    V = GridFunction(spec, 1.0 + np.sum(x**2, axis=1))
    f = GridFunction(
        spec,
        12.0 * np.exp(-np.sum((x - [-2.0, 0.0, 0.0][:n]) ** 2, axis=1) / 0.64)
        + 4.0 * np.exp(-np.sum((x - [2.0, 1.0, -1.0][:n]) ** 2, axis=1)),
    )
    return Problem(spec=spec, p=p, V=V, f=f)


def test_solve_3d_m25_matches_direct_solve_reference():
    # the 3D benchmark trap and datum at m = 25; the sparse direct solve took
    # 12 Newton steps to the energy below
    res = solve(_benchmark_trap_problem(3, 25, 3.0))
    assert res.converged
    assert res.iterations == 10
    assert res.energy == pytest.approx(-22.16469913622148, rel=1e-12)
    assert len(res.linear_iterations) == res.iterations
    assert sum(res.linear_iterations) == 115


def test_solve_2d_m129_p4_inexact_newton_keeps_the_energy():
    # the energy of the same solve with every Newton system solved to 1e-10
    res = solve(_benchmark_trap_problem(2, 129, 4.0))
    assert res.converged
    assert res.iterations == 14
    assert res.energy == pytest.approx(-23.823046859438648, rel=1e-12)
    assert sum(res.linear_iterations) == 663


def test_solve_3d_p2_solves_every_system_exactly():
    # one exact Newton step minimizes the quadratic energy and the polish
    # step is the second; forcing terms would only add steps
    res = solve(_benchmark_trap_problem(3, 17, 2.0))
    assert res.converged
    assert res.iterations == 2
    assert sum(res.linear_iterations) == 34


@pytest.mark.parametrize("p", [2.0, 3.0, 4.0])
def test_newton_systems_use_eisenstat_walker_forcing_terms(p, monkeypatch):
    prob = _trap_problem(2, 33, p)
    w = prob.spec.weights()[~prob.spec.boundary_mask()]
    calls = []  # (|rhs|_2, residual sup-norm, rtol) of every linear solve

    def recording(H, band, rhs, rtol):
        calls.append((np.linalg.norm(rhs), np.max(np.abs(rhs / w)), rtol))
        return _newton_solve(H, band, rhs, rtol)

    monkeypatch.setattr(solver, "_newton_solve", recording)
    res = solve(prob)
    assert res.converged
    # exactly one polish system: the step after the residual first meets tol
    assert sum(rsup <= prob.tol_residual for _, rsup, _ in calls) == 1
    if p == 2.0:
        assert {rtol for *_, rtol in calls} == {1e-10}
        return
    warm, steps = calls[0], calls[1:]
    assert warm[2] == 1e-10
    assert steps[0][2] == 1e-4
    polish = False
    for (norm_prev, _, _), (norm, rsup, rtol) in zip(steps, steps[1:]):
        polish = polish or rsup <= prob.tol_residual
        if polish:
            assert rtol == 1e-10
        else:
            assert rtol == min(max(0.9 * (norm / norm_prev) ** 2, 1e-10), 1e-4)
    assert polish
    assert any(1e-10 < rtol < 1e-4 for *_, rtol in steps)


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
def test_grid_powers_bit_identical_on_underflowing_tail(n, m, p, kronecker_gradient):
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
    G = kronecker_gradient(spec)
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
    radii = (0.0, 1.0, 12.0)
    assert tail_lambda(u, radii, p) == [
        float(np.dot(w[outside], clipped[outside])) for outside in (spec.radii() > R for R in radii)
    ]
    rows = np.stack([v, 1e3 * v, 1e-3 * v])
    expected = (np.minimum(np.abs(rows), 1.0) ** p @ w) ** (1.0 / p)
    assert lambda_fnorm_rows(rows, w, p).tobytes() == expected.tobytes()


def _subnormal_count(x):
    return int(np.count_nonzero((x != 0.0) & (np.abs(x) < np.finfo(np.float64).tiny)))


@pytest.fixture(scope="module")
def wells_tail_solve():
    """The 1D sparse-wells problem whose solution decays below the double range."""
    spec = GridSpec(1, 40.0, 4097)
    prob = Problem(spec=spec, p=3.0, V=sample_potential(sparse_wells(2.0), spec),
                   f=two_bump_datum(spec))
    return prob, solve(prob)


def test_solve_keeps_subnormals_out_of_the_iterate(wells_tail_solve):
    prob, res = wells_tail_solve
    u = res.u.values
    assert res.converged
    assert _subnormal_count(u) == 0
    # the tail underflows: before the flush 98 of these 213 zeros were subnormal
    assert np.count_nonzero(u[~prob.spec.boundary_mask()] == 0.0) == 213
    # the values of the solve without the flush, bit for bit
    assert res.iterations == 13
    assert res.linear_iterations == (1,) * 13
    assert res.residual_sup == 1.9909407455998006e-12
    assert [x.hex() for x in res.energy_trace] == [
        "-0x1.808e1a9ad0a41p+2", "-0x1.98ecf9ea95645p+2", "-0x1.b0fa2d569c338p+2",
        "-0x1.b200d23af069ap+2", "-0x1.b20cd0ac9be64p+2", "-0x1.b20d89266f7aep+2",
        "-0x1.b20d9bdaeaa9ap+2", "-0x1.b20d9eb183432p+2", "-0x1.b20d9eda61ffbp+2",
        "-0x1.b20d9edbb464fp+2", "-0x1.b20d9edbc3eeap+2", "-0x1.b20d9edbc5b40p+2",
        "-0x1.b20d9edbc5b52p+2", "-0x1.b20d9edbc5b53p+2",
    ]


def test_line_preconditioner_output_has_no_subnormals(wells_tail_solve):
    prob, res = wells_tail_solve
    spec = prob.spec
    H, band = _hessian_interior(res.u.values, prob)
    r = -_gradient_arrays(res.u.values, prob)[~spec.boundary_mask()]
    z = _line_preconditioner(band)(r)
    assert _subnormal_count(z) == 0
    # the LAPACK solve alone leaves subnormals, and z is it with them set to 0
    d, e, _ = dpttrf(H.diagonal(), H.diagonal(1))
    raw = dpttrs(d, e, r)[0]
    assert _subnormal_count(raw) > 0
    assert np.array_equal(z, np.where(np.abs(raw) < np.finfo(np.float64).tiny, 0.0, raw))
