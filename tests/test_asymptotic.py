import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pschrod.asymptotic import (
    EstimateReport,
    ExponentP,
    lambda_dist,
    lambda_fnorm,
    lambda_fnorm_rows,
    lambda_mass_rows,
    lp_norm,
    superlevel_measure,
    tail_lambda,
    truncate,
    weak_lq_quasinorm,
    x_norm_p,
)
from pschrod.grid import GridFunction, GridSpec, sample


def indicator(spec, lo, hi, height=1.0):
    x = spec.axis_coords()
    return GridFunction(spec, np.where((x > lo) & (x <= hi), height, 0.0))


def test_truncate_clips():
    spec = GridSpec(1, 4.0, 9)
    u = GridFunction(spec, np.array([3.0, -5.0, 0.5, 2.0, -2.0, 1.0, 0.0, 7.0, -0.1]))
    t2 = truncate(u, 2.0)
    assert t2.values[0] == 2.0 and t2.values[1] == -2.0
    t1 = truncate(u, 1.0)
    assert t1.values[2] == 0.5


def test_truncate_rejects_nonpositive_level():
    u = sample(GridSpec(1, 1.0, 5), lambda x: x)
    with pytest.raises(ValueError):
        truncate(u, 0.0)


@settings(max_examples=200, deadline=None)
@given(
    a=st.floats(-1e6, 1e6),
    b=st.floats(-1e6, 1e6),
    alpha=st.floats(1e-3, 1e3),
)
def test_truncation_difference_bound(a, b, alpha):
    gap = abs(np.clip(a, -alpha, alpha) - np.clip(b, -alpha, alpha))
    assert gap <= min(abs(a - b), 2 * alpha) * (1 + 1e-12) + 1e-15


def test_truncation_difference_bound_bulk(rng):
    a = 100.0 * rng.standard_normal(100_000)
    b = 100.0 * rng.standard_normal(100_000)
    alpha = 2.0
    gap = np.abs(np.clip(a, -alpha, alpha) - np.clip(b, -alpha, alpha))
    assert np.all(gap <= np.minimum(np.abs(a - b), 2 * alpha) + 1e-15)


def test_fnorm_indicator():
    spec = GridSpec(1, 8.0, 17)  # h = 1, node-measure of (0, 4] is 4
    u = indicator(spec, 0.0, 4.0)
    assert superlevel_measure(u, 0.5) == 4.0
    assert lambda_fnorm(u, 2.0) == pytest.approx(2.0, rel=1e-14)
    assert lambda_fnorm(5.0 * u, 2.0) == pytest.approx(2.0, rel=1e-14)


def test_fnorm_linear_profile():
    # integral of |x| over [-1, 1] is exact for the trapezoid rule (kink at a node)
    u = sample(GridSpec(1, 1.0, 201), lambda x: x)
    assert lambda_fnorm(u, 1.0) == pytest.approx(1.0, rel=1e-13)


def test_fnorm_zero_iff_zero():
    spec = GridSpec(1, 1.0, 9)
    assert lambda_fnorm(GridFunction(spec, np.zeros(9)), 2.0) == 0.0
    v = np.zeros(9)
    v[4] = 1e-9
    assert lambda_fnorm(GridFunction(spec, v), 2.0) > 0.0


def test_dist_axioms(rng):
    spec = GridSpec(1, 4.0, 65)
    u = GridFunction(spec, 3.0 * rng.standard_normal(65))
    v = GridFunction(spec, 3.0 * rng.standard_normal(65))
    w = GridFunction(spec, 3.0 * rng.standard_normal(65))
    assert lambda_dist(u, u, 2.0) == 0.0
    assert lambda_dist(u, v, 2.0) == pytest.approx(lambda_dist(v, u, 2.0), rel=1e-14)
    assert lambda_dist(u + w, v + w, 2.0) == pytest.approx(
        lambda_dist(u, v, 2.0), rel=1e-12
    )


@pytest.mark.parametrize("p", [2.0, 2.5])
def test_fnorm_rows_matches_per_row_dist(rng, p):
    spec = GridSpec(1, 4.0, 129)
    u, v = 3.0 * rng.standard_normal((2, 50, 129))
    rows = lambda_fnorm_rows(u - v, spec.weights(), p)
    assert rows.shape == (50,)
    loop = np.array([
        lambda_dist(GridFunction(spec, a), GridFunction(spec, b), p) for a, b in zip(u, v)
    ])
    assert np.max(np.abs(rows - loop) / loop) <= 1e-15


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
def test_fnorm_rows_single_row_bit_identical(rng, p):
    spec = GridSpec(1, 4.0, 129)
    x = 3.0 * rng.standard_normal(129)
    w = spec.weights()
    clipped = np.minimum(np.abs(x), 1.0) ** p
    expected = float(np.dot(w, clipped)) ** (1.0 / p)
    assert float(lambda_fnorm_rows(x, w, p)) == expected
    assert lambda_fnorm(GridFunction(spec, x), p) == expected


def test_dist_spec_mismatch():
    u = sample(GridSpec(1, 1.0, 5), lambda x: x)
    v = sample(GridSpec(1, 1.0, 7), lambda x: x)
    with pytest.raises(ValueError):
        lambda_dist(u, v, 2.0)


def test_dist_rejects_infinite_p():
    # d(u, u) = 0 is defined only for a finite exponent
    u = sample(GridSpec(1, 1.0, 5), lambda x: x)
    with pytest.raises(ValueError, match="finite"):
        lambda_dist(u, u, np.inf)


def test_triangle_inequality_random(rng):
    spec = GridSpec(1, 4.0, 65)
    for _ in range(10_000):
        a, b, c = 4.0 * rng.standard_normal((3, 65))
        u, v, w = (GridFunction(spec, z) for z in (a, b, c))
        duv = lambda_dist(u, v, 2.0)
        assert duv <= lambda_dist(u, w, 2.0) + lambda_dist(w, v, 2.0) + 1e-12 * max(duv, 1.0)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_triangle_inequality_hypothesis(data):
    spec = GridSpec(1, 1.0, 5)
    arrays = st.lists(st.floats(-100, 100), min_size=5, max_size=5)
    u = GridFunction(spec, np.array(data.draw(arrays)))
    v = GridFunction(spec, np.array(data.draw(arrays)))
    w = GridFunction(spec, np.array(data.draw(arrays)))
    duv = lambda_dist(u, v, 2.0)
    assert duv <= lambda_dist(u, w, 2.0) + lambda_dist(w, v, 2.0) + 1e-12 * (duv + 1.0)


def test_fnorm_subadditivity(rng):
    spec = GridSpec(1, 4.0, 65)
    for _ in range(2_000):
        u = GridFunction(spec, 4.0 * rng.standard_normal(65))
        v = GridFunction(spec, 4.0 * rng.standard_normal(65))
        lhs = lambda_fnorm(u + v, 2.0)
        rhs = lambda_fnorm(u, 2.0) + lambda_fnorm(v, 2.0)
        assert lhs <= rhs * (1 + 1e-12)


def test_truncation_is_contraction_for_dist(rng):
    spec = GridSpec(1, 4.0, 65)
    for _ in range(2_000):
        u = GridFunction(spec, 4.0 * rng.standard_normal(65))
        v = GridFunction(spec, 4.0 * rng.standard_normal(65))
        alpha = float(rng.uniform(0.05, 5.0))
        d_trunc = lambda_dist(truncate(u, alpha), truncate(v, alpha), 2.0)
        d_full = lambda_dist(u, v, 2.0)
        assert d_trunc <= d_full * (1 + 1e-12)


def test_fnorm_truncation_identity_above_one(rng):
    spec = GridSpec(1, 4.0, 65)
    u = GridFunction(spec, 5.0 * rng.standard_normal(65))
    for t in (1.0, 1.5, 4.0):
        assert lambda_fnorm(truncate(u, t), 2.0) == lambda_fnorm(u, 2.0)
    for t in (0.1, 0.5, 0.9):
        assert lambda_fnorm(truncate(u, t), 2.0) <= lambda_fnorm(u, 2.0)


def test_x_norm_zero():
    spec = GridSpec(1, 1.0, 9)
    zero = GridFunction(spec, np.zeros(9))
    V = GridFunction(spec, np.ones(9))
    assert x_norm_p(zero, V, 2.0) == 0.0


def test_x_norm_linear_profile():
    # int |u'|^2 + int u^2 = 2 + 2/3 for u = x on [-1, 1]
    spec = GridSpec(1, 1.0, 401)
    u = sample(spec, lambda x: x)
    V = GridFunction(spec, np.ones(401))
    assert x_norm_p(u, V, 2.0) == pytest.approx(8.0 / 3.0, rel=1e-4)


def test_x_norm_dominates_lp(rng):
    spec = GridSpec(1, 2.0, 33)
    for _ in range(100):
        u = GridFunction(spec, rng.standard_normal(33))
        V = GridFunction(spec, 1.0 + np.abs(rng.standard_normal(33)))
        assert x_norm_p(u, V, 2.0) >= lp_norm(u, 2.0) ** 2 * (1 - 1e-12)


def test_x_norm_rejects_small_potential():
    spec = GridSpec(1, 1.0, 9)
    u = GridFunction(spec, np.ones(9))
    V = GridFunction(spec, np.full(9, 0.5))
    with pytest.raises(ValueError):
        x_norm_p(u, V, 2.0)


def brute_force_weak_norm(u, q, levels=200_001, chunk=8192):
    absvals = np.abs(u.values)
    w = u.spec.weights()
    top = float(absvals.max())
    if top == 0.0:
        return 0.0
    best = 0.0
    lams = np.linspace(top * 1e-7, top, levels)
    for start in range(0, levels, chunk):
        lam = lams[start:start + chunk]
        measure = (absvals > lam[:, None]) @ w
        best = max(best, float(np.max(lam * measure ** (1.0 / q))))
    return best


def test_weak_norm_zero():
    spec = GridSpec(1, 1.0, 9)
    assert weak_lq_quasinorm(GridFunction(spec, np.zeros(9)), 1.0) == 0.0


def test_weak_norm_single_step():
    spec = GridSpec(1, 8.0, 17)
    u = 2.0 * indicator(spec, 0.0, 1.0)
    assert weak_lq_quasinorm(u, 1.0) == pytest.approx(2.0, rel=1e-12)
    assert weak_lq_quasinorm(u, 1.0) >= brute_force_weak_norm(u, 1.0) - 1e-9


def test_weak_norm_two_steps():
    spec = GridSpec(1, 8.0, 17)
    u = 2.0 * indicator(spec, 0.0, 1.0) + 1.0 * indicator(spec, 1.0, 3.0)
    # sup approached as level increases to 1: 1 * measure(|u| >= 1) = 3
    assert weak_lq_quasinorm(u, 1.0) == pytest.approx(3.0, rel=1e-12)
    assert weak_lq_quasinorm(u, 1.0) >= brute_force_weak_norm(u, 1.0) - 1e-9


def test_weak_norm_random_vs_brute(rng):
    spec = GridSpec(1, 2.0, 17)
    for _ in range(20):
        u = GridFunction(spec, 2.0 * rng.standard_normal(17))
        exact = weak_lq_quasinorm(u, 2.0)
        brute = brute_force_weak_norm(u, 2.0, levels=50_001)
        assert exact >= brute - 1e-9
        assert exact == pytest.approx(brute, rel=1e-3)


def test_tail_zero_inside_support():
    spec = GridSpec(1, 4.0, 65)
    u = indicator(spec, -1.0, 1.0)
    assert tail_lambda(u, (1.5,), 2.0)[0] == 0.0


def test_tail_monotone_in_radius(rng):
    spec = GridSpec(1, 4.0, 65)
    u = GridFunction(spec, rng.standard_normal(65))
    radii = np.linspace(0.0, 3.9, 14)
    tails = tail_lambda(u, radii, 2.0)
    assert all(b <= a + 1e-15 for a, b in zip(tails, tails[1:]))


def test_superlevel_above_max_is_zero(rng):
    spec = GridSpec(1, 4.0, 65)
    u = GridFunction(spec, rng.standard_normal(65))
    assert superlevel_measure(u, u.max_abs() + 1.0) == 0.0


def test_superlevel_chebyshev(rng):
    spec = GridSpec(1, 4.0, 65)
    for _ in range(200):
        u = GridFunction(spec, 2.0 * rng.standard_normal(65))
        K = float(rng.uniform(0.2, 3.0))
        p = float(rng.uniform(1.0, 4.0))
        assert superlevel_measure(u, K) <= (lp_norm(u, p) / K) ** p * (1 + 1e-12)


def test_superlevel_scaled_indicator():
    spec = GridSpec(1, 8.0, 17)
    u = 3.0 * indicator(spec, 0.0, 4.0)
    assert superlevel_measure(u, 2.0) == 4.0


def test_nesting_pointwise_exact(rng):
    spec = GridSpec(1, 4.0, 65)
    for p, q in ((1.0, 2.0), (2.0, 3.0), (1.5, 4.0)):
        for _ in range(100):
            u = GridFunction(spec, 3.0 * rng.standard_normal(65))
            hi = lambda_fnorm(u, p) ** p
            lo = lambda_fnorm(u, q) ** q
            assert lo <= hi * (1 + 1e-12)


def test_weak_embedding_model_function():
    # |x|^(-n/p) with p = 1 < q = 2 in one dimension, origin masked
    spec = GridSpec(1, 40.0, 8001)
    x = spec.axis_coords()
    vals = np.where(x != 0.0, 1.0 / np.maximum(np.abs(x), 1e-300), 0.0)
    f = GridFunction(spec, vals)
    p, q = 1.0, 2.0
    lhs = lambda_fnorm(f, q) ** q
    rhs = q / (q - p) * weak_lq_quasinorm(f, p) ** p
    assert lhs <= rhs * (1 + 1e-12)
    assert lhs / rhs > 0.95


def test_exponent_type():
    assert float(ExponentP(3.0)) == 3.0
    with pytest.raises(ValueError):
        ExponentP(0.5)
    with pytest.raises(ValueError):
        ExponentP(np.inf)
    with pytest.raises(ValueError):
        ExponentP(1.5, degenerate_ok=True)


def test_estimate_report_invariants():
    rep = EstimateReport("demo", lhs=1.0, rhs=1.02, tol=0.05, context={"t": 1.0})
    assert rep.passed and rep.slack == pytest.approx(0.02)
    rep2 = EstimateReport("demo", lhs=1.2, rhs=1.0, tol=0.05, context={})
    assert not rep2.passed
    d = rep.to_dict()
    assert d["pass"] is True and set(d) == {
        "name", "lhs", "rhs", "slack", "pass", "tol", "context",
    }
    with pytest.raises(ValueError):
        EstimateReport("bad", lhs=np.inf, rhs=1.0, tol=0.0, context={})


@pytest.mark.parametrize("p", [1.0, 2.0, 3.5])
@pytest.mark.parametrize("shape", [(129,), (37, 129)])
def test_lambda_mass_rows_out_buffer_has_allocating_bits(shape, p):
    rng = np.random.default_rng(5)
    w = GridSpec(1, 4.0, 129).weights()
    values = rng.normal(0.0, 3.0, shape)
    values[..., :6] = [0.0, -0.0, 5e-324, -1e-200, 1.0, -1.0]
    kept = values.copy()
    expected = lambda_mass_rows(values, w, p).tobytes()
    buf = np.empty(shape)
    assert lambda_mass_rows(values, w, p, out=buf).tobytes() == expected
    assert values.tobytes() == kept.tobytes()
    fnorm = lambda_fnorm_rows(values, w, p).tobytes()
    assert lambda_fnorm_rows(values, w, p, out=buf).tobytes() == fnorm
    # the values themselves as the buffer
    assert lambda_mass_rows(values, w, p, out=values).tobytes() == expected
    assert lambda_fnorm_rows(kept, w, p, out=kept).tobytes() == fnorm
