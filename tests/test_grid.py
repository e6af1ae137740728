import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from pschrod.asymptotic import tail_lambda
from pschrod.grid import (
    GridFunction,
    GridSpec,
    _component_sum,
    abs_power,
    cell_gradient_adjoint,
    cell_gradient_squared,
    cell_stencil,
    gradient,
    integrate,
    load_grid_function,
    row_blocks,
    sample,
    save_grid_function,
    zero_boundary,
)
from pschrod.presets import gaussian


def test_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(n=0, L=1.0, m=5)
    with pytest.raises(ValueError):
        GridSpec(n=4, L=1.0, m=5)
    with pytest.raises(ValueError):
        GridSpec(n=1, L=0.0, m=5)
    # the spacing 2 L / (m - 1) must be finite: inf, and 2 L overflowing
    with pytest.raises(ValueError, match="half-width"):
        GridSpec(n=1, L=float("inf"), m=5)
    with pytest.raises(ValueError, match="half-width"):
        GridSpec(n=1, L=1e308, m=3)
    with pytest.raises(ValueError):
        GridSpec(n=1, L=1.0, m=2)


@pytest.mark.parametrize("kwargs", [
    {"n": True, "L": 8.0, "m": 5},
    {"n": 1, "L": True, "m": 5},
    {"n": 1, "L": 8.0, "m": True},
])
def test_spec_rejects_booleans(kwargs):
    with pytest.raises(ValueError, match="boolean"):
        GridSpec(**kwargs)


def test_spec_node_coords_reproducible():
    spec = GridSpec(n=1, L=1.0, m=5)
    assert spec.h == 0.5
    assert np.array_equal(spec.axis_coords(), [-1.0, -0.5, 0.0, 0.5, 1.0])
    # identical reconstruction is exact
    assert np.array_equal(spec.axis_coords(), GridSpec(1, 1.0, 5).axis_coords())


def test_sample_1d_identity():
    u = sample(GridSpec(1, 1.0, 3), lambda x: x)
    assert np.array_equal(u.values, [-1.0, 0.0, 1.0])


def test_sample_zero_field():
    u = sample(GridSpec(2, 1.5, 5), lambda x, y: 0.0)
    assert np.array_equal(u.values, np.zeros(25))


def test_sample_2d_sum_of_coordinates():
    # nine nodes of [-1,1]^2 with m=3, row-major: x slow, y fast
    u = sample(GridSpec(2, 1.0, 3), lambda x, y: x + y)
    expected = [-2.0, -1.0, 0.0, -1.0, 0.0, 1.0, 0.0, 1.0, 2.0]
    assert np.array_equal(u.values, expected)


def test_sample_rejects_non_finite():
    with pytest.raises(ValueError, match="node"):
        sample(GridSpec(1, 1.0, 5), lambda x: 1.0 / x)


def test_sample_calls_a_scalar_only_field_once_and_raises_its_error():
    calls = []

    def field(x, y):
        calls.append(1)
        return math.exp(-(x * x + y * y))

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TypeError):
            sample(GridSpec(2, 1.0, 5), field)
    assert len(calls) == 1


@pytest.mark.parametrize("shape", [(2,), (25, 1)], ids=["short", "column"])
def test_sample_rejects_a_field_of_the_wrong_shape(shape):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(f"shape {shape}")):
            sample(GridSpec(2, 1.0, 5), lambda x, y: np.zeros(shape))


def test_sample_propagates_other_errors():
    def field(x):
        if isinstance(x, np.ndarray):
            raise RuntimeError("vectorized backend failed")
        return x

    with pytest.raises(RuntimeError, match="backend failed"):
        sample(GridSpec(1, 1.0, 5), field)


def test_sample_raises_a_broken_fields_own_error_unchained():
    # a 1D Gaussian on a 2D grid: its own error, with no warning and no cause
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="takes 1 coordinates, got 2") as info:
            sample(GridSpec(2, 1.0, 5), gaussian((0.0,), 1.0, 1.0))
    assert info.value.__cause__ is None


def test_gradient_constant_is_zero():
    u = sample(GridSpec(1, 2.0, 9), lambda x: 7.0 + 0.0 * x)
    assert np.array_equal(gradient(u)[:, 0], np.zeros(9))


def test_gradient_affine_exact_everywhere():
    u = sample(GridSpec(1, 2.0, 9), lambda x: 3.0 * x)
    assert np.allclose(gradient(u)[:, 0], 3.0, rtol=0, atol=1e-13)
    v = sample(GridSpec(2, 1.0, 7), lambda x, y: 2.0 * x - 5.0 * y + 1.0)
    g = gradient(v)
    assert np.allclose(g[:, 0], 2.0, rtol=0, atol=1e-12)
    assert np.allclose(g[:, 1], -5.0, rtol=0, atol=1e-12)


def test_gradient_is_read_only_node_by_axis_array():
    g = gradient(sample(GridSpec(3, 1.0, 5), lambda x, y, z: x * y + z))
    assert g.shape == (125, 3)
    with pytest.raises(ValueError):
        g[0, 0] = 1.0


def test_gradient_quadratic_interior():
    u = sample(GridSpec(1, 1.0, 5), lambda x: x**2)
    # central differences at x = -0.5, 0, 0.5 with h = 0.5
    assert np.allclose(gradient(u)[1:4, 0], [-1.0, 0.0, 1.0], atol=1e-14)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cell_gradient_exact_on_affine(n, kronecker_gradient):
    spec = GridSpec(n, 1.5, 7)
    coef = np.array([2.0, -5.0, 0.75])[:n]
    u = 1.0 + spec.node_coords() @ coef
    G = kronecker_gradient(spec)
    assert G.shape == (n * (spec.m - 1) ** n, spec.num_nodes)
    comps, norm2 = cell_gradient_squared(u, spec)
    for got in ((G @ u).reshape(n, -1), comps):
        for a in range(n):
            assert np.allclose(got[a], coef[a], rtol=0, atol=1e-12)
    assert np.allclose(np.sqrt(norm2), np.linalg.norm(coef), rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cell_gradient_exact_on_multilinear(n, kronecker_gradient):
    # u = prod_a (1 + c_a x_a): its gradient at a cell centre is exact
    spec = GridSpec(n, 1.0, 6)
    c = np.array([0.5, -1.5, 2.0])[:n]
    u = np.prod(1.0 + spec.node_coords() * c, axis=1)
    x = spec.axis_coords()
    centres = [a.ravel() for a in np.meshgrid(*[0.5 * (x[:-1] + x[1:])] * n, indexing="ij")]
    for comps in ((kronecker_gradient(spec) @ u).reshape(n, -1), cell_gradient_squared(u, spec)[0]):
        for a in range(n):
            expected = c[a] * np.prod(
                [1.0 + c[b] * centres[b] for b in range(n) if b != a], axis=0
            )
            assert np.allclose(comps[a], expected, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cell_gradient_transpose_is_adjoint(n, rng, kronecker_gradient):
    spec = GridSpec(n, 2.0, 9)
    G = kronecker_gradient(spec)
    u = rng.standard_normal(spec.num_nodes)
    w = rng.standard_normal(G.shape[0])
    lhs = float(np.dot(cell_gradient_squared(u, spec)[0].ravel(), w))
    rhs = float(np.dot(u, cell_gradient_adjoint(w, spec)))
    scale = float(np.dot(np.abs(G) @ np.abs(u), np.abs(w)))
    assert abs(lhs - rhs) <= 1e-14 * scale


def _signed_zeros_and_subnormals(size, rng):
    """Normal values over many binades with exact +0.0, -0.0 and subnormal entries."""
    x = rng.standard_normal(size) * np.exp2(rng.uniform(-1000.0, 10.0, size))
    kind = rng.integers(0, 5, size)
    x[kind == 0] = 0.0
    x[kind == 1] = -0.0
    x[kind == 2] = rng.integers(-2**20, 2**20, int(np.sum(kind == 2))) * 5e-324
    return x


@pytest.mark.parametrize("n, m", [(1, 3), (1, 65), (2, 3), (2, 17), (3, 3), (3, 9)])
@pytest.mark.parametrize("L", [1.0, 1.2345])
def test_cell_gradient_matrix_matches_kronecker_construction(n, m, L, rng, kronecker_gradient):
    # G as applied from the stencil table: G v and G^T w have the bytes of the
    # row-wise products with the Kronecker-built CSR matrix and its transpose
    spec = GridSpec(n, L, m)
    G = kronecker_gradient(spec)
    v = _signed_zeros_and_subnormals(spec.num_nodes, rng)
    comps, norm2 = cell_gradient_squared(v, spec)
    want = (G @ v).reshape(n, -1)
    assert comps.tobytes() == want.tobytes()
    assert norm2.tobytes() == np.sum(want * want, axis=0).tobytes()
    w = _signed_zeros_and_subnormals(G.shape[0], rng)
    assert cell_gradient_adjoint(w, spec).tobytes() == (G.T.tocsr() @ w).tobytes()
    # the all-zero sums of each sign: +0.0 from a zeroed start, as in the products
    for zero in (0.0, -0.0):
        assert cell_gradient_squared(np.full(spec.num_nodes, zero), spec)[0].tobytes() == (
            (G @ np.full(spec.num_nodes, zero)).tobytes())
        assert cell_gradient_adjoint(np.full(G.shape[0], zero), spec).tobytes() == (
            (G.T.tocsr() @ np.full(G.shape[0], zero)).tobytes())


def test_cell_stencil_is_cached_and_read_only():
    spec = GridSpec(2, 1.0, 5)
    assert cell_stencil(GridSpec(2, 1.0, 5)) is cell_stencil(spec)
    for arr in cell_stencil(spec):
        with pytest.raises(ValueError):
            arr[0] = 1


def test_cell_gradient_products_memory_on_3d_grid(rng):
    # no stored matrix: on a fresh grid one G v and one G^T w hold a few
    # nodal and cell arrays (2.9 MiB here; 19.1 MiB with cached CSR G and G^T)
    spec = GridSpec(3, 2.0 + 2**-20, 33)
    v = rng.standard_normal(spec.num_nodes)
    w = rng.standard_normal(3 * 32**3)
    tracemalloc.start()
    try:
        cell_gradient_squared(v, spec)
        cell_gradient_adjoint(w, spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20


def test_integrate_constant_box_volume():
    u = sample(GridSpec(1, 2.0, 5), lambda x: 1.0 + 0.0 * x)
    assert integrate(u) == pytest.approx(4.0, abs=1e-14)
    v = sample(GridSpec(2, 1.0, 9), lambda x, y: 1.0 + 0.0 * x)
    assert integrate(v) == pytest.approx(4.0, abs=1e-13)


def test_integrate_odd_function_vanishes():
    u = sample(GridSpec(1, 3.0, 31), lambda x: x)
    assert abs(integrate(u)) < 1e-14


def test_integrate_quadratic_hand_trapezoid():
    # h * (u0/2 + u1 + u2 + u3 + u4/2) with h = 0.5
    u = sample(GridSpec(1, 1.0, 5), lambda x: x**2)
    hand = 0.5 * (0.5 * 1.0 + 0.25 + 0.0 + 0.25 + 0.5 * 1.0)
    assert integrate(u) == pytest.approx(hand, abs=1e-15)
    assert hand == 0.75


def test_integrate_linearity(rng):
    spec = GridSpec(1, 2.0, 33)
    u = GridFunction(spec, rng.standard_normal(33))
    v = GridFunction(spec, rng.standard_normal(33))
    lhs = integrate(GridFunction(spec, 2.5 * u.values - 1.25 * v.values))
    rhs = 2.5 * integrate(u) - 1.25 * integrate(v)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_integrate_nonnegative(rng):
    spec = GridSpec(2, 1.0, 9)
    u = GridFunction(spec, np.abs(rng.standard_normal(81)))
    assert integrate(u) >= 0.0


def test_annulus_empty_beyond_corner():
    spec = GridSpec(2, 1.0, 5)
    u = GridFunction(spec, np.ones(25))
    assert tail_lambda(u, np.sqrt(2.0) * 1.0, 3.0) == 0.0


def test_annulus_origin_complement():
    # values below 1, so min(|u|, 1)^p = |u|^p
    spec = GridSpec(1, 2.0, 5)
    u = GridFunction(spec, (np.arange(5.0) + 1.0) / 8.0)
    origin = int(np.flatnonzero(spec.radii() == 0.0)[0])
    origin_term = float(spec.weights()[origin] * u.values[origin] ** 3)
    whole = integrate(GridFunction(spec, u.values**3))
    assert tail_lambda(u, 0.0, 3.0) + origin_term == pytest.approx(whole, rel=1e-14)


def test_annulus_hand_value():
    # L=2, m=5, R=1: only x = +-2 survive, each with boundary weight h/2 = 0.5
    u = sample(GridSpec(1, 2.0, 5), lambda x: 1.0 + 0.0 * x)
    assert tail_lambda(u, 1.0, 3.0) == pytest.approx(1.0, abs=1e-15)


def test_annulus_rejects_negative_radius():
    u = sample(GridSpec(1, 1.0, 5), lambda x: x)
    with pytest.raises(ValueError):
        tail_lambda(u, -0.5, 3.0)


def test_zero_boundary():
    spec = GridSpec(2, 1.0, 5)
    u = GridFunction(spec, np.ones(25))
    z = zero_boundary(u)
    assert np.all(z.values[spec.boundary_mask()] == 0.0)
    assert np.all(z.values[~spec.boundary_mask()] == 1.0)


def test_values_are_immutable():
    u = sample(GridSpec(1, 1.0, 5), lambda x: x)
    with pytest.raises(ValueError):
        u.values[0] = 3.0


def test_gridfunction_length_mismatch():
    with pytest.raises(ValueError):
        GridFunction(GridSpec(1, 1.0, 5), np.zeros(4))


def test_serialization_round_trip_bit_exact(tmp_path, rng):
    spec = GridSpec(2, 1.75, 9)
    u = GridFunction(spec, rng.standard_normal(81))
    save_grid_function(u, tmp_path / "field")
    v = load_grid_function(tmp_path / "field")
    assert v.spec == spec
    assert u.values.tobytes() == v.values.tobytes()


def test_serialization_header_contents(tmp_path):
    import json

    u = sample(GridSpec(1, 2.0, 5), lambda x: x)
    jpath, bpath = save_grid_function(u, tmp_path / "u")
    header = json.loads(jpath.read_text())
    assert header == {
        "n": 1, "L": 2.0, "m": 5,
        "order": "row-major", "dtype": "f64-little-endian",
    }
    assert bpath.stat().st_size == 5 * 8


def test_load_rejects_wrong_payload(tmp_path):
    u = sample(GridSpec(1, 2.0, 5), lambda x: x)
    jpath, bpath = save_grid_function(u, tmp_path / "u")
    bpath.write_bytes(bpath.read_bytes()[:-8])
    with pytest.raises(ValueError):
        load_grid_function(tmp_path / "u")


def wide_range_data(rng, e):
    """Signed magnitudes log-uniform on [1e-330, 1e3] (those below 5e-324 are 0),
    random subnormals, zeros of both signs and +-64 ulps around abs_power's cutoff."""
    mags = 10.0 ** rng.uniform(-330.0, 3.0, 20000)
    subnormals = rng.integers(0, 2**52, 2000) * np.nextafter(0.0, 1.0)
    cutoff = 2.0 ** (-1076.0 / e) if e > 0 else 0.0
    near = np.maximum(np.float64(cutoff).view(np.int64) + np.arange(-64, 65), 0).view(np.float64)
    x = np.concatenate([mags, subnormals, near, [0.0, 1.0, 2.0**-1022, 5e-324]])
    return x * rng.choice([-1.0, 1.0], x.size)


@pytest.mark.parametrize("e", [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 6.0, 8.0, 12.0])
def test_abs_power_bit_identical_to_power(rng, e):
    x = wide_range_data(rng, e)
    expected = (np.abs(x) ** e).tobytes()
    assert abs_power(x, e).tobytes() == expected
    buf = x.copy()
    assert abs_power(buf, e, out=buf) is buf
    assert buf.tobytes() == expected
    rows = x[:20000].reshape(100, 200)
    assert abs_power(rows, e).tobytes() == (np.abs(rows) ** e).tobytes()


def test_abs_power_rejects_negative_exponent():
    with pytest.raises(ValueError, match="nonnegative"):
        abs_power(np.ones(3), -0.5)


@pytest.mark.parametrize("width", [1, 3, 129, 5000])
@pytest.mark.parametrize("rows", [0, 1, 17, 10_000])
def test_row_blocks_tile_rows_in_steps_of_16(rows, width):
    blocks = list(row_blocks(rows, width))
    assert [i for b in blocks for i in range(b.start, b.stop)] == list(range(rows))
    sizes = [b.stop - b.start for b in blocks]
    assert all(size % 16 == 0 and size * width <= max(2**16, 16 * width) for size in sizes[:-1])


def test_row_blocks_product_has_one_shot_bits(rng):
    a = rng.standard_normal((10_000, 129))
    w = rng.random(129)
    blocked = np.concatenate([a[b] @ w for b in row_blocks(len(a), a.shape[1])])
    assert blocked.tobytes() == (a @ w).tobytes()


def component_rows(rng, rows, d):
    """``(rows, d)`` values from 1e-300 to 1e300 in size; every third row is special:
    all -0.0, all +0.0, mixed zeros, subnormals, or near 1e+-300 with cancellation."""
    x = rng.standard_normal((rows, d)) * 10.0 ** rng.integers(-300, 301, (rows, d))
    specials = [
        [-0.0, -0.0, -0.0],
        [0.0, 0.0, 0.0],
        [-0.0, 0.0, -0.0],
        [5e-324, -2.0**-1060, 2.0**-1070],
        [1e300, -1e300, 3e-300],
        [-1e-300, 7e-301, 1e-300],
    ]
    for k, i in enumerate(range(0, rows, 3)):
        x[i] = specials[k % len(specials)][:d]
    return x


@pytest.mark.parametrize("layout", ["C", "F", "strided", "reversed"])
@pytest.mark.parametrize("rows", [1, 2, 7, 8, 9, 4097])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_component_sum_has_np_sum_bits(rng, d, rows, layout):
    x = component_rows(rng, rows, d)
    if layout == "F":
        x = np.asfortranarray(x)
    elif layout == "strided":
        big = np.ones((2 * rows, d + 1))
        big[::2, 1:] = x
        x = big[::2, 1:]
    elif layout == "reversed":
        x = x[::-1, ::-1]
    expected = np.sum(x, axis=-1)
    got = _component_sum(x)
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()
    # a row of -0.0 sums to +0.0, as in np.sum
    negative_zero = np.all((x == 0.0) & np.signbit(x), axis=-1)
    assert negative_zero.any() and not np.signbit(got[negative_zero]).any()
