import dataclasses
import tracemalloc

import numpy as np
import pytest

from pschrod.asymptotic import tail_lambda
from pschrod.grid import GridFunction, GridSpec, row_blocks
from pschrod.potentials import (
    bad_set_measure,
    bad_set_measure_mc,
    confinement_report,
    polynomial_trap,
    sample_potential,
    sparse_wells,
)

WELLS_GAMMA = 2.0


@pytest.fixture(scope="module")
def fine_wells_grid():
    # h = 1/4096 resolves every well with center inside |x| <= 40
    return GridSpec(n=1, L=40.0, m=327681)


def eval_at(pot, x):
    return float(np.asarray(pot.evaluator(np.asarray([x], dtype=float))).ravel()[0])


def test_trap_values():
    trap = polynomial_trap(gamma=2.0)
    assert eval_at(trap, 0.0) == 1.0
    assert eval_at(trap, 2.0) == 5.0
    assert trap.kappa == 1.0


def test_trap_rejects_bad_gamma():
    with pytest.raises(ValueError):
        polynomial_trap(gamma=0.0)
    with pytest.raises(ValueError):
        sparse_wells(gamma=-1.0)


def test_trap_has_empty_bad_sets():
    trap = polynomial_trap(gamma=2.0)
    spec = GridSpec(1, 10.0, 2001)
    for R in (0.0, 1.0, 3.0, 7.5):
        assert bad_set_measure(trap, spec, R) == 0.0


def test_wells_pointwise_values():
    wells = sparse_wells(gamma=WELLS_GAMMA)
    assert eval_at(wells, 2.0) == 1.0  # center of the first well
    assert eval_at(wells, 0.0) == 1.0  # origin lies outside every well
    assert eval_at(wells, 3.0) == 1.0 + 9.0
    assert eval_at(wells, 4.0) == 1.0  # second well center


def brute_force_wells(*coords, gamma=WELLS_GAMMA):
    """Every one of the 40 wells tested at every point."""
    arrs = [np.asarray(c, dtype=np.float64) for c in coords]
    r2 = sum(a**2 for a in arrs)
    background = 1.0 + r2 ** (gamma / 2.0)
    in_well = np.zeros(np.shape(background), dtype=bool)
    for k in range(1, 41):
        d2 = (arrs[0] - 2.0**k) ** 2
        for a in arrs[1:]:
            d2 = d2 + a**2
        in_well |= d2 < (2.0 ** (-2 * k)) ** 2
    return np.where(in_well, 1.0, background)


def well_boundary_points():
    """Points a few ulps either side of both ends of every well, plus centres."""
    pts = []
    for k in range(1, 41):
        center, radius = 2.0**k, 2.0 ** (-2 * k)
        for edge in (center - radius, center + radius):
            pts.extend(edge + np.arange(-3, 4) * np.spacing(edge))
        pts.extend([center, center * (1.0 + 1e-9)])
    return np.array(pts)


def test_wells_evaluator_matches_brute_force_on_verify_grid(fine_wells_grid):
    wells = sparse_wells(gamma=WELLS_GAMMA)
    x = fine_wells_grid.axis_coords()
    assert np.array_equal(wells.evaluator(x), brute_force_wells(x))


def test_wells_evaluator_matches_brute_force_at_boundaries():
    wells = sparse_wells(gamma=WELLS_GAMMA)
    x = well_boundary_points()
    got = wells.evaluator(x)
    assert np.array_equal(got, brute_force_wells(x))
    per_well = got.reshape(40, -1)
    assert np.all(np.any(per_well == 1.0, axis=1)) and np.all(np.any(per_well > 1.0, axis=1))


def test_wells_evaluator_matches_brute_force_transverse(rng):
    wells = sparse_wells(gamma=WELLS_GAMMA)
    x = well_boundary_points()
    y, z = 1e-3 * rng.uniform(-1.0, 1.0, (2, x.size))
    for coords in ((x, y), (x, y, z)):
        assert np.array_equal(wells.evaluator(*coords), brute_force_wells(*coords))


def test_wells_evaluator_matches_brute_force_left_of_first_well(rng):
    wells = sparse_wells(gamma=WELLS_GAMMA)
    x = np.concatenate([
        rng.uniform(-50.0, 0.0, 1000), rng.uniform(0.0, 2.0, 1000),
        [0.0, -0.0, 1.75, np.nextafter(1.75, 0.0), -2.0],
    ])
    assert np.array_equal(wells.evaluator(x), brute_force_wells(x))


def test_wells_total_measure_infinite_series(fine_wells_grid):
    wells = sparse_wells(gamma=WELLS_GAMMA)
    total = bad_set_measure(wells, fine_wells_grid, 0.0)
    assert total == pytest.approx(2.0 / 3.0, rel=0.02)


def test_wells_tail_measure_one_sixth(fine_wells_grid):
    wells = sparse_wells(gamma=WELLS_GAMMA)
    e3 = bad_set_measure(wells, fine_wells_grid, 3.0)
    assert e3 == pytest.approx(1.0 / 6.0, rel=0.02)


def test_wells_in_small_box_hand_enumeration():
    # box [-10, 10]: wells at 2, 4, 8 with radii 1/4, 1/16, 1/64
    spec = GridSpec(1, 10.0, 81921)
    wells = sparse_wells(gamma=WELLS_GAMMA)
    expected = 2.0 * (1.0 / 4.0 + 1.0 / 16.0 + 1.0 / 64.0)
    assert bad_set_measure(wells, spec, 0.0) == pytest.approx(expected, rel=0.02)


def test_bad_measure_nonincreasing(fine_wells_grid):
    wells = sparse_wells(gamma=WELLS_GAMMA)
    Vg = sample_potential(wells, fine_wells_grid)
    measures = [
        bad_set_measure(wells, fine_wells_grid, R, Vg=Vg)
        for R in (0.0, 1.0, 3.0, 5.0, 9.0, 17.0)
    ]
    assert all(b <= a for a, b in zip(measures, measures[1:]))


def test_sampled_potential_at_least_one(fine_wells_grid):
    Vg = sample_potential(sparse_wells(gamma=WELLS_GAMMA), fine_wells_grid)
    assert float(Vg.values.min()) >= 1.0


def test_confinement_report_trap():
    trap = polynomial_trap(gamma=2.0)
    spec = GridSpec(1, 10.0, 2001)
    rep = confinement_report(trap, spec, [1.0, 2.0, 4.0, 8.0])
    assert rep.bad_measures == (0.0, 0.0, 0.0, 0.0)
    assert rep.classically_confining
    assert rep.violation_witness is None
    assert rep.total_bad_measure == 0.0


def test_confinement_report_wells_witness(fine_wells_grid):
    wells = sparse_wells(gamma=WELLS_GAMMA)
    rep = confinement_report(wells, fine_wells_grid, [2.0, 3.0, 6.0, 12.0, 24.0])
    assert not rep.classically_confining
    assert rep.violation_witness is not None
    assert rep.violation_witness[0] == pytest.approx(32.0, abs=1e-9)
    assert all(b <= a for a, b in zip(rep.bad_measures, rep.bad_measures[1:]))
    assert rep.total_bad_measure >= rep.bad_measures[-1]
    # geometric tail: |E_R| for R just above 2^j is sum_{k > j} 2 r_k
    e_measured = dict(zip(rep.R_grid, rep.bad_measures))
    assert e_measured[3.0] == pytest.approx(1.0 / 6.0, rel=0.02)
    assert e_measured[6.0] == pytest.approx(2.0 * (1 / 64.0 + 1 / 256.0 + 1 / 1024.0), rel=0.02)


def test_confinement_report_flags_sub_resolution_wells():
    spec = GridSpec(1, 40.0, 641)  # h = 1/8: wells 3, 4, 5 are narrower than h
    wells = sparse_wells(gamma=WELLS_GAMMA)
    rep = confinement_report(wells, spec, [2.0, 4.0])
    assert len(rep.sub_resolution_wells) >= 2


def test_confinement_report_validation(fine_wells_grid):
    wells = sparse_wells(gamma=WELLS_GAMMA)
    with pytest.raises(ValueError):
        confinement_report(wells, fine_wells_grid, [])
    with pytest.raises(ValueError):
        confinement_report(wells, fine_wells_grid, [3.0, 2.0])
    with pytest.raises(ValueError):
        confinement_report(wells, fine_wells_grid, [2.0, 41.0])


def test_monte_carlo_cross_check():
    spec = GridSpec(1, 40.0, 327681)
    wells = sparse_wells(gamma=WELLS_GAMMA)
    quad = bad_set_measure(wells, spec, 3.0)
    mc = bad_set_measure_mc(wells, spec, 3.0, samples=2_000_000, seed=11)
    assert mc == pytest.approx(quad, rel=0.1)
    assert bad_set_measure_mc(wells, spec, 3.0, samples=10_000, seed=5) == \
        bad_set_measure_mc(wells, spec, 3.0, samples=10_000, seed=5)


def one_shot_mc(V, spec, R, *, seed, samples):
    """Every sample at once: the estimate the block-streamed one must reproduce."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-spec.L, spec.L, size=(samples, spec.n))
    vals = np.asarray(V.evaluator(*[pts[:, a] for a in range(spec.n)]), dtype=np.float64)
    r = np.sqrt(np.sum(pts**2, axis=1))
    hit = (r >= R) & (vals < V.kappa * r**V.gamma)
    return float((2.0 * spec.L) ** spec.n * np.mean(hit))


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("pot", [
    sparse_wells(WELLS_GAMMA),
    # kappa = 2 makes the trap's bad set |x| > 1 nonempty
    dataclasses.replace(polynomial_trap(2.0), kappa=2.0),
], ids=["sparse_wells", "polynomial_trap"])
def test_monte_carlo_blocks_match_one_shot(pot, n):
    spec = GridSpec(n, 5.0, 3)
    block = next(row_blocks(2**40, n)).stop
    for samples in (1, block - 1, block, 3 * block + 17):
        mc = bad_set_measure_mc(pot, spec, 0.5, samples=samples, seed=samples)
        assert mc == one_shot_mc(pot, spec, 0.5, samples=samples, seed=samples)
    assert mc > 0.0


def test_monte_carlo_memory_independent_of_samples():
    spec = GridSpec(1, 40.0, 327681)
    wells = sparse_wells(gamma=WELLS_GAMMA)
    tracemalloc.start()
    try:
        bad_set_measure_mc(wells, spec, 3.0, samples=2_000_000, seed=11)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


@pytest.mark.parametrize("samples", [True, np.True_, 2.5, 1e3, "10", None, 0, -3])
def test_monte_carlo_rejects_bad_sample_count(samples):
    with pytest.raises(ValueError, match="sample count"):
        bad_set_measure_mc(sparse_wells(WELLS_GAMMA), GridSpec(1, 8.0, 3), 3.0,
                           samples=samples, seed=1)


_TINY = GridSpec(1, 8.0, 3)


@pytest.mark.parametrize("R", [-1.0, np.nan], ids=["negative", "nan"])
@pytest.mark.parametrize(
    "measure",
    [
        lambda R: bad_set_measure(sparse_wells(WELLS_GAMMA), _TINY, R),
        lambda R: bad_set_measure_mc(sparse_wells(WELLS_GAMMA), _TINY, R, seed=1),
        lambda R: tail_lambda(GridFunction(_TINY, np.ones(3)), (R,), 3.0),
    ],
    ids=["bad_set_measure", "bad_set_measure_mc", "tail_lambda"],
)
def test_radius_must_be_nonnegative(measure, R):
    with pytest.raises(ValueError, match="radius must be nonnegative"):
        measure(R)


def test_monte_carlo_accepts_integer_types():
    wells, spec = sparse_wells(WELLS_GAMMA), GridSpec(1, 8.0, 3)
    assert bad_set_measure_mc(wells, spec, 1.0, samples=np.int64(5000), seed=2) == \
        bad_set_measure_mc(wells, spec, 1.0, samples=5000, seed=2)


def test_potential_pair_validation():
    with pytest.raises(ValueError, match="kappa must be positive"):
        dataclasses.replace(polynomial_trap(2.0), kappa=0.0)
