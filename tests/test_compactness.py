import numpy as np
import pytest

from pschrod.asymptotic import lambda_dist, lp_norm, truncate, x_norm_p
from pschrod.compactness import (
    DECAYING,
    NOT_OBSERVED,
    FunctionFamily,
    ark_check,
    epsilon_net,
    kr_report,
    shift_lattice,
    translation_defect,
)
from pschrod.grid import GridFunction, GridSpec, integrate, sample
from pschrod.potentials import sample_potential
from pschrod.presets import (gaussian, small_scheme, standard_potential, translating_bumps,
                             two_bump_datum)


def test_shift_lattice_snaps_and_rejects():
    spec = GridSpec(1, 4.0, 65)
    assert shift_lattice(spec, [2.0 * spec.h]) == (2,)
    with pytest.raises(ValueError):
        shift_lattice(spec, [0.4 * spec.h])
    with pytest.raises(ValueError):
        shift_lattice(spec, [spec.h, spec.h])


def test_translation_defect_rejects_shift_beyond_half_width():
    # L = 1: the diagonal shift is checked by its length, not by its components
    spec = GridSpec(2, 1.0, 9)
    u = GridFunction(spec, np.ones(81))
    assert translation_defect(u, [0.75, 0.5], 2.0) > 0.0
    for y in ([0.75, 0.75], [1.0, 0.0]):
        with pytest.raises(ValueError, match="half-width"):
            translation_defect(u, y, 2.0)


def test_translation_defect_zero_shift(rng):
    spec = GridSpec(1, 4.0, 65)
    u = GridFunction(spec, rng.standard_normal(65))
    assert translation_defect(u, [0.0], 2.0) == 0.0


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_translation_defect_is_its_quadrature_sum(rng, p):
    spec = GridSpec(1, 4.0, 257)
    for _ in range(20):
        vals = 3.0 * rng.standard_normal(spec.num_nodes)
        for o in (1, 5, 17):
            shifted = np.zeros_like(vals)
            shifted[:-o] = vals[o:]
            expected = float(np.dot(spec.weights(), np.minimum(np.abs(shifted - vals), 1.0) ** p))
            assert translation_defect(GridFunction(spec, vals), [o * spec.h], p) == expected


def test_translation_defect_constant_boundary_slab():
    # shifting a constant c by o nodes exposes a zero-extension slab whose
    # node measure is (o - 1/2) h, each contributing min(c, 1)^p
    spec = GridSpec(1, 4.0, 65)
    c = 2.0
    u = GridFunction(spec, np.full(65, c))
    for o in (1, 3, 8):
        expected = min(c, 1.0) ** 2 * (o - 0.5) * spec.h
        assert translation_defect(u, [o * spec.h], 2.0) == pytest.approx(expected, rel=1e-12)


def test_translation_defect_reflection_symmetry(rng):
    spec = GridSpec(1, 4.0, 65)
    vals = rng.standard_normal(65)
    u = GridFunction(spec, vals)
    refl = GridFunction(spec, vals[::-1])
    y = 3.0 * spec.h
    assert translation_defect(u, [y], 2.0) == pytest.approx(
        translation_defect(refl, [-y], 2.0), rel=1e-12
    )


def test_translation_defect_shift_composition(rng):
    # splitting a same-direction shift: defect(y1 + y2) is controlled by
    # 2^(p-1) (defect(y1) + defect(y2))
    spec = GridSpec(1, 4.0, 65)
    p = 2.0
    for _ in range(200):
        u = GridFunction(spec, 2.0 * rng.standard_normal(65))
        o1, o2 = rng.integers(1, 6, size=2)
        whole = translation_defect(u, [(o1 + o2) * spec.h], p)
        parts = translation_defect(u, [o1 * spec.h], p) + translation_defect(
            u, [o2 * spec.h], p
        )
        assert whole <= 2.0 ** (p - 1.0) * parts * (1 + 1e-9) + 1e-12


@pytest.fixture(scope="module")
def translating_family():
    spec = GridSpec(1, 8.0, 257)
    return translating_bumps(spec, count=7, spacing=1.0, width=0.5, height=2.0)


def test_kr_fixed_bumps_all_decaying():
    spec = GridSpec(1, 8.0, 257)
    fam = FunctionFamily(
        tuple(sample(spec, gaussian((c,), 0.4, 1.5)) for c in (-1.0, 0.0, 1.5)),
        label="fixed bumps",
    )
    rep = kr_report(
        fam, 2.0, [spec.h, 2 * spec.h], [2.0, 4.0, 6.0], [0.5, 1.0, 2.0], eps=0.3
    )
    assert all(v == DECAYING for v in rep.verdicts.values())


def test_kr_translating_family_tail_not_observed(translating_family):
    spec = translating_family.spec
    rep = kr_report(
        translating_family, 2.0, [spec.h, 2 * spec.h], [2.0, 4.0, 6.0],
        [0.5, 1.0, 2.0], eps=0.3,
    )
    assert rep.verdicts["tail"] == NOT_OBSERVED
    assert rep.tails[6.0] > 0.3**2


@pytest.fixture(scope="module", params=["small", "standard"])
def solution_family(request):
    """Truncations T_1 u_k of the p = 2 small scheme (m = 129, k <= 8) and of
    the standard one (m = 257, k <= 16), with the datum and t."""
    if request.param == "small":
        scheme = small_scheme(2.0)
    else:
        scheme = request.getfixturevalue("std_scheme_p2")
    t = 1.0
    fam = FunctionFamily(
        tuple(truncate(scheme.solutions[k].u, t) for k in scheme.k_list),
        label="truncated solutions",
    )
    return fam, two_bump_datum(fam.spec), t


def test_kr_solution_family_decaying(solution_family):
    fam, _, _ = solution_family
    h = fam.spec.h
    rep = kr_report(fam, 2.0, [h, 2 * h], [2.0, 4.0, 6.0], [0.5, 1.0], eps=0.3)
    assert all(v == DECAYING for v in rep.verdicts.values())


def test_ark_solution_family_bound_and_crosscheck(solution_family):
    fam, f, t = solution_family
    h = fam.spec.h
    rep = ark_check(fam, 2.0, shift_grid=[h, 2 * h], R_grid=[2.0, 4.0, 6.0],
                    K_grid=[0.5, 1.0], eps=0.3)
    assert rep.ark_q == 2.0
    # both norm pieces are controlled by (t ||f||_1)^(1/p)
    predicted = 2.0 * (t * integrate(f.abs())) ** 0.5
    assert rep.ark_bound <= predicted * 1.05
    # with V >= 1 each piece is at most ||f||_X, the second by Chebyshev's inequality
    V = sample_potential(standard_potential(), fam.spec)
    assert rep.ark_bound <= 2.0 * max(x_norm_p(f, V, 2.0) ** 0.5 for f in fam.members) * (1 + 1e-12)
    assert all(v == DECAYING for v in rep.verdicts.values())


@pytest.mark.parametrize("a", [1.0, 2.0])
def test_ark_gradient_quasinorm_of_a_hat(a):
    # a hat of height 1 on [-a, a]: |G f| = 1/a on the 2a/h cells of [-a, a],
    # so the weak-Lq quasinorm over the cell measure is (1/a) (2a)^(1/q)
    spec = GridSpec(1, 4.0, 33)
    f = sample(spec, lambda x: np.maximum(1.0 - np.abs(x) / a, 0.0))
    p, q = 2.0, 3.0
    rep = ark_check(FunctionFamily((f,)), p, q=q)
    assert rep.ark_bound - lp_norm(f, p) == pytest.approx((1.0 / a) * (2.0 * a) ** (1.0 / q),
                                                         rel=1e-14)


def test_ark_translates_tail_hypothesis_fails(translating_family):
    spec = translating_family.spec
    rep = ark_check(translating_family, 2.0, R_grid=[2.0, 4.0, 6.0], eps=0.3)
    assert rep.verdicts["tail"] == NOT_OBSERVED


def test_ark_single_bump_passes():
    spec = GridSpec(1, 8.0, 257)
    fam = FunctionFamily((sample(spec, gaussian((0.0,), 0.5, 1.0)),), label="single")
    rep = ark_check(fam, 2.0, K_grid=[0.5, 1.0, 2.0], eps=0.3)
    assert all(v == DECAYING for v in rep.verdicts.values())
    assert np.isfinite(rep.ark_bound)


def test_ark_rejects_bad_q(translating_family):
    with pytest.raises(ValueError):
        ark_check(translating_family, 2.0, q=1.0)


def test_epsilon_net_singleton():
    spec = GridSpec(1, 4.0, 65)
    fam = FunctionFamily((sample(spec, gaussian((0.0,), 0.5, 1.0)),))
    assert epsilon_net(fam, 2.0, 0.1) == [0]


def test_epsilon_net_identical_members():
    spec = GridSpec(1, 4.0, 65)
    u = sample(spec, gaussian((0.0,), 0.5, 1.0))
    fam = FunctionFamily((u, u, u, u))
    assert epsilon_net(fam, 2.0, 0.1) == [0]


def test_epsilon_net_separated_bumps_need_everyone():
    spec = GridSpec(1, 8.0, 257)
    members = tuple(sample(spec, gaussian((c,), 0.3, 1.0)) for c in (-4.0, -1.0, 2.0, 5.0))
    fam = FunctionFamily(members)
    eps = 0.05
    pairwise = min(
        lambda_dist(a, b, 2.0)
        for i, a in enumerate(members)
        for b in members[i + 1:]
    )
    assert pairwise > eps
    net = epsilon_net(fam, 2.0, eps)
    assert len(net) == len(members)


def test_epsilon_net_coverage_post_hoc(solution_family):
    fam, _, _ = solution_family
    eps = 0.3
    net = epsilon_net(fam, 2.0, eps)
    assert len(net) <= len(fam)
    for member in fam.members:
        assert min(lambda_dist(member, fam.members[i], 2.0) for i in net) <= eps


def test_family_validation():
    with pytest.raises(ValueError):
        FunctionFamily(())
    u5 = sample(GridSpec(1, 1.0, 5), lambda x: x)
    u7 = sample(GridSpec(1, 1.0, 7), lambda x: x)
    with pytest.raises(ValueError):
        FunctionFamily((u5, u7))
