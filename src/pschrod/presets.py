"""Canonical desk-scale experiments shared by the CLI, ``verify`` and the tests.

The standard pipeline lives on ``[-8, 8]`` and feeds a two-bump integrable
datum (peaks 12 and 4, so every level in {1, 2, 4, 8, 16} genuinely
truncates) into the quadratic-growth trap ``V = 1 + x^2``.  Each experiment
that more than one caller runs (the small scheme, the localized-identity
case, the translating-bumps family) is defined here once.
"""

from __future__ import annotations

import numpy as np

from .compactness import FunctionFamily
from .grid import GridFunction, GridSpec, sample, zero_boundary
from .pipeline import SchemeConfig, SchemeResult, regularize_datum, run_scheme
from .potentials import Potential, polynomial_trap, sample_potential
from .solver import Problem

__all__ = [
    "two_bump",
    "two_bump_datum",
    "standard_grid",
    "standard_potential",
    "standard_scheme_config",
    "standard_problem_factory",
    "small_scheme",
    "identity_case",
    "bump",
    "translating_bumps",
    "fixed_bumps",
    "manufactured_p2_solution",
    "manufactured_p2_datum",
    "manufactured_p4_datum",
]


def two_bump(x):
    """Integrable 1D datum with peaks 12 (at -2.5) and 4 (at +3)."""
    return 12.0 * np.exp(-(((x + 2.5) / 0.4) ** 2)) + 4.0 * np.exp(
        -(((x - 3.0) / 0.6) ** 2)
    )


def bump(center: float, width: float, height: float):
    def f(x):
        return height * np.exp(-(((x - center) / width) ** 2))

    return f


def _bump_family(spec: GridSpec, centers, width: float, height: float,
                 label: str) -> FunctionFamily:
    if spec.n != 1:
        raise ValueError(f"{label} family is one-dimensional")
    return FunctionFamily(
        tuple(sample(spec, bump(c, width, height)) for c in centers), label=label
    )


def translating_bumps(
    spec: GridSpec, count: int = 6, spacing: float = 1.0, width: float = 0.5,
    height: float = 2.0,
) -> FunctionFamily:
    """Bumps centred at ``spacing * j``, j = 1..count: mass escaping to infinity."""
    centers = [spacing * j for j in range(1, count + 1)]
    return _bump_family(spec, centers, width, height, "translating bumps")


def fixed_bumps(
    spec: GridSpec, centers=(0.0,), width: float = 0.5, height: float = 1.0
) -> FunctionFamily:
    """Bumps at fixed ``centers``: a family that stays put."""
    return _bump_family(spec, centers, width, height, "fixed bumps")


def standard_grid(m: int = 257) -> GridSpec:
    return GridSpec(n=1, L=8.0, m=m)


def standard_potential() -> Potential:
    return polynomial_trap(gamma=2.0)


def two_bump_datum(spec: GridSpec) -> GridFunction:
    return sample(spec, two_bump)


def standard_scheme_config() -> SchemeConfig:
    """Levels k in {1, 2, 4, 8, 16}; the R grid and tolerance are SchemeConfig's."""
    return SchemeConfig(
        k_list=(1.0, 2.0, 4.0, 8.0, 16.0),
        t_grid=(0.1, 0.5, 1.0, 2.0, 5.0),
        alpha_grid=(0.5, 1.0, 2.0),
    )


def manufactured_p2_solution(x):
    return np.exp(-(x**2))


def manufactured_p2_datum(x):
    """Datum whose p = 2 solution with V = 1 is exp(-x^2) on the line."""
    return (3.0 - 4.0 * x**2) * np.exp(-(x**2))


def manufactured_p4_datum(spec: GridSpec) -> GridFunction:
    """p = 4 companion datum for the Gaussian profile, V = 1.

    The flux ``|u'|^2 u'`` of the closed-form profile is differentiated
    numerically on a ten times finer step, then
    ``f = -(|u'|^2 u')' + |u|^2 u`` is sampled at the nodes.
    """
    x = spec.axis_coords()
    dh = spec.h / 10

    def flux(y):
        du = -2.0 * y * np.exp(-(y**2))
        return np.abs(du) ** 2 * du

    dflux = (flux(x + dh) - flux(x - dh)) / (2.0 * dh)
    u = manufactured_p2_solution(x)
    return GridFunction(spec, -dflux + np.abs(u) ** 2 * u)


def standard_problem_factory(p: float, m: int = 257):
    """(Problem, datum) builder for the standard trap + two-bump experiment."""
    spec = standard_grid(m=m)
    V = sample_potential(standard_potential(), spec)
    f = two_bump_datum(spec)
    prob = Problem(spec=spec, p=p, V=V, f=f)
    return prob, f


def small_scheme(
    p: float, threads: int = 1, regularizer=regularize_datum
) -> SchemeResult:
    """Reduced standard experiment: m = 129, levels k in {1, 2, 4, 8}."""
    cfg = SchemeConfig(k_list=(1.0, 2.0, 4.0, 8.0), t_grid=(0.5, 1.0, 2.0))
    f = two_bump_datum(standard_grid(m=129))
    return run_scheme(
        f, standard_potential(), p, cfg, regularizer=regularizer, threads=threads
    )


def identity_case(p: float):
    """``make_case(m) -> (Problem, phi)`` for the localized-identity study.

    The standard problem at resolution m, tested against a bump of height
    0.6 at x = 1 (zero on the boundary).
    """

    def make_case(m: int):
        prob, _ = standard_problem_factory(p, m=m)
        phi = zero_boundary(sample(prob.spec, bump(1.0, 0.5, 0.6)))
        return prob, phi

    return make_case
