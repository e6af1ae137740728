"""Canonical desk-scale experiments shared by the CLI, ``verify`` and the tests.

The standard pipeline lives on ``[-8, 8]`` and feeds a two-bump integrable
datum (peaks 12 and 4, so every level in {1, 2, 4, 8, 16} genuinely
truncates) into the quadratic-growth trap ``V = 1 + x^2``.  Each experiment
that more than one caller runs (the small scheme, the localized-identity
case, the translating-bumps family, the manufactured solution for every p
and n) is defined here once, and every built-in Gaussian, the CLI's
``gaussian`` and ``sum`` data included, is a :func:`gaussian` field.
"""

from __future__ import annotations

import numpy as np

from .compactness import FunctionFamily
from .grid import GridFunction, GridSpec, sample, zero_boundary
from .pipeline import SchemeConfig, SchemeResult, regularize_datum, run_scheme
from .potentials import Potential, polynomial_trap, sample_potential
from .solver import Problem

__all__ = [
    "gaussian",
    "two_bump",
    "two_bump_datum",
    "standard_grid",
    "standard_potential",
    "standard_problem",
    "small_scheme",
    "identity_case",
    "translating_bumps",
    "fixed_bumps",
    "manufactured",
]


def gaussian(center, width: float, height: float):
    """The field ``height * exp(-|x - center|^2 / width^2)`` of ``len(center)`` coordinates.

    The exponent sums ``((x_a - c_a) / width) ** 2`` over the axes in order,
    so a field and a sum of fields have the same bits wherever they are
    built.  A call with a number of coordinates other than ``len(center)``
    raises ``ValueError``.
    """
    center = tuple(center)

    def field(*coords):
        if len(coords) != len(center):
            raise ValueError(
                f"gaussian centred at {list(center)} takes {len(center)} coordinates, "
                f"got {len(coords)}"
            )
        return height * np.exp(-sum(((x - c) / width) ** 2 for x, c in zip(coords, center)))

    return field


_LEFT_BUMP = gaussian((-2.5,), 0.4, 12.0)
_RIGHT_BUMP = gaussian((3.0,), 0.6, 4.0)


def two_bump(x):
    """Integrable 1D datum with peaks 12 (at -2.5) and 4 (at +3)."""
    return _LEFT_BUMP(x) + _RIGHT_BUMP(x)


def _bump_family(spec: GridSpec, centers, width: float, height: float,
                 label: str) -> FunctionFamily:
    if spec.n != 1:
        raise ValueError(f"{label} family is one-dimensional")
    return FunctionFamily(
        tuple(sample(spec, gaussian((c,), width, height)) for c in centers), label=label
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


def manufactured(p: float, n: int):
    """``(u, f)``: the solution ``u = exp(-|x|^2)`` in n dimensions and its datum for V = 1.

    ``f = -div(|grad u|^(p-2) grad u) + u^(p-1)`` in closed form,
    ``(2^(p-1) r2^((p-2)/2) (n+p-2) + 1 - 2^p (p-1) r2^(p/2)) u^(p-1)``
    with ``r2`` summed over the axes in order, so at p = 2, n = 1 it is
    ``(3 - 4x^2) u`` to the bit.
    """
    u = gaussian((0.0,) * n, 1.0, 1.0)

    def f(*coords):
        r2 = sum(x**2 for x in coords)
        return (2.0 ** (p - 1.0) * r2 ** ((p - 2.0) / 2.0) * (n + p - 2.0) + 1.0
                - 2.0**p * (p - 1.0) * r2 ** (p / 2.0)) * u(*coords) ** (p - 1.0)

    return u, f


def standard_problem(p: float, m: int = 257) -> Problem:
    """The standard trap + two-bump experiment at resolution m."""
    spec = standard_grid(m=m)
    V = sample_potential(standard_potential(), spec)
    return Problem(spec=spec, p=p, V=V, f=two_bump_datum(spec))


def small_scheme(p: float, regularizer=regularize_datum) -> SchemeResult:
    """Reduced standard experiment: m = 129, levels k in {1, 2, 4, 8}."""
    cfg = SchemeConfig(k_list=(1.0, 2.0, 4.0, 8.0), t_grid=(0.5, 1.0, 2.0))
    f = two_bump_datum(standard_grid(m=129))
    return run_scheme(f, standard_potential(), p, cfg, regularizer=regularizer)


def identity_case(p: float, m: int) -> tuple[Problem, GridFunction]:
    """(Problem, phi) for the localized-identity study.

    The standard problem at resolution m, tested against a bump of height
    0.6 at x = 1 (zero on the boundary).
    """
    prob = standard_problem(p, m=m)
    return prob, zero_boundary(sample(prob.spec, gaussian((1.0,), 0.5, 0.6)))
