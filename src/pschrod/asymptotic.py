"""Truncations and the norm zoo: asymptotic F-norm and metric, energy norm,
Lp norm, weak-Lq quasi-norm, tails, superlevel measures.

The asymptotic space consists of measurable functions with
``integral(min(|u|, 1)^p) < infinity``; its translation-invariant metric is
``d(u, v) = ||min(|u - v|, 1)||_p``.  All "measures" below are quadrature
weight sums, never node counts, so every inequality stays dimensionally
consistent with :func:`pschrod.grid.integrate`.

Note: the topology of the asymptotic space is famously degenerate (trivial
dual, no local convexity).  Those are structural facts with no
finite-dimensional counterpart; they are documented here and not tested.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from .grid import (GridFunction, _check_same_spec, _require_radius, abs_power, energy_sums,
                   integrate)

__all__ = [
    "ExponentP",
    "EstimateReport",
    "truncate",
    "lp_norm",
    "lambda_fnorm",
    "lambda_fnorm_rows",
    "lambda_mass_rows",
    "lambda_dist",
    "x_norm_p",
    "weak_lq_quasinorm",
    "tail_lambda",
    "superlevel_measure",
]

#: default tolerance for pointwise algebraic identities
ALGEBRAIC_TOL = 1e-12


@dataclass(frozen=True)
class ExponentP:
    """Integrability exponent p >= 1.

    ``degenerate_ok=True`` asserts that p lies in the degenerate range
    p >= 2 required by the stability machinery; construction fails when the
    flag is set with p < 2.
    """

    p: float
    degenerate_ok: bool = False

    def __post_init__(self):
        _as_p(self.p)
        if self.degenerate_ok and self.p < 2:
            raise ValueError(
                f"degenerate range requires p >= 2, got p = {self.p!r}"
            )

    def __float__(self) -> float:
        return float(self.p)


def _as_p(p) -> float:
    val = float(p)
    if not 1 <= val < np.inf:
        raise ValueError(f"exponent p must be finite and >= 1, got {p!r}")
    return val


@dataclass(frozen=True)
class EstimateReport:
    """LHS/RHS record of one inequality check.

    ``passed`` is equivalent to ``lhs <= rhs * (1 + tol)``; ``slack`` is
    ``rhs - lhs``.  ``context`` carries the parameters the check ran with
    (p, t, alpha, R, k, l, grid id, ...).
    """

    name: str
    lhs: float
    rhs: float
    tol: float
    context: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if not (np.isfinite(self.lhs) and np.isfinite(self.rhs)):
            raise ValueError(f"non-finite sides in report {self.name!r}")

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs

    @property
    def passed(self) -> bool:
        return self.lhs <= self.rhs * (1.0 + self.tol)

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "slack": self.slack,
            "pass": self.passed,
            "tol": self.tol,
            "context": self.context,
        }


def truncate(u: GridFunction, t: float) -> GridFunction:
    """Pointwise clipping ``max(-t, min(s, t))`` at level t > 0."""
    if not t > 0:
        raise ValueError(f"truncation level must be positive, got {t!r}")
    return GridFunction(u.spec, np.clip(u.values, -t, t))


def lp_norm(u: GridFunction, p) -> float:
    """Plain quadrature Lp norm ``(integral |u|^p)^(1/p)``."""
    p = _as_p(p)
    return float(integrate(GridFunction(u.spec, abs_power(u.values, p)))) ** (1.0 / p)


def lambda_mass_rows(values: np.ndarray, weights: np.ndarray, p,
                     out: np.ndarray | None = None) -> np.ndarray:
    """F-norm mass ``min(|x|, 1)^p @ weights`` of each row of ``(..., num_nodes)`` values.

    ``weights`` are the grid's quadrature weights, or the subset matching
    ``values``; :func:`lambda_fnorm_rows` is the p-th root of the mass.
    |x|, the clip at 1 and the power are computed in ``out`` (an array of
    the shape of ``values``, or ``values`` itself), and the row sums are
    taken from it; without ``out`` a new array is used.  The result has the
    same bits either way.
    """
    return _clipped_power(values, p, out) @ weights


def _clipped_power(values: np.ndarray, p, out: np.ndarray | None = None) -> np.ndarray:
    """``min(|x|, 1)^p`` entrywise, in ``out`` if given (it may be ``values``)."""
    p = _as_p(p)
    clipped = np.abs(values, out=out)
    np.minimum(clipped, 1.0, out=clipped)
    return abs_power(clipped, p, out=clipped)


def lambda_fnorm_rows(values: np.ndarray, weights: np.ndarray, p,
                      out: np.ndarray | None = None) -> np.ndarray:
    """F-norm ``(min(|x|, 1)^p @ weights)^(1/p)`` of each row of ``(..., num_nodes)`` values.

    ``weights`` are the grid's quadrature weights; one row gives
    :func:`lambda_fnorm`.  ``out`` is the work buffer of :func:`lambda_mass_rows`.
    """
    return lambda_mass_rows(values, weights, p, out=out) ** (1.0 / float(p))


def lambda_fnorm(u: GridFunction, p) -> float:
    """F-norm of the asymptotic space: ``(integral min(|u|,1)^p)^(1/p)``."""
    return float(lambda_fnorm_rows(u.values, u.spec.weights(), p))


def lambda_dist(u: GridFunction, v: GridFunction, p) -> float:
    """Translation-invariant metric ``d(u, v) = ||min(|u - v|, 1)||_p``."""
    _check_same_spec(u, v)
    return float(lambda_fnorm_rows(u.values - v.values, u.spec.weights(), p))


def x_norm_p(u: GridFunction, V: GridFunction, p) -> float:
    """p-th power of the energy norm, in the solver's discretization.

    ``||u||_X^p = h^n sum_cells |G u|^p + integral V |u|^p`` with G the
    cell gradient of the solver's energy, from the sums of
    :func:`pschrod.grid.energy_sums` that the solver's energy also takes.
    Requires V >= 1 everywhere; then the energy norm dominates the Lp norm.
    """
    p = _as_p(p)
    _check_same_spec(u, V)
    vmin = float(np.min(V.values))
    if vmin < 1.0:
        raise ValueError(f"potential must satisfy V >= 1 at every node, min is {vmin}")
    kinetic, zero_order = energy_sums(u.values, V.values, u.spec, p)
    return u.spec.h**u.spec.n * kinetic + zero_order


def weak_lq_quasinorm(u: GridFunction, q) -> float:
    """Weak-Lq quasi-norm ``sup_lambda lambda * |{|u| > lambda}|^(1/q)``.

    For a grid function the distribution function is a right-continuous
    step function, so the supremum is attained in the left limit at one of
    the distinct sample values v, where it equals
    ``v * measure{|u| >= v}^(1/q)``.  The sup is evaluated exactly over
    that finite set; no lambda grid is involved.
    """
    return _weak_lq(u.values, u.spec.weights(), q)


def _weak_lq(values: np.ndarray, weights: np.ndarray, q) -> float:
    """Weak-Lq quasi-norm of samples ``values`` carrying measures ``weights``."""
    q = _as_p(q)
    absvals = np.abs(values)
    order = np.argsort(absvals)
    sorted_vals = absvals[order]
    # weight of {|u| >= v}: suffix sums over the sorted samples
    suffix = np.cumsum(weights[order][::-1])[::-1]
    vals, first_idx = np.unique(sorted_vals, return_index=True)
    nz = vals > 0
    if not np.any(nz):
        return 0.0
    candidates = vals[nz] * suffix[first_idx[nz]] ** (1.0 / q)
    return float(np.max(candidates))


def tail_lambda(u: GridFunction, radii: Sequence[float], p) -> list[float]:
    """F-norm mass tails ``integral_{|x| > R} min(|u|, 1)^p``, one per R in ``radii``.

    The power is taken once, over the nodes outside the smallest radius;
    each tail has the bits of a power taken over its own nodes alone.
    """
    for R in radii:
        _require_radius(R)
    outside = u.spec.radii() > min(radii)
    r, w = u.spec.radii()[outside], u.spec.weights()[outside]
    q = _clipped_power(u.values[outside], p)
    return [float(q[m] @ w[m]) for m in (r > R for R in radii)]


def superlevel_measure(u: GridFunction, K: float) -> float:
    """Quadrature measure of the superlevel set ``{|u| > K}``, K > 0."""
    if not K > 0:
        raise ValueError(f"level must be positive, got {K!r}")
    mask = np.abs(u.values) > K
    return float(np.sum(u.spec.weights()[mask]))
