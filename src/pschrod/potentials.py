"""Potential constructors and confinement-in-measure diagnostics.

A potential is confining in measure for a pair (kappa, gamma) when the bad
sets ``E_R = {|x| >= R, V(x) < kappa |x|^gamma}`` have measure tending to
zero; equivalently the global bad set has finite measure.  This is strictly
weaker than the classical pointwise growth ``V >= kappa |x|^gamma`` for
large ``|x|``: the sparse-wells potential keeps V = 1 on a family of balls
marching off to infinity with summable volumes.

No canonical (kappa, gamma) pair exists; every report states the pair it
was computed with.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .grid import GridFunction, GridSpec, _require_radius, row_blocks, sample

__all__ = [
    "Potential",
    "ConfinementReport",
    "polynomial_trap",
    "sparse_wells",
    "constant_potential",
    "sample_potential",
    "bad_set_measure",
    "bad_set_measure_mc",
    "confinement_report",
]


@dataclass(frozen=True)
class Potential:
    """Evaluable field V >= 1 with its confinement candidate pair.

    ``evaluator`` follows the same calling convention as
    :func:`pschrod.grid.sample`: n scalar-or-array coordinate arguments.
    ``well_centers``/``well_radii`` are optional metadata used by the
    classical-confinement falsifier; empty for well-free potentials.
    """

    evaluator: Callable
    kappa: float
    gamma: float
    label: str
    well_centers: tuple[tuple[float, ...], ...] = ()
    well_radii: tuple[float, ...] = ()

    def __post_init__(self):
        if not self.kappa > 0:
            raise ValueError(f"kappa must be positive, got {self.kappa!r}")
        if not self.gamma > 0:
            raise ValueError(f"gamma must be positive, got {self.gamma!r}")

    def with_pair(self, kappa: float, gamma: float) -> "Potential":
        return Potential(self.evaluator, kappa, gamma, self.label,
                         self.well_centers, self.well_radii)


@dataclass(frozen=True)
class ConfinementReport:
    """Sublevel diagnostics for one potential on one grid."""

    R_grid: tuple[float, ...]
    bad_measures: tuple[float, ...]
    total_bad_measure: float
    classically_confining: bool
    violation_witness: tuple[float, ...] | None
    kappa: float
    gamma: float
    label: str
    grid: str
    sub_resolution_wells: tuple[int, ...] = ()

    def to_dict(self) -> dict[str, Any]:
        return {
            "R_grid": list(self.R_grid),
            "bad_measures": list(self.bad_measures),
            "total_bad_measure": self.total_bad_measure,
            "classically_confining": self.classically_confining,
            "violation_witness": None if self.violation_witness is None
            else list(self.violation_witness),
            "kappa": self.kappa,
            "gamma": self.gamma,
            "label": self.label,
            "grid": self.grid,
            "sub_resolution_wells": list(self.sub_resolution_wells),
        }


def polynomial_trap(gamma: float) -> Potential:
    """Background trap ``V(x) = 1 + |x|^gamma`` with kappa = 1.

    Pointwise ``V > |x|^gamma``, so every bad set is empty: the trap is
    classically confining.
    """
    if not gamma > 0:
        raise ValueError(f"gamma must be positive, got {gamma!r}")

    def evaluator(*coords):
        r2 = sum(np.asarray(c, dtype=np.float64) ** 2 for c in coords)
        return 1.0 + r2 ** (gamma / 2.0)

    return Potential(evaluator, kappa=1.0, gamma=gamma,
                     label=f"polynomial_trap(gamma={gamma:g})")


def sparse_wells(gamma: float) -> Potential:
    """Trap with wells: V = 1 on balls ``B(2^k e1, 2^(-2k))``, else 1 + |x|^gamma.

    Confining in measure with kappa = 1 (the bad set is exactly the union
    of wells, of finite total volume), but not classically confining: every
    radius R0 leaves some well center beyond it.
    """
    if not gamma > 0:
        raise ValueError(f"gamma must be positive, got {gamma!r}")
    k_max = 40  # the last well, centred at 2^40: beyond any desk-scale box

    def evaluator(*coords):
        arrs = [np.asarray(c, dtype=np.float64) for c in coords]
        r2 = sum(a**2 for a in arrs)
        background = 1.0 + r2 ** (gamma / 2.0)
        # The wells are disjoint, so only the one nearest on a log2 scale,
        # k = min(rint(log2(max(x0, 2))), k_max), can hold a point.  d2 and the
        # squared radius are the float values a test of every well computes.
        k = np.maximum(arrs[0], 2.0, out=np.asarray(r2))
        np.log2(k, out=k)
        np.rint(k, out=k)
        np.minimum(k, k_max, out=k)
        d2 = np.exp2(k, out=np.empty_like(k))
        np.subtract(arrs[0], d2, out=d2)
        np.square(d2, out=d2)
        for a in arrs[1:]:
            d2 += a**2
        k *= -4.0
        np.exp2(k, out=k)
        return np.where(d2 < k, 1.0, background)

    ks = range(1, k_max + 1)
    return Potential(
        evaluator,
        kappa=1.0,
        gamma=gamma,
        label=f"sparse_wells(gamma={gamma:g})",
        well_centers=tuple((2.0**k,) for k in ks),
        well_radii=tuple(2.0 ** (-2 * k) for k in ks),
    )


def constant_potential(value: float = 1.0, gamma: float = 1.0) -> Potential:
    """``V = value`` everywhere, stated with the pair (1, gamma)."""
    if value < 1.0:
        raise ValueError("constant potential must be >= 1")

    def evaluator(*coords):
        return np.full(np.shape(np.asarray(coords[0], dtype=float)), value)

    return Potential(evaluator, kappa=1.0, gamma=gamma, label=f"constant({value:g})")


def sample_potential(V: Potential, spec: GridSpec) -> GridFunction:
    """Sample V on the grid, enforcing the lower bound V >= 1."""
    Vg = sample(spec, V.evaluator)
    vmin = float(np.min(Vg.values))
    if vmin < 1.0:
        raise ValueError(
            f"potential {V.label} dips below 1 on the grid (min {vmin})"
        )
    return Vg


def _in_bad_set(V: Potential, r, values, R: float):
    """``|x| >= R and V(x) < kappa |x|^gamma`` at radii r where V takes values."""
    return (r >= R) & (values < V.kappa * r**V.gamma)


def bad_set_measure(V: Potential, spec: GridSpec, R: float,
                    Vg: GridFunction | None = None) -> float:
    """Quadrature measure of ``{|x| >= R, V(x) < kappa |x|^gamma}`` on the grid."""
    _require_radius(R)
    if Vg is None:
        Vg = sample_potential(V, spec)
    mask = _in_bad_set(V, spec.radii(), Vg.values, R)
    return float(np.sum(spec.weights()[mask]))


def bad_set_measure_mc(V: Potential, spec: GridSpec, R: float, *,
                       seed: int, samples: int = 100_000) -> float:
    """Seeded Monte Carlo estimate of the bad-set measure inside the box.

    Cross-check for wells narrower than the grid spacing, where node-based
    quadrature cannot resolve the geometry.  The samples are drawn, evaluated
    and tested one :func:`pschrod.grid.row_blocks` block at a time, so memory
    does not grow with ``samples``.  The generator fills rows in order and
    only integer hit counts are added up, so the estimate has the same bits
    for any block size.
    """
    _require_radius(R)
    try:
        count = operator.index(samples)
    except TypeError:
        count = None
    if count is None or isinstance(samples, bool):
        raise ValueError(f"sample count must be an integer, got {samples!r}")
    if count < 1:
        raise ValueError(f"sample count must be positive, got {count}")
    samples = count
    rng = np.random.default_rng(seed)
    hits = 0
    for rows in row_blocks(samples, spec.n):
        pts = rng.uniform(-spec.L, spec.L, size=(rows.stop - rows.start, spec.n))
        vals = np.asarray(V.evaluator(*[pts[:, a] for a in range(spec.n)]),
                          dtype=np.float64)
        r = np.sqrt(np.sum(pts**2, axis=1))
        hits += int(np.count_nonzero(_in_bad_set(V, r, vals, R)))
    volume = (2.0 * spec.L) ** spec.n
    return volume * (hits / samples)


def _witness_from_wells(V: Potential, spec: GridSpec, R0: float):
    for center, radius in zip(V.well_centers, V.well_radii):
        c = np.asarray(center[: spec.n] + (0.0,) * max(0, spec.n - len(center)))
        norm = float(np.linalg.norm(c))
        if norm <= R0 or norm > spec.L * math.sqrt(spec.n):
            continue
        value = float(np.asarray(V.evaluator(*[np.asarray([x]) for x in c])).ravel()[0])
        if _in_bad_set(V, norm, value, R0):
            return tuple(float(x) for x in c), radius
    return None, None


def _witness_from_nodes(V: Potential, spec: GridSpec, Vg: GridFunction, R0: float):
    idx = np.flatnonzero(_in_bad_set(V, spec.radii(), Vg.values, R0))
    if idx.size == 0:
        return None
    return tuple(float(x) for x in spec.node_coords()[int(idx[0])])


def confinement_report(V: Potential, spec: GridSpec,
                       R_grid: list[float]) -> ConfinementReport:
    """Tabulate |E_R| over R_grid and try to falsify classical confinement.

    The falsifier checks the potential's known well centers inside the box
    beyond the largest tested R0 (and, lacking metadata, scans grid nodes).
    A found witness proves the pointwise growth bound fails beyond every
    tested radius; its absence on a finite box proves nothing and is
    reported as ``classically_confining=True`` for the tested range only.
    """
    R_grid = [float(R) for R in R_grid]
    if not R_grid:
        raise ValueError("R_grid must be nonempty")
    if any(b <= a for a, b in zip(R_grid, R_grid[1:])):
        raise ValueError("R_grid must be strictly increasing")
    if R_grid[-1] >= spec.L * math.sqrt(spec.n):
        raise ValueError("largest radius must lie inside the box")

    Vg = sample_potential(V, spec)
    bad = tuple(bad_set_measure(V, spec, R, Vg=Vg) for R in R_grid)
    total = bad_set_measure(V, spec, 0.0, Vg=Vg)
    R0 = R_grid[-1]

    witness, _ = _witness_from_wells(V, spec, R0)
    if witness is None and not V.well_centers:
        witness = _witness_from_nodes(V, spec, Vg, R0)

    sub_res = tuple(
        i for i, (c, rad) in enumerate(zip(V.well_centers, V.well_radii))
        if rad < spec.h and np.linalg.norm(c[: spec.n]) <= spec.L * math.sqrt(spec.n)
    )

    return ConfinementReport(
        R_grid=tuple(R_grid),
        bad_measures=bad,
        total_bad_measure=total,
        classically_confining=witness is None,
        violation_witness=witness,
        kappa=V.kappa,
        gamma=V.gamma,
        label=V.label,
        grid=spec.describe(),
        sub_resolution_wells=sub_res,
    )
