"""Total-boundedness diagnostics for families of grid functions.

Three finite-grid observables govern precompactness in the asymptotic
metric: the translation modulus ``integral min(|f(.+y) - f|, 1)^p``, the
tails ``integral_{|x|>R} min(|f|, 1)^p`` and the superlevel measures
``|{|f| > K}|``.  The package evaluates them for a finite family, checks
the Sobolev-type sufficient conditions (Lp bound plus weak-Lq gradient
bound plus uniform tails), and constructs greedy epsilon-nets as
constructive witnesses.

Verdict vocabulary is deliberately modest: a condition is either
"decaying" (the sup-over-family observable fell below the configured
epsilon somewhere on the grid) or "not observed".  A finite check can
falsify but never certify the infinite-family statement.

Shifted evaluations use zero extension outside the box, consistent with
compactly supported families; for anything else the boundary slab shows up
in the modulus as a truncation artifact.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Any

import numpy as np

from .asymptotic import (
    EstimateReport,
    lambda_dist,
    lambda_mass_rows,
    lp_norm,
    superlevel_measure,
    tail_lambda,
    weak_lq_quasinorm,
)
from .grid import GridFunction, GridSpec, gradient

__all__ = [
    "FunctionFamily",
    "FamilyReport",
    "maximal",
    "shift_lattice",
    "translation_defect",
    "maximal_translation_check",
    "kr_report",
    "ark_check",
    "epsilon_net",
]

DECAYING = "decaying"
NOT_OBSERVED = "not observed"


@dataclass(frozen=True, eq=False)
class FunctionFamily:
    """Finite family of grid functions on one shared grid."""

    members: tuple[GridFunction, ...]
    label: str = ""

    def __post_init__(self):
        members = tuple(self.members)
        if not members:
            raise ValueError("a function family must have at least one member")
        spec = members[0].spec
        for m in members[1:]:
            if m.spec != spec:
                raise ValueError("family members must share one grid")
        object.__setattr__(self, "members", members)

    @property
    def spec(self) -> GridSpec:
        return self.members[0].spec

    def __len__(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class FamilyReport:
    """Condition maps, verdicts and optional Sobolev-bound record."""

    label: str
    p: float
    size: int
    eps: float
    translation_modulus: dict[float, float]
    tails: dict[float, float]
    superlevels: dict[float, float]
    verdicts: dict[str, str]
    ark_bound: float | None = None
    ark_q: float | None = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "label": self.label,
            "p": self.p,
            "size": self.size,
            "eps": self.eps,
            "translation_modulus": {repr(k): v for k, v in self.translation_modulus.items()},
            "tails": {repr(k): v for k, v in self.tails.items()},
            "superlevels": {repr(k): v for k, v in self.superlevels.items()},
            "verdicts": dict(self.verdicts),
            "ark_bound": self.ark_bound,
            "ark_q": self.ark_q,
        }


def maximal(u: GridFunction) -> GridFunction:
    """Centered maximal function over the radius set ``{h, 2h, ..., 2L sqrt(n)}``.

    Ball averages are quadrature-weighted and normalized by the weight
    actually inside the box, so constants are fixed points.  Balls are
    accumulated ring by ring, which visits every node offset exactly once.
    """
    spec = u.spec
    n, m = spec.n, spec.m
    absu = np.abs(u.reshaped())
    w = spec.weights().reshape(spec.shape)
    wu = w * absu

    S = np.zeros(spec.shape)
    W = np.zeros(spec.shape)
    M = np.zeros(spec.shape)
    max_ring = int(math.ceil(math.sqrt(n) * (m - 1)))

    rings: dict[int, list[tuple[int, ...]]] = {}
    for o in itertools.product(range(-(m - 1), m), repeat=n):
        ring = int(math.ceil(math.sqrt(sum(c * c for c in o))))
        rings.setdefault(ring, []).append(o)

    for j in range(0, max_ring + 1):
        for o in rings.get(j, ()):
            _shift_add(S, wu, o)
            _shift_add(W, w, o)
        if j >= 1:
            np.maximum(M, S / W, out=M)
    return GridFunction(spec, M.ravel())


def _shift_add(acc: np.ndarray, src: np.ndarray, offset: tuple[int, ...]) -> None:
    """acc[i] += src[i + offset] wherever i + offset stays on the grid."""
    m = acc.shape[0]
    t_slices, s_slices = [], []
    for o in offset:
        t_lo, t_hi = max(0, -o), m - max(0, o)
        if t_lo >= t_hi:
            return
        t_slices.append(slice(t_lo, t_hi))
        s_slices.append(slice(t_lo + o, t_hi + o))
    acc[tuple(t_slices)] += src[tuple(s_slices)]


def shift_lattice(spec: GridSpec, y) -> tuple[int, ...]:
    """Snap a shift vector to node-offset units; rejects off-lattice shifts."""
    y = np.atleast_1d(np.asarray(y, dtype=np.float64))
    if y.shape != (spec.n,):
        raise ValueError(f"shift must have {spec.n} components, got shape {y.shape}")
    ratio = y / spec.h
    snapped = np.rint(ratio)
    if np.any(np.abs(ratio - snapped) > 1e-8 * np.maximum(1.0, np.abs(ratio))):
        raise ValueError(
            f"shift {y.tolist()} is not a node-offset multiple of h = {spec.h:g}"
        )
    return tuple(int(s) for s in snapped)


def _shifted_values(u: GridFunction, offset: tuple[int, ...]) -> np.ndarray:
    """Samples of ``x -> u(x + y)`` with zero extension outside the box."""
    out = np.zeros(u.spec.shape)
    _shift_add(out, u.reshaped(), offset)
    return out.ravel()


def _short_shift(spec: GridSpec, y) -> tuple[tuple[int, ...], float]:
    """Node offset and length of a lattice shift shorter than the box half-width."""
    offset = shift_lattice(spec, y)
    length = float(np.linalg.norm(np.asarray(offset) * spec.h))
    if length >= spec.L:
        raise ValueError("shift magnitude must stay below the box half-width")
    return offset, length


def translation_defect(u: GridFunction, y, p) -> float:
    """``integral min(|u(x + y) - u(x)|, 1)^p dx`` with zero extension."""
    offset, _ = _short_shift(u.spec, y)
    shifted = _shifted_values(u, offset)
    return float(lambda_mass_rows(shifted - u.values, u.spec.weights(), p))


def _gradient_magnitude(u: GridFunction) -> GridFunction:
    """``|grad u|`` at every node, from the nodal gradient."""
    g = gradient(u)
    return GridFunction(u.spec, np.sqrt(np.sum(g * g, axis=-1)))


def maximal_translation_check(
    u: GridFunction,
    y,
    c_ref: float | None = None,
) -> EstimateReport:
    """Empirical constant in ``|u(x+y) - u(x)| <= C |y| (Mg(x+y) + Mg(x))``.

    ``Mg`` is the maximal function of ``|grad u|``.  The samples are the
    interior nodes x with x + y on the grid.  Reports the largest ratio
    over them as ``lhs``; when ``c_ref`` is given the
    check passes iff the constant stays below it (use twice the constant
    of a coarser grid to test refinement stability), otherwise ``rhs``
    echoes the constant and the report documents finiteness only.
    Samples where the bound degenerates (zero denominator, nonzero
    numerator) are excluded and counted in the context.
    """
    spec = u.spec
    offset, y_norm = _short_shift(spec, y)
    mg = maximal(_gradient_magnitude(u))
    ones = GridFunction(spec, np.ones(spec.num_nodes))
    keep = (_shifted_values(ones, offset) > 0.0) & ~spec.boundary_mask()

    numer = np.abs(_shifted_values(u, offset)[keep] - u.values[keep])
    denom = y_norm * (_shifted_values(mg, offset)[keep] + mg.values[keep])
    degenerate = (denom == 0.0) & (numer > 0.0)
    ratio = np.divide(numer, denom, out=np.zeros(numer.size), where=denom > 0.0)
    c_emp = float(np.max(ratio, initial=0.0))

    rhs = c_emp if c_ref is None else float(c_ref)
    return EstimateReport(
        "maximal_translation", c_emp, rhs, 0.0,
        {
            "shift": list(np.asarray(offset) * u.spec.h),
            "samples": int(numer.size),
            "excluded_degenerate": int(np.sum(degenerate)),
            "grid": spec.describe(),
        },
    )


def _axis_shifts(spec: GridSpec, magnitude: float) -> list[np.ndarray]:
    shifts = []
    for axis in range(spec.n):
        for sign in (+1.0, -1.0):
            y = np.zeros(spec.n)
            y[axis] = sign * magnitude
            shifts.append(y)
    return shifts


def kr_report(
    fam: FunctionFamily,
    p,
    shift_grid=None,
    R_grid=None,
    K_grid=None,
    eps: float = 0.1,
) -> FamilyReport:
    """Evaluate the three compactness condition maps for a finite family.

    ``shift_grid`` holds shift magnitudes (lattice multiples of h); the
    modulus at each magnitude is the sup over family members and over the
    2n axis directions.  Verdicts compare the most favorable grid point
    against ``eps``: smallest shift for the modulus, largest radius for
    tails, largest level for superlevels (integral-type maps against
    ``eps**p``, the measure-type map against ``eps``).  The grids default
    to ``[h, 2h]``, ``[L/4, L/2, 3L/4]`` and ``[0.5, 1, 2]``.
    """
    p = float(p)
    spec = fam.spec
    if shift_grid is None:
        shift_grid = [spec.h, 2 * spec.h]
    if R_grid is None:
        R_grid = [spec.L / 4.0, spec.L / 2.0, 3.0 * spec.L / 4.0]
    if K_grid is None:
        K_grid = [0.5, 1.0, 2.0]
    shift_grid = [float(s) for s in shift_grid]
    R_grid = [float(R) for R in R_grid]
    K_grid = [float(K) for K in K_grid]
    if not (shift_grid and R_grid and K_grid):
        raise ValueError("shift_grid, R_grid and K_grid must be nonempty")

    modulus = {
        s: max(
            translation_defect(f, y, p)
            for f in fam.members
            for y in _axis_shifts(fam.spec, s)
        )
        for s in shift_grid
    }
    tails = {R: max(tail_lambda(f, R, p) for f in fam.members) for R in R_grid}
    superlevels = {
        K: max(superlevel_measure(f, K) for f in fam.members) for K in K_grid
    }
    verdicts = {
        "translation": DECAYING if modulus[min(shift_grid)] < eps**p else NOT_OBSERVED,
        "tail": DECAYING if tails[max(R_grid)] < eps**p else NOT_OBSERVED,
        "superlevel": DECAYING if superlevels[max(K_grid)] < eps else NOT_OBSERVED,
    }
    return FamilyReport(
        label=fam.label,
        p=p,
        size=len(fam),
        eps=eps,
        translation_modulus=modulus,
        tails=tails,
        superlevels=superlevels,
        verdicts=verdicts,
    )


def ark_check(
    fam: FunctionFamily,
    p,
    q=None,
    shift_grid=None,
    R_grid=None,
    K_grid=None,
    eps: float = 0.1,
) -> FamilyReport:
    """Sobolev-bound hypotheses plus the three-condition cross-check.

    Records the empirical constant ``sup(||f||_p + ||grad f||_{q,infty})``
    and the tail map; the tail hypothesis verdict lands in
    ``verdicts["tail"]``.  ``q`` defaults to p, the choice under which the
    truncated-solution families satisfy the bound.  The cross-check runs
    :func:`kr_report` on the same grids: when the hypotheses hold, all
    three conditions should come back "decaying".
    """
    p = float(p)
    q = p if q is None else float(q)
    if not q > 1:
        raise ValueError(f"weak-norm exponent q must exceed 1, got {q!r}")

    bound = max(
        lp_norm(f, p) + weak_lq_quasinorm(_gradient_magnitude(f), q)
        for f in fam.members
    )
    base = kr_report(fam, p, shift_grid, R_grid, K_grid, eps=eps)
    return replace(base, ark_bound=float(bound), ark_q=q)


def epsilon_net(fam: FunctionFamily, p, eps: float) -> list[int]:
    """Greedy farthest-point net in the asymptotic metric.

    Starts from member 0, repeatedly adds the member farthest from the net
    (smallest index on ties) until every member sits within ``eps`` of the
    net.  Deterministic; the returned indices are net members.
    """
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps!r}")
    p = float(p)
    members = fam.members
    net = [0]
    min_dist = np.array([lambda_dist(f, members[0], p) for f in members])
    while True:
        far = int(np.argmax(min_dist))
        if min_dist[far] <= eps:
            return net
        net.append(far)
        dist_new = np.array([lambda_dist(f, members[far], p) for f in members])
        min_dist = np.minimum(min_dist, dist_new)
