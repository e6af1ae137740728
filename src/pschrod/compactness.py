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

from dataclasses import dataclass, replace
from typing import Any

import numpy as np

from .asymptotic import (
    lambda_dist,
    lambda_mass_rows,
    lp_norm,
    superlevel_measure,
    tail_lambda,
    weak_lq_quasinorm,
)
from .grid import GridFunction, GridSpec, _component_sum, gradient

__all__ = [
    "FunctionFamily",
    "FamilyReport",
    "shift_lattice",
    "translation_defect",
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


def translation_defect(u: GridFunction, y, p) -> float:
    """``integral min(|u(x + y) - u(x)|, 1)^p dx`` with zero extension.

    ``y`` must be a lattice shift shorter than the box half-width.
    """
    offset = shift_lattice(u.spec, y)
    if np.linalg.norm(np.asarray(offset) * u.spec.h) >= u.spec.L:
        raise ValueError("shift magnitude must stay below the box half-width")
    shifted = _shifted_values(u, offset)
    return float(lambda_mass_rows(shifted - u.values, u.spec.weights(), p))


def _gradient_magnitude(u: GridFunction) -> GridFunction:
    """``|grad u|`` at every node, from the nodal gradient."""
    g = gradient(u)
    return GridFunction(u.spec, np.sqrt(_component_sum(g * g)))


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
