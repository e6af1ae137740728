"""Datum regularization, the solve sequence, and every estimate check.

Given an integrable datum f, the scheme solves the problem for the
regularized data ``f_k = T_k(f) . indicator(|x| < k)`` over an increasing
list of levels k, in order and each from the last converged level, and
reports, for each solution and each configured truncation level t,
radius R and pair k < l:

* energy estimate      ``||T_t(u_k)||_X^p <= t ||f_k||_1``
* tail bound           ``tail(T_t(u_k), R) <= |E_R| + t ||f_k||_1 / (kappa R^gamma)``
* stability            ``||T_t(u_k - u_l)||_X^p <= 2^(p-2) t ||f_k - f_l||_1``
* superlevel bound     ``|{|u_k| > m}| <= m^(1-p) ||f||_1``

The localized identity, an entropy-type identity with test perturbation
``T_t(T_a(u) - phi) - T_t(T_a(u))``, is not part of the scheme: the
``localized_identity`` suite of :mod:`pschrod.verify` checks it under
refinement, and :func:`check_localized_identity` reports it for one
solution.

Energy norms of truncations (energy, stability and the convergence
records) are :func:`~pschrod.asymptotic.x_norm_p` of ``T_t u``, which
takes the solver's own cell gradient G, so they measure the quantity the
solver minimizes.  The localized identity and the distributional residual
keep the nodal central difference, with chain-rule masking on the strict set
``{|u| < a}`` (ties get mask zero).  The infinite limit object is replaced
by the highest-k solve; all convergence records against it carry the
caveat "finite-sequence surrogate".
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import reduce
from pathlib import Path
from typing import Any, Callable

import numpy as np

from .asymptotic import (
    EstimateReport,
    lambda_dist,
    superlevel_measure,
    tail_lambda,
    truncate,
    x_norm_p,
)
from .grid import (
    GridFunction,
    GridSpec,
    _component_sum,
    _require_zero_boundary,
    abs_power,
    energy_sums,
    gradient,
    integrate,
    save_grid_function,
    write_json,
)
from .potentials import Potential, bad_set_measure, sample_potential
from .solver import MAX_ITERS, Problem, SolveResult, pflux, solve

__all__ = [
    "SchemeConfig",
    "SchemeResult",
    "regularize_datum",
    "mollify_datum",
    "check_energy_estimate",
    "check_tail_bound",
    "check_stability",
    "check_superlevel_bound",
    "truncation_perturbation",
    "identity_defect",
    "check_localized_identity",
    "identity_budget",
    "distributional_residual",
    "run_scheme",
    "save_scheme_result",
]

FINITE_SEQUENCE_CAVEAT = "finite-sequence surrogate"

REPORT_TOL = 0.05  # relative tolerance of every estimate report


def regularize_datum(f: GridFunction, k: float) -> GridFunction:
    """Canonical regularization ``T_k(f) . indicator(|x| < k)``.

    The result is bounded by k, supported in the open ball of radius k
    (node-masked) and has no more L1 mass than f.
    """
    if not k > 0:
        raise ValueError(f"regularization level must be positive, got {k!r}")
    clipped = np.clip(f.values, -k, k)
    clipped[f.spec.radii() >= k] = 0.0
    return GridFunction(f.spec, clipped)


def mollify_datum(f: GridFunction, k: float) -> GridFunction:
    """Alternative regularization: canonical step followed by smoothing.

    Convolves ``regularize_datum(f, k)`` with a normalized triangular
    kernel of physical half-width ``0.5 / k**2``.  The width collapses
    below the grid spacing as k grows (the kernel degenerates to the
    identity), so the scheme converges to the same limit as the canonical
    one while its early members genuinely differ.
    """
    fk = regularize_datum(f, k)
    delta = 0.5 / float(k) ** 2
    h = f.spec.h
    taps = int(np.floor(delta / h))
    if taps < 1:
        return fk
    offsets = np.arange(-taps, taps + 1)
    kernel = 1.0 - np.abs(offsets) * h / delta
    kernel = kernel / kernel.sum()
    m = f.spec.m
    arr = fk.reshaped()
    for axis in range(f.spec.n):
        # the centred m values of the full convolution; unlike mode="same"
        # this stays length m when the kernel is longer than the axis
        arr = np.apply_along_axis(
            lambda row: np.convolve(row, kernel)[taps:taps + m], axis, arr
        )
    return GridFunction(f.spec, arr.ravel())


def _base_context(prob: Problem, **extra) -> dict[str, Any]:
    ctx = {"p": prob.p, "grid": prob.spec.describe()}
    ctx.update(extra)
    return ctx


def check_energy_estimate(
    res: SolveResult, prob: Problem, t: float, f_ref_l1: float
) -> EstimateReport:
    """``||T_t(u)||_X^p <= t * f_ref_l1`` for the solved u."""
    lhs = x_norm_p(truncate(res.u, t), prob.V, prob.p)
    rhs = t * f_ref_l1
    return EstimateReport(
        "energy_estimate", lhs, rhs, REPORT_TOL, _base_context(prob, t=t, f_l1=f_ref_l1)
    )


def _require_tail_radius(R: float, spec: GridSpec) -> None:
    if not 0 < R < spec.L * np.sqrt(spec.n):
        raise ValueError(f"radius R = {R!r} must lie inside the box")


def check_tail_bound(
    res: SolveResult, prob: Problem, V: Potential, t: float, R: float,
    bad_measure: float, f_l1: float
) -> EstimateReport:
    """``tail(T_t u, R) <= |E_R| + t ||f||_1 / (kappa R^gamma)``.

    ``bad_measure`` is ``|E_R|`` of ``V`` on ``prob.spec``
    (:func:`~pschrod.potentials.bad_set_measure`) and ``f_l1`` is
    ``||f||_1`` of ``prob.f``; :func:`run_scheme` computes each once and
    hands it to every check that needs it.
    """
    _require_tail_radius(R, prob.spec)
    lhs = tail_lambda(truncate(res.u, t), R, prob.p)
    rhs = bad_measure + t * f_l1 / (V.kappa * R**V.gamma)
    return EstimateReport(
        "tail_bound", lhs, rhs, REPORT_TOL,
        _base_context(prob, t=t, R=R, kappa=V.kappa, gamma=V.gamma,
                      bad_measure=bad_measure, f_l1=f_l1),
    )


def check_stability(
    res_k: SolveResult, res_l: SolveResult, f_k: GridFunction, f_l: GridFunction,
    prob: Problem, t: float
) -> EstimateReport:
    """``||T_t(u_k - u_l)||_X^p <= C_p t ||f_k - f_l||_1`` with ``C_p = 2^(p-2)``."""
    p = prob.p
    diff = res_k.u - res_l.u
    lhs = x_norm_p(truncate(diff, t), prob.V, p)
    c_p = 2.0 ** (p - 2.0)
    rhs = c_p * t * integrate((f_k - f_l).abs())
    return EstimateReport(
        "stability", lhs, rhs, REPORT_TOL, _base_context(prob, t=t, C_p=c_p),
    )


def check_superlevel_bound(
    res: SolveResult, prob: Problem, level: float, f_ref_l1: float
) -> EstimateReport:
    """``|{|u| > m}| <= m^(1-p) ||f||_1`` for the solved u."""
    lhs = superlevel_measure(res.u, level)
    rhs = level ** (1.0 - prob.p) * f_ref_l1
    return EstimateReport(
        "superlevel_bound", lhs, rhs, REPORT_TOL,
        _base_context(prob, m=level, f_l1=f_ref_l1),
    )


def truncation_perturbation(
    u: GridFunction, phi: GridFunction, alpha: float, t: float
) -> GridFunction:
    """Entropy-type test perturbation ``T_t(T_alpha(u) - phi) - T_t(T_alpha(u))``.

    Vanishes wherever phi does, so its support is contained in supp(phi)
    exactly at node level.
    """
    ta = np.clip(u.values, -alpha, alpha)
    vals = np.clip(ta - phi.values, -t, t) - np.clip(ta, -t, t)
    return GridFunction(u.spec, vals)


def identity_defect(
    res: SolveResult, prob: Problem, phi: GridFunction, alpha: float, t: float
) -> tuple[float, bool]:
    """Residual of the localized identity and the node-level support check.

    Returns ``(defect, supp_ok)`` where ``defect`` is the absolute gap in

        int |grad T_a u|^(p-2) grad T_a u . grad Phi
        + int V |T_a u|^(p-2) T_a u Phi  =  int f Phi

    (the :func:`distributional_residual` of ``T_a u`` tested against Phi)
    with ``Phi = truncation_perturbation(u, phi, alpha, t)``, and
    ``supp_ok`` confirms supp(Phi) is contained in supp(phi) node by node.
    Requires ``alpha > t + max|phi|``.
    """
    _require_zero_boundary(phi, "phi")
    if not t > 0:
        raise ValueError(f"truncation level must be positive, got {t!r}")
    if not alpha > t + phi.max_abs():
        raise ValueError(
            f"alpha must exceed t + max|phi| = {t + phi.max_abs():g}, got {alpha!r}"
        )
    u = res.u
    big_phi = truncation_perturbation(u, phi, alpha, t)
    supp_ok = bool(np.all(big_phi.values[phi.values == 0.0] == 0.0))
    grad_ta = gradient(u) * (np.abs(u.values) < alpha)[:, None]
    return distributional_residual(truncate(u, alpha), grad_ta, prob, big_phi), supp_ok


def _identity_scale(prob: Problem, t: float) -> float:
    return t * (1.0 + integrate(prob.f.abs()))


def check_localized_identity(
    res: SolveResult, prob: Problem, phi: GridFunction, alpha: float, t: float,
    c_budget: float
) -> EstimateReport:
    """Compare the identity defect against the budget ``c_budget * h * scale``.

    The identity is exact in the continuum; the budget quantifies the
    discretization error.  Calibrate ``c_budget`` once per experiment with
    :func:`identity_budget` and keep it frozen across refinements.
    """
    defect, supp_ok = identity_defect(res, prob, phi, alpha, t)
    rhs = c_budget * prob.spec.h * _identity_scale(prob, t)
    return EstimateReport(
        "localized_identity", defect, rhs, REPORT_TOL,
        _base_context(prob, t=t, alpha=alpha, c_budget=c_budget,
                      supp_contained=supp_ok),
    )


def identity_budget(defect: float, prob: Problem, t: float) -> float:
    """Freeze a budget constant from the identity defect of one coarse solve.

    ``defect`` is the :func:`identity_defect` of the solution of ``prob``
    at level ``t``.  The returned constant is ``2 * defect / (h * scale)``;
    reports at finer resolutions then pass exactly when the defect decays
    at least linearly in h relative to the coarse run.
    """
    return 2.0 * defect / (prob.spec.h * _identity_scale(prob, t))


def distributional_residual(
    u: GridFunction, grad: np.ndarray, prob: Problem, psi: GridFunction
) -> float:
    """Absolute defect of the distributional equation tested against psi.

    ``grad`` is a nodal gradient of u, laid out as :func:`pschrod.grid.gradient`
    returns it: shape ``(m**n, n)``.
    """
    _require_zero_boundary(psi, "psi")
    if np.shape(grad) != (u.spec.num_nodes, u.spec.n):
        raise ValueError(f"gradient must have shape {(u.spec.num_nodes, u.spec.n)}")
    p = prob.p
    flux = pflux(grad, p)
    kin = integrate(GridFunction(u.spec, _component_sum(flux * gradient(psi))))
    zero_order = integrate(
        GridFunction(
            u.spec,
            prob.V.values * abs_power(u.values, p - 2.0) * u.values * psi.values,
        )
    )
    source = integrate(GridFunction(u.spec, prob.f.values * psi.values))
    return abs(kin + zero_order - source)


# ---------------------------------------------------------------------------
# the scheme


@dataclass(frozen=True)
class SchemeConfig:
    """Levels, truncation grids and solver limits for one scheme run."""

    k_list: tuple[float, ...]
    t_grid: tuple[float, ...]
    alpha_grid: tuple[float, ...] = (0.5, 1.0)
    R_grid: tuple[float, ...] = (2.0, 4.0, 6.0)
    eps_grid: tuple[float, ...] = (0.1, 0.5, 1.0)
    tol_residual: float | None = None
    max_iters: int = MAX_ITERS

    def __post_init__(self):
        ks = tuple(float(k) for k in self.k_list)
        if not ks:
            raise ValueError("k_list must be nonempty")
        if not all(0 < k < np.inf for k in ks):
            raise ValueError(f"k_list levels must be positive and finite, got {list(ks)}")
        if any(b <= a for a, b in zip(ks, ks[1:])):
            raise ValueError("k_list must be strictly increasing")
        labels = [f"{k:g}" for k in ks]  # each level's name in the artifacts
        if len(set(labels)) < len(labels):
            raise ValueError(f"levels in k_list must have distinct labels, got {labels}")
        object.__setattr__(self, "k_list", ks)
        for name in ("t_grid", "alpha_grid", "R_grid", "eps_grid"):
            vals = tuple(float(v) for v in getattr(self, name))
            if not vals:
                raise ValueError(f"{name} must be nonempty")
            # R_grid is checked against the box by run_scheme
            if name != "R_grid" and not all(0 < v < np.inf for v in vals):
                raise ValueError(f"{name} entries must be finite and positive, got {list(vals)}")
            object.__setattr__(self, name, vals)


@dataclass(frozen=True, eq=False)
class SchemeResult:
    """Solve sequence plus every report and convergence record."""

    p: float
    grid: str
    k_list: tuple[float, ...]
    solutions: dict[float, SolveResult]
    reports: list[EstimateReport]
    pairwise_lambda: np.ndarray
    measure_diag: dict[float, np.ndarray]
    convergence: dict[str, Any]
    failed_k: tuple[float, ...]
    started_from: dict[float, float | None]
    caveat: str = FINITE_SEQUENCE_CAVEAT

    @property
    def reference_k(self) -> float | None:
        return self.convergence["reference_k"]

    def failed_reports(self) -> list[EstimateReport]:
        return [r for r in self.reports if not r.passed]


def _pair_matrix(
    k_list: tuple[float, ...], failed: list[float],
    value: Callable[[float, float], float],
) -> np.ndarray:
    """Symmetric ``value(k, l)`` over level pairs, zero diagonal, NaN on failed levels."""
    nk = len(k_list)
    mat = np.zeros((nk, nk))
    for i, k in enumerate(k_list):
        for j in range(i + 1, nk):
            l = k_list[j]
            failed_pair = k in failed or l in failed
            mat[i, j] = mat[j, i] = np.nan if failed_pair else value(k, l)
    return mat


def run_scheme(
    f: GridFunction,
    V: Potential,
    p: float,
    cfg: SchemeConfig,
    regularizer: Callable[[GridFunction, float], GridFunction] = regularize_datum,
) -> SchemeResult:
    """Solve the k-sequence in order and verify every configured estimate.

    Each level starts from the solution of the latest converged earlier
    level, which the stability estimate puts close by; the first level, and
    a level with no converged predecessor, starts where :func:`solve` does
    by default.  A level whose regularized datum equals that level's datum
    bit for bit is the same problem, and since the minimizer is unique it
    takes that level's result without solving again.  ``started_from``
    names, per level, the level it started from or reused (None: the
    default start).  Non-convergent levels are flagged and their reports
    omitted; when no level converges the result has no reports and no
    reference level (``reference_k`` is None).
    """
    for R in cfg.R_grid:
        _require_tail_radius(R, f.spec)
    V_g = sample_potential(V, f.spec)
    solutions: dict[float, SolveResult] = {}
    data: dict[float, GridFunction] = {}
    probs: dict[float, Problem] = {}
    started_from: dict[float, float | None] = {}
    failed = []
    last = None  # the latest converged level
    for k in cfg.k_list:
        data[k] = regularizer(f, k)
        started_from[k] = last
        if last is not None and data[k].values.tobytes() == data[last].values.tobytes():
            probs[k], solutions[k] = probs[last], solutions[last]
        else:
            probs[k] = Problem(f.spec, p, V_g, data[k], tol_residual=cfg.tol_residual,
                               max_iters=cfg.max_iters)
            solutions[k] = solve(probs[k], u0=None if last is None else solutions[last].u)
        if solutions[k].converged:
            last = k
        else:
            failed.append(k)
    good = [k for k in cfg.k_list if k not in failed]

    f_l1 = integrate(f.abs())
    bad = {R: bad_set_measure(V, f.spec, R, Vg=V_g) for R in cfg.R_grid}
    reports: list[EstimateReport] = []
    for k in good:
        res, prob = solutions[k], probs[k]
        fk_l1 = integrate(data[k].abs())
        for t in cfg.t_grid:
            level = [check_energy_estimate(res, prob, t, fk_l1)]
            level += [check_tail_bound(res, prob, V, t, R, bad[R], fk_l1) for R in cfg.R_grid]
            level.append(check_superlevel_bound(res, prob, t, f_l1))
            for rep in level:
                rep.context["k"] = k
            reports += level
    for i, k in enumerate(good):
        for l in good[i + 1:]:
            for t in cfg.t_grid:
                rep = check_stability(solutions[k], solutions[l], data[k], data[l], probs[k], t)
                rep.context["k"] = k
                rep.context["l"] = l
                reports.append(rep)

    pairwise = _pair_matrix(
        cfg.k_list, failed, lambda k, l: lambda_dist(solutions[k].u, solutions[l].u, p)
    )
    measure_diag = {
        eps: _pair_matrix(
            cfg.k_list, failed,
            lambda k, l: superlevel_measure(solutions[k].u - solutions[l].u, eps),
        )
        for eps in cfg.eps_grid
    }

    k_ref = good[-1] if good else None
    u_ref = solutions[k_ref].u if good else None
    x = f.spec.axis_coords()
    centre_in = np.abs(0.5 * (x[:-1] + x[1:])) <= f.spec.L / 2.0
    sub_box = reduce(np.logical_and.outer, [centre_in] * f.spec.n).ravel()
    conv_rows = []
    for k in good:
        row = {"k": k, "lambda_dist_to_ref": lambda_dist(solutions[k].u, u_ref, p)}
        row["trunc_xnorm_p_to_ref"] = {
            alpha: x_norm_p(truncate(solutions[k].u - u_ref, alpha), V_g, p)
            for alpha in cfg.alpha_grid
        }
        grad_local = {}
        for alpha in cfg.alpha_grid:
            gap = truncate(solutions[k].u, alpha) - truncate(u_ref, alpha)
            kinetic, _ = energy_sums(gap.values, V_g.values, f.spec, p, cells=sub_box)
            grad_local[alpha] = f.spec.h**f.spec.n * kinetic
        row["grad_gap_subbox_p"] = grad_local
        conv_rows.append(row)

    convergence = {
        "reference_k": k_ref,
        "caveat": FINITE_SEQUENCE_CAVEAT,
        "rows": conv_rows,
    }
    return SchemeResult(
        p=float(p),
        grid=f.spec.describe(),
        k_list=cfg.k_list,
        solutions=solutions,
        reports=reports,
        pairwise_lambda=pairwise,
        measure_diag=measure_diag,
        convergence=convergence,
        failed_k=tuple(failed),
        started_from=started_from,
    )


def save_scheme_result(res: SchemeResult, outdir: str | Path) -> None:
    """Write per-k solution files, reports.json, distances.csv, diagnostics.json."""
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    for k, sol in res.solutions.items():
        save_grid_function(sol.u, out / f"u_k{k:g}")
    write_json(out / "reports.json", [r.to_dict() for r in res.reports])
    with open(out / "distances.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k"] + [f"{k:g}" for k in res.k_list])
        for i, k in enumerate(res.k_list):
            writer.writerow([f"{k:g}"] + res.pairwise_lambda[i].tolist())
    diagnostics = {
        "p": res.p,
        "grid": res.grid,
        "k_list": list(res.k_list),
        "failed_k": list(res.failed_k),
        "caveat": res.caveat,
        "convergence": res.convergence,
        # a pair with a non-convergent level is NaN in the matrix and null here
        "measure_diag": {
            repr(eps): np.where(np.isnan(mat), None, mat).tolist()
            for eps, mat in res.measure_diag.items()
        },
        "solves": {
            f"{k:g}": sol.diagnostics() for k, sol in res.solutions.items()
        },
        "started_from": {f"{k:g}": None if start is None else f"{start:g}"
                         for k, start in res.started_from.items()},
    }
    write_json(out / "diagnostics.json", diagnostics)
