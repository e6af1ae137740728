"""Seeded property suites behind the ``verify`` subcommand.

Each suite exercises one slab of the quantitative theory (flux
monotonicity, metric axioms, nesting and embedding, the estimate pipeline,
sparse wells, compactness diagnostics, the localized identity, and
uniqueness) and emits one deterministic JSON report.  Rerunning with the
same seed reproduces every report byte for byte; pass/fail verdicts do not
depend on the seed.
"""

from __future__ import annotations

from dataclasses import replace
from functools import cache
from pathlib import Path

import numpy as np

from .asymptotic import (
    ALGEBRAIC_TOL,
    lambda_dist,
    lambda_fnorm_rows,
    lambda_mass_rows,
    truncate,
    weak_lq_quasinorm,
)
from .compactness import (
    DECAYING,
    NOT_OBSERVED,
    FunctionFamily,
    ark_check,
    epsilon_net,
    kr_report,
)
from .grid import (GridFunction, GridSpec, _component_sum, integrate, row_blocks, write_json,
                   zero_boundary)
from .pipeline import check_localized_identity, mollify_datum
from .potentials import bad_set_measure_mc, confinement_report, sparse_wells
from .presets import (
    identity_case,
    small_scheme,
    standard_problem,
    translating_bumps,
    two_bump_datum,
)
from .solver import monotonicity_margin, solve

__all__ = ["SUITE_NAMES", "run_verify"]

def _suite_monotonicity(rng: np.random.Generator) -> dict:
    details = {}
    worst = 0.0
    # every batch is drawn into the same buffers: the stream of fresh arrays
    xi, eta = np.empty((2, 100_000, 3))
    a, b = np.empty((2, 100_000))
    for p in (2.0, 2.5, 3.0, 4.0):
        rng.standard_normal(out=xi)
        rng.standard_normal(out=eta)
        margin = monotonicity_margin(xi, eta, p)
        rhs = 2.0 ** (2.0 - p) * _component_sum((xi - eta) ** 2) ** (p / 2.0)
        rel = margin / np.maximum(rhs, 1e-300)
        rng.standard_normal(out=a)
        rng.standard_normal(out=b)
        margin_s = monotonicity_margin(a, b, p)
        rel_s = margin_s / np.maximum(2.0 ** (2.0 - p) * np.abs(a - b) ** p, 1e-300)
        details[f"p={p:g}"] = {
            "min_rel_margin_vector": float(np.min(rel)),
            "min_rel_margin_scalar": float(np.min(rel_s)),
        }
        worst = min(worst, float(np.min(rel)), float(np.min(rel_s)))
    return {"passed": worst >= -ALGEBRAIC_TOL, "worst_rel_margin": worst, "per_p": details}


def _suite_lambda_metric(rng: np.random.Generator) -> dict:
    spec = GridSpec(n=1, L=4.0, m=129)
    n_pairs = 10_000
    p = 2.0
    weights = spec.weights()
    # one draw, whose values the seed fixes; the gaps are then taken one row
    # block at a time in two buffers allocated once, and their maxima over
    # the blocks have the same bits
    u, v, w = rng.normal(0.0, 3.0, (3, n_pairs, spec.num_nodes))
    alpha = rng.uniform(0.1, 4.0, size=(n_pairs, 1))
    block_rows = next(row_blocks(n_pairs, spec.num_nodes)).stop
    buf_x, buf_y = np.empty((2, block_rows, spec.num_nodes))

    def dist(diff):
        """Row distances of the pairs whose differences ``diff`` holds; overwrites it."""
        return lambda_fnorm_rows(diff, weights, p, out=diff)

    names = ("worst_rel_triangle_gap", "worst_rel_lipschitz_gap", "worst_rel_translation_gap")
    block_maxima = []
    for rows in row_blocks(n_pairs, spec.num_nodes):
        ub, vb, wb, ab = u[rows], v[rows], w[rows], alpha[rows]
        x, y = buf_x[:len(ub)], buf_y[:len(ub)]
        duv = dist(np.subtract(ub, vb, out=x))
        triangle = dist(np.subtract(ub, wb, out=x)) + dist(np.subtract(wb, vb, out=x))
        np.clip(ub, -ab, ab, out=x)
        np.clip(vb, -ab, ab, out=y)
        lipschitz = dist(np.subtract(x, y, out=x))
        np.add(ub, wb, out=x)
        np.add(vb, wb, out=y)
        translation = dist(np.subtract(x, y, out=x))
        gaps = (duv - triangle, lipschitz - duv, np.abs(translation - duv))
        scale = np.maximum(duv, 1e-300)
        block_maxima.append([np.max(gap / scale) for gap in gaps])
    worst = {name: max(0.0, float(top))
             for name, top in zip(names, np.max(block_maxima, axis=0))}
    identity_zero = float(dist(u[-1] - u[-1]))
    passed = all(gap <= ALGEBRAIC_TOL for gap in worst.values()) and identity_zero == 0.0
    return {"passed": passed, "pairs": n_pairs, **worst, "self_distance": identity_zero}


def _suite_nesting_embedding(rng: np.random.Generator) -> dict:
    spec = GridSpec(n=1, L=4.0, m=257)
    worst_nesting = 0.0
    for p, q in ((1.0, 2.0), (2.0, 3.0), (1.5, 4.0)):
        u = 3.0 * rng.standard_normal((200, spec.num_nodes))
        lo = lambda_mass_rows(u, spec.weights(), q)
        hi = lambda_mass_rows(u, spec.weights(), p)
        worst_nesting = max(worst_nesting, float(np.max((lo - hi) / np.maximum(hi, 1e-300))))

    # model function |x|^(-n/p) masked at the origin, p = 1 < q = 2
    model_spec = GridSpec(n=1, L=40.0, m=8001)
    x = model_spec.axis_coords()
    vals = np.where(x != 0.0, 1.0 / np.maximum(np.abs(x), 1e-300), 0.0)
    f = GridFunction(model_spec, vals)
    p, q = 1.0, 2.0
    weak_p = weak_lq_quasinorm(f, p) ** p
    lhs = float(lambda_mass_rows(f.values, model_spec.weights(), q))
    rhs = q / (q - p) * weak_p
    ratio = lhs / rhs
    passed = worst_nesting <= ALGEBRAIC_TOL and 0.95 <= ratio <= 1.0 + ALGEBRAIC_TOL
    return {
        "passed": passed,
        "worst_rel_nesting_gap": worst_nesting,
        "embedding": {
            "p": p,
            "q": q,
            "lhs": lhs,
            "rhs": rhs,
            "ratio": ratio,
            "weak_quasinorm_p": weak_p,
        },
    }


def _suite_pipeline(rng: np.random.Generator, scheme=small_scheme) -> dict:
    details = {}
    passed = True
    for p in (2.0, 3.0):
        res = scheme(p)
        failed = res.failed_reports()
        dists = [row["lambda_dist_to_ref"] for row in res.convergence["rows"][:-1]]
        decreasing = all(b < a for a, b in zip(dists, dists[1:]))
        details[f"p={p:g}"] = {
            "reports": len(res.reports),
            "failed": [r.to_dict() for r in failed],
            "non_convergent_k": list(res.failed_k),
            "dist_to_ref": dists,
            "strictly_decreasing": decreasing,
        }
        passed = passed and not failed and not res.failed_k and decreasing
    return {"passed": passed, **details}


def _suite_sparse_wells(rng: np.random.Generator) -> dict:
    spec = GridSpec(n=1, L=40.0, m=327681)
    V = sparse_wells(gamma=2.0)
    rep = confinement_report(V, spec, [2.0, 3.0, 6.0, 12.0, 24.0])
    e3 = dict(zip(rep.R_grid, rep.bad_measures))[3.0]
    total = rep.total_bad_measure
    mc = bad_set_measure_mc(V, spec, 3.0, samples=2_000_000, seed=int(rng.integers(2**32)))
    err_e3 = abs(e3 - 1.0 / 6.0) / (1.0 / 6.0)
    err_total = abs(total - 2.0 / 3.0) / (2.0 / 3.0)
    err_mc = abs(mc - e3) / max(e3, 1e-300)
    witness_ok = (
        rep.violation_witness is not None
        and abs(rep.violation_witness[0] - 32.0) < 0.5
        and not rep.classically_confining
    )
    monotone = all(b <= a for a, b in zip(rep.bad_measures, rep.bad_measures[1:]))
    passed = err_e3 <= 0.02 and err_total <= 0.02 and witness_ok and monotone and err_mc <= 0.1
    return {
        "passed": passed,
        "bad_measure_R3": e3,
        "rel_err_R3_vs_one_sixth": err_e3,
        "total_bad_measure": total,
        "rel_err_total_vs_two_thirds": err_total,
        "monte_carlo_R3": mc,
        "rel_gap_mc_vs_quadrature": err_mc,
        "confinement": rep.to_dict(),
        "monotone_bad_measures": monotone,
    }


def _suite_compactness(rng: np.random.Generator, scheme=small_scheme) -> dict:
    spec = GridSpec(n=1, L=8.0, m=257)
    eps = 0.3
    translates = translating_bumps(spec, count=7)
    rep_translates = kr_report(translates, 2.0, K_grid=[0.5, 1.0], eps=eps)

    res = scheme(2.0)
    t = 1.0
    fam = FunctionFamily(
        tuple(truncate(res.solutions[k].u, t) for k in res.k_list),
        label="truncated solutions",
    )
    rep_solutions = ark_check(fam, 2.0, K_grid=[0.5, 1.0], eps=eps)
    net = epsilon_net(fam, 2.0, eps)
    coverage = max(
        min(lambda_dist(f, fam.members[i], 2.0) for i in net) for f in fam.members
    )
    f_l1 = integrate(two_bump_datum(spec).abs())
    ark_pred = 2.0 * (t * f_l1) ** (1.0 / 2.0)
    passed = (
        rep_translates.verdicts["tail"] == NOT_OBSERVED
        and all(v == DECAYING for v in rep_solutions.verdicts.values())
        and rep_solutions.ark_bound <= ark_pred * 1.05
        and len(net) <= len(fam)
        and coverage <= eps
    )
    return {
        "passed": passed,
        "translating_family": rep_translates.to_dict(),
        "solution_family": rep_solutions.to_dict(),
        "ark_bound_prediction": ark_pred,
        "net_indices": list(map(int, net)),
        "net_coverage": coverage,
    }


def _suite_localized_identity(rng: np.random.Generator) -> dict:
    p, t, alpha = 3.0, 0.3, 1.2
    reports = []
    for m in (65, 129, 257):
        prob, phi = identity_case(p, m)
        reports.append(check_localized_identity(solve(prob), prob, phi, alpha, t))
    passed = all(r.passed and r.context["supp_contained"] for r in reports)
    return {"passed": passed, "reports": [r.to_dict() for r in reports]}


def _suite_uniqueness(rng: np.random.Generator, scheme=small_scheme) -> dict:
    res_canonical = scheme(2.0)
    res_mollified = scheme(2.0, regularizer=mollify_datum)
    k_ref = res_canonical.k_list[-1]
    d_ref = lambda_dist(
        res_canonical.solutions[k_ref].u, res_mollified.solutions[k_ref].u, 2.0
    )
    k_first = res_canonical.k_list[0]
    d_first = lambda_dist(
        res_canonical.solutions[k_first].u, res_mollified.solutions[k_first].u, 2.0
    )

    prob = replace(standard_problem(3.0, m=129), tol_residual=1e-9)
    zero0 = GridFunction(prob.spec, np.zeros(prob.spec.num_nodes))
    rand0 = zero_boundary(
        GridFunction(prob.spec, 0.5 * rng.standard_normal(prob.spec.num_nodes))
    )
    sol_a = solve(prob, u0=zero0)
    sol_b = solve(prob, u0=rand0)
    gap = (sol_a.u - sol_b.u).max_abs()
    passed = d_ref <= 1e-3 and gap <= 10.0 * prob.tol_residual
    return {
        "passed": passed,
        "scheme_distance_at_reference": d_ref,
        "scheme_distance_at_first_k": d_first,
        "two_start_sup_gap": gap,
        "two_start_allowance": 10.0 * prob.tol_residual,
    }


_SUITES = {
    "monotonicity": _suite_monotonicity,
    "lambda_metric": _suite_lambda_metric,
    "nesting_embedding": _suite_nesting_embedding,
    "pipeline": _suite_pipeline,
    "sparse_wells": _suite_sparse_wells,
    "compactness": _suite_compactness,
    "localized_identity": _suite_localized_identity,
    "uniqueness": _suite_uniqueness,
}

SUITE_NAMES = tuple(_SUITES)
# the suites that take ``scheme``, a callable with the signature of small_scheme
_SCHEME_SUITES = ("pipeline", "compactness", "uniqueness")


def run_verify(
    seed: int,
    outdir: str | Path,
    suites: list[str] | None = None,
    threads: int = 1,  # unused; see the --threads entry in cli.FLAGS
    echo=print,
) -> dict:
    """Run the selected suites, write one JSON report each, return a summary.

    Child seeds derive from ``(seed, canonical suite index)``, so a filtered
    run reproduces exactly the corresponding reports of a full run.  The
    ``pipeline``, ``compactness`` and ``uniqueness`` suites share their
    :func:`~pschrod.presets.small_scheme` results: each ``(p, regularizer)``
    is run once per call, so together they run three schemes, not five.  The
    share ends with the call, and a filtered run computes the schemes its
    suites need.
    """
    chosen = list(SUITE_NAMES) if suites is None else list(suites)
    unknown = [s for s in chosen if s not in _SUITES]
    if unknown or not chosen:
        raise ValueError(f"suites must name at least one of {list(SUITE_NAMES)}, "
                         f"got {chosen}")
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    summary = {"seed": seed, "suites": {}}
    all_passed = True
    scheme = cache(small_scheme)
    for name in chosen:
        idx = SUITE_NAMES.index(name)
        rng = np.random.default_rng([seed, idx])
        suite = _SUITES[name]
        found = suite(rng, scheme=scheme) if name in _SCHEME_SUITES else suite(rng)
        result = {"suite": name, "seed": seed, **found}
        write_json(out / f"verify_{name}.json", result)
        summary["suites"][name] = result["passed"]
        all_passed = all_passed and result["passed"]
        echo(f"suite {name}: {'PASS' if result['passed'] else 'FAIL'}")
    summary["passed"] = all_passed
    write_json(out / "verify_summary.json", summary)
    return summary
