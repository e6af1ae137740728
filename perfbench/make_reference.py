"""Write ``reference.json``: what a correct call of each workload produces.

Usage (from the repository root)::

    python3 perfbench/make_reference.py

Runs every workload once through the same child process as the benchmark
and records, per workload, the operation count, the per-level energies with
the ``tol_residual`` each level must meet, the estimate reports that fail
at this commit, and the ``verify`` values that do not depend on the seed.
Regenerate only when the expected output changes on purpose.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import (HERE, ROOT, WORK, WORKLOADS, _git_commit, _lookup, _report_key, cli_argv,
                 run_call)

ENERGY_RTOL = 1e-9
VALUE_RTOL = 1e-9
REFERENCE_SEED = 7
# seed-independent outputs of the verify suites (pure quadrature or counts)
VERIFY_VALUES = {
    "sparse_wells": ("bad_measure_R3", "total_bad_measure"),
    "nesting_embedding": ("embedding.ratio",),
    "compactness": ("ark_bound_prediction",),
    "pipeline": ("p=2.reports", "p=3.reports"),
}


def _tol_residual(config: dict, k: float) -> float:
    """The ``tol_residual`` the library's Problem defaults to at level k."""
    from pschrod.asymptotic import ExponentP
    from pschrod.cli import _build_datum, _build_grid, _build_potential
    from pschrod.pipeline import regularize_datum
    from pschrod.potentials import sample_potential
    from pschrod.solver import Problem

    spec = _build_grid(config["grid"])
    V = sample_potential(_build_potential(config["potential"]), spec)
    f_k = regularize_datum(_build_datum(config["datum"], spec), k)
    prob = Problem(spec=spec, p=ExponentP(config["p"], degenerate_ok=True), V=V, f=f_k)
    return prob.tol_residual


def reference_for(workload: str) -> dict:
    workdir = WORK / "reference" / workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    config = WORKLOADS[workload]["config"]
    config_path = workdir / "config.json"
    outdir = workdir / "out"
    if config is not None:
        config_path.write_text(json.dumps(config))
    record = run_call(cli_argv(workload, REFERENCE_SEED, outdir, config_path),
                      workdir, 0, False, f"{workload}-reference", timeout=600.0)
    if record.get("crash"):
        raise SystemExit(f"{workload}: {record['crash']}")
    if config is None:
        summary = json.loads((outdir / "verify_summary.json").read_text())
        values = {}
        for suite, keys in VERIFY_VALUES.items():
            doc = json.loads((outdir / f"verify_{suite}.json").read_text())
            values[suite] = {dotted: _lookup(doc, dotted) for dotted in keys}
        return {"attempted_per_call": len(summary["suites"]),
                "suites": list(summary["suites"]),
                "values": values, "value_rtol": VALUE_RTOL}
    diagnostics = json.loads((outdir / "diagnostics.json").read_text())
    reports = json.loads((outdir / "reports.json").read_text())
    levels = {
        f"{k:g}": {"energy": diagnostics["solves"][f"{k:g}"]["energy"],
                   "tol_residual": _tol_residual(config, float(k))}
        for k in config["scheme"]["k_list"]
    }
    return {"attempted_per_call": len(levels) + len(reports),
            "levels": levels, "energy_rtol": ENERGY_RTOL,
            "reports": len(reports),
            "known_failing_reports": [_report_key(r) for r in reports if not r["pass"]]}


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    reference = {"commit": _git_commit()}
    for workload in WORKLOADS:
        reference[workload] = reference_for(workload)
        print(workload, reference[workload]["attempted_per_call"], "operations per call")
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
