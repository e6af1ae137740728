"""pschrod benchmark: CLI workloads run closed loop, one fresh process per call.

Usage (from the repository root)::

    python3 perfbench/run.py --workload pipeline-1d-wells --seed 1 --seconds 30 --trace 0

One client issues one ``pschrod.cli.main(argv)`` call at a time, each in a
new interpreter (``child.py``), so import costs and lazy caches are paid on
every call as they are by a user.  Calls repeat until ``--seconds`` have
passed (at least ``MIN_CALLS``, none started after ``LAST_START_S``, and
each cut off at ``DEADLINE_S``, so a run ends within three minutes even if
the program hangs).  Every call's outputs are checked; the
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced calls: the traced ones give the per-layer metrics (see
``tracer.py`` and ``layers.json``), the difference between the two kinds
gives the tracing overhead.  Full results with run metadata are written to
``.perfbench/results/``.

Operations: one level solve, one estimate report, or one ``verify`` suite.
``fail_frac`` counts every failed operation, including estimate reports whose
verdict is FAIL.  ``failed`` in the JSON line counts the operations that
fail the benchmark's checks: a level that did not converge, exceeds its
``tol_residual`` or misses the reference energy; a report or suite that
fails although ``reference.json`` expects it to pass; every operation of a
call that crashed, produced the wrong number of reports or suites, or wrote
artifacts that differ from the run's first call.  Reports the reference
already records as failing (one on ``pipeline-3d-trap``) count in
``fail_frac`` and ``pass_frac`` but not in ``failed``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
MIN_CALLS = 4
LAST_START_S = 120.0
DEADLINE_S = 165.0
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")

# Inputs are fixed; the seed only reaches ``verify``.
WORKLOADS = {
    "pipeline-1d-wells": {
        "threads": 1,
        "config": {
            "grid": {"n": 1, "L": 40.0, "m": 16385},
            "p": 3.0,
            "potential": {"kind": "sparse_wells", "gamma": 2.0},
            "datum": {"kind": "two_bump"},
            "scheme": {"k_list": [1, 2, 4, 8, 16], "t_grid": [0.1, 0.5, 1, 2, 5],
                       "R_grid": [2, 4, 6, 12, 24]},
        },
    },
    "pipeline-3d-trap": {
        "threads": 2,
        "config": {
            "grid": {"n": 3, "L": 6.0, "m": 17},
            "p": 3.0,
            "potential": {"kind": "polynomial_trap", "gamma": 2.0},
            "datum": {"kind": "sum", "terms": [
                {"center": [-2.0, 0.0, 0.0], "width": 0.8, "height": 12.0},
                {"center": [2.0, 1.0, -1.0], "width": 1.0, "height": 4.0},
            ]},
            "scheme": {"k_list": [1, 2, 4, 8], "t_grid": [0.1, 0.5, 1, 2, 5],
                       "R_grid": [2, 3, 4]},
        },
    },
    "verify-seeded": {
        "threads": 1,
        "config": None,
    },
}


def _median(values):
    return statistics.median(values) if values else 0.0


def _high_percentile(values):
    """Highest whole percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 20:
        return None
    ordered = sorted(values)
    return {"percentile": (100 * (n - 10)) // n, "value": ordered[n - 11]}


def _digest(outdir: Path) -> str:
    """Hash of every artifact except the manifest, which carries timing."""
    h = hashlib.sha256()
    for path in sorted(outdir.rglob("*")):
        if path.is_file() and path.name != "manifest.json":
            h.update(str(path.relative_to(outdir)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def _close(value: float, expected: float, rtol: float) -> bool:
    return abs(value - expected) <= rtol * max(abs(expected), 1e-300)


def _report_key(report: dict) -> str:
    ctx = report["context"]
    parts = [report["name"]] + [f"{k}={ctx[k]:g}" for k in ("k", "l", "t", "R", "m") if k in ctx]
    return " ".join(parts)


def check_pipeline(ref: dict, outdir: Path, exit_code) -> dict:
    """Outcome of one pipeline call against the stored reference."""
    attempted = len(ref["levels"]) + ref["reports"]
    verdict_failed = check_failed = 0
    notes = []
    diagnostics = json.loads((outdir / "diagnostics.json").read_text())
    non_convergent = 0
    for k, level in ref["levels"].items():
        sol = diagnostics["solves"].get(k)
        if sol is None:
            ok = False
            notes.append(f"level k={k} missing")
        else:
            ok = (sol["converged"] and sol["residual_sup"] <= level["tol_residual"]
                  and _close(sol["energy"], level["energy"], ref["energy_rtol"]))
            non_convergent += not sol["converged"]
            if not ok:
                notes.append(f"level k={k}: converged={sol['converged']} "
                             f"residual_sup={sol['residual_sup']:.3e} energy={sol['energy']!r}")
        verdict_failed += not ok
        check_failed += not ok
    reports = json.loads((outdir / "reports.json").read_text())
    if len(reports) != ref["reports"]:
        notes.append(f"{len(reports)} reports, expected {ref['reports']}")
        return {"attempted": attempted, "verdict_failed": attempted,
                "check_failed": attempted, "notes": notes}
    known = set(ref["known_failing_reports"])
    failing = 0
    for report in reports:
        if not report["pass"]:
            failing += 1
            verdict_failed += 1
            key = _report_key(report)
            if key not in known:
                check_failed += 1
                notes.append(f"report {key} failed: lhs={report['lhs']:.4e} rhs={report['rhs']:.4e}")
    expected_exit = 1 if failing or non_convergent else 0
    if exit_code != expected_exit:
        notes.append(f"exit code {exit_code}, expected {expected_exit}")
        check_failed = attempted
    return {"attempted": attempted, "verdict_failed": verdict_failed,
            "check_failed": check_failed, "notes": notes}


def _lookup(doc: dict, dotted: str):
    for part in dotted.split("."):
        doc = doc[part]
    return doc


def check_verify(ref: dict, outdir: Path, exit_code) -> dict:
    """Outcome of one verify call: every suite passes and matches the
    reference on the values that do not depend on the seed."""
    suites = ref["suites"]
    attempted = len(suites)
    summary = json.loads((outdir / "verify_summary.json").read_text())
    notes = []
    if sorted(summary["suites"]) != sorted(suites):
        notes.append(f"suites {sorted(summary['suites'])}, expected {sorted(suites)}")
        return {"attempted": attempted, "verdict_failed": attempted,
                "check_failed": attempted, "notes": notes}
    verdict_failed = check_failed = 0
    for name in suites:
        passed = summary["suites"][name]
        result = json.loads((outdir / f"verify_{name}.json").read_text())
        values_ok = True
        for dotted, expected in ref["values"].get(name, {}).items():
            got = _lookup(result, dotted)
            if not _close(got, expected, ref["value_rtol"]):
                values_ok = False
                notes.append(f"suite {name}: {dotted}={got!r}, reference {expected!r}")
        verdict_failed += not passed
        check_failed += not (passed and values_ok)
        if not passed:
            notes.append(f"suite {name} failed")
    expected_exit = 0 if all(summary["suites"].values()) else 1
    if exit_code != expected_exit:
        notes.append(f"exit code {exit_code}, expected {expected_exit}")
        check_failed = attempted
    return {"attempted": attempted, "verdict_failed": verdict_failed,
            "check_failed": check_failed, "notes": notes}


def cli_argv(workload: str, seed: int, outdir: Path, config_path: Path) -> list[str]:
    spec = WORKLOADS[workload]
    if spec["config"] is None:
        return ["verify", "--seed", str(seed), "--out", str(outdir),
                "--threads", str(spec["threads"])]
    return ["pipeline", "--config", str(config_path), "--out", str(outdir),
            "--threads", str(spec["threads"])]


def run_call(argv: list[str], workdir: Path, index: int, traced: bool, run_id: str,
             timeout: float) -> dict:
    """Run one CLI call in a fresh interpreter and return its record."""
    result_path = workdir / f"call{index}.json"
    spawn = time.monotonic()
    cmd = [sys.executable, str(HERE / "child.py"), repr(spawn), str(result_path),
           "1" if traced else "0", run_id, "--", *argv]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"crash": f"call exceeded {timeout:.0f} s", "traced": traced}
    if proc.returncode != 0 or not result_path.exists():
        return {"crash": proc.stderr[-4000:] or f"child exited {proc.returncode}",
                "traced": traced}
    record = json.loads(result_path.read_text())
    record["traced"] = traced
    return record


def evaluate(workload: str, ref: dict, record: dict, outdir: Path) -> dict:
    attempted = ref["attempted_per_call"]
    if record.get("crash"):
        return {"attempted": attempted, "verdict_failed": attempted,
                "check_failed": attempted, "notes": ["crash: " + record["crash"]]}
    check = check_verify if WORKLOADS[workload]["config"] is None else check_pipeline
    try:
        return check(ref, outdir, record["exit_code"])
    except (OSError, KeyError, ValueError, TypeError) as exc:
        return {"attempted": attempted, "verdict_failed": attempted,
                "check_failed": attempted, "notes": [f"unreadable outputs: {exc!r}"]}


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    ref = text[5:]
    ref_file = ROOT / ".git" / ref
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def run_metadata(records: list[dict]) -> dict:
    first = next((r for r in records if "versions" in r), {})
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "versions": first.get("versions"),
        "blas": first.get("blas"),
        "blas_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                     if k in os.environ},
        "commit": _git_commit(),
    }


def self_test(spec: dict, metrics: dict, trace: bool) -> list[str]:
    """Emitted names are well formed and are exactly the declared ones."""
    declared = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    problems = [f"bad metric name {n!r}" for n in metrics if not NAME_RE.fullmatch(n)]
    problems += [f"declared metric {n} not emitted" for n in sorted(declared - set(metrics))]
    problems += [f"metric {n} emitted but not declared" for n in sorted(set(metrics) - declared)]
    layer_map = json.loads((HERE / "layers.json").read_text())
    per_layer = {m["name"] for m in spec["per_layer"]}
    problems += [f"per-layer metric {n} missing from layers.json"
                 for n in sorted(per_layer - set(layer_map))]
    problems += [f"layers.json maps undeclared metric {n}"
                 for n in sorted(set(layer_map) - per_layer)]
    problems += [f"workload {w['name']} not defined in run.py"
                 for w in spec["workloads"] if w["name"] not in WORKLOADS]
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "pschrod" / "cli.py").is_file():
        print(f"error: no pschrod sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    ref = json.loads((HERE / "reference.json").read_text())[args.workload]
    workdir = WORK / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    config_path = workdir / "config.json"
    if WORKLOADS[args.workload]["config"] is not None:
        config_path.write_text(json.dumps(WORKLOADS[args.workload]["config"], indent=1))

    records, outcomes, digests = [], [], []
    started = time.monotonic()
    while not records or time.monotonic() - started < (
            LAST_START_S if len(records) < MIN_CALLS else args.seconds):
        i = len(records)
        traced = bool(args.trace) and i % 2 == 1
        outdir = workdir / f"out{i}"
        run_id = f"{args.workload}-seed{args.seed}-call{i}"
        record = run_call(cli_argv(args.workload, args.seed, outdir, config_path),
                          workdir, i, traced, run_id,
                          timeout=DEADLINE_S - (time.monotonic() - started))
        outcome = evaluate(args.workload, ref, record, outdir)
        digests.append(_digest(outdir) if outdir.is_dir() else None)
        shutil.rmtree(outdir, ignore_errors=True)
        records.append(record)
        outcomes.append(outcome)
        if traced and i >= 2:  # keep only the last traced call's spans
            (workdir / f"call{i - 2}.spans.json").unlink(missing_ok=True)
    elapsed = time.monotonic() - started

    # reproducibility gate: every call writes the same bytes as the first
    # that completed
    first = next((d for d, r in zip(digests, records) if not r.get("crash")), None)
    for digest, outcome in zip(digests, outcomes):
        if first is not None and digest != first:
            outcome["notes"].append("artifacts differ from the first call")
            outcome["check_failed"] = outcome["verdict_failed"] = outcome["attempted"]
    attempted = sum(o["attempted"] for o in outcomes)
    verdict_failed = sum(o["verdict_failed"] for o in outcomes)
    check_failed = sum(o["check_failed"] for o in outcomes)
    correct = check_failed == 0

    plain = [r for r in records if not r["traced"] and not r.get("crash")]
    traced = [r for r in records if r["traced"] and not r.get("crash")]
    walls = [r["wall_s"] for r in plain]
    summary = {
        "wall_s": _median(walls),
        "setup_s": _median([r["setup_s"] for r in plain]),
        "cpu_s": _median([r["cpu_s"] for r in plain]),
        "peak_rss_mib": _median([r["peak_rss_mib"] for r in plain]),
        "pass_frac": 1.0 - verdict_failed / attempted,
    }
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if args.trace:
        layer_rows = [r["layers"]["metrics"] for r in traced]
        # with no traced call completed (a crash, already failed) report zeros
        names = layer_rows[0] if layer_rows else [
            m["name"] for m in spec["per_layer"] if not m["name"].startswith("trace.")]
        metrics = {name: _median([row[name] for row in layer_rows]) for name in names}
        traced_wall = _median([r["wall_s"] for r in traced])
        metrics["trace.overhead_s"] = traced_wall - summary["wall_s"]
        metrics["trace.overhead_frac"] = (traced_wall / summary["wall_s"] - 1.0
                                          if summary["wall_s"] else 0.0)
    else:
        metrics = summary

    problems = self_test(spec, metrics, bool(args.trace))
    if problems:
        for problem in problems:
            print(f"self-test: {problem}", file=sys.stderr)
        return 3

    result = {
        "workload": args.workload,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == args.workload),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "elapsed_s": elapsed,
        "calls": len(records),
        "wall_s_samples": walls,
        "wall_s_high_percentile": _high_percentile(walls),
        "fail_frac": verdict_failed / attempted,
        "end_to_end": summary,
        "metrics": metrics,
        "metadata": run_metadata(records),
        "calls_detail": [
            {k: v for k, v in r.items() if k not in ("layers", "blas", "versions")}
            | {"outcome": o, "digest": d}
            for r, o, d in zip(records, outcomes, digests)
        ],
    }
    if traced:
        rows = traced[-1]["layers"]["spans_by_name"]
        result["self_time_last_traced_call"] = dict(
            sorted(rows.items(), key=lambda kv: -kv[1]["self_s"]))
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    out_file = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(result, indent=1))

    print(f"workload {args.workload} seed {args.seed}: {len(records)} calls in "
          f"{elapsed:.1f} s ({len(plain)} untraced, {len(traced)} traced)")
    high = result["wall_s_high_percentile"]
    print(f"  wall_s        {summary['wall_s']:.4f} s  median of {len(walls)}; "
          + (f"p{high['percentile']} {high['value']:.4f} s" if high
             else "no percentile with ten samples beyond it"))
    for name in ("setup_s", "cpu_s", "peak_rss_mib", "pass_frac"):
        print(f"  {name:<13} {summary[name]:.4f} {units[name]}")
    print(f"  fail_frac     {verdict_failed}/{attempted} = {verdict_failed / attempted:.6f}")
    if args.trace:
        print(f"  tracing overhead {metrics['trace.overhead_s']:.4f} s "
              f"({100 * metrics['trace.overhead_frac']:.1f}%)")
        for name, row in list(result.get("self_time_last_traced_call", {}).items())[:8]:
            print(f"  self {name:<34} {row['self_s']:.4f} s  calls {row['calls']}")
    for outcome in outcomes:
        for note in outcome["notes"][:5]:
            print(f"  CHECK {note.splitlines()[-1] if note else note}")
    print(f"  results: {out_file.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": check_failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
