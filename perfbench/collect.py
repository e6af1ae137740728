"""Summarize benchmark result files into one baseline file.

Usage (from the repository root)::

    python3 perfbench/collect.py perfbench/baseline/BENCH_<label>.json

Reads every ``.perfbench/results/*.json`` that ``run.py`` wrote and, per
workload and trace mode, records each metric's values over the runs (one
per seed), their median, quartiles and spread (interquartile distance over
the median), plus ``fail_frac`` and the run metadata.  Prints the spreads.
"""

from __future__ import annotations

import json
import statistics
import sys

from run import ROOT, WORK


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    runs: dict[str, list[dict]] = {}
    for path in sorted((WORK / "results").glob("*.json")):
        result = json.loads(path.read_text())
        runs.setdefault(f"{result['workload']} trace{result['trace']}", []).append(result)
    baseline = {}
    for key, results in sorted(runs.items()):
        results.sort(key=lambda r: r["seed"])
        names = results[0]["metrics"]
        baseline[key] = {
            "seeds": [r["seed"] for r in results],
            "seconds": results[0]["seconds"],
            "calls": [r["calls"] for r in results],
            "fail_frac": [r["fail_frac"] for r in results],
            "metrics": {n: summarize([r["metrics"][n] for r in results]) for n in names},
            "metadata": results[0]["metadata"],
        }
        for name, row in baseline[key]["metrics"].items():
            print(f"{key:<28} {name:<36} median {row['median']:<12.6g} spread {row['spread']:.4f}")
    out = ROOT / sys.argv[1]
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(baseline, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
