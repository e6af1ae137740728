"""One ``pschrod.cli.main(argv)`` call in a fresh interpreter.

Usage: ``python3 child.py <spawn_time> <result.json> <trace:0|1> <run_id> -- <cli argv...>``

``spawn_time`` is the parent's ``time.monotonic()`` just before it started
this process; CLOCK_MONOTONIC is shared by all processes, so the set-up time
below covers process start, the interpreter, numpy, scipy and pschrod.  The
CLI's own stdout goes to this process's stdout; the measurements go to
``result.json``.  With tracing on, the span list goes next to it.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _import_cli(src: Path):
    sys.path.insert(0, str(src))
    import pschrod.cli

    if not Path(pschrod.cli.__file__).resolve().is_relative_to(src):
        raise ImportError(f"pschrod was imported from {pschrod.cli.__file__}, not from {src}")
    return pschrod.cli


def _cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _blas_threads() -> dict:
    """OpenBLAS libraries mapped into this process and their thread counts."""
    import ctypes

    found = {}
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                found[Path(path).name] = fn()
                break
    return found


def main() -> int:
    spawn, result_path, trace, run_id = sys.argv[1:5]
    argv = sys.argv[sys.argv.index("--") + 1:]
    cli = _import_cli(ROOT / "src")
    setup_s = time.monotonic() - float(spawn)

    tracer = None
    if trace == "1":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    record = {"run_id": run_id, "argv": argv, "setup_s": setup_s, "crash": None}
    cpu0 = _cpu_seconds()
    t0 = time.perf_counter()
    try:
        record["exit_code"] = cli.main(argv)
    except (Exception, SystemExit):
        record["exit_code"] = None
        record["crash"] = traceback.format_exc()
    record["wall_s"] = time.perf_counter() - t0
    record["cpu_s"] = _cpu_seconds() - cpu0
    record["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sys.stdout.flush()

    import numpy as np
    import scipy

    record["versions"] = {"python": sys.version.split()[0], "numpy": np.__version__,
                          "scipy": scipy.__version__}
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    record["blas"] = {"name": blas.get("name"), "version": blas.get("version"),
                      "config": blas.get("openblas configuration"),
                      "threads": _blas_threads()}

    if tracer is not None:
        from tracer import layer_summary

        record["layers"] = layer_summary(tracer)
        spans_path = Path(result_path).with_suffix(".spans.json")
        spans_path.write_text(json.dumps({"run_id": run_id, "spans": tracer.spans}))
    Path(result_path).write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
