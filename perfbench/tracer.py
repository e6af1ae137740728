"""Span tracer that wraps pschrod's layer functions from outside the package.

Each wrapped call records one span: ``[id, name, start, end, parent, thread]``
with ``perf_counter`` times.  The parent is the innermost open span of the
calling thread; a call made on a worker thread with no open span of its own
(the level solves that ``run_scheme`` hands to its thread pool) takes the
innermost open span of the thread that installed the tracer, which is
blocked waiting for it.  Spans and counts live in memory behind one lock and
are written out once, when the traced call has returned.

``from .x import f`` copies the function object into the importing module,
so :meth:`Tracer.install` replaces every module attribute that *is* the
original function, not only the one in the defining module.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
from collections import Counter
from pathlib import Path
from time import perf_counter

# (module, function, span name) of every layer boundary the benchmark reports.
LAYER_FUNCTIONS = (
    ("pschrod.cli", "main", "cli.main"),
    ("pschrod.solver", "solve", "solver.solve"),
    ("pschrod.pipeline", "run_scheme", "pipeline.run_scheme"),
    ("pschrod.pipeline", "save_scheme_result", "pipeline.save"),
    ("pschrod.pipeline", "check_energy_estimate", "pipeline.check_energy_estimate"),
    ("pschrod.pipeline", "check_tail_bound", "pipeline.check_tail_bound"),
    ("pschrod.pipeline", "check_stability", "pipeline.check_stability"),
    ("pschrod.pipeline", "check_superlevel_bound", "pipeline.check_superlevel_bound"),
    ("pschrod.pipeline", "check_localized_identity", "pipeline.check_localized_identity"),
    ("pschrod.potentials", "sample_potential", "potentials.sample_potential"),
    ("pschrod.potentials", "bad_set_measure", "potentials.bad_set_measure"),
    ("pschrod.potentials", "bad_set_measure_mc", "potentials.bad_set_measure_mc"),
    ("pschrod.grid", "sample", "grid.sample"),
    ("pschrod.grid", "gradient", "grid.gradient"),
    ("pschrod.asymptotic", "lambda_dist", "asymptotic.lambda_dist"),
    ("pschrod.asymptotic", "truncate", "asymptotic.truncate"),
    ("pschrod.compactness", "kr_report", "compactness.kr_report"),
    ("pschrod.compactness", "ark_check", "compactness.ark_check"),
    ("pschrod.compactness", "epsilon_net", "compactness.epsilon_net"),
)

# scipy entry points a linear solve can go through; all count as one layer so
# that a solver switching between them stays measured.  ``splu`` and
# ``factorized`` time the factorization only.
LINEAR_SOLVE_MODULE = "scipy.sparse.linalg"
LINEAR_SOLVE_FUNCTIONS = (
    "spsolve", "splu", "spilu", "factorized", "spsolve_triangular",
    "cg", "gmres", "lgmres", "minres", "bicgstab",
)
LINEAR_SOLVE_SPAN = "solver.linear_solve"

CHECK_SPANS = tuple(name for _, _, name in LAYER_FUNCTIONS if ".check_" in name)


class Tracer:
    """In-memory span store; thread-safe."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._owner = threading.get_ident()
        self._owner_stack: list[int] = self._stack()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        stack = self._stack()
        if stack:
            return stack[-1]
        if threading.get_ident() != self._owner:
            try:
                return self._owner_stack[-1]
            except IndexError:
                return None
        return None

    def add_span(self, name: str, start: float, end: float, parent: int | None) -> int:
        with self._lock:
            sid = next(self._ids)
            self.spans.append([sid, name, start, end, parent, threading.get_ident()])
        return sid

    def count(self, key: str, amount=1) -> None:
        with self._lock:
            self.counts[key] += amount

    def wrap(self, name: str, fn, on_return=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self.current()
            with self._lock:
                sid = next(self._ids)
            stack = self._stack()
            stack.append(sid)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                with self._lock:
                    self.spans.append([sid, name, start, end, parent, threading.get_ident()])
            if on_return is not None:
                on_return(args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        """Wrap every layer function at every name the package resolves it by."""
        modules = [mod for key, mod in sys.modules.items()
                   if mod is not None and (key == "pschrod" or key.startswith("pschrod."))]
        hooks = {
            "solver.solve": self._on_solve,
            "pipeline.run_scheme": self._on_run_scheme,
            "pipeline.save": self._on_save,
        }
        for mod_name, fn_name, span in LAYER_FUNCTIONS:
            original = getattr(sys.modules[mod_name], fn_name)
            _replace(modules, original, self.wrap(span, original, hooks.get(span)))
        linalg = sys.modules[LINEAR_SOLVE_MODULE]
        for fn_name in LINEAR_SOLVE_FUNCTIONS:
            original = getattr(linalg, fn_name, None)
            if original is not None:
                wrapped = self.wrap(LINEAR_SOLVE_SPAN, original, self._on_linear_solve)
                _replace(modules + [linalg], original, wrapped)
        verify = sys.modules["pschrod.verify"]
        original = verify.run_verify
        _replace(modules, original, self.wrap("verify.run_verify", self._suite_timer(original)))

    # -- counts taken where the work happens ---------------------------------

    def _on_solve(self, args, kwargs, result) -> None:
        self.count("solver.newton_iters", int(result.iterations))
        self.count("solver.converged", int(bool(result.converged)))

    def _on_linear_solve(self, args, kwargs, result) -> None:
        matrix = args[0] if args else kwargs.get("A")
        self.count("solver.hessian_nnz", int(getattr(matrix, "nnz", 0)))

    def _on_run_scheme(self, args, kwargs, result) -> None:
        self.count("pipeline.reports_failed", len(result.failed_reports()))

    def _on_save(self, args, kwargs, result) -> None:
        outdir = Path(args[1] if len(args) > 1 else kwargs["outdir"])
        self.count("pipeline.save_bytes", sum(
            p.stat().st_size for p in outdir.iterdir()
            if p.is_file() and p.name != "manifest.json"))

    def _suite_timer(self, run_verify):
        """Time each suite from the ``echo`` callback ``run_verify`` accepts."""

        def timed(seed, outdir, suites=None, threads=1, echo=print):
            parent = self.current()
            marks = [perf_counter()]
            names = []

            def echo_timed(message):
                marks.append(perf_counter())
                names.append(message.split()[1].rstrip(":"))
                echo(message)

            out = run_verify(seed, outdir, suites=suites, threads=threads, echo=echo_timed)
            suites_run = [(self.add_span(f"verify.{name}", start, end, parent), start, end)
                          for name, start, end in zip(names, marks, marks[1:])]
            suite_ids = {sid for sid, _, _ in suites_run}
            # calls made inside a suite belong to it, not to run_verify
            with self._lock:
                for span in self.spans:
                    if span[4] != parent or span[0] in suite_ids:
                        continue
                    for sid, start, end in suites_run:
                        if start <= span[2] and span[3] <= end:
                            span[4] = sid
                            break
            return out

        return timed


def _replace(modules, original, wrapped) -> None:
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapped)


# -- analysis ------------------------------------------------------------------


def _union_length(intervals, lo: float, hi: float) -> float:
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def summarize(spans: list[list]) -> dict[str, dict]:
    """Per span name: calls, inclusive seconds and self seconds.

    Inclusive time counts only spans with no ancestor of the same name, so a
    layer that re-enters itself is not counted twice.  Self time is a span's
    duration minus the union of its children's intervals.
    """
    by_id = {s[0]: s for s in spans}
    children: dict[int, list] = {}
    for s in spans:
        if s[4] is not None:
            children.setdefault(s[4], []).append((s[2], s[3]))
    out: dict[str, dict] = {}
    for sid, name, start, end, parent, _ in spans:
        row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += (end - start) - _union_length(children.get(sid, ()), start, end)
        ancestor = by_id.get(parent)
        while ancestor is not None and ancestor[1] != name:
            ancestor = by_id.get(ancestor[4])
        if ancestor is None:
            row["total_s"] += end - start
    return out


def solve_phases(spans: list[list]) -> tuple[float, float, float]:
    """(busy, elapsed, outside) of the solve phase, summed over scheme runs.

    busy is the summed duration of the ``solver.solve`` spans a scheme run
    started, elapsed the time from the first of them starting to the last
    ending, and outside the rest of the scheme run: report assembly.
    """
    solves: dict[int, list] = {}
    for s in spans:
        if s[1] == "solver.solve" and s[4] is not None:
            solves.setdefault(s[4], []).append(s)
    busy = elapsed = outside = 0.0
    for s in spans:
        if s[1] != "pipeline.run_scheme":
            continue
        mine = solves.get(s[0], [])
        phase = (max(x[3] for x in mine) - min(x[2] for x in mine)) if mine else 0.0
        busy += sum(x[3] - x[2] for x in mine)
        elapsed += phase
        outside += (s[3] - s[2]) - phase
    return busy, elapsed, outside


VERIFY_SUITES = (
    "monotonicity", "lambda_metric", "nesting_embedding", "pipeline",
    "sparse_wells", "compactness", "localized_identity", "uniqueness",
)


def layer_summary(tracer: Tracer) -> dict:
    """The per-layer metrics of one traced call, plus the per-span table."""
    rows = summarize(tracer.spans)
    counts = tracer.counts

    def total(name):
        return rows.get(name, {}).get("total_s", 0.0)

    def calls(name):
        return rows.get(name, {}).get("calls", 0)

    busy, elapsed, outside = solve_phases(tracer.spans)
    solves = calls("solver.solve")
    metrics = {
        "solver.linear_solve_s": total(LINEAR_SOLVE_SPAN),
        "solver.linear_solve.calls": calls(LINEAR_SOLVE_SPAN),
        "solver.hessian_nnz": counts["solver.hessian_nnz"],
        "solver.solve_s": total("solver.solve"),
        "solver.solve.calls": solves,
        "solver.newton_iters": counts["solver.newton_iters"],
        "solver.nonlinear_s": total("solver.solve") - total(LINEAR_SOLVE_SPAN),
        "solver.converged_frac": counts["solver.converged"] / solves if solves else 0.0,
        "pipeline.solve_parallelism": busy / elapsed if elapsed > 0 else 0.0,
        "pipeline.run_scheme_s": total("pipeline.run_scheme"),
        "pipeline.assembly_s": outside,
        "pipeline.checks_s": sum(total(name) for name in CHECK_SPANS),
        "pipeline.checks.calls": sum(calls(name) for name in CHECK_SPANS),
        "pipeline.reports_failed": counts["pipeline.reports_failed"],
        "pipeline.save_s": total("pipeline.save"),
        "pipeline.save_bytes": counts["pipeline.save_bytes"],
    }
    for name in ("potentials.sample_potential", "potentials.bad_set_measure",
                 "grid.sample", "grid.gradient", "asymptotic.lambda_dist"):
        metrics[f"{name}.calls"] = calls(name)
        metrics[f"{name}_s"] = total(name)
    metrics["asymptotic.truncate.calls"] = calls("asymptotic.truncate")
    for suite in VERIFY_SUITES:
        metrics[f"verify.{suite}_s"] = total(f"verify.{suite}")
    for name in ("potentials.bad_set_measure_mc", "compactness.kr_report",
                 "compactness.ark_check", "compactness.epsilon_net"):
        metrics[f"{name}_s"] = total(name)
    metrics["cli.overhead_s"] = rows.get("cli.main", {}).get("self_s", 0.0)
    return {"metrics": metrics, "spans_by_name": rows}
