"""Experiment runner: config ingestion, subcommands, report emission.

Subcommands: ``solve``, ``pipeline``, ``confinement``, ``compactness``,
``verify``.  Every config block is read through one key table that maps
each key it accepts to a parser: unknown keys are rejected, and a key left
out is not passed on, so the library's own default applies.  Each
subcommand registers only the flags it reads.  Every run writes the
requested artifacts plus a ``manifest.json`` with the config echo, library
versions, seed and wall time.  Numeric artifacts are bitwise reproducible
for identical configs; only the manifest carries timing.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time
from functools import partial
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .asymptotic import truncate
from .compactness import FunctionFamily, ark_check, epsilon_net, kr_report
from .grid import (
    GridFunction,
    GridSpec,
    load_grid_function,
    sample,
    save_grid_function,
    write_json,
)
from .pipeline import SchemeConfig, mollify_datum, regularize_datum, run_scheme, save_scheme_result
from .potentials import (
    Potential,
    bad_set_measure_mc,
    confinement_report,
    constant_potential,
    polynomial_trap,
    sample_potential,
    sparse_wells,
)
from .presets import fixed_bumps, gaussian, manufactured, translating_bumps, two_bump
from .solver import Problem, solve
from .verify import SUITE_NAMES, run_verify

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2


class ConfigError(Exception):
    pass


# ---------------------------------------------------------------------------
# value parsers: ``parser(value, what)`` returns the parsed value or raises
# a ConfigError that names ``what``


def _number(value, what: str) -> float:
    """A finite JSON number as a float; a boolean is not a number."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{what} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{what} must be finite, got {value!r}")
    return number


def _integer(value, what: str) -> int:
    """An integral number as an int: ``65.0`` is accepted, ``65.7`` is not."""
    number = _number(value, what)
    if not number.is_integer():
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    return int(number)


def _seed(value, what: str) -> int:
    """An exact integer in [0, 2^64); a seed never passes through a float."""
    if isinstance(value, bool) or not isinstance(value, int) or not 0 <= value < 2**64:
        raise ConfigError(f"{what} must be an integer in [0, 2^64), got {value!r}")
    return value


def _typed(kind: type, name: str):
    def parse(value, what):
        if not isinstance(value, kind):
            raise ConfigError(f"{what} must be {name}, got {value!r}")
        return value

    return parse


def _list_of(parser):
    return lambda value, what: [parser(v, f"{what} entry") for v in _list(value, what)]


_text = _typed(str, "a string")
_object = _typed(dict, "a JSON object")
_list = _typed(list, "a list")
_numbers = _list_of(_number)


def _nullable(parser):
    """``parser`` that also takes null, which stands for the library default."""
    return lambda value, what: None if value is None else parser(value, what)


def _choice(options: dict):
    def parse(value, what):
        if not isinstance(value, str) or value not in options:
            raise ConfigError(f"{what} must be one of {sorted(options)}, got {value!r}")
        return options[value]

    return parse


def _block(block, where: str, keys: dict, required=()) -> dict:
    """The keys present in ``block``, each parsed by its entry in ``keys``.

    Unknown keys and missing ``required`` keys are config errors.  An absent
    key is left out of the result, so the callee's own default applies.
    """
    _object(block, where)
    unknown = set(block) - set(keys)
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")
    for key in required:
        if key not in block:
            raise ConfigError(f"missing key {key!r} in {where}")
    return {key: keys[key](value, f"{where} {key}") for key, value in block.items()}


def _kind(block, where: str, kinds: dict):
    """``(kind, constructor, args)`` for a block whose ``kind`` selects its table.

    ``kinds`` maps each kind to ``(constructor, keys, required)``.
    """
    if "kind" not in _object(block, where):
        raise ConfigError(f"missing key 'kind' in {where}")
    kind = block["kind"]
    build, keys, required = _choice(kinds)(kind, f"{where} kind")
    args = _block(block, f"{kind} {where}", {"kind": _text, **keys}, required)
    del args["kind"]
    return kind, build, args


def _present(args: dict, keys) -> dict:
    return {key: args[key] for key in keys if key in args}


def _call(fn, *args, **kwargs):
    """``fn(*args, **kwargs)``; a ValueError it raises is a config error."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# grids, potentials, data and families


GRID = {"n": _integer, "L": _number, "m": _integer}


def _build_grid(block: dict) -> GridSpec:
    return _call(GridSpec, **_block(block, "grid", GRID, required=GRID))


PAIR = {"gamma": _number, "kappa": _number}
POTENTIALS = {
    "polynomial_trap": (polynomial_trap, PAIR, ("gamma",)),
    "sparse_wells": (sparse_wells, PAIR, ("gamma",)),
    "constant": (constant_potential, {"value": _number, **PAIR}, ()),
}


def _build_potential(block: dict, need_pair: bool = False) -> Potential:
    kind, build, args = _kind(block, "potential", POTENTIALS)
    if need_pair and kind == "constant" and not PAIR.keys() <= args.keys():
        raise ConfigError(
            "constant potential needs explicit kappa and gamma for "
            "confinement diagnostics"
        )
    kappa = args.pop("kappa", None)
    pot = _call(build, **args)
    return pot if kappa is None else _call(dataclasses.replace, pot, kappa=kappa)


def _constant_datum(spec: GridSpec, value: float = 0.0) -> GridFunction:
    return GridFunction(spec, np.full(spec.num_nodes, value))


def _gaussian(spec: GridSpec, width: float, height: float, center=None):
    center = (0.0,) * spec.n if center is None else center
    if len(center) != spec.n:
        raise ConfigError(f"datum center must have {spec.n} components")
    return gaussian(center, width, height)


GAUSSIAN = {
    # a bare number is a point on the line
    "center": lambda value, what: _numbers(value if isinstance(value, list) else [value], what),
    "width": _number,
    "height": _number,
}


def _gaussian_datum(spec: GridSpec, **term) -> GridFunction:
    return sample(spec, _gaussian(spec, **term))


def _sum_datum(spec: GridSpec, terms: list) -> GridFunction:
    parts = [_gaussian(spec, **_block(t, "datum term", GAUSSIAN, ("width", "height")))
             for t in terms]

    def total(*coords):
        return sum(t(*coords) for t in parts)

    return sample(spec, total)


def _line_datum(name: str, profile, spec: GridSpec) -> GridFunction:
    if spec.n != 1:
        raise ConfigError(f"{name} datum is one-dimensional")
    return sample(spec, profile)


DATA = {
    "zero": (_constant_datum, {}, ()),
    "constant": (_constant_datum, {"value": _number}, ()),
    "gaussian": (_gaussian_datum, GAUSSIAN, ("width", "height")),
    "sum": (_sum_datum, {"terms": _list}, ("terms",)),
    "two_bump": (partial(_line_datum, "two_bump", two_bump), {}, ()),
    "manufactured_p2": (lambda spec: sample(spec, manufactured(2.0, spec.n)[1]), {}, ()),
}


def _build_datum(block: dict, spec: GridSpec) -> GridFunction:
    _, build, args = _kind(block, "datum", DATA)
    return _call(build, spec, **args)


def _solutions_family(dir: str, truncation: float | None = None) -> FunctionFamily:
    directory = Path(dir)
    bases = sorted(p.with_suffix("") for p in directory.glob("*.json")
                   if p.with_suffix(".bin").exists())
    if not bases:
        raise ConfigError(f"no grid-function files in {directory}")
    members = [load_grid_function(b) for b in bases]
    if truncation is not None:
        members = [truncate(u, truncation) for u in members]
    return FunctionFamily(tuple(members), label=f"files:{directory.name}")


BUMPS = {"width": _number, "height": _number}
FAMILIES = {
    "translating_bumps": (
        translating_bumps, {"count": _integer, "spacing": _number, **BUMPS}, ()
    ),
    "fixed_bumps": (fixed_bumps, {"centers": _numbers, **BUMPS}, ()),
    "solutions_dir": (
        _solutions_family, {"dir": _text, "truncation": _nullable(_number)}, ("dir",)
    ),
}


def _build_family(block: dict, spec: GridSpec | None) -> FunctionFamily:
    kind, build, args = _kind(block, "family", FAMILIES)
    if kind == "solutions_dir":
        if spec is not None:
            raise ConfigError("a solutions_dir family takes its grid from its files; "
                              "drop the grid block")
        return _call(build, **args)
    if spec is None:
        raise ConfigError(f"{kind} family needs a grid block")
    return _call(build, spec, **args)


# ---------------------------------------------------------------------------
# run plumbing


def _write_manifest(outdir: Path, args, config: dict, started: float,
                    seed: int | None = None) -> None:
    manifest = {
        "config": config,
        "argv": args.argv,
        "seed": seed,
        "versions": {
            "pschrod": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": sys.version.split()[0],
        },
        "wall_time_s": time.monotonic() - started,
    }
    write_json(outdir / "manifest.json", manifest)


def _load_config(args) -> dict:
    if not args.config:
        return {}
    path = Path(args.config)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        loaded = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(loaded, dict):
        raise ConfigError("config root must be a JSON object")
    return loaded


def _outdir(args, config: dict) -> Path:
    out = Path(args.out or config.get("out", "out"))
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# subcommands

PROBLEM = {"grid": _object, "p": _number, "potential": _object, "datum": _object,
           "out": _text}
PROBLEM_REQUIRED = ("grid", "p", "potential", "datum")
PIPELINE = {**PROBLEM, "scheme": _object,
            "regularizer": _choice({"canonical": regularize_datum, "mollified": mollify_datum})}
SOLVER = {"tol_residual": _nullable(_number), "max_iters": _integer}


def cmd_solve(args) -> int:
    started = time.monotonic()
    cfg = _load_config(args)
    c = _block(cfg, "config", {**PROBLEM, "solver": _object}, PROBLEM_REQUIRED)
    spec = _build_grid(c["grid"])
    V = _call(sample_potential, _build_potential(c["potential"]), spec)
    f = _build_datum(c["datum"], spec)
    solver = _block(c.get("solver", {}), "solver", SOLVER)
    prob = _call(Problem, spec=spec, p=c["p"], V=V, f=f, **solver)
    out = _outdir(args, c)
    result = solve(prob)
    save_grid_function(result.u, out / "u")
    write_json(out / "solve.json", result.diagnostics())
    _write_manifest(out, args, cfg, started)
    print(
        f"solve: converged={result.converged} iterations={result.iterations} "
        f"residual_sup={result.residual_sup:.3e} energy={result.energy:.6e}"
    )
    return EXIT_OK if result.converged else EXIT_FAIL


SCHEME = {"k_list": _numbers, "t_grid": _numbers, "alpha_grid": _numbers,
          "R_grid": _numbers, "eps_grid": _numbers, "tol_residual": _nullable(_number),
          "max_iters": _integer}


def cmd_pipeline(args) -> int:
    started = time.monotonic()
    cfg = _load_config(args)
    c = _block(cfg, "config", PIPELINE, (*PROBLEM_REQUIRED, "scheme"))
    spec = _build_grid(c["grid"])
    pot = _build_potential(c["potential"])
    f = _build_datum(c["datum"], spec)
    scheme_cfg = _call(SchemeConfig, **_block(c["scheme"], "scheme", SCHEME,
                                              ("k_list", "t_grid")))
    result = _call(run_scheme, f, pot, c["p"], scheme_cfg, **_present(c, ["regularizer"]))
    out = _outdir(args, c)
    save_scheme_result(result, out)
    _write_manifest(out, args, cfg, started)
    failed = result.failed_reports()
    print(
        f"pipeline: levels={len(result.k_list)} reports={len(result.reports)} "
        f"failed={len(failed)} non_convergent={list(result.failed_k)}"
    )
    for rep in failed[:10]:
        print(f"  FAIL {rep.name} lhs={rep.lhs:.4e} rhs={rep.rhs:.4e} ctx={rep.context}")
    return EXIT_FAIL if failed or result.failed_k else EXIT_OK


CONFINEMENT = {"grid": _object, "potential": _object, "R_grid": _numbers, "mc": _object,
               "out": _text}
MONTE_CARLO = {"samples": _integer}


def cmd_confinement(args) -> int:
    started = time.monotonic()
    seed = None if args.seed is None else _seed(args.seed, "--seed")
    cfg = _load_config(args)
    c = _block(cfg, "config", CONFINEMENT, ("grid", "potential", "R_grid"))
    spec = _build_grid(c["grid"])
    pot = _build_potential(c["potential"], need_pair=True)
    report = _call(confinement_report, pot, spec, c["R_grid"])
    payload = report.to_dict()
    if "mc" in c:
        mc = _block(c["mc"], "mc", MONTE_CARLO)
        if seed is None:
            raise ConfigError("Monte Carlo cross-check needs --seed")
        payload["monte_carlo"] = {
            f"{R:g}": _call(bad_set_measure_mc, pot, spec, R, seed=seed, **mc)
            for R in c["R_grid"]
        }

    out = _outdir(args, c)
    write_json(out / "confinement.json", payload)
    _write_manifest(out, args, cfg, started, seed)

    print(f"confinement: {report.label} kappa={report.kappa:g} gamma={report.gamma:g}")
    print(f"{'R':>10}  {'|E_R|':>14}")
    for R, measure in zip(report.R_grid, report.bad_measures):
        print(f"{R:>10g}  {measure:>14.6e}")
    print(f"classically confining (tested range): {report.classically_confining}")
    if report.violation_witness is not None:
        print(f"violation witness at x = {list(report.violation_witness)}")
    return EXIT_OK


FAMILY_REPORT = {"p": _number, "shift_grid": _numbers, "R_grid": _numbers,
                 "K_grid": _numbers, "eps": _number}
MODES = {
    "kr": (kr_report, FAMILY_REPORT),
    "ark": (ark_check, {**FAMILY_REPORT, "q": _nullable(_number)}),
}
COMPACTNESS = {"grid": _object, "family": _object, "net_eps": _number, "mode": _text,
               "out": _text}


def cmd_compactness(args) -> int:
    started = time.monotonic()
    cfg = _load_config(args)
    report_fn, report_keys = _choice(MODES)(cfg.get("mode", "ark"), "config mode")
    c = _block(cfg, "config", {**report_keys, **COMPACTNESS}, ("p", "family"))
    spec = _build_grid(c["grid"]) if "grid" in c else None
    fam = _build_family(c["family"], spec)
    report = _call(report_fn, fam, **_present(c, report_keys))
    net_eps = c.get("net_eps", report.eps)
    net = _call(epsilon_net, fam, report.p, net_eps)
    out = _outdir(args, c)
    payload = report.to_dict()
    payload["epsilon_net"] = {"eps": net_eps, "indices": list(map(int, net))}
    write_json(out / "family_report.json", payload)
    _write_manifest(out, args, cfg, started)

    print(f"compactness: family '{fam.label}' size={len(fam)} p={report.p:g} "
          f"eps={report.eps:g}")
    for cond in ("translation", "tail", "superlevel"):
        print(f"  condition {cond:<12} {report.verdicts[cond]}")
    if report.ark_bound is not None:
        print(f"  sobolev bound C = {report.ark_bound:.6g} (q = {report.ark_q:g})")
    print(f"  epsilon net: {len(net)} members {list(map(int, net))}")
    return EXIT_OK


VERIFY = {"seed": _seed, "suites": _list_of(_text), "out": _text}


def cmd_verify(args) -> int:
    started = time.monotonic()
    cfg = _load_config(args)
    c = _block(cfg, "config", VERIFY)
    seed = c.get("seed") if args.seed is None else _seed(args.seed, "--seed")
    if seed is None:
        raise ConfigError("verify requires a seed (--seed or config key 'seed')")
    out = _outdir(args, c)
    summary = _call(run_verify, seed, out, suites=args.suite or c.get("suites"))
    _write_manifest(out, args, cfg, started, seed)
    print(f"verify: {'PASS' if summary['passed'] else 'FAIL'} (seed {seed})")
    return EXIT_OK if summary["passed"] else EXIT_FAIL


# ---------------------------------------------------------------------------

FLAGS = {
    "--seed": {"type": int, "help": "seed, an integer in [0, 2^64)"},
    # unused since the levels are solved in order; kept while perfbench/run.py
    # passes it, as run_verify's threads keyword is while perfbench/tracer.py does
    "--threads": {"type": int, "help": "accepted and ignored"},
    "--suite": {"action": "append", "choices": list(SUITE_NAMES),
                "help": "run only this suite (repeatable)"},
}
COMMANDS = {
    "solve": (cmd_solve, "minimize the discrete energy for one datum", ()),
    "pipeline": (cmd_pipeline, "run the regularized solve sequence and all checks",
                 ("--threads",)),
    "confinement": (cmd_confinement, "tabulate bad-set measures for a potential",
                    ("--seed",)),
    "compactness": (cmd_compactness, "family diagnostics and epsilon nets", ()),
    "verify": (cmd_verify, "run the seeded property suites",
               ("--seed", "--threads", "--suite")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pschrod",
        description=(
            "solve p-Schrodinger problems with confining potentials on "
            "truncated grids and verify the quantitative estimates"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, help_text, flags) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", help="output directory (default 'out')")
        for flag in flags:
            p.add_argument(flag, **FLAGS[flag])
        p.set_defaults(handler=handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    args.argv = argv
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
