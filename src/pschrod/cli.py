"""Experiment runner: config ingestion, subcommands, report emission.

Subcommands: ``solve``, ``pipeline``, ``confinement``, ``compactness``,
``verify``.  Every run validates its JSON config (unknown keys are
rejected), merges command-line overrides (``--out``, ``--seed``, ``--tol``,
``--threads``), writes the requested artifacts plus a ``manifest.json``
with the config echo, library versions, seed and wall time.  Numeric
artifacts are bitwise reproducible for identical configs; only the
manifest carries timing.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Any

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
    polynomial_trap,
    sample_potential,
    sparse_wells,
)
from .presets import bump, manufactured_p2_datum, translating_bumps, two_bump
from .solver import Problem, solve
from .verify import SUITE_NAMES, run_verify

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2


class ConfigError(Exception):
    pass


def _check_keys(block: dict, allowed: set[str], where: str) -> None:
    """Every config block passes here first: it must be an object with known keys."""
    if not isinstance(block, dict):
        raise ConfigError(f"{where} must be a JSON object, got {block!r}")
    unknown = set(block) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def _require(block: dict, key: str, where: str):
    if key not in block:
        raise ConfigError(f"missing key {key!r} in {where}")
    return block[key]


def _list(value, what: str) -> list:
    """A config value that must be a JSON list."""
    if not isinstance(value, list):
        raise ConfigError(f"{what} must be a list, got {value!r}")
    return value


def _number(value, what: str, kind=float):
    """``value`` as a float, or as an int when ``kind`` is int.

    A value that is not a number, or for ``int`` not integral (``65.0`` is
    accepted, ``65.7`` is not), is a config error.
    """
    try:
        number = float(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{what} must be a number, got {value!r}") from exc
    if kind is float:
        return number
    if not number.is_integer():
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    return int(number)


def _optional_number(block: dict, key: str, where: str) -> float | None:
    """``block[key]`` as a float, or None when it is absent or null."""
    value = block.get(key)
    return None if value is None else _number(value, f"{where} {key}")


def _numbers(values, what: str) -> list[float]:
    """A config list of numbers as floats."""
    return [_number(v, f"{what} entry") for v in _list(values, what)]


def _build_grid(block: dict) -> GridSpec:
    _check_keys(block, {"n", "L", "m"}, "grid")
    try:
        return GridSpec(
            n=_number(_require(block, "n", "grid"), "grid n", int),
            L=_number(_require(block, "L", "grid"), "grid L"),
            m=_number(_require(block, "m", "grid"), "grid m", int),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _build_potential(block: dict, need_pair: bool = False) -> Potential:
    _check_keys(block, {"kind", "gamma", "value", "kappa"}, "potential")
    kind = _require(block, "kind", "potential")
    if kind == "polynomial_trap":
        pot = polynomial_trap(gamma=_number(_require(block, "gamma", "potential"), "gamma"))
    elif kind == "sparse_wells":
        pot = sparse_wells(gamma=_number(_require(block, "gamma", "potential"), "gamma"))
    elif kind == "constant":
        value = _number(block.get("value", 1.0), "potential value")
        if value < 1.0:
            raise ConfigError("constant potential must be >= 1")
        if need_pair and ("kappa" not in block or "gamma" not in block):
            raise ConfigError(
                "constant potential needs explicit kappa and gamma for "
                "confinement diagnostics"
            )

        def evaluator(*coords):
            return np.full(np.shape(np.asarray(coords[0], dtype=float)), value)

        pot = Potential(
            evaluator,
            kappa=_number(block.get("kappa", 1.0), "kappa"),
            gamma=_number(block.get("gamma", 1.0), "gamma"),
            label=f"constant({value:g})",
        )
    else:
        raise ConfigError(f"unknown potential kind {kind!r}")
    if "kappa" in block and kind != "constant":
        pot = pot.with_pair(_number(block["kappa"], "kappa"), pot.gamma)
    return pot


def _gaussian_term(block: dict, n: int):
    _check_keys(block, {"center", "width", "height"}, "datum term")
    center = block.get("center", 0.0)
    center = _numbers(center if isinstance(center, list) else [center], "datum center")
    if len(center) != n:
        raise ConfigError(f"datum center must have {n} components")
    width = _number(_require(block, "width", "datum term"), "datum width")
    height = _number(_require(block, "height", "datum term"), "datum height")

    def term(*coords):
        d2 = sum((np.asarray(c, dtype=float) - c0) ** 2 for c, c0 in zip(coords, center))
        return height * np.exp(-d2 / width**2)

    return term


def _build_datum(block: dict, spec: GridSpec) -> GridFunction:
    _check_keys(block, {"kind", "value", "center", "width", "height", "terms"}, "datum")
    kind = _require(block, "kind", "datum")
    if kind == "zero":
        return GridFunction(spec, np.zeros(spec.num_nodes))
    if kind == "constant":
        value = _number(block.get("value", 0.0), "datum value")
        return GridFunction(spec, np.full(spec.num_nodes, value))
    if kind == "gaussian":
        term = {key: val for key, val in block.items() if key != "kind"}
        return sample(spec, _gaussian_term(term, spec.n))
    if kind == "sum":
        terms = [_gaussian_term(t, spec.n)
                 for t in _list(_require(block, "terms", "datum"), "datum terms")]

        def total(*coords):
            return sum(t(*coords) for t in terms)

        return sample(spec, total)
    if kind == "two_bump":
        if spec.n != 1:
            raise ConfigError("two_bump datum is one-dimensional")
        return sample(spec, two_bump)
    if kind == "manufactured_p2":
        if spec.n != 1:
            raise ConfigError("manufactured_p2 datum is one-dimensional")
        return sample(spec, manufactured_p2_datum)
    raise ConfigError(f"unknown datum kind {kind!r}")


def _build_problem(cfg: dict) -> tuple[Problem, Potential]:
    spec = _build_grid(_require(cfg, "grid", "config"))
    pot = _build_potential(_require(cfg, "potential", "config"))
    V = sample_potential(pot, spec)
    f = _build_datum(_require(cfg, "datum", "config"), spec)
    solver_block = cfg.get("solver", {})
    _check_keys(solver_block, {"tol_residual", "max_iters", "eps_reg"}, "solver")
    try:
        prob = Problem(
            spec=spec,
            p=_number(_require(cfg, "p", "config"), "p"),
            V=V,
            f=f,
            eps_reg=_optional_number(solver_block, "eps_reg", "solver"),
            tol_residual=_optional_number(solver_block, "tol_residual", "solver"),
            max_iters=_number(solver_block.get("max_iters", 100), "solver max_iters", int),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return prob, pot


def _write_manifest(outdir: Path, config: dict, args, started: float) -> None:
    manifest = {
        "config": config,
        "argv": list(sys.argv[1:]),
        "seed": getattr(args, "seed", None),
        "versions": {
            "pschrod": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": sys.version.split()[0],
        },
        "wall_time_s": time.monotonic() - started,
    }
    write_json(outdir / "manifest.json", manifest)


def _load_config(args, defaults: dict | None = None) -> dict:
    cfg = dict(defaults or {})
    if args.config:
        path = Path(args.config)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            loaded = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError("config root must be a JSON object")
        cfg.update(loaded)
    return cfg


def _outdir(args, cfg: dict) -> Path:
    out = Path(args.out or cfg.get("out", "out"))
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# subcommands


def cmd_solve(args) -> int:
    started = time.monotonic()
    cfg = _load_config(args)
    _check_keys(cfg, {"grid", "p", "potential", "datum", "solver", "out"}, "config")
    prob, _ = _build_problem(cfg)
    out = _outdir(args, cfg)
    result = solve(prob)
    save_grid_function(result.u, out / "u")
    write_json(out / "solve.json", result.diagnostics())
    _write_manifest(out, cfg, args, started)
    print(
        f"solve: converged={result.converged} iterations={result.iterations} "
        f"residual_sup={result.residual_sup:.3e} energy={result.energy:.6e}"
    )
    return EXIT_OK if result.converged else EXIT_FAIL


def cmd_pipeline(args) -> int:
    started = time.monotonic()
    cfg = _load_config(args)
    _check_keys(
        cfg,
        {"grid", "p", "potential", "datum", "scheme", "debug", "regularizer", "out"},
        "config",
    )
    spec = _build_grid(_require(cfg, "grid", "config"))
    pot = _build_potential(_require(cfg, "potential", "config"))
    f = _build_datum(_require(cfg, "datum", "config"), spec)
    p = _number(_require(cfg, "p", "config"), "p")

    scheme_block = _require(cfg, "scheme", "config")
    _check_keys(
        scheme_block,
        {"k_list", "t_grid", "alpha_grid", "R_grid", "eps_grid", "tol",
         "tol_residual", "max_iters"},
        "scheme",
    )
    scheme_block = dict(scheme_block)
    debug_block = cfg.get("debug", {})
    _check_keys(debug_block, {"stability_cp_scale"}, "debug")
    if args.tol is not None:
        scheme_block["tol"] = args.tol
    try:
        scheme_cfg = SchemeConfig(
            k_list=_numbers(_require(scheme_block, "k_list", "scheme"), "k_list"),
            t_grid=_numbers(_require(scheme_block, "t_grid", "scheme"), "t_grid"),
            alpha_grid=_numbers(scheme_block.get("alpha_grid", [0.5, 1.0]), "alpha_grid"),
            R_grid=_numbers(scheme_block.get("R_grid", [2.0, 4.0, 6.0]), "R_grid"),
            eps_grid=_numbers(scheme_block.get("eps_grid", [0.1, 0.5, 1.0]), "eps_grid"),
            tol=_number(scheme_block.get("tol", 0.05), "scheme tol"),
            tol_residual=_optional_number(scheme_block, "tol_residual", "scheme"),
            max_iters=_number(scheme_block.get("max_iters", 100), "scheme max_iters", int),
            stability_cp_scale=_number(
                debug_block.get("stability_cp_scale", 1.0), "stability_cp_scale"
            ),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    regularizer_name = cfg.get("regularizer", "canonical")
    if regularizer_name == "canonical":
        regularizer = regularize_datum
    elif regularizer_name == "mollified":
        regularizer = mollify_datum
    else:
        raise ConfigError(f"unknown regularizer {regularizer_name!r}")

    try:
        result = run_scheme(
            f, pot, p, scheme_cfg, regularizer=regularizer, threads=args.threads
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    out = _outdir(args, cfg)
    save_scheme_result(result, out)
    _write_manifest(out, cfg, args, started)
    failed = result.failed_reports()
    print(
        f"pipeline: levels={len(result.k_list)} reports={len(result.reports)} "
        f"failed={len(failed)} non_convergent={list(result.failed_k)}"
    )
    for rep in failed[:10]:
        print(f"  FAIL {rep.name} lhs={rep.lhs:.4e} rhs={rep.rhs:.4e} ctx={rep.context}")
    return EXIT_FAIL if failed or result.failed_k else EXIT_OK


def cmd_confinement(args) -> int:
    started = time.monotonic()
    cfg = _load_config(args)
    _check_keys(cfg, {"grid", "potential", "R_grid", "mc", "out"}, "config")
    spec = _build_grid(_require(cfg, "grid", "config"))
    pot = _build_potential(_require(cfg, "potential", "config"), need_pair=True)
    R_grid = _numbers(_require(cfg, "R_grid", "config"), "R_grid")
    try:
        report = confinement_report(pot, spec, R_grid)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    payload: dict[str, Any] = report.to_dict()

    mc_block = cfg.get("mc", {})
    _check_keys(mc_block, {"samples"}, "mc")
    if mc_block:
        if args.seed is None:
            raise ConfigError("Monte Carlo cross-check needs --seed")
        samples = _number(mc_block.get("samples", 100000), "mc samples", int)
        payload["monte_carlo"] = {
            f"{R:g}": bad_set_measure_mc(pot, spec, R, samples, args.seed)
            for R in R_grid
        }

    out = _outdir(args, cfg)
    write_json(out / "confinement.json", payload)
    _write_manifest(out, cfg, args, started)

    print(f"confinement: {report.label} kappa={report.kappa:g} gamma={report.gamma:g}")
    print(f"{'R':>10}  {'|E_R|':>14}")
    for R, measure in zip(report.R_grid, report.bad_measures):
        print(f"{R:>10g}  {measure:>14.6e}")
    print(f"classically confining (tested range): {report.classically_confining}")
    if report.violation_witness is not None:
        print(f"violation witness at x = {list(report.violation_witness)}")
    return EXIT_OK


def _build_family(block: dict, spec: GridSpec | None) -> FunctionFamily:
    _check_keys(
        block,
        {"kind", "count", "width", "height", "spacing", "centers", "dir", "truncation"},
        "family",
    )
    kind = _require(block, "kind", "family")
    if kind in ("translating_bumps", "fixed_bumps"):
        if spec is None:
            raise ConfigError(f"{kind} family needs a grid block")
        if spec.n != 1:
            raise ConfigError(f"{kind} family is one-dimensional")
    if kind == "translating_bumps":
        return translating_bumps(
            spec,
            count=_number(block.get("count", 6), "family count", int),
            spacing=_number(block.get("spacing", 1.0), "family spacing"),
            width=_number(block.get("width", 0.5), "family width"),
            height=_number(block.get("height", 2.0), "family height"),
        )
    if kind == "fixed_bumps":
        centers = _numbers(block.get("centers", [0.0]), "family centers")
        width = _number(block.get("width", 0.5), "family width")
        height = _number(block.get("height", 1.0), "family height")
        members = tuple(sample(spec, bump(c, width, height)) for c in centers)
        return FunctionFamily(members, label="fixed bumps")
    if kind == "solutions_dir":
        directory = Path(_require(block, "dir", "family"))
        bases = sorted(p.with_suffix("") for p in directory.glob("*.json")
                       if p.with_suffix(".bin").exists())
        if not bases:
            raise ConfigError(f"no grid-function files in {directory}")
        members = [load_grid_function(b) for b in bases]
        level = block.get("truncation")
        if level is not None:
            members = [truncate(u, _number(level, "truncation")) for u in members]
        return FunctionFamily(tuple(members), label=f"files:{directory.name}")
    raise ConfigError(f"unknown family kind {kind!r}")


def cmd_compactness(args) -> int:
    started = time.monotonic()
    cfg = _load_config(args)
    _check_keys(
        cfg,
        {"grid", "p", "q", "family", "shift_grid", "R_grid", "K_grid", "eps",
         "net_eps", "mode", "out"},
        "config",
    )
    spec = _build_grid(cfg["grid"]) if "grid" in cfg else None
    fam = _build_family(_require(cfg, "family", "config"), spec)
    spec = fam.spec
    p = _number(_require(cfg, "p", "config"), "p")
    eps = _number(cfg.get("eps", 0.1), "eps")
    shift_grid = _numbers(cfg.get("shift_grid", [spec.h, 2 * spec.h]), "shift_grid")
    R_grid = _numbers(
        cfg.get("R_grid", [spec.L / 4.0, spec.L / 2.0, 3.0 * spec.L / 4.0]), "R_grid"
    )
    K_grid = _numbers(cfg.get("K_grid", [0.5, 1.0, 2.0]), "K_grid")
    mode = cfg.get("mode", "ark")
    net_eps = _number(cfg.get("net_eps", eps), "net_eps")

    try:
        if mode == "kr":
            report = kr_report(fam, p, shift_grid, R_grid, K_grid, eps=eps)
        elif mode == "ark":
            report = ark_check(
                fam, p, _optional_number(cfg, "q", "config"), shift_grid=shift_grid,
                R_grid=R_grid, K_grid=K_grid, eps=eps,
            )
        else:
            raise ConfigError(f"unknown mode {mode!r} (use 'kr' or 'ark')")
        net = epsilon_net(fam, p, net_eps)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    out = _outdir(args, cfg)
    payload = report.to_dict()
    payload["epsilon_net"] = {"eps": net_eps,
                              "indices": list(map(int, net))}
    write_json(out / "family_report.json", payload)
    _write_manifest(out, cfg, args, started)

    print(f"compactness: family '{fam.label}' size={len(fam)} p={p:g} eps={eps:g}")
    for cond in ("translation", "tail", "superlevel"):
        print(f"  condition {cond:<12} {report.verdicts[cond]}")
    if report.ark_bound is not None:
        print(f"  sobolev bound C = {report.ark_bound:.6g} (q = {report.ark_q:g})")
    print(f"  epsilon net: {len(net)} members {list(map(int, net))}")
    return EXIT_OK


def cmd_verify(args) -> int:
    started = time.monotonic()
    cfg = _load_config(args)
    _check_keys(cfg, {"seed", "suites", "out"}, "config")
    seed = args.seed if args.seed is not None else cfg.get("seed")
    if seed is None:
        raise ConfigError("verify requires a seed (--seed or config key 'seed')")
    suites = args.suite or cfg.get("suites")
    if suites is not None:
        _list(suites, "suites")
    out = _outdir(args, cfg)
    try:
        summary = run_verify(int(seed), out, suites=suites, threads=args.threads)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    _write_manifest(out, cfg, args, started)
    print(f"verify: {'PASS' if summary['passed'] else 'FAIL'} (seed {seed})")
    return EXIT_OK if summary["passed"] else EXIT_FAIL


# ---------------------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--out", help="output directory (default 'out')")
    parser.add_argument("--seed", type=int, help="seed for randomized suites")
    parser.add_argument("--tol", type=float, help="report tolerance override")
    parser.add_argument("--threads", type=int, default=1,
                        help="worker threads for independent solves")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pschrod",
        description=(
            "solve p-Schrodinger problems with confining potentials on "
            "truncated grids and verify the quantitative estimates"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    handlers = {
        "solve": (cmd_solve, "minimize the discrete energy for one datum"),
        "pipeline": (cmd_pipeline, "run the regularized solve sequence and all checks"),
        "confinement": (cmd_confinement, "tabulate bad-set measures for a potential"),
        "compactness": (cmd_compactness, "family diagnostics and epsilon nets"),
        "verify": (cmd_verify, "run the seeded property suites"),
    }
    for name, (handler, help_text) in handlers.items():
        p = sub.add_parser(name, help=help_text)
        _add_common(p)
        if name == "verify":
            p.add_argument(
                "--suite", action="append", choices=list(SUITE_NAMES),
                help="run only this suite (repeatable)",
            )
        p.set_defaults(handler=handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.seed is not None and not 0 <= args.seed < 2**64:
        print("error: seed must fit in u64", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
