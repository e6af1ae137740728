import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from pschrod.cli import build_parser, main
from pschrod.grid import GridSpec, load_grid_function, sample, save_grid_function


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


BASE_SOLVE = {
    "grid": {"n": 1, "L": 8.0, "m": 129},
    "p": 2.0,
    "potential": {"kind": "constant", "value": 1.0},
    "datum": {"kind": "zero"},
}


def test_solve_zero_datum(tmp_path, capsys):
    cfg = write_config(tmp_path, "cfg.json", BASE_SOLVE)
    argv = ["solve", "--config", cfg, "--out", str(tmp_path / "out")]
    code = main(argv)
    assert code == 0
    u = load_grid_function(tmp_path / "out" / "u")
    assert u.max_abs() == 0.0
    assert "converged=True" in capsys.readouterr().out
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["config"]["p"] == 2.0
    assert manifest["argv"] == argv  # not the argv of the process that called main
    assert "wall_time_s" in manifest


def _manufactured_error(tmp_path, manufactured_case, grid):
    """Sup error of the CLI's p = 2 ``manufactured_p2`` solve on ``grid``."""
    cfg = write_config(tmp_path, "cfg.json",
                       {**BASE_SOLVE, "grid": grid, "datum": {"kind": "manufactured_p2"}})
    out = tmp_path / f"out{grid['n']}-{grid['m']}"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    u = load_grid_function(out / "u")
    return (u - manufactured_case(2.0, u.spec)[1]).max_abs()


def test_solve_manufactured_error_law(tmp_path, manufactured_case):
    errors = {m: _manufactured_error(tmp_path, manufactured_case, {"n": 1, "L": 8.0, "m": m})
              for m in (129, 257)}
    assert errors[129] / errors[257] >= 3.0


def test_solve_manufactured_datum_in_2d(tmp_path, manufactured_case):
    assert _manufactured_error(tmp_path, manufactured_case, {"n": 2, "L": 4.0, "m": 65}) <= 1e-2


def test_solve_gaussian_datum(tmp_path):
    cfg = write_config(
        tmp_path, "cfg.json",
        {**BASE_SOLVE,
         "datum": {"kind": "gaussian", "center": 1.0, "width": 0.5, "height": 3.0}},
    )
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    u = load_grid_function(out / "u")
    # a positive datum centred at x = 1 gives a positive solution peaking near 1
    assert u.values.min() >= 0.0 and u.max_abs() > 0.0
    assert abs(u.spec.axis_coords()[np.argmax(u.values)] - 1.0) <= 2 * u.spec.h
    # the center defaults to the origin of the grid's dimension
    outputs = []
    for name, center in (("origin", {"center": [0, 0]}), ("default", {})):
        cfg = write_config(
            tmp_path, f"{name}.json",
            {**BASE_SOLVE, "grid": {"n": 2, "L": 4.0, "m": 9},
             "datum": {"kind": "gaussian", "width": 1.0, "height": 2.0, **center}},
        )
        out = tmp_path / name
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        outputs.append([(out / f).read_bytes() for f in ("u.bin", "u.json", "solve.json")])
    assert outputs[0] == outputs[1]


def test_solve_sum_of_two_bump_terms_is_two_bump(tmp_path):
    # one Gaussian builds both data, so the spelled-out sum has two_bump's bits
    terms = [{"center": -2.5, "width": 0.4, "height": 12.0},
             {"center": 3.0, "width": 0.6, "height": 4.0}]
    outputs = []
    for name, datum in (("two_bump", {"kind": "two_bump"}),
                        ("sum", {"kind": "sum", "terms": terms})):
        cfg = write_config(
            tmp_path, f"{name}.json",
            {**BASE_SOLVE, "p": 3.0, "potential": {"kind": "polynomial_trap", "gamma": 2.0},
             "datum": datum},
        )
        out = tmp_path / name
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        outputs.append([(out / f).read_bytes() for f in ("u.bin", "solve.json")])
    assert outputs[0] == outputs[1]


def test_solve_rejects_p_below_two(tmp_path, capsys):
    cfg = write_config(tmp_path, "cfg.json", {**BASE_SOLVE, "p": 1.5})
    code = main(["solve", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 2
    assert "p >= 2" in capsys.readouterr().err


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, "cfg.json", {**BASE_SOLVE, "tyop": 1})
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "unknown keys" in capsys.readouterr().err


PIPE = {
    "grid": {"n": 1, "L": 8.0, "m": 129},
    "p": 2.0,
    "potential": {"kind": "polynomial_trap", "gamma": 2.0},
    "datum": {"kind": "two_bump"},
    "scheme": {"k_list": [1, 2, 4, 8], "t_grid": [0.5, 1, 2], "R_grid": [2, 4, 6]},
}


@pytest.mark.parametrize(
    "command, config",
    [("pipeline", {**PIPE, "scheme": {**PIPE["scheme"], "tol": 0.5}}),
     ("solve", {**BASE_SOLVE, "solver": {"eps_reg": 1e-6}})],
    ids=["scheme-tol", "solver-eps_reg"],
)
def test_fixed_report_tolerance_and_regularization_are_unknown_keys(tmp_path, capsys,
                                                                    command, config):
    cfg = write_config(tmp_path, "cfg.json", config)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "unknown keys" in capsys.readouterr().err


def test_pipeline_standard_passes(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", PIPE)
    out = tmp_path / "out"
    assert main(["pipeline", "--config", cfg, "--out", str(out)]) == 0
    reports = json.loads((out / "reports.json").read_text())
    assert reports and all(r["pass"] for r in reports)
    assert (out / "distances.csv").exists()
    assert (out / "diagnostics.json").exists()


def test_pipeline_halved_constant_fails(tmp_path):
    # with C_p halved, some stability report of the standard run would fail
    cfg = write_config(tmp_path, "cfg.json", PIPE)
    out = tmp_path / "out"
    assert main(["pipeline", "--config", cfg, "--out", str(out)]) == 0
    reports = json.loads((out / "reports.json").read_text())
    stability = [r for r in reports if r["name"] == "stability"]
    assert any(r["lhs"] > 0.5 * r["rhs"] * (1 + r["tol"]) for r in stability)


def test_pipeline_mollified_level_below_kernel_reach(tmp_path):
    # at m = 129 the k = 0.2 kernel (half-width 12.5) is longer than the axis
    cfg = write_config(
        tmp_path, "cfg.json",
        {**PIPE, "regularizer": "mollified",
         "scheme": {**PIPE["scheme"], "k_list": [0.2, 1, 2]}},
    )
    out = tmp_path / "out"
    assert main(["pipeline", "--config", cfg, "--out", str(out)]) == 0
    assert load_grid_function(out / "u_k0.2").values.size == 129


def test_pipeline_rejects_p_below_two(tmp_path, capsys):
    cfg = write_config(tmp_path, "cfg.json", {**PIPE, "p": 1.5})
    assert main(["pipeline", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "p >= 2" in capsys.readouterr().err


COMPACT = {
    "grid": {"n": 1, "L": 8.0, "m": 129},
    "p": 2.0,
    "family": {"kind": "translating_bumps", "count": 3},
}
GAUSSIAN = {"kind": "gaussian", "center": 0.0, "width": 1.0, "height": 2.0}


@pytest.mark.parametrize(
    "command, config",
    [
        ("pipeline", {**PIPE, "p": "x"}),
        ("compactness", {**COMPACT, "p": "x"}),
        ("pipeline", {**PIPE, "potential": {"kind": "polynomial_trap", "gamma": "x"}}),
        ("pipeline", {**PIPE, "datum": {**GAUSSIAN, "width": "x"}}),
        ("pipeline", {**PIPE, "datum": {**GAUSSIAN, "height": "x"}}),
        ("pipeline", {**PIPE, "p": None}),
    ],
    ids=["pipeline-p", "compactness-p", "gamma", "width", "height", "p-null"],
)
def test_non_numeric_config_value_is_config_error(tmp_path, capsys, command, config):
    cfg = write_config(tmp_path, "cfg.json", config)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "must be a number" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, config, message",
    [
        ("pipeline", {**PIPE, "scheme": [1, 2]}, "scheme must be a JSON object"),
        ("solve", {**BASE_SOLVE, "grid": 5}, "grid must be a JSON object"),
        ("solve", {**BASE_SOLVE, "datum": {"kind": "sum", "terms": {"width": 1}}},
         "datum terms must be a list"),
        ("solve", {**BASE_SOLVE, "datum": {"kind": "sum", "terms": [1.0]}},
         "datum term must be a JSON object"),
        ("verify", {"seed": 1, "suites": "monotonicity"}, "suites must be a list"),
        ("verify", {"seed": 1, "suites": []}, "suites must name at least one"),
    ],
    ids=["scheme-list", "grid-int", "terms-object", "term-number", "suites-string",
         "suites-empty"],
)
def test_config_block_of_wrong_type_is_config_error(tmp_path, capsys, command, config,
                                                    message):
    cfg = write_config(tmp_path, "cfg.json", config)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err


CONFINE = {
    "grid": {"n": 1, "L": 10.0, "m": 101},
    "potential": {"kind": "polynomial_trap", "gamma": 2.0},
    "R_grid": [2, 4],
}


@pytest.mark.parametrize(
    "command, config",
    [
        ("solve", {**BASE_SOLVE, "grid": {"n": 1, "L": 8.0, "m": 65.7}}),
        ("solve", {**BASE_SOLVE, "grid": {"n": 1.5, "L": 8.0, "m": 65}}),
        ("solve", {**BASE_SOLVE, "solver": {"max_iters": 2.7}}),
        ("pipeline", {**PIPE, "scheme": {**PIPE["scheme"], "max_iters": 2.7}}),
        ("compactness", {**COMPACT, "family": {"kind": "translating_bumps", "count": 2.5}}),
        ("confinement", {**CONFINE, "mc": {"samples": 100.5}}),
    ],
    ids=["grid-m", "grid-n", "solver-max_iters", "scheme-max_iters", "family-count",
         "mc-samples"],
)
def test_fractional_integer_config_value_is_config_error(tmp_path, capsys, command, config):
    cfg = write_config(tmp_path, "cfg.json", config)
    argv = [command, "--config", cfg, "--out", str(tmp_path / "out")]
    if command == "confinement":
        argv += ["--seed", "1"]
    assert main(argv) == 2
    assert "must be an integer" in capsys.readouterr().err


def test_integral_float_config_value_is_accepted(tmp_path):
    cfg = write_config(
        tmp_path, "cfg.json",
        {**BASE_SOLVE, "grid": {"n": 1.0, "L": 8.0, "m": 65.0},
         "solver": {"max_iters": 3.0}},
    )
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    assert load_grid_function(out / "u").values.size == 65


def test_pipeline_zero_datum_trivial_pass(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", {**PIPE, "datum": {"kind": "zero"}})
    assert main(["pipeline", "--config", cfg, "--out", str(tmp_path / "out")]) == 0


def test_confinement_trap_table(tmp_path, capsys):
    cfg = write_config(
        tmp_path, "cfg.json",
        {
            "grid": {"n": 1, "L": 10.0, "m": 2001},
            "potential": {"kind": "polynomial_trap", "gamma": 2.0},
            "R_grid": [1, 2, 4, 8],
        },
    )
    assert main(["confinement", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    out = capsys.readouterr().out
    assert "|E_R|" in out
    report = json.loads((tmp_path / "out" / "confinement.json").read_text())
    assert report["bad_measures"] == [0.0, 0.0, 0.0, 0.0]
    assert report["classically_confining"] is True


def test_confinement_wells_witness(tmp_path, capsys):
    cfg = write_config(
        tmp_path, "cfg.json",
        {
            "grid": {"n": 1, "L": 40.0, "m": 40961},
            "potential": {"kind": "sparse_wells", "gamma": 2.0},
            "R_grid": [2, 3, 6, 12, 24],
        },
    )
    assert main(["confinement", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    out = capsys.readouterr().out
    assert "witness" in out
    report = json.loads((tmp_path / "out" / "confinement.json").read_text())
    assert report["classically_confining"] is False
    assert report["violation_witness"][0] == pytest.approx(32.0)
    measures = report["bad_measures"]
    assert all(b < a for a, b in zip(measures, measures[1:]))


def test_confinement_requires_kappa_for_constant(tmp_path, capsys):
    cfg = write_config(
        tmp_path, "cfg.json",
        {
            "grid": {"n": 1, "L": 10.0, "m": 101},
            "potential": {"kind": "constant", "value": 2.0},
            "R_grid": [2, 4],
        },
    )
    assert main(["confinement", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "kappa" in capsys.readouterr().err


KAPPA_TRAP = {
    "grid": {"n": 1, "L": 10.0, "m": 101},
    "potential": {"kind": "polynomial_trap", "gamma": 2.0},
    "R_grid": [2, 4],
}


def test_confinement_kappa_override(tmp_path):
    # with kappa = 2 the trap 1 + x^2 falls below 2 x^2 wherever |x| > 1
    trap = {**KAPPA_TRAP["potential"], "kappa": 2.0}
    cfg = write_config(tmp_path, "cfg.json", {**KAPPA_TRAP, "potential": trap})
    assert main(["confinement", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    report = json.loads((tmp_path / "out" / "confinement.json").read_text())
    assert report["kappa"] == 2.0 and report["gamma"] == 2.0
    assert report["bad_measures"] == pytest.approx([16.2, 12.2], rel=1e-12)
    assert report["classically_confining"] is False


def test_confinement_kappa_override_must_be_positive(tmp_path, capsys):
    trap = {**KAPPA_TRAP["potential"], "kappa": 0}
    cfg = write_config(tmp_path, "cfg.json", {**KAPPA_TRAP, "potential": trap})
    assert main(["confinement", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "kappa must be positive" in capsys.readouterr().err


def test_compactness_translates(tmp_path, capsys):
    cfg = write_config(
        tmp_path, "cfg.json",
        {
            "grid": {"n": 1, "L": 8.0, "m": 257},
            "p": 2.0,
            "family": {"kind": "translating_bumps", "count": 7},
            "R_grid": [2, 4, 6],
            "K_grid": [0.5, 1.0],
            "eps": 0.3,
        },
    )
    assert main(["compactness", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    report = json.loads((tmp_path / "out" / "family_report.json").read_text())
    assert report["verdicts"]["tail"] == "not observed"
    assert "epsilon_net" in report
    assert "not observed" in capsys.readouterr().out


@pytest.mark.parametrize("kind", ["translating_bumps", "fixed_bumps"])
def test_compactness_bump_family_needs_1d_grid(tmp_path, capsys, kind):
    cfg = write_config(
        tmp_path, "cfg.json",
        {"grid": {"n": 2, "L": 4.0, "m": 17}, "p": 2.0, "family": {"kind": kind}},
    )
    assert main(["compactness", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "one-dimensional" in capsys.readouterr().err


@pytest.mark.parametrize(
    "extra",
    [{"q": 0.5}, {"p": 0.5}, {"eps": -1}, {"net_eps": 0}, {"K_grid": [-1], "mode": "kr"}],
    ids=["q", "p-as-default-q", "eps", "net_eps", "kr-K_grid"],
)
def test_compactness_invalid_value_is_config_error(tmp_path, capsys, extra):
    cfg = write_config(tmp_path, "cfg.json", {**COMPACT, **extra})
    assert main(["compactness", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "config error" in capsys.readouterr().err


def test_compactness_solutions_dir_roundtrip(tmp_path):
    pipe_cfg = write_config(tmp_path, "pipe.json", PIPE)
    pipe_out = tmp_path / "pipe_out"
    assert main(["pipeline", "--config", pipe_cfg, "--out", str(pipe_out)]) == 0
    comp_cfg = write_config(
        tmp_path, "comp.json",
        {
            "p": 2.0,
            "family": {"kind": "solutions_dir", "dir": str(pipe_out), "truncation": 1.0},
            "eps": 0.3,
            "K_grid": [0.5, 1.0],
        },
    )
    out = tmp_path / "comp_out"
    assert main(["compactness", "--config", comp_cfg, "--out", str(out)]) == 0
    report = json.loads((out / "family_report.json").read_text())
    assert report["size"] == 4
    assert all(v == "decaying" for v in report["verdicts"].values())


HEADER = {"n": 1, "L": 8.0, "m": 129, "order": "row-major", "dtype": "f64-little-endian"}


@pytest.mark.parametrize(
    "header",
    [
        {k: v for k, v in HEADER.items() if k != "n"},
        {k: v for k, v in HEADER.items() if k != "L"},
        {k: v for k, v in HEADER.items() if k != "m"},
        {**HEADER, "n": None},
        {**HEADER, "n": 1.5},
        {**HEADER, "m": 129.5},
        {**HEADER, "n": True},
        {**HEADER, "m": True},
        {**HEADER, "L": float("inf")},
    ],
    ids=["no-n", "no-L", "no-m", "n-null", "n-fraction", "m-fraction", "n-bool", "m-bool",
         "L-inf"],
)
def test_compactness_solutions_dir_bad_header_is_config_error(tmp_path, capsys, header):
    sols = tmp_path / "sols"
    sols.mkdir()
    save_grid_function(sample(GridSpec(1, 8.0, 129), lambda x: np.exp(-(x**2))), sols / "u")
    (sols / "u.json").write_text(json.dumps(header))
    cfg = write_config(tmp_path, "cfg.json",
                       {"p": 2.0, "family": {"kind": "solutions_dir", "dir": str(sols)}})
    assert main(["compactness", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "config error: grid file header" in capsys.readouterr().err


def test_pipeline_levels_with_one_label_are_config_error(tmp_path, capsys):
    # 1 and 1.0000001 both print as "1", the label of u_k1 and of the solves key
    cfg = write_config(tmp_path, "cfg.json",
                       {**PIPE, "scheme": {**PIPE["scheme"], "k_list": [1, 1.0000001, 4]}})
    assert main(["pipeline", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "distinct labels" in capsys.readouterr().err


def test_cli_accepts_the_benchmark_argv(tmp_path):
    # the harness passes --threads; the flag stays until it no longer does
    path = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
    spec = importlib.util.spec_from_file_location("perfbench_run", path)
    harness = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(harness)
    assert len(harness.WORKLOADS) == 3
    for workload in harness.WORKLOADS:
        argv = harness.cli_argv(workload, 7, tmp_path / "out", tmp_path / "config.json")
        assert build_parser().parse_args(argv).command == argv[0]


def test_pipeline_artifacts_bit_identical_on_rerun(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", PIPE)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["pipeline", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["pipeline", "--config", cfg, "--out", str(out2)]) == 0
    for name in ("reports.json", "distances.csv", "diagnostics.json",
                 "u_k1.bin", "u_k8.bin"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_solve_non_convergence_exit(tmp_path):
    cfg = write_config(
        tmp_path, "cfg.json",
        {
            "grid": {"n": 1, "L": 8.0, "m": 129},
            "p": 4.0,
            "potential": {"kind": "polynomial_trap", "gamma": 2.0},
            "datum": {"kind": "two_bump"},
            "solver": {"max_iters": 2, "tol_residual": 1e-12},
        },
    )
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 1
    diag = json.loads((out / "solve.json").read_text())
    assert diag["converged"] is False
    assert (out / "u.bin").exists()


FAST_SUITES = ["--suite", "monotonicity", "--suite", "lambda_metric",
               "--suite", "nesting_embedding"]


def test_verify_requires_seed(tmp_path, capsys):
    assert main(["verify", "--out", str(tmp_path / "v")] + FAST_SUITES) == 2
    assert "seed" in capsys.readouterr().err


def test_verify_deterministic_reports(tmp_path):
    out1, out2 = tmp_path / "v1", tmp_path / "v2"
    assert main(["verify", "--seed", "3", "--out", str(out1)] + FAST_SUITES) == 0
    assert main(["verify", "--seed", "3", "--out", str(out2)] + FAST_SUITES) == 0
    for name in ("verify_monotonicity.json", "verify_lambda_metric.json",
                 "verify_nesting_embedding.json", "verify_summary.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_verify_suite_filter_only_writes_selected(tmp_path):
    out = tmp_path / "v"
    assert main(["verify", "--seed", "3", "--out", str(out),
                 "--suite", "monotonicity"]) == 0
    assert (out / "verify_monotonicity.json").exists()
    assert not (out / "verify_pipeline.json").exists()


def test_verify_seed_changes_bytes_not_verdicts(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["verify", "--seed", "1", "--out", str(out1)] + FAST_SUITES) == 0
    assert main(["verify", "--seed", "2", "--out", str(out2)] + FAST_SUITES) == 0
    s1 = json.loads((out1 / "verify_summary.json").read_text())
    s2 = json.loads((out2 / "verify_summary.json").read_text())
    assert s1["suites"] == s2["suites"]


@pytest.mark.parametrize(
    "command, config",
    [
        (["solve"], {**BASE_SOLVE,
                     "potential": {"kind": "polynomial_trap", "gamma": 2, "value": 5}}),
        (["solve"], {**BASE_SOLVE, "datum": {"kind": "zero", "width": 3}}),
        (["compactness"], {**COMPACT, "family": {"kind": "translating_bumps", "dir": "sols"}}),
        (["compactness"], {"p": 2.0, "family": {"kind": "solutions_dir", "dir": "sols",
                                                "count": 3}}),
        (["compactness"], {**COMPACT, "family": {"kind": "solutions_dir", "dir": "sols"}}),
        (["compactness"], {**COMPACT, "mode": "kr", "q": 0.5}),
        (["solve"], {**BASE_SOLVE, "grid": {"n": True, "L": 8.0, "m": 129}}),
        (["solve"], {**BASE_SOLVE, "potential": {"kind": "polynomial_trap", "gamma": True}}),
        (["solve", "--threads", "2"], BASE_SOLVE),
        (["pipeline", "--tol", "0.1"], PIPE),
    ],
    ids=["trap-value", "zero-width", "bumps-dir", "solutions-count", "solutions-grid",
         "kr-q", "n-bool", "gamma-bool", "solve-threads", "pipeline-tol"],
)
def test_key_or_flag_the_command_does_not_read_is_rejected(tmp_path, monkeypatch, capsys,
                                                           command, config):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sols").mkdir()
    spec = GridSpec(1, 8.0, 129)
    save_grid_function(sample(spec, lambda x: np.exp(-(x**2))), tmp_path / "sols" / "u")
    cfg = write_config(tmp_path, "cfg.json", config)
    try:
        code = main([*command, "--config", cfg, "--out", str(tmp_path / "out")])
    except SystemExit as exc:  # argparse rejects a flag the subcommand does not take
        code = exc.code
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err or "unrecognized arguments" in err


@pytest.mark.parametrize("seed", [7.5, True, -1, 2**64], ids=["fraction", "bool", "negative",
                                                              "too-large"])
def test_verify_config_seed_must_be_u64_integer(tmp_path, capsys, seed):
    cfg = write_config(tmp_path, "cfg.json", {"seed": seed, "suites": ["monotonicity"]})
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "v")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "seed" in err


@pytest.mark.parametrize(
    "grid, values, message",
    [
        ("t_grid", [0, 1], "finite and positive"),
        ("t_grid", [-1], "finite and positive"),
        ("alpha_grid", [0.5, 0], "finite and positive"),
        ("eps_grid", [-0.1], "finite and positive"),
        ("R_grid", [0, 2], "inside the box"),
        ("R_grid", [2, -4], "inside the box"),
        ("R_grid", [8], "inside the box"),
    ],
    ids=["t0", "t-neg", "alpha0", "eps-neg", "R0", "R-neg", "R-box"],
)
def test_pipeline_bad_scheme_grid_fails_before_any_solve(tmp_path, capsys, monkeypatch,
                                                        grid, values, message):
    def no_solve(*args, **kwargs):
        raise AssertionError("solve must not be called")

    monkeypatch.setattr("pschrod.pipeline.solve", no_solve)
    cfg = write_config(tmp_path, "cfg.json",
                       {**PIPE, "scheme": {**PIPE["scheme"], grid: values}})
    assert main(["pipeline", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err


def test_verify_manifest_records_config_seed(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", {"seed": 3, "suites": ["monotonicity"]})
    out = tmp_path / "v"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
    assert json.loads((out / "manifest.json").read_text())["seed"] == 3
    assert json.loads((out / "verify_summary.json").read_text())["seed"] == 3


@pytest.mark.parametrize(
    "config_text",
    [
        json.dumps(PIPE).replace('"R_grid"', '"eps_grid": [1e400], "R_grid"'),
        json.dumps(PIPE).replace('"L": 8.0', '"L": NaN'),
    ],
    ids=["eps_grid-1e400", "L-nan"],
)
def test_non_finite_config_number_is_config_error(tmp_path, capsys, config_text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(config_text)
    assert main(["pipeline", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "finite" in capsys.readouterr().err


WIDTH0 = {"width": 0, "height": 1}
STEEP_TRAP = {"kind": "polynomial_trap", "gamma": 1000}


@pytest.mark.parametrize(
    "command, config",
    [
        ("solve", {**BASE_SOLVE, "datum": {"kind": "gaussian", **WIDTH0}}),
        ("solve", {**BASE_SOLVE, "potential": STEEP_TRAP}),
        ("pipeline", {**PIPE, "datum": {"kind": "gaussian", **WIDTH0}}),
        ("pipeline", {**PIPE, "datum": {"kind": "sum", "terms": [WIDTH0]}}),
        ("pipeline", {**PIPE, "potential": STEEP_TRAP}),
        ("confinement", {"grid": PIPE["grid"], "potential": STEEP_TRAP, "R_grid": [2]}),
    ],
    ids=["solve-width0", "solve-gamma1000", "pipeline-width0", "pipeline-sum-width0",
         "pipeline-gamma1000", "confinement-gamma1000"],
)
def test_non_finite_sample_is_config_error(tmp_path, capsys, command, config):
    cfg = write_config(tmp_path, "cfg.json", config)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "config error: non-finite value" in capsys.readouterr().err


def test_pipeline_without_converged_level_exits_1_with_diagnostics(tmp_path, capsys):
    cfg = write_config(
        tmp_path, "cfg.json",
        {**PIPE, "p": 4.0,
         "scheme": {**PIPE["scheme"], "max_iters": 1, "tol_residual": 1e-14}},
    )
    out = tmp_path / "out"
    assert main(["pipeline", "--config", cfg, "--out", str(out)]) == 1
    assert "non_convergent=[1.0, 2.0, 4.0, 8.0]" in capsys.readouterr().out
    diag = json.loads((out / "diagnostics.json").read_text())
    assert diag["failed_k"] == [1.0, 2.0, 4.0, 8.0]
    assert diag["convergence"]["reference_k"] is None
    assert [s["converged"] for s in diag["solves"].values()] == [False] * 4
    assert json.loads((out / "reports.json").read_text()) == []
