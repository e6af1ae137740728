"""Acceptance gate: every quantitative claim the package exists to verify,
checked at its stated tolerance.  One pass/fail line prints per criterion
(run with ``pytest -s`` to see them inline).

Criteria 01-04 and 11 run on the standard two-bump experiment.  Criteria
05-10 read the reports of one seeded ``verify`` run (its suites define those
experiments); the larger cases they used to rebuild here are inputs to the
unit tests of ``test_compactness`` and ``test_pipeline``.
"""

import json
import math
import time
from contextlib import contextmanager

import pytest

from pschrod.compactness import DECAYING, NOT_OBSERVED
from pschrod.grid import GridSpec
from pschrod.solver import solve
from pschrod.verify import run_verify

VERIFY_SEED = 808


@contextmanager
def criterion(num, name):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {num:02d} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {num:02d} {name}: PASS")


@pytest.fixture(scope="module")
def verify_run(tmp_path_factory):
    """One seeded ``verify`` run: output dir, summary and seconds per suite.

    Each suite is timed from the ``echo`` line ``run_verify`` prints after it.
    """
    out = tmp_path_factory.mktemp("verify")
    marks, names = [time.perf_counter()], []

    def echo(message):
        marks.append(time.perf_counter())
        names.append(message.split()[1].rstrip(":"))

    summary = run_verify(VERIFY_SEED, out, echo=echo)
    seconds = {name: b - a for name, a, b in zip(names, marks, marks[1:])}
    return out, summary, seconds


def _suite(verify_run, name):
    out, _, _ = verify_run
    return json.loads((out / f"verify_{name}.json").read_text())


def test_01_manufactured_convergence(manufactured_case):
    with criterion(1, "manufactured p=2 convergence under h-halving"):
        errors = {}
        for m in (129, 257, 513):
            prob, exact = manufactured_case(2.0, GridSpec(1, 8.0, m))
            start = time.perf_counter()
            res = solve(prob)
            elapsed = time.perf_counter() - start
            assert elapsed < 5.0, f"solve at m={m} took {elapsed:.2f}s"
            assert res.converged
            errors[m] = (res.u - exact).max_abs()
        assert errors[129] / errors[257] >= 3.0
        assert errors[257] / errors[513] >= 3.0


def _reports(scheme, name):
    return [r for r in scheme.reports if r.name == name]


def test_02_energy_estimate(std_scheme_p2, std_scheme_p3):
    with criterion(2, "energy estimate over every (k, t) at 5%"):
        for scheme in (std_scheme_p2, std_scheme_p3):
            reps = _reports(scheme, "energy_estimate")
            assert len(reps) == 25
            assert all(r.tol == 0.05 for r in reps)
            assert all(r.passed for r in reps)


def test_03_stability(std_scheme_p2, std_scheme_p3):
    with criterion(3, "stability with C_p = 2^(p-2), C_2 = 1 exact"):
        for scheme in (std_scheme_p2, std_scheme_p3):
            reps = _reports(scheme, "stability")
            assert len(reps) == 50  # 10 pairs x 5 levels
            assert all(r.passed for r in reps)
        assert all(
            r.context["C_p"] == 1.0 for r in _reports(std_scheme_p2, "stability")
        )
        assert all(
            r.context["C_p"] == 2.0 for r in _reports(std_scheme_p3, "stability")
        )


def test_04_tail_bound(std_scheme_p2, std_scheme_p3):
    with criterion(4, "tail bound for the polynomial trap on R in {2,4,6}"):
        for scheme in (std_scheme_p2, std_scheme_p3):
            reps = _reports(scheme, "tail_bound")
            assert {r.context["R"] for r in reps} == {2.0, 4.0, 6.0}
            assert all(r.context["bad_measure"] == 0.0 for r in reps)
            assert all(r.passed for r in reps)


def test_05_monotonicity_inequalities(verify_run):
    with criterion(5, "flux monotonicity, 1e5 pairs, four exponents, < 1s"):
        rep = _suite(verify_run, "monotonicity")
        assert set(rep["per_p"]) == {"p=2", "p=2.5", "p=3", "p=4"}
        assert rep["worst_rel_margin"] >= -1e-12
        assert verify_run[2]["monotonicity"] < 1.0


def test_06_asymptotic_space_structure(verify_run):
    with criterion(6, "metric structure, nesting, weak embedding"):
        metric = _suite(verify_run, "lambda_metric")
        assert metric["pairs"] == 10_000
        assert metric["worst_rel_triangle_gap"] <= 1e-12
        assert metric["worst_rel_lipschitz_gap"] <= 1e-12
        assert metric["self_distance"] == 0.0
        nesting = _suite(verify_run, "nesting_embedding")
        assert nesting["worst_rel_nesting_gap"] <= 1e-12
        emb = nesting["embedding"]
        assert (emb["p"], emb["q"]) == (1.0, 2.0)
        assert emb["lhs"] <= emb["rhs"] * (1 + 1e-12)
        assert abs(emb["lhs"] - emb["rhs"]) / emb["rhs"] <= 0.05


def test_07_sparse_wells(verify_run):
    with criterion(7, "sparse wells: |E_3|, total well measure, witness"):
        rep = _suite(verify_run, "sparse_wells")
        assert rep["bad_measure_R3"] == pytest.approx(1.0 / 6.0, rel=0.02)
        assert rep["total_bad_measure"] == pytest.approx(2.0 / 3.0, rel=0.02)
        conf = rep["confinement"]
        assert conf["classically_confining"] is False
        assert conf["violation_witness"] is not None
        witness_r = abs(conf["violation_witness"][0])
        assert witness_r > conf["R_grid"][-1]
        assert witness_r == pytest.approx(32.0, abs=1e-9)


def test_08_compactness_diagnostics(verify_run):
    with criterion(8, "KR diagnostics and epsilon net for solution truncations"):
        rep = _suite(verify_run, "compactness")
        assert rep["translating_family"]["verdicts"]["tail"] == NOT_OBSERVED
        sols = rep["solution_family"]
        assert all(v == DECAYING for v in sols["verdicts"].values())
        assert sols["ark_q"] == 2.0
        assert math.isfinite(sols["ark_bound"])
        assert len(rep["net_indices"]) <= sols["size"]
        assert rep["net_coverage"] <= 0.3


def test_09_localized_identity(verify_run):
    with criterion(9, "localized identity within the residual bound on every grid; "
                      "support exact"):
        rep = _suite(verify_run, "localized_identity")
        assert len(rep["reports"]) == 3
        for grid_rep in rep["reports"]:
            assert grid_rep["pass"] is True
            assert grid_rep["context"]["supp_contained"] is True


def test_10_scheme_independence(verify_run):
    with criterion(10, "canonical vs mollified schemes agree at the reference"):
        rep = _suite(verify_run, "uniqueness")
        assert rep["scheme_distance_at_reference"] <= 1e-3


def test_11_superlevel_bound(std_scheme_p2, std_scheme_p3):
    with criterion(11, "superlevel bound m^(1-p) ||f||_1 at 5%"):
        for scheme in (std_scheme_p2, std_scheme_p3):
            reps = _reports(scheme, "superlevel_bound")
            assert len(reps) == 25
            assert all(r.tol == 0.05 for r in reps)
            assert all(r.passed for r in reps)


def test_12_verify_determinism(verify_run, tmp_path):
    with criterion(12, "verify reruns produce bit-identical reports"):
        out1, s1, _ = verify_run
        out2 = tmp_path / "v2"
        s2 = run_verify(VERIFY_SEED, out2, echo=lambda *_: None)
        assert s1["passed"] and s2["passed"]
        names = sorted(p.name for p in out1.glob("verify_*.json"))
        assert names
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
