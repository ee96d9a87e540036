"""The verification CLI: grids, statuses, JSON shape, determinism, exit codes."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import cliffqp
from cliffqp import canonical, clifford, forms, group
from cliffqp.cli import CHECKS, MAX_N, main, run
from cliffqp.rings import ring_by_name


def run_json(capsys, args):
    code = main(args + ["--json"])
    document = json.loads(capsys.readouterr().out)
    return code, document


def test_single_cell_pass(capsys):
    code, doc = run_json(capsys, ["relations", "--n", "2", "--ring", "gf3", "--trials", "5"])
    assert code == 0
    assert doc["passed"] == 1 and doc["failed"] == 0 and doc["skipped"] == 0
    report = doc["reports"][0]
    assert set(report) == {"check", "n", "ring", "status", "details", "elapsed_ms", "seed"}
    assert report["status"] == "pass"
    assert report["ring"] == "gf3" and report["n"] == 2 and report["seed"] == 0


def test_skip_gives_exit_zero(capsys):
    code, doc = run_json(capsys, ["canonical-semitrace", "--n", "2", "--ring", "gf3"])
    assert code == 0
    assert doc["skipped"] == 1
    assert "symplectic" in doc["reports"][0]["details"][0]


def test_degree4_skips_on_wrong_ring(capsys):
    code, doc = run_json(capsys, ["degree4-counterexample", "--ring", "gf3"])
    assert code == 0
    assert doc["reports"][0]["status"] == "skipped"
    code, doc = run_json(capsys, ["degree4-counterexample", "--ring", "gf2"])
    assert code == 0
    assert doc["reports"][0]["status"] == "skipped"  # gf2 lacks t with t^2 != t


# The package function each check's runner calls first.
FIRST_CALL = {
    "relations": (clifford, "relation_suite"),
    "gram": (forms, "gram_agreement_suite"),
    "classify": (clifford, "classify_even_involution"),
    "polar": (forms, "polar_matches_prediction"),
    "sl-into-alt": (canonical, "check_sl_into_alt"),
    "rho-xi": (canonical, "rho_xi_check"),
    "canonical-semitrace": (canonical, "check_representative_independence"),
    "q-wedge-correspondence": (canonical, "correspondence_with_q_wedge"),
    "pgo-invariance": (group, "pgo_invariance"),
    "degree4-alt": (canonical, "degree4_alt_report"),
    "degree4-counterexample": (canonical, "degree4_no_canonical"),
    "base-change": (canonical, "base_change_report"),
}


@pytest.mark.parametrize("check", list(CHECKS))
def test_a_raising_check_reports_an_error(capsys, monkeypatch, check):
    # the runner looks its function up on the module at call time, so the
    # rebound function is the one that runs; its exception becomes the detail,
    # which names the innermost frame: the line of `boom` that raised
    def boom(*args, **kwargs):
        raise RuntimeError("boom")

    raised_at = boom.__code__.co_firstlineno + 1

    monkeypatch.setattr(*FIRST_CALL[check], boom)
    n, ring = CHECKS[check][0][0]
    args = [check, "--trials", "1"] + (["--n", str(n), "--ring", ring.name] if n else [])
    code, doc = run_json(capsys, args)
    assert code == 1
    assert doc["failed"] == len(doc["reports"]) == 1
    assert doc["reports"][0]["status"] == "error"
    assert doc["reports"][0]["details"] == [f"RuntimeError: boom (at test_cli.py:{raised_at} in boom)"]


def test_unknown_check_is_usage_error(capsys):
    assert main(["not-a-check"]) == 2
    capsys.readouterr()


def test_unknown_ring_is_usage_error(capsys):
    assert main(["relations", "--ring", "gf9"]) == 2
    capsys.readouterr()


def test_reports_sorted_and_deterministic(capsys):
    args = ["rho-xi", "--n", "2", "--trials", "5", "--seed", "7"]
    code1, doc1 = run_json(capsys, args)
    code2, doc2 = run_json(capsys, args)
    assert code1 == code2 == 0
    for doc in (doc1, doc2):
        for report in doc["reports"]:
            report["elapsed_ms"] = 0
    assert doc1 == doc2
    keys = [(r["check"], r["n"], r["ring"]) for r in doc1["reports"]]
    assert keys == sorted(keys)


def test_seed_recorded_and_changes_sampling(capsys):
    _, doc = run_json(capsys, ["rho-xi", "--n", "2", "--ring", "gf3", "--seed", "9", "--trials", "3"])
    assert doc["reports"][0]["seed"] == 9


def test_run_api_grid_override():
    reports = run("classify", 3, ring_by_name("gf2"), trials=5, seed=0)
    assert len(reports) == 1
    assert reports[0].status == "pass"
    assert "center-nontrivial" in reports[0].details[0]


def test_text_output_contains_summary(capsys):
    code = main(["polar", "--n", "2", "--ring", "gf3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "summary:" in out


def test_polar_negative_control_passes_as_predicted(capsys):
    code, doc = run_json(capsys, ["polar", "--n", "2", "--ring", "gf3"])
    assert code == 0
    assert doc["reports"][0]["status"] == "pass"
    assert "differs" in doc["reports"][0]["details"][0]


def test_degree4_counterexample_details(capsys):
    code, doc = run_json(capsys, ["degree4-counterexample", "--ring", "gf4"])
    assert code == 0
    assert doc["reports"][0]["status"] == "pass"
    assert any("4096 candidates, all moved" in d for d in doc["reports"][0]["details"])


def test_trials_below_one_is_usage_error(capsys):
    for args in (
        ["relations", "--n", "2", "--ring", "gf2", "--trials", "-5"],
        ["pgo-invariance", "--n", "4", "--ring", "gf2", "--trials", "0"],
    ):
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "usage: cliffqp" in captured.err and "--trials" in captured.err


def test_rank_above_max_is_usage_error(capsys):
    assert main(["relations", "--n", "30"]) == 2  # refused before any matrix is built
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage: cliffqp" in captured.err and f"1..{MAX_N}" in captured.err


def test_sl_into_alt_runs_at_rank_8(capsys):
    # Alt membership reads tau-orbits, so sl-into-alt has no rank cap below MAX_N
    code, doc = run_json(capsys, ["sl-into-alt", "--n", "8", "--ring", "gf2", "--trials", "1"])
    assert code == 0
    assert doc["passed"] == 1 and doc["failed"] == doc["skipped"] == 0
    assert doc["reports"][0]["n"] == 8


def test_canonical_semitrace_draws_at_most_trials_representatives(capsys):
    for trials, drawn in (("1", 1), ("100", 20)):
        args = ["canonical-semitrace", "--n", "4", "--ring", "gf2", "--trials", trials]
        details = run_json(capsys, args)[1]["reports"][0]["details"]
        assert f"{drawn} random trace-1 representatives give the same semi-trace" in details


def test_degree4_checks_skip_other_ranks(capsys):
    for check in ("degree4-alt", "degree4-counterexample"):
        for n in ("1", "3"):
            code, doc = run_json(capsys, [check, "--n", n])
            assert code == 0
            assert doc["passed"] == doc["failed"] == 0 and doc["skipped"] == len(doc["reports"]) > 0
            for report in doc["reports"]:
                assert report["n"] == int(n)
                assert "n = 2" in report["details"][0]


def test_rank_below_range_is_declared_skip(capsys):
    for check, reason in (("sl-into-alt", "needs n >= 3"), ("classify", "needs n >= 2")):
        code, doc = run_json(capsys, [check, "--n", "1"])
        assert code == 0
        assert doc["failed"] == 0 and doc["skipped"] == len(doc["reports"]) > 0
        for report in doc["reports"]:
            assert report["status"] == "skipped"
            assert reason in report["details"][0]


def test_same_seed_gives_identical_json_in_one_process(capsys):
    # the README contract: same seed and flags, same JSON text apart from elapsed_ms
    # the whole grid as well: the cached generator, pair and monomial matrices
    # are shared between cells and must come out of every run unchanged
    for args, passed in (
        (["rho-xi", "--n", "3", "--ring", "q", "--seed", "3"], 1),
        (["rho-xi", "--n", "3", "--ring", "z", "--seed", "3"], 1),
        (["gram", "--n", "3", "--ring", "gf4", "--seed", "3"], 1),
        (["canonical-semitrace", "--n", "4", "--ring", "gf2", "--seed", "3"], 1),
        (["all", "--trials", "1", "--seed", "0"], 111),
    ):
        texts = []
        for _ in range(2):
            assert main(args + ["--json"]) == 0
            text = capsys.readouterr().out
            assert json.loads(text)["passed"] == passed
            texts.append(re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', text))
        assert texts[0] == texts[1]


def test_same_seed_gives_identical_json_across_processes():
    # the contract must not lean on one interpreter's hash order: two fresh
    # processes with different PYTHONHASHSEED give the same JSON text
    src = str(Path(cliffqp.__file__).resolve().parent.parent)
    for args in (
        ["classify", "--n", "4"],
        ["gram", "--n", "3"],
        ["q-wedge-correspondence", "--n", "4", "--ring", "gf3", "--trials", "5"],
    ):
        texts = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
            done = subprocess.run(
                [sys.executable, "-m", "cliffqp.cli", *args, "--json"],
                env=env, capture_output=True, text=True, timeout=300,
            )
            assert done.returncode == 0, done.stderr
            assert json.loads(done.stdout)["failed"] == 0
            texts.append(re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', done.stdout))
        assert texts[0] == texts[1]
