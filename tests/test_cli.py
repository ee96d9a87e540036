"""The verification CLI: grids, statuses, JSON shape, determinism, exit codes."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import cliffqp
from cliffqp import canonical, clifford, forms, group, sampling
from cliffqp.cli import CHECKS, MAX_N, main, run
from cliffqp.clifford import CliffordElement
from cliffqp.errors import UnsupportedRingError
from cliffqp.exterior import ExteriorVector
from cliffqp.involution import SemiTrace
from cliffqp.linalg import Matrix
from cliffqp.rings import GF3, ring_by_name


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
    assert doc["reports"][0]["status"] == "pass"  # t is an indeterminate, not an element of gf2


# The package function each check's runner calls first; the runners of the
# semi-trace checks first build the canonical semi-trace they certify.
FIRST_CALL = {
    "relations": (clifford, "relation_suite"),
    "gram": (forms, "gram_agreement_suite"),
    "classify": (clifford, "classify_even_involution"),
    "polar": (forms, "polar_matches_prediction"),
    "sl-into-alt": (canonical, "check_sl_into_alt"),
    "rho-xi": (canonical, "rho_xi_check"),
    "canonical-semitrace": (canonical, "canonical_semitrace"),
    "q-wedge-correspondence": (canonical, "canonical_semitrace"),
    "pgo-invariance": (canonical, "canonical_semitrace"),
    "degree4-alt": (canonical, "degree4_alt_report"),
    "degree4-counterexample": (canonical, "degree4_no_canonical"),
    "base-change": (canonical, "base_change_report"),
    "cross-check": (sampling, "phi_square"),
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


def _negate_odd_row(gram):
    # mask 1 has one member: only the odd block loses its symmetry
    ring = gram.ring
    triples = ((r, c, ring.neg(v) if r == 1 else v) for r, c, v in gram.nonzeros())
    return Matrix.from_nonzeros(ring, gram.rows, gram.cols, triples)


def _add_diagonal_unit(gram):
    # symmetric still, but no longer alternating
    return gram + Matrix.from_nonzeros(gram.ring, gram.rows, gram.cols, [(0, 0, gram.ring.one)])


@pytest.mark.parametrize(
    "n, ring, mutate, detail",
    [
        (4, "gf3", _negate_odd_row, "verdict unclassified does not match the prediction orthogonal"),
        (4, "gf2", _add_diagonal_unit, "verdict orthogonal does not match the prediction orthogonal+symplectic"),
    ],
)
def test_classify_fails_on_a_mutated_gram(capsys, monkeypatch, n, ring, mutate, detail):
    # the verdict must equal the prediction, over the whole Gram matrix: a
    # mutant in one parity block, or one that drops a label, fails the cell
    args = ["classify", "--n", str(n), "--ring", ring, "--trials", "1"]
    assert run_json(capsys, args)[0] == 0  # fills tau's cached G^-1 with the true one
    gram = clifford.b_wedge_gram(ring_by_name(ring), n)
    monkeypatch.setattr(clifford, "b_wedge_gram", lambda *_: mutate(gram))
    code, doc = run_json(capsys, args)
    assert code == 1
    assert doc["reports"][0]["details"] == [detail]


def test_a_flipped_generator_sign_fails_relations_and_rho_xi(capsys, monkeypatch, fresh_generator_caches):
    # v1 at n=3 sends column 0 to row 1 with sign -1 instead of +1: the
    # generator identities and c(M) both read the composed supports, and
    # each cell names its witness (over gf2 the sign is invisible)
    units = clifford._generator_units
    (r, c, parity), *rest = units(3, 0)
    flipped = ((r, c, parity ^ 1), *rest)
    monkeypatch.setattr(clifford, "_generator_units", lambda n, k: flipped if (n, k) == (3, 0) else units(n, k))
    for check, witness in (("relations", "v1 v2 + v2 v1 is not 0 Id on unit "), ("rho-xi", "(Id + tau) c(E_ij) is not trace(E_ij) Id on unit ")):
        code, doc = run_json(capsys, [check, "--n", "3", "--ring", "gf3", "--trials", "5"])
        report = doc["reports"][0]
        assert code == 1 and report["status"] == "fail"
        assert any(line.startswith(witness) for line in report["details"]), report["details"]


def test_degree4_counterexample_details(capsys):
    code, doc = run_json(capsys, ["degree4-counterexample"])
    assert code == 0
    assert [(r["ring"], r["status"]) for r in doc["reports"]] == [("gf2", "pass"), ("gf4", "pass")]
    for r in doc["reports"]:
        assert r["details"][-1] == (
            f"B(t) over {r['ring']}[t] moves every candidate: the t coefficient of g^-1 l g - l "
            "is v1v2* + a5 (v1v1* + v2v2*), alternating for no a5"
        )


def test_trials_below_one_is_usage_error(capsys):
    for args in (
        ["relations", "--n", "2", "--ring", "gf2", "--trials", "-5"],
        ["pgo-invariance", "--n", "4", "--ring", "gf2", "--trials", "0"],
    ):
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "usage: cliffqp" in captured.err and "--trials" in captured.err


@pytest.mark.parametrize("flags", (["--n", "2"], ["--ring", "q"], ["--n", "2", "--ring", "q"]))
def test_base_change_refuses_n_and_ring(capsys, flags):
    # its one cell is GF(2) -> GF(4) at n = 2, 3, 4, 5: a rank or ring asked
    # for would be ignored, so the invocation is malformed
    assert main(["base-change", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage: cliffqp" in captured.err and "base-change takes neither --n nor --ring" in captured.err


def test_base_change_draws_nothing(capsys):
    # the certificate reads neither the trial count nor the seed
    cells = set()
    for trials in ("1", "100"):
        for seed in ("0", "7"):
            (cell,) = run_json(capsys, ["base-change", "--trials", trials, "--seed", seed])[1]["reports"]
            cells.add((cell["status"], *cell["details"]))
    assert len(cells) == 1 and cells.pop()[0] == "pass"


def test_all_still_runs_base_change_under_n_or_ring(capsys):
    for flags in (["--n", "2"], ["--ring", "gf2"]):
        reports = run_json(capsys, ["all", *flags, "--trials", "1"])[1]["reports"]
        cell = [r for r in reports if r["check"] == "base-change"]
        assert [(r["n"], r["ring"], r["status"]) for r in cell] == [(None, "gf2->gf4", "pass")]


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


def test_cross_check_draws_exactly_trials_per_route(capsys, monkeypatch):
    # (4, gf3) runs all seven routes; each sampler is counted as it is called
    calls = {}
    for name in ("random_matrix", "random_trace_zero", "random_even_element", "random_clifford_element",
                 "random_exterior", "sample_orthogonal"):
        def counted(*args, _honest=getattr(sampling, name), _name=name, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _honest(*args, **kwargs)

        monkeypatch.setattr(sampling, name, counted)
    for trials in (1, 7):
        calls.clear()
        args = ["cross-check", "--n", "4", "--ring", "gf3", "--trials", str(trials)]
        (report,) = run_json(capsys, args)[1]["reports"]
        assert report["status"] == "pass"
        assert len(report["details"]) == 7
        assert all(line.startswith(f"{trials} random ") for line in report["details"])
        assert calls == {
            "random_clifford_element": 2 * trials,  # a pair per trial
            "random_matrix": 3 * trials,  # one per dense M, and one inside each random_clifford_element
            "random_trace_zero": trials,
            "random_even_element": trials,
            "random_exterior": 2 * trials,  # trials per parity block
            "sample_orthogonal": trials,
        }


PALETTE_NAMES = ("gf2", "gf3", "gf4", "q")

# Each route's cells, written out rather than read from CHECKS: the default
# cells of its home checks where the route is defined.  They are the cells
# whose certified checks drew these inputs when each ran its own random
# cross-check, so that no cell lost one; their union is the cross-check grid.
ROUTE_CELLS = {
    "phi_square": [(n, r) for n in (1, 2, 3, 4, 5, 6) for r in PALETTE_NAMES],  # relations
    "involution_pairs": [(n, r) for n in (1, 2, 3, 4) for r in PALETTE_NAMES],  # gram at n <= 4
    "trace_zero_into_alt": [(3, "gf2"), (3, "gf3"), (4, "gf2"), (4, "gf3"), (4, "q"), (6, "gf2")],
    "dense_rho_xi": [(n, r) for n in (2, 3, 4) for r in PALETTE_NAMES],
    "semitrace_defining": [(4, "gf2"), (4, "gf3"), (4, "q"), (6, "gf2")],
    "rank_one_values": [(4, "gf2"), (4, "gf3"), (4, "q"), (6, "gf2")],
    "orthogonal_words": [(4, "gf2"), (4, "gf3"), (6, "gf2"), (6, "gf4"), (8, "gf2"), (8, "gf3")],
}


def test_cross_check_runs_each_route_at_its_home_cells(monkeypatch):
    ran = []
    for name in ROUTE_CELLS:
        def recorded(ring, n, rng, trials, _honest=getattr(sampling, name), _name=name):
            out = _honest(ring, n, rng, trials)  # raises where the route is not defined
            ran.append((n, ring.name, _name))
            return out

        monkeypatch.setattr(sampling, name, recorded)
    reports = run("cross-check", None, None, 1, 0)
    assert [r.status for r in reports] == ["pass"] * 26
    grid = {(n, r) for cells in ROUTE_CELLS.values() for n, r in cells}
    assert {(r.n, r.ring) for r in reports} == grid
    assert grid == {(n, r) for n in (1, 2, 3, 4, 5, 6) for r in PALETTE_NAMES} | {(8, "gf2"), (8, "gf3")}
    for name, cells in ROUTE_CELLS.items():
        assert [(n, r) for n, r, route in ran if route == name] == cells, name
    order = list(ROUTE_CELLS)
    for n, r in grid:
        routes = [route for cn, cr, route in ran if (cn, cr) == (n, r)]
        assert routes == sorted(routes, key=order.index), (n, r)


def test_a_cell_without_a_route_is_a_declared_skip(capsys):
    for args in (["--ring", "z"], ["--n", "7"], ["--n", "8", "--ring", "q"]):
        code, doc = run_json(capsys, ["cross-check", *args, "--trials", "1"])
        assert code == 0 and doc["passed"] == doc["failed"] == 0 and doc["skipped"] == len(doc["reports"]) > 0
        for report in doc["reports"]:
            assert report["details"] == [f"no random comparison is cross-checked at n={report['n']} over {report['ring']}"]


def _dense(x) -> bool:
    """Whether an input holds more than one nonzero: the certificates read units only."""
    if isinstance(x, CliffordElement):
        x = x.matrix
    if isinstance(x, Matrix):
        return len(list(x.nonzeros())) > 1
    if isinstance(x, ExteriorVector):
        return len(x.terms) > 1
    return sum(1 for c in x if c) > 1  # module coefficients


ONE = CliffordElement.identity(GF3, 4)

def _plus_one(honest, at=-1):
    """honest plus 1 on a dense argument (the one at position `at`)."""
    def wrong(*args):
        value = honest(*args)
        if not _dense(args[at]):
            return value
        return value + ONE if isinstance(value, CliffordElement) else GF3.add(value, GF3.one)

    return wrong


# Each route's fast side, made wrong on dense input at (4, gf3): (owner,
# attribute, wrong version of the honest one, the witness of the route).
WRONG_ON_DENSE = {
    "phi_square": (sampling, "phi_vector", _plus_one, "Phi(m)^2 != q(m) Id"),
    "involution_pairs": (sampling, "tau_relabel", _plus_one, "canonical_involution is not the unit rule"),
    "trace_zero_into_alt": (
        sampling, "in_alternating", lambda honest: lambda x: honest(x) and not _dense(x), "c(M) not alternating"
    ),
    "dense_rho_xi": (sampling, "canonical_map_c", _plus_one, "(Id + tau) c(M) is not trace(M) Id"),
    "semitrace_defining": (SemiTrace, "evaluate", _plus_one, "f(x + tau x) ="),
    "rank_one_values": (SemiTrace, "evaluate_rank_one", _plus_one, "f(rank-one) ="),
    "orthogonal_words": (
        group, "lifted_generator", lambda honest: lambda *a: (honest(*a)[0], ONE, ONE), "the lift does not induce the generator"
    ),
}


@pytest.mark.parametrize("route", list(WRONG_ON_DENSE))
def test_the_cross_check_fails_when_a_fast_route_is_wrong_on_dense_input(monkeypatch, route):
    owner, name, wrong, witness = WRONG_ON_DENSE[route]
    monkeypatch.setattr(owner, name, wrong(getattr(owner, name)))
    (report,) = run("cross-check", 4, GF3, 3, 0)
    assert report.status == "fail"
    assert any(witness in line for line in report.details), report.details


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
        (["all", "--trials", "1", "--seed", "0"], 159),
    ):
        texts = []
        for _ in range(2):
            assert main(args + ["--json"]) == 0
            text = capsys.readouterr().out
            assert json.loads(text)["passed"] == passed
            texts.append(re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', text))
        assert texts[0] == texts[1]
    # the last pair is the whole grid, which also matches its recorded text:
    # a change to any status or detail of `all` must update the golden file
    assert texts[0] == (Path(__file__).parent / "golden" / "all-trials1-seed0.json").read_text()


@pytest.mark.parametrize(("ring", "passed", "skipped"), [("z", 30, 18), ("gf5", 35, 13)])
def test_all_over_another_ring_matches_its_golden_file(capsys, ring, passed, skipped):
    # the whole grid over z and over gf5, against its recorded text: a ring
    # guard that stops refusing would turn one of the declared skips into a pass
    assert main(["all", "--ring", ring, "--seed", "0", "--json"]) == 0
    text = re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', capsys.readouterr().out)
    doc = json.loads(text)
    assert (doc["passed"], doc["failed"], doc["skipped"]) == (passed, 0, skipped)
    assert text == (Path(__file__).parent / "golden" / f"all-ring-{ring}-seed0.json").read_text()


@pytest.mark.parametrize(
    "check", ["relations", "rho-xi", "pgo-invariance", "gram", "canonical-semitrace", "q-wedge-correspondence"]
)
def test_checks_at_their_default_trials_match_their_golden_files(capsys, check):
    # each check's default grid at its default trials, against its recorded
    # text: a change to a status or a detail shows here; a drawn value shows
    # only in a failure witness, and tests/test_rings.py pins the streams
    assert main([check, "--seed", "0", "--json"]) == 0
    text = re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', capsys.readouterr().out)
    assert text == (Path(__file__).parent / "golden" / f"{check}-seed0.json").read_text()


def test_a_route_undefined_over_the_ring_leaves_the_other_routes_running(capsys, monkeypatch):
    # a route that refuses the ring drops out of the cell, as an ineligible
    # one does; the cell still reports the other six routes
    def refuse(*cell):
        raise UnsupportedRingError("phi_square refuses this ring")

    monkeypatch.setattr(sampling, "phi_square", refuse)
    status, doc = run_json(capsys, ["cross-check", "--n", "4", "--ring", "gf3"])
    [report] = doc["reports"]
    assert status == 0 and report["status"] == "pass"
    assert len(report["details"]) == 6 and not any("Phi(m)^2" in d for d in report["details"])


def test_only_the_cross_check_reads_the_seed_and_the_trials(capsys):
    # every certificate draws nothing: its reports do not move with --seed
    # or --trials, and the cross-check cells are the only ones that may
    docs = [run_json(capsys, ["all", "--seed", seed, "--trials", n])[1] for seed, n in (("0", "1"), ("5", "7"))]
    certified = [
        [{**r, "elapsed_ms": 0, "seed": 0} for r in doc["reports"] if r["check"] != "cross-check"] for doc in docs
    ]
    assert len(certified[0]) == 134 and certified[0] == certified[1]
    crossed = [[r["details"] for r in doc["reports"] if r["check"] == "cross-check"] for doc in docs]
    assert len(crossed[0]) == 26 and crossed[0] != crossed[1]


def test_every_q_wedge_cell_has_its_polar_premise():
    # the coefficient certificate presumes that polar(q_wedge) is the pairing
    assert set(CHECKS["q-wedge-correspondence"][0]) <= set(CHECKS["polar"][0])


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


@pytest.mark.parametrize("fmt", (["--json"], []), ids=("json", "text"))
def test_a_closed_stdout_keeps_the_exit_status_and_prints_no_traceback(fmt):
    # the read end of the child's stdout is closed before the child starts,
    # as `cliffqp ... | head -c 10` closes it early; the run still passes.
    # stdout is block-buffered, as for a user, so the exit flush is covered
    src = str(Path(cliffqp.__file__).resolve().parent.parent)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"} | {"PYTHONPATH": src}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "cliffqp.cli", "polar", "--n", "2", "--ring", "gf3", *fmt],
            env=env, stdout=write_end, stderr=subprocess.PIPE,
            text=True, timeout=300,
        )
    finally:
        os.close(write_end)
    assert done.returncode == 0
    assert "Traceback" not in done.stderr and "BrokenPipeError" not in done.stderr
