"""Tests of the benchmark's own machinery: the pinned cells, the checks on
each run's output, the tracer and the ring-op counter.

Run with `PYTHONPATH=src python -m pytest perfbench` from the repository root.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import run
import session
import speed
from speed import MIN_SAMPLES, REFERENCE_S, factor
from tracer import RingOpCounter, Tracer
from workloads import GRID_ALL, SKIPPED, WORKLOADS, another_pair, cell_argv, cells_hash

from cliffqp import cli, clifford, involution
from cliffqp.clifford import CliffordElement
from cliffqp.linalg import Matrix
from cliffqp.rings import GF2, QQ

HERE = Path(__file__).resolve().parent
SMALL_CELLS = (("rho-xi", 2, "q"), ("relations", 2, "gf2"), ("canonical-semitrace", 4, "gf2"))


def run_cells(cells, seed: int = 5, trials: int = 3) -> None:
    for cell in cells:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(cell_argv(cell, trials, seed)) == 0


def test_pinned_cell_lists():
    assert len(GRID_ALL) == 108 and len(set(GRID_ALL)) == 108
    assert cells_hash(GRID_ALL) == "b3f42e1cb181c72d"
    for w in WORKLOADS.values():
        assert len(set(w.cells)) == len(w.cells)
        assert "\n" not in w.why and len(w.why) <= 200
    assert SKIPPED <= set(GRID_ALL)
    argv = cell_argv(("base-change", None, None), 100, 7)
    assert argv == ["base-change", "--trials", "100", "--seed", "7", "--json"]


def test_pairs_fill_the_time_budget():
    assert another_pair([], 1)
    assert not another_pair([5.0, 5.0], 10)
    assert another_pair([2.0, 2.0], 10)
    assert not another_pair([0.1] * 16, 100)


def test_speed_factor_scales_by_the_mean_sample():
    assert factor([10, 10 * 2 * REFERENCE_S]) == 0.5  # snippet twice as slow: halve the time
    assert factor([MIN_SAMPLES - 1, 1.0], fallback=0.8) == 0.8
    assert factor([0, 0.0]) == 1.0


def test_speed_snippet_allocates_nothing():
    speed._snippet()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        speed._snippet()
        assert tracemalloc.get_traced_memory() == (before, before)
    finally:
        tracemalloc.stop()


def _report(status="pass", **extra):
    doc = {"passed": 1, "failed": 0, "skipped": 0, "reports": [dict(
        check="rho-xi", n=2, ring="q", status=status, details=["d"], elapsed_ms=3, seed=1, **extra
    )]}
    return json.dumps(doc)


def test_judge_compares_only_known_untimed_fields():
    cell = ("rho-xi", 2, "q")
    status, ok, digest = session.judge(cell, 0, _report())
    assert (status, ok) == ("pass", True)
    _, ok2, digest2 = session.judge(cell, 0, _report(counts={"trials": 3}).replace('"elapsed_ms": 3', '"elapsed_ms": 9'))
    assert ok2 and digest2 == digest
    assert not session.judge(cell, 0, _report("skipped"))[1]
    assert not session.judge(cell, 1, _report())[1]
    assert not session.judge(("rho-xi", 3, "q"), 0, _report())[1]
    assert session.judge(cell, 0, "Traceback ...")[:2] == ("unparsed (exit 0)", False)


def test_verify_counts_failures_and_nondeterminism():
    workload = WORKLOADS["char2-wide"]
    good = [[0.1, "pass", True, "a", 0.1, [0, 0.0]] for _ in workload.cells]
    flipped = [list(c) for c in good]
    flipped[1][3] = "b"
    passes = [
        {"seed": 1, "kind": "plain", "cells": good},
        {"seed": 1, "kind": "plain", "cells": flipped},
        {"seed": 2, "kind": "plain", "cells": good[:-1]},
    ]
    attempted, failed, problems = run.verify(workload, passes, [])
    assert (attempted, failed) == (3 * len(workload.cells), 1)
    assert any("reports differ" in p and "'relations', 8, 'gf4'" in p for p in problems)


def test_tracer_counts_calls_through_imported_names():
    original = clifford.canonical_involution
    x = CliffordElement.identity(GF2, 2)
    tracer = Tracer()
    tracer.install()
    try:
        assert involution.canonical_involution is not original
        involution.canonical_involution(x)  # the name bound by `from .clifford import ...`
        Matrix.identity(GF2, 2) == Matrix.identity(GF2, 2)  # a wrapped class attribute
    finally:
        tracer.uninstall()
    assert involution.canonical_involution is original
    assert Matrix.__eq__.__name__ == "__eq__" and not hasattr(Matrix.__eq__, "__wrapped__")
    funcs = tracer.summary()["functions"]
    assert funcs["clifford.canonical_involution"]["calls"] == 1
    assert funcs["linalg.matmul"]["calls"] == 2  # G^-1 x^T G, nested inside the involution
    assert funcs["linalg.Matrix.eq"]["calls"] == 1
    assert tracer.summary()["absent"] == []


def test_tracer_reports_missing_symbols_as_absent():
    tracer = Tracer({
        "linalg.no_such_function": ("linalg", ("no_such_function",)),
        "linalg.Matrix.no_such_method": ("linalg", ("Matrix", "no_such_method")),
        "no_such_module.f": ("no_such_module", ("f",)),
        "linalg.matmul": ("linalg", ("matmul",)),
    })
    tracer.install()
    tracer.uninstall()
    summary = tracer.summary()
    assert summary["absent"] == ["linalg.no_such_function", "linalg.Matrix.no_such_method", "no_such_module.f"]
    assert list(summary["functions"]) == ["linalg.matmul"]


def test_self_time_subtracts_child_spans():
    tracer = Tracer({"a": ("linalg", ("matmul",)), "b": ("linalg", ("rank",))})
    # span 0 (a) covers 0..10 and holds span 1 (b, 2..5) and span 2 (b, 6..7)
    for name, parent, start, end in ((0, -1, 0.0, 10.0), (1, 0, 2.0, 5.0), (1, 0, 6.0, 7.0)):
        tracer.name_ids.append(name)
        tracer.parents.append(parent)
        tracer.starts.append(start)
        tracer.ends.append(end)
    funcs = tracer.summary()["functions"]
    assert funcs["a"] == {"calls": 1, "self_s": 6.0}
    assert funcs["b"] == {"calls": 2, "self_s": 4.0}


def test_traced_calls_repeat_at_one_seed():
    run_cells(SMALL_CELLS)  # fill the module caches first, as the benchmark's warm-up does
    calls = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install()
        try:
            run_cells(SMALL_CELLS)
        finally:
            tracer.uninstall()
        calls.append({k: v["calls"] for k, v in tracer.summary()["functions"].items()})
    assert calls[0] == calls[1]
    assert calls[0]["cli.main"] == len(SMALL_CELLS)
    assert calls[0]["canonical.rho_xi_check"] == 1


def test_ring_op_counts_repeat_at_one_seed():
    run_cells(SMALL_CELLS)
    counts = []
    for _ in range(2):
        counter = RingOpCounter()
        counter.install()
        try:
            run_cells(SMALL_CELLS)
        finally:
            counter.uninstall()
        counts.append(counter.counts)
    assert counts[0] == counts[1]
    assert counts[0]["q"] > 0 and counts[0]["gf2"] > 0 and counts[0]["z"] == 0
    assert "add" not in vars(GF2) and "mul" not in vars(QQ)


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_names()
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_run_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "run.py"),
         "--workload", "grid-all", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
