"""One benchmark session: a fresh interpreter that imports cliffqp from the
checkout, sets up, and runs passes over a workload's pinned cells.

run.py starts it as `python3 -I perfbench/session.py SPEC`, where SPEC is a
JSON object with the keys

    root       the checkout, which holds src/cliffqp
    workload   a name in workloads.WORKLOADS
    spawn_ns   time.monotonic_ns() just before the parent started this process
    seed       the run's seed, also that of the warm-up pass of a warm workload
    passes     [[kind, seed], ...]; kind is "plain", "traced" or "counted"
    seconds    optional: then plain passes in pairs at seeds seed, seed+1, ...
               while another pair fits in this many seconds of passes
    spans      optional path for the spans of the traced pass

A pass runs every pinned cell once through `cliffqp.cli.main` with `--json`.
A SpeedSampler runs from the start of the session to its end; every timed
interval (set-up, pass, cell) is reported with the [count, total] of the
speed samples taken during it.  The session prints one JSON line with what
it measured.  It exits with 3, printing nothing on stdout, when cliffqp
cannot be imported from the checkout.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from speed import SpeedSampler  # noqa: E402
from tracer import RingOpCounter, Tracer  # noqa: E402
from workloads import (  # noqa: E402
    TRIALS, WARMUP_TRIALS, WORKLOADS, another_pair, cell_argv, expected_status,
)

# Report fields compared across runs; elapsed_ms and any field this list
# does not name are left out of the determinism digest.
REPORT_KEYS = ("check", "n", "ring", "status", "details", "seed")
DOCUMENT_KEYS = ("passed", "failed", "skipped")
SETUP_BURST = 20  # extra speed samples right after set-up, which may be short


def import_cli(root: Path):
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    from cliffqp import cli

    if src not in Path(cli.__file__).resolve().parents:
        raise ImportError(f"cliffqp was imported from {cli.__file__}, not from {src}")
    return cli


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def judge(cell, rc, out: str) -> tuple[str, bool, str]:
    """(status, as expected, digest of the deterministic fields)."""
    try:
        doc = json.loads(out)
        (report,) = doc["reports"]
    except (ValueError, KeyError, TypeError):
        return f"unparsed (exit {rc})", False, ""
    check, n, ring = cell
    status = report.get("status")
    ok = (
        rc == 0
        and report.get("check") == check
        and (n is None or (report.get("n"), report.get("ring")) == (n, ring))
        and status == expected_status(cell)
    )
    kept = {
        "document": {k: doc.get(k) for k in DOCUMENT_KEYS},
        "report": {k: report.get(k) for k in REPORT_KEYS},
    }
    digest = hashlib.sha256(json.dumps(kept, sort_keys=True).encode()).hexdigest()[:16]
    return str(status), ok, digest


def delta(before: list, after: list) -> list:
    return [after[0] - before[0], after[1] - before[1]]


def run_cell(cli, sampler, cell, trials: int, seed: int) -> list:
    """[elapsed_s, status, ok, digest, cpu_s, speed samples] of one cell."""
    buf = io.StringIO()
    mark = sampler.mark()
    cpu0 = cpu_seconds()
    started = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        try:
            rc = cli.main(cell_argv(cell, trials, seed))
        except (Exception, SystemExit) as exc:  # a crash is a failed cell
            rc = f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - started
    cpu = cpu_seconds() - cpu0
    speed = delta(mark, sampler.mark())
    status, ok, digest = judge(cell, rc, buf.getvalue())
    return [elapsed, status, ok, digest, cpu, speed]


def run_pass(cli, sampler, cells, seed: int, kind: str) -> dict:
    mark = sampler.mark()
    cpu0 = cpu_seconds()
    started = time.perf_counter()
    results = [run_cell(cli, sampler, cell, TRIALS, seed) for cell in cells]
    return {
        "kind": kind,
        "seed": seed,
        "wall_s": time.perf_counter() - started,
        "cpu_s": cpu_seconds() - cpu0,
        "speed": delta(mark, sampler.mark()),
        "cells": results,
    }


def main(spec: dict) -> int:
    sampler = SpeedSampler()
    sampler.start()
    try:
        return measure(spec, sampler)
    finally:
        sampler.stop()


def measure(spec: dict, sampler) -> int:
    root = Path(spec["root"])
    workload = WORKLOADS[spec["workload"]]
    try:
        cli = import_cli(root)
    except ImportError as exc:
        print(f"session: cannot import cliffqp from {root / 'src'}: {exc}", file=sys.stderr)
        return 3
    warmup_failures = []
    if workload.warm:
        for cell in workload.cells:
            status, ok = run_cell(cli, sampler, cell, WARMUP_TRIALS, spec["seed"])[1:3]
            if not ok:
                warmup_failures.append([list(cell), status])
    setup_s = (time.monotonic_ns() - spec["spawn_ns"]) / 1e9
    for _ in range(SETUP_BURST):
        sampler.sample()
    setup_speed = sampler.mark()

    passes = []
    traces = {}
    for kind, seed in spec["passes"]:
        if kind == "traced":
            tracer = Tracer()
            tracer.install()
            try:
                passes.append(run_pass(cli, sampler, workload.cells, seed, kind))
            finally:
                tracer.uninstall()
            traces["tracer"] = tracer.summary()
            if spec.get("spans"):
                tracer.write_spans(spec["spans"])
        elif kind == "counted":
            counter = RingOpCounter()
            counter.install()
            try:
                passes.append(run_pass(cli, sampler, workload.cells, seed, kind))
            finally:
                counter.uninstall()
            traces["ring_ops"] = {"counts": counter.counts, "absent": counter.absent}
        else:
            passes.append(run_pass(cli, sampler, workload.cells, seed, kind))

    if spec.get("seconds"):
        seed, walls = spec["seed"], []
        while another_pair(walls, spec["seconds"]):
            for _ in range(2):
                passes.append(run_pass(cli, sampler, workload.cells, seed, "plain"))
                walls.append(passes[-1]["wall_s"])
            seed += 1

    print(json.dumps({
        "setup_s": setup_s,
        "setup_speed": setup_speed,
        "warmup_failures": warmup_failures,
        "passes": passes,
        "traces": traces,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(json.loads(sys.argv[1])))
