"""The cliffqp benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds src/cliffqp.  Every pass runs the
workload's pinned cells one after another, each through
`cliffqp.cli.main([check, "--n", n, "--ring", r, "--trials", "100",
"--seed", seed, "--json"])`, in a child process with one thread.  Passes
come in pairs at one seed (seeds N, N+1, ...), and the two reports of every
cell in a pair must agree apart from timing fields.

With --trace 0 the run measures the end-to-end metrics:

    setup_s         interpreter start until the workload is ready to time
                    (imports; for warm workloads also a one-trial warm-up
                    pass over every cell, which fills the module caches);
                    median over several fresh processes
    wall_s          wall time of one pass, median over the passes
    cpu_s           user + sys CPU time of one pass, children included,
                    median over the passes
    slowest_cell_s  wall time of the slowest cell, its median over the passes
    peak_rss_mb     peak resident memory of the workload processes

Every time is scaled to the reference speed of speed.py: a calibration
snippet timed every 20 ms inside the session measures how much the shared
core is slowing the work down, and each time is divided by that slowdown.
The times as measured are printed beside them.  The fail ratio (cells whose
status differs from the pinned expectation over cells attempted) is printed
too; in the JSON result it is `failed` over `attempted`.

grid-all runs each pass in a fresh process, so every cache starts cold; the
warm workloads run all their passes in one process after the warm-up.

With --trace 1 the run makes three passes at seed N: a plain one, one with
every public function in tracer.TARGETS wrapped (calls and self time per
function), and one counting the calls into each ring's methods.  It reports
those per-layer figures and trace.overhead_ratio, the traced pass's wall time
over the plain pass's.

Every cell's status must equal its pinned expectation.  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics; the lines before it print the same metrics as a table, with the
fail ratio and the provenance.  A full record, and the spans of a traced run,
go to .bench_out/ in the checkout.  Without src/cliffqp in the checkout the
run exits with 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

from speed import factor  # noqa: E402
from tracer import RING_NAMES, TARGETS  # noqa: E402
from workloads import TRIALS, WORKLOADS, another_pair, cells_hash  # noqa: E402

BUDGET_S = 170  # every run must end within 180 s
SETUP_SESSIONS = 4  # fresh processes that only set up, for setup_s ...
SETUP_BUDGET_S = 5.0  # ... fewer, but at least 2, when set-up is slow
END_TO_END = (
    ("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"), ("slowest_cell_s", "s"), ("peak_rss_mb", "MB"),
)


class ProgramMissing(Exception):
    pass


class Runner:
    """Starts the sessions of one run, one at a time, within the budget."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + BUDGET_S
        self.errors: list[str] = []

    def session(self, passes, seconds=None, spans=None) -> dict | None:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            self.errors.append("time budget used up before a session could start")
            return None
        spec = {
            "root": str(ROOT),
            "workload": self.workload,
            "seed": self.seed,
            "passes": passes,
            "seconds": seconds,
            "spans": str(spans) if spans else None,
            "spawn_ns": time.monotonic_ns(),
        }
        proc = subprocess.Popen(
            [sys.executable, "-I", str(HERE / "session.py"), json.dumps(spec)],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            out, err = proc.communicate(timeout=remaining)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            self.errors.append(f"session {passes} timed out")
            return None
        if proc.returncode == 3:
            raise ProgramMissing(err.strip())
        lines = out.strip().splitlines()
        try:
            if proc.returncode == 0 and lines:
                return json.loads(lines[-1])
        except ValueError:
            pass
        self.errors.append(f"session {passes} exited {proc.returncode}: {err.strip()[-2000:]}")
        return None


def run_untraced(runner: Runner, workload, seconds: int) -> list[dict]:
    """The sessions of an untraced run: some that only set up, then the
    measuring ones."""
    sessions: list = []
    while len(sessions) < SETUP_SESSIONS and (
        len(sessions) < 2 or sum(s["setup_s"] for s in sessions) < SETUP_BUDGET_S
    ):
        done = runner.session([])
        if done is None:
            return sessions
        sessions.append(done)
    if workload.warm:
        sessions.append(runner.session([], seconds=seconds))
    else:
        walls: list = []
        seed = runner.seed
        while another_pair(walls, seconds):
            pair = [runner.session([["plain", seed]]) for _ in range(2)]
            sessions += pair
            if None in pair:
                break
            walls += [s["passes"][0]["wall_s"] for s in pair]
            seed += 1
    return [s for s in sessions if s is not None]


def run_traced(runner: Runner, workload, spans: Path) -> list[dict]:
    """The sessions of a traced run: plain, traced and counted passes at one seed."""
    steps = [["plain", runner.seed], ["traced", runner.seed], ["counted", runner.seed]]
    if workload.warm:
        sessions = [runner.session(steps, spans=spans)]
    else:
        sessions = [runner.session([step], spans=spans) for step in steps]
    return [s for s in sessions if s is not None]


def verify(workload, passes: list, warmup_failures: list) -> tuple[int, int, list[str]]:
    """(cells attempted, cells failed, problems) over all passes.

    A cell fails when its status differs from the pinned expectation, its
    exit code is not 0 or its output does not parse; a pass that is missing
    cells counts the missing ones as failed.  Passes at one seed must give
    the same digest for every cell.
    """
    problems = []
    attempted = failed = 0
    want = len(workload.cells)
    for p in passes:
        attempted += want
        ran = p["cells"]
        failed += want - len(ran) + sum(1 for c in ran if not c[2])
        for cell, c in zip(workload.cells, ran):
            if not c[2]:
                problems.append(f"seed {p['seed']} {p['kind']}: {cell} gave {c[1]}")
    for cell, status in warmup_failures:
        attempted += 1
        failed += 1
        problems.append(f"warm-up: {tuple(cell)} gave {status}")
    by_seed: dict = {}
    for p in passes:
        digests = [c[3] for c in p["cells"]]
        first = by_seed.setdefault(p["seed"], digests)
        if digests != first:
            bad = [str(cell) for cell, a, b in zip(workload.cells, first, digests) if a != b]
            problems.append(f"seed {p['seed']}: reports differ between passes for {', '.join(bad)}")
    return attempted, failed, problems


def per_layer_names() -> list[tuple[str, str]]:
    """(metric name, unit) of every per-layer metric a traced run prints."""
    names = []
    for stem in TARGETS:
        names += [(f"{stem}.calls", "count"), (f"{stem}.self_s", "s")]
    names += [(f"rings.ops.{r}", "count") for r in RING_NAMES]
    return names + [("trace.overhead_ratio", "ratio"), ("trace.absent_symbols", "count")]


def layer_metrics(passes: list, traces: dict) -> dict:
    tracer = traces.get("tracer", {"functions": {}, "absent": list(TARGETS)})
    ring_ops = traces.get("ring_ops", {"counts": {}, "absent": list(RING_NAMES)})
    kinds = {p["kind"]: p for p in passes}
    traced_f = factor(kinds["traced"]["speed"]) if "traced" in kinds else 1.0
    values = {}
    for stem in TARGETS:
        f = tracer["functions"].get(stem, {"calls": 0, "self_s": 0.0})
        values[f"{stem}.calls"] = f["calls"]
        values[f"{stem}.self_s"] = f["self_s"] * traced_f
    for r in RING_NAMES:
        values[f"rings.ops.{r}"] = ring_ops["counts"].get(r, 0)
    values["trace.overhead_ratio"] = (
        kinds["traced"]["wall_s"] * traced_f / (kinds["plain"]["wall_s"] * factor(kinds["plain"]["speed"]))
        if "traced" in kinds and "plain" in kinds else 0.0
    )
    values["trace.absent_symbols"] = len(tracer["absent"]) + len(ring_ops["absent"])
    return {name: {"value": values[name], "unit": unit} for name, unit in per_layer_names()}


def time_medians(sessions: list, passes: list, scale: bool) -> dict:
    """Median set-up time, pass wall and CPU time, and the slowest cell by
    its median over the passes; at the reference speed when `scale`."""
    med = statistics.median
    f = factor if scale else lambda samples, fallback=1.0: 1.0
    cells = zip(*([c[0] * f(c[5], f(p["speed"])) for c in p["cells"]] for p in passes))
    return {
        "setup_s": med(s["setup_s"] * f(s["setup_speed"]) for s in sessions),
        "wall_s": med(p["wall_s"] * f(p["speed"]) for p in passes),
        "cpu_s": med(p["cpu_s"] * f(p["speed"]) for p in passes),
        "slowest_cell_s": max(med(cell) for cell in cells),
    }


def end_to_end_metrics(sessions: list, passes: list) -> dict:
    values = time_medians(sessions, passes, scale=True)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def provenance(workload, seeds: list) -> dict:
    git_sha = None
    if (ROOT / ".git").exists():
        try:
            git_sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            git_sha = None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": git_sha,
        "src_sha256": src.hexdigest()[:16],
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "workload": workload.name,
        "seeds": seeds,
        "trials": TRIALS,
        "cells": len(workload.cells),
        "cells_sha256": cells_hash(workload.cells),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="cliffqp benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if not (ROOT / "src" / "cliffqp").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'cliffqp'} is missing", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    runner = Runner(workload.name, args.seed)
    try:
        if args.trace:
            sessions = run_traced(runner, workload, OUT / f"spans-{tag}.json.gz")
        else:
            sessions = run_untraced(runner, workload, args.seconds)
    except ProgramMissing as exc:
        print(f"no program to measure: {exc}", file=sys.stderr)
        return 2
    passes = [p for s in sessions for p in s["passes"]]
    if not passes:
        print("no pass completed: " + "; ".join(runner.errors), file=sys.stderr)
        return 1
    warm_failed = [f for s in sessions for f in s["warmup_failures"]]
    traces: dict = {}
    for s in sessions:
        traces.update(s["traces"])

    attempted, failed, problems = verify(workload, passes, warm_failed)
    problems += runner.errors
    if args.trace:
        metrics = layer_metrics(passes, traces)
        raw = {}
        if {p["kind"] for p in passes} != {"plain", "traced", "counted"}:
            problems.append("a traced run needs its plain, traced and counted passes")
    else:
        metrics = end_to_end_metrics(sessions, passes)
        raw = time_medians(sessions, passes, scale=False)
        raw["speed_factor"] = statistics.median(factor(p["speed"]) for p in passes)
    prov = provenance(workload, [p["seed"] for p in passes])

    print(f"workload {workload.name}: {workload.why}")
    print("provenance " + json.dumps(prov))
    samples = {"setup_s": len(sessions), "peak_rss_mb": len(sessions)}
    for name, m in metrics.items():
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']:<6} n={samples.get(name, len(passes))}")
    print(f"  {'fail_ratio':<44} {failed / attempted:>14.6g} ratio  ({failed}/{attempted} cells)")
    if raw:
        print("  as measured, before scaling: " + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()))
    if args.trace:
        absent = traces.get("tracer", {}).get("absent", []) + [
            f"rings.ops.{r}" for r in traces.get("ring_ops", {}).get("absent", [])
        ]
        print("  absent: " + (", ".join(absent) if absent else "none"))
    for line in problems:
        print(f"  problem: {line}")

    record = {
        "provenance": prov,
        "metrics": metrics,
        "as_measured": raw,
        "samples": samples,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "sessions": sessions,
    }
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1))
    correct = failed == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
