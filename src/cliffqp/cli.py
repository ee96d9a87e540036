"""Batch verification harness.

Every construction in the package is exposed as a subcommand that runs a
deterministic check grid and reports pass/fail/skip per (n, ring) cell,
as text or as a single JSON document.  A check is one entry of `CHECKS`:
its name, its default cells and the runner of one cell, so adding a check
takes one entry.  Exit status 0 means everything passed or was skipped
for a declared eligibility reason, 1 means some check failed or errored,
2 means the invocation itself was malformed.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from collections.abc import Callable
from dataclasses import asdict, dataclass, field
from pathlib import Path

from . import canonical, clifford, forms, group
from .errors import EligibilityError, UnsupportedRingError
from .reporting import CheckOutcome
from .rings import GF2, GF3, GF4, QQ, RING_BY_NAME, Ring, ring_by_name

DEFAULT_RINGS = (GF2, GF3, GF4, QQ)
DEFAULT_TRIALS = 100
PGO_SAMPLES = 50
# The largest rank whose dense even elements stay under a million entries
# (2 * 4^(n-1)); a larger --n is refused before any matrix is built.
MAX_N = 10

# A runner takes (ring, n, rng, trials) and returns the cell's outcome.  Each
# runner looks its check up on the module when it is called, never earlier,
# so that a function rebound on its module (by a tracer or a test) is the one
# that runs.
Runner = Callable[[Ring, int, random.Random, int], CheckOutcome]


def _classify(ring: Ring, n: int, rng, trials: int) -> CheckOutcome:
    report = clifford.classify_even_involution(ring, n)
    ok, want = clifford.involution_type_matches(report)
    verb = "matches" if ok else "does not match"
    return CheckOutcome(ok, [f"verdict {report.verdict} {verb} the prediction {want}"])


def _at_rank_2(n: int, result: Callable[[], CheckOutcome]) -> CheckOutcome:
    """The outcome of a degree-4 result, which lives at n = 2 only."""
    if n != 2:
        raise EligibilityError(f"the degree-4 results live at n = 2, not n = {n}")
    return result()


# Every check: its default (n, ring) cells and its runner, in the order `all`
# runs them.  A check whose one cell is (None, None) takes neither --n nor --ring.
CHECKS: dict[str, tuple[list[tuple[int | None, Ring | None]], Runner]] = {
    "relations": (
        [(n, r) for n in range(1, 7) for r in DEFAULT_RINGS],
        lambda ring, n, rng, trials: clifford.relation_suite(ring, n, rng, trials),
    ),
    "gram": (
        [(n, r) for n in range(1, 6) for r in DEFAULT_RINGS],
        lambda ring, n, rng, trials: forms.gram_agreement_suite(ring, n).merge(
            clifford.involution_suite(ring, n, rng, min(trials, 100))
        ),
    ),
    "classify": ([(n, r) for n in range(2, 6) for r in DEFAULT_RINGS], _classify),
    "polar": (
        [(n, r) for n in range(2, 6) for r in DEFAULT_RINGS],
        lambda ring, n, rng, trials: forms.polar_matches_prediction(ring, n),
    ),
    "sl-into-alt": (
        [(n, r) for n in (2, 3, 4) for r in (GF2, GF3)],
        lambda ring, n, rng, trials: canonical.check_sl_into_alt(ring, n, rng, randoms=min(trials, 50)),
    ),
    "rho-xi": (
        [(n, r) for n in (2, 3, 4) for r in DEFAULT_RINGS],
        lambda ring, n, rng, trials: canonical.rho_xi_check(ring, n, rng, trials),
    ),
    "canonical-semitrace": (
        [(4, GF2), (4, GF3), (4, QQ), (6, GF2)],
        lambda ring, n, rng, trials: canonical.check_representative_independence(
            ring, n, rng, count=min(trials, 20)
        ).merge(canonical.check_semitrace_defining(ring, n, rng, trials)),
    ),
    "q-wedge-correspondence": (
        [(4, GF2), (4, GF3), (4, QQ), (6, GF2)],
        lambda ring, n, rng, trials: canonical.correspondence_with_q_wedge(ring, n, rng, trials),
    ),
    "pgo-invariance": (
        [(4, GF2), (4, GF3), (6, GF2), (6, GF4), (8, GF2), (8, GF3)],
        lambda ring, n, rng, trials: group.pgo_invariance(ring, n, rng, samples=min(trials, PGO_SAMPLES)),
    ),
    "degree4-alt": (
        [(2, GF2), (2, GF4)],
        lambda ring, n, rng, trials: _at_rank_2(n, lambda: canonical.degree4_alt_report(ring)),
    ),
    "degree4-counterexample": (
        [(2, GF4)],
        lambda ring, n, rng, trials: _at_rank_2(n, lambda: canonical.degree4_no_canonical(ring)),
    ),
    "base-change": (
        [(None, None)],
        lambda ring, n, rng, trials: canonical.base_change_report(rng, samples=min(trials, 20)),
    ),
}


@dataclass
class Report:
    check: str
    n: int | None
    ring: str
    status: str
    details: list[str] = field(default_factory=list)
    elapsed_ms: int = 0
    seed: int = 0


def _rng_for(seed: int, check: str, n: int | None, ring: str) -> random.Random:
    return random.Random(f"{seed}:{check}:{n}:{ring}")


def _grid(check: str, n: int | None, ring: Ring | None) -> list[tuple[int | None, Ring | None]]:
    cells = CHECKS[check][0]
    if cells == [(None, None)]:
        return cells
    if n is not None:
        cells = [(n, r) for r in dict.fromkeys(r for _, r in cells)]
    if ring is not None:
        cells = [(cn, ring) for cn in dict.fromkeys(cn for cn, _ in cells)]
    return list(dict.fromkeys(cells))


def _run_cell(check: str, n: int | None, ring: Ring | None, trials: int, seed: int) -> Report:
    ring_name = ring.name if ring is not None else "gf2->gf4"
    rng = _rng_for(seed, check, n, ring_name)
    report = Report(check=check, n=n, ring=ring_name, status="pass", seed=seed)
    started = time.perf_counter()
    try:
        outcome = CHECKS[check][1](ring, n, rng, trials)
        report.status = "pass" if outcome.passed else "fail"
        report.details = outcome.details
    except (EligibilityError, UnsupportedRingError) as exc:
        report.status = "skipped"
        report.details = [str(exc)]
    except Exception as exc:
        tb = exc.__traceback__
        while tb.tb_next is not None:  # the innermost frame, where it was raised
            tb = tb.tb_next
        code = tb.tb_frame.f_code
        report.status = "error"
        where = f"{Path(code.co_filename).name}:{tb.tb_lineno} in {code.co_name}"
        report.details = [f"{type(exc).__name__}: {exc} (at {where})"]
    report.elapsed_ms = int((time.perf_counter() - started) * 1000)
    return report


def run(check: str, n: int | None, ring: Ring | None, trials: int, seed: int) -> list[Report]:
    return [_run_cell(check, cn, cr, trials, seed) for cn, cr in _grid(check, n, ring)]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="cliffqp",
        description="verify the split Clifford algebra constructions exactly",
    )
    parser.add_argument("check", choices=[*CHECKS, "all"], help="which suite to run")
    parser.add_argument("--n", type=int, default=None, help="restrict to one rank n")
    parser.add_argument(
        "--ring", default=None, choices=sorted(RING_BY_NAME), help="restrict to one ring"
    )
    parser.add_argument("--trials", type=int, default=DEFAULT_TRIALS, help="random trials per cell")
    parser.add_argument("--seed", type=int, default=0, help="seed for all random sampling")
    parser.add_argument("--json", action="store_true", help="emit one JSON document")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    problem = None
    if args.n is not None and not 1 <= args.n <= MAX_N:
        problem = f"--n must lie in 1..{MAX_N}"
    elif args.trials < 1:
        problem = "--trials must be at least 1, or the cells would check nothing"
    if problem:
        parser.print_usage(sys.stderr)
        print(f"error: {problem}", file=sys.stderr)
        return 2

    ring = ring_by_name(args.ring) if args.ring else None
    checks = list(CHECKS) if args.check == "all" else [args.check]
    reports: list[Report] = []
    for check in checks:
        reports.extend(run(check, args.n, ring, args.trials, args.seed))
    reports.sort(key=lambda r: (r.check, r.n if r.n is not None else -1, r.ring))

    passed = sum(1 for r in reports if r.status == "pass")
    skipped = sum(1 for r in reports if r.status == "skipped")
    failed = len(reports) - passed - skipped

    if args.json:
        document = {
            "passed": passed,
            "failed": failed,
            "skipped": skipped,
            "reports": [asdict(r) for r in reports],
        }
        print(json.dumps(document, indent=2, ensure_ascii=False))
    else:
        for r in reports:
            where = f"n={r.n}" if r.n is not None else "n=-"
            line = f"[{r.status.upper():<7}] {r.check:<24} {where:<5} ring={r.ring:<9} ({r.elapsed_ms} ms)"
            print(line)
            if r.status in ("fail", "error", "skipped"):
                for detail in r.details:
                    print(f"    {detail}")
        print(f"summary: {passed} passed, {failed} failed, {skipped} skipped")
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
