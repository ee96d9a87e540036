"""Batch verification harness.

Every construction in the package is exposed as a subcommand that runs a
deterministic check grid and reports pass/fail/skip per (n, ring) cell,
as text or as a single JSON document.  Exit status 0 means everything
passed or was skipped for a declared eligibility reason, 1 means some
check failed or errored, 2 means the invocation itself was malformed.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from dataclasses import dataclass, field

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

CHECK_NAMES = (
    "relations",
    "gram",
    "classify",
    "polar",
    "sl-into-alt",
    "rho-xi",
    "canonical-semitrace",
    "q-wedge-correspondence",
    "pgo-invariance",
    "degree4-alt",
    "degree4-counterexample",
    "base-change",
)


@dataclass
class Report:
    check: str
    n: int | None
    ring: str
    status: str
    details: list[str] = field(default_factory=list)
    elapsed_ms: int = 0
    seed: int = 0

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "n": self.n,
            "ring": self.ring,
            "status": self.status,
            "details": self.details,
            "elapsed_ms": self.elapsed_ms,
            "seed": self.seed,
        }


def _rng_for(seed: int, check: str, n: int | None, ring: str) -> random.Random:
    return random.Random(f"{seed}:{check}:{n}:{ring}")


def _default_grid(check: str) -> list[tuple[int | None, Ring | None]]:
    if check == "relations":
        return [(n, r) for n in range(1, 7) for r in DEFAULT_RINGS]
    if check == "gram":
        return [(n, r) for n in range(1, 6) for r in DEFAULT_RINGS]
    if check in ("classify", "polar"):
        return [(n, r) for n in range(2, 6) for r in DEFAULT_RINGS]
    if check == "sl-into-alt":
        return [(n, r) for n in (2, 3, 4) for r in (GF2, GF3)]
    if check == "rho-xi":
        return [(n, r) for n in (2, 3, 4) for r in DEFAULT_RINGS]
    if check in ("canonical-semitrace", "q-wedge-correspondence"):
        return [(4, GF2), (4, GF3), (4, QQ), (6, GF2)]
    if check == "pgo-invariance":
        return [(4, GF2), (4, GF3), (6, GF2), (6, GF4), (8, GF2), (8, GF3)]
    if check == "degree4-alt":
        return [(2, GF2), (2, GF4)]
    if check == "degree4-counterexample":
        return [(2, GF4)]
    if check == "base-change":
        return [(None, None)]
    raise ValueError(f"no grid for {check}")


def _grid(check: str, n: int | None, ring: Ring | None) -> list[tuple[int | None, Ring | None]]:
    if check == "base-change":
        return [(None, None)]
    cells = _default_grid(check)
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
        outcome = _dispatch(check, n, ring, rng, trials)
        report.status = "pass" if outcome.passed else "fail"
        report.details = outcome.details
    except (EligibilityError, UnsupportedRingError) as exc:
        report.status = "skipped"
        report.details = [str(exc)]
    except Exception as exc:  # pragma: no cover - defensive
        report.status = "error"
        report.details = [f"{type(exc).__name__}: {exc}"]
    report.elapsed_ms = int((time.perf_counter() - started) * 1000)
    return report


def _dispatch(check: str, n: int | None, ring: Ring | None, rng, trials: int) -> CheckOutcome:
    if check == "relations":
        return clifford.relation_suite(ring, n, rng, trials)
    if check == "gram":
        out = forms.gram_agreement_suite(ring, n)
        out.merge(clifford.involution_suite(ring, n, rng, min(trials, 100)))
        return out
    if check == "classify":
        report = clifford.classify_even_involution(ring, n)
        ok, want = clifford.involution_type_matches(report)
        out = CheckOutcome()
        if ok:
            out.note(f"verdict {report.verdict} matches the prediction {want}")
        else:
            out.fail(f"verdict {report.verdict} does not match the prediction {want}")
        return out
    if check == "polar":
        return forms.polar_matches_prediction(ring, n)
    if check == "sl-into-alt":
        return canonical.check_sl_into_alt(ring, n, rng, randoms=min(trials, 50))
    if check == "rho-xi":
        return canonical.rho_xi_check(ring, n, rng, trials)
    if check == "canonical-semitrace":
        out = canonical.check_representative_independence(ring, n, rng, count=min(trials, 20))
        out.merge(canonical.check_semitrace_defining(ring, n, rng, trials))
        return out
    if check == "q-wedge-correspondence":
        return canonical.correspondence_with_q_wedge(ring, n, rng, trials)
    if check == "pgo-invariance":
        return group.pgo_invariance(ring, n, rng, samples=min(trials, PGO_SAMPLES))
    if check in ("degree4-alt", "degree4-counterexample") and n != 2:
        raise EligibilityError(f"the degree-4 results live at n = 2, not n = {n}")
    if check == "degree4-alt":
        return canonical.degree4_alt_report(ring)
    if check == "degree4-counterexample":
        return canonical.degree4_no_canonical(ring)
    if check == "base-change":
        return canonical.base_change_report(rng, samples=min(trials, 20))
    raise ValueError(f"unknown check {check}")


def run(check: str, n: int | None, ring: Ring | None, trials: int, seed: int) -> list[Report]:
    reports = [_run_cell(check, cn, cr, trials, seed) for cn, cr in _grid(check, n, ring)]
    reports.sort(key=lambda r: (r.check, r.n if r.n is not None else -1, r.ring))
    return reports


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="cliffqp",
        description="verify the split Clifford algebra constructions exactly",
    )
    parser.add_argument("check", choices=CHECK_NAMES + ("all",), help="which suite to run")
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
    checks = list(CHECK_NAMES) if args.check == "all" else [args.check]
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
            "reports": [r.to_dict() for r in reports],
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
