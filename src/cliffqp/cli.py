"""Batch verification harness.

Every construction in the package is exposed as a subcommand that runs a
deterministic check grid and reports pass/fail/skip per (n, ring) cell,
as text or as a single JSON document.  A check is one entry of `CHECKS`:
its name, its default cells and the runner of one cell, so adding a check
takes one entry.  Every check but `cross-check` is a certificate and
draws nothing; only `cross-check`, the random comparisons of `sampling`,
reads the seed and --trials.  Exit status 0 means everything passed or
was skipped for a declared eligibility reason, 1 means some check failed
or errored, 2 means the invocation itself was malformed.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from collections.abc import Callable
from dataclasses import asdict, dataclass, field
from pathlib import Path

from . import canonical, clifford, forms, group, sampling
from .errors import EligibilityError, UnsupportedRingError
from .involution import SemiTrace
from .reporting import CheckOutcome
from .rings import GF2, GF3, GF4, QQ, RING_BY_NAME, Ring, ring_by_name

DEFAULT_RINGS = (GF2, GF3, GF4, QQ)
DEFAULT_TRIALS = 10
# The largest rank whose dense even elements stay under a million entries
# (2 * 4^(n-1)); a larger --n is refused before any matrix is built.
MAX_N = 10

# A runner takes (ring, n, rng, trials) and returns the cell's outcome; only
# the runner of `cross-check` reads rng and trials.  Each runner looks its
# check up on the module when it is called, never earlier, so that a function
# rebound on its module (by a tracer or a test) is the one that runs.
Runner = Callable[[Ring, int, random.Random, int], CheckOutcome]


def _classify(ring: Ring, n: int, rng, trials: int) -> CheckOutcome:
    verdict = clifford.classify_even_involution(ring, n)
    want = clifford.predicted_even_involution(ring, n)
    verb = "matches" if verdict == want else "does not match"
    return CheckOutcome(verdict == want, [f"verdict {verdict} {verb} the prediction {want}"])


def _at_rank_2(n: int, result: Callable[[], CheckOutcome]) -> CheckOutcome:
    """The outcome of a degree-4 result, which lives at n = 2 only."""
    if n != 2:
        raise EligibilityError(f"the degree-4 results live at n = 2, not n = {n}")
    return result()


def _semitrace_check(check: Callable[[SemiTrace], CheckOutcome]) -> Runner:
    """The runner of a check of the canonical semi-trace, built once per cell;
    building it raises EligibilityError where it does not exist."""
    return lambda ring, n, rng, trials: check(canonical.canonical_semitrace(ring, n))


# Every check: its default (n, ring) cells and its runner, in the order `all`
# runs them.  A check whose one cell is (None, None) takes neither --n nor --ring.
CHECKS: dict[str, tuple[list[tuple[int | None, Ring | None]], Runner]] = {
    # Phi(m)^2 = q(m) Id certified for every m by polarization over the generator pairs
    "relations": (
        [(n, r) for n in range(1, 7) for r in DEFAULT_RINGS],
        lambda ring, n, rng, trials: clifford.relation_suite(ring, n),
    ),
    # every unit and unit pair certified by linearity
    "gram": (
        [(n, r) for n in range(1, 6) for r in DEFAULT_RINGS],
        lambda ring, n, rng, trials: forms.gram_agreement_suite(ring, n).merge(clifford.involution_suite(ring, n)),
    ),
    "classify": ([(n, r) for n in range(2, MAX_N + 1) for r in DEFAULT_RINGS], _classify),
    # (6, gf2) is the premise of q-wedge-correspondence there
    "polar": (
        [(n, r) for n in range(2, 6) for r in DEFAULT_RINGS] + [(6, GF2)],
        lambda ring, n, rng, trials: forms.polar_matches_prediction(ring, n),
    ),
    # the basis of sl_2n certified
    "sl-into-alt": (
        [(n, r) for n in (2, 3, 4) for r in (GF2, GF3)],
        lambda ring, n, rng, trials: canonical.check_sl_into_alt(ring, n),
    ),
    # the (2n)^2 units E_ij certified by linearity
    "rho-xi": (
        [(n, r) for n in (2, 3, 4) for r in DEFAULT_RINGS],
        lambda ring, n, rng, trials: canonical.rho_xi_check(ring, n),
    ),
    # every trace-1 representative and every even unit certified
    "canonical-semitrace": (
        [(4, GF2), (4, GF3), (4, QQ), (6, GF2)],
        _semitrace_check(
            lambda f: canonical.check_representative_independence(f).merge(canonical.check_semitrace_defining(f))
        ),
    ),
    # every coefficient certified, given the premise that `polar` certifies
    "q-wedge-correspondence": (
        [(4, GF2), (4, GF3), (4, QQ), (6, GF2)],
        _semitrace_check(lambda f: canonical.correspondence_with_q_wedge(f)),
    ),
    # n + 2 generators certified coefficient by coefficient in their parameters
    "pgo-invariance": (
        [(4, GF2), (4, GF3), (6, GF2), (6, GF4), (8, GF2), (8, GF3)],
        _semitrace_check(lambda f: group.pgo_invariance(f)),
    ),
    "degree4-alt": (
        [(2, GF2), (2, GF4)],
        lambda ring, n, rng, trials: _at_rank_2(n, lambda: canonical.degree4_alt_report(ring)),
    ),
    "degree4-counterexample": (
        [(2, GF2), (2, GF4)],
        lambda ring, n, rng, trials: _at_rank_2(n, lambda: canonical.degree4_no_canonical(ring)),
    ),
    # certified on bases, which decide every gf4 input: nothing is drawn
    "base-change": (
        [(None, None)],
        lambda ring, n, rng, trials: canonical.base_change_report(),
    ),
}

# The routes of `sampling`, each with the checks it cross-checks, in the order
# a `cross-check` cell runs them from its one rng: each route whose checks
# hold the cell among their default cells, where the route is defined.
ROUTES: tuple[tuple[tuple[str, ...], Runner], ...] = (
    (("relations",), lambda *cell: sampling.phi_square(*cell)),
    (("gram",), lambda *cell: sampling.involution_pairs(*cell)),
    (("sl-into-alt", "canonical-semitrace"), lambda *cell: sampling.trace_zero_into_alt(*cell)),
    (("rho-xi",), lambda *cell: sampling.dense_rho_xi(*cell)),
    (("canonical-semitrace",), lambda *cell: sampling.semitrace_defining(*cell)),
    (("q-wedge-correspondence",), lambda *cell: sampling.rank_one_values(*cell)),
    (("pgo-invariance",), lambda *cell: sampling.orthogonal_words(*cell)),
)


def _cross_check(ring: Ring, n: int, rng: random.Random, trials: int) -> CheckOutcome:
    """`trials` draws per route at this cell (see ROUTES); a route not defined
    here is left out, and the cell is a declared skip only when every route is."""
    out, ran = CheckOutcome(), False
    for homes, route in ROUTES:
        if any((n, ring) in CHECKS[home][0] for home in homes):
            try:
                outcome = route(ring, n, rng, trials)
            except (EligibilityError, UnsupportedRingError):
                continue
            out, ran = out.merge(outcome), True
    if not ran:
        raise EligibilityError(f"no random comparison is cross-checked at n={n} over {ring.name}")
    return out


# the union of the checks' default cells, run after every certificate
CHECKS["cross-check"] = (
    list(dict.fromkeys(cell for homes, _ in ROUTES for home in homes for cell in CHECKS[home][0])),
    _cross_check,
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
    parser.add_argument(
        "--trials",
        type=int,
        default=DEFAULT_TRIALS,
        help="random draws per route in a cross-check cell; every other check draws nothing",
    )
    parser.add_argument("--seed", type=int, default=0, help="seed of the cross-check draws")
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
    elif args.check != "all" and CHECKS[args.check][0] == [(None, None)] and (args.n or args.ring):
        problem = f"{args.check} takes neither --n nor --ring"
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
        text = json.dumps(document, indent=2, ensure_ascii=False)
    else:
        lines = []
        for r in reports:
            where = f"n={r.n}" if r.n is not None else "n=-"
            lines.append(f"[{r.status.upper():<7}] {r.check:<24} {where:<5} ring={r.ring:<9} ({r.elapsed_ms} ms)")
            if r.status in ("fail", "error", "skipped"):
                lines += [f"    {detail}" for detail in r.details]
        lines.append(f"summary: {passed} passed, {failed} failed, {skipped} skipped")
        text = "\n".join(lines)
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # the reader closed stdout; the status still tells how the checks
        # went, and stdout goes to devnull so the exit flush cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
