"""Pinned cell lists of the benchmark workloads.

A cell is (check, n, ring); n and ring are None for the one cell that takes
neither (base-change).  The lists are written out here rather than read from
the CLI's default grid, so that growing that grid does not change the work a
workload measures.  Every cell is expected to pass, except the cells named in
SKIPPED, which the CLI declares as skipped.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

PALETTE = ("gf2", "gf3", "gf4", "q")

# The default grid of `cliffqp all`, check by check, in the order `all` runs it.
GRID_ALL = (
    *[("relations", n, r) for n in range(1, 7) for r in PALETTE],
    *[("gram", n, r) for n in range(1, 6) for r in PALETTE],
    *[("classify", n, r) for n in range(2, 6) for r in PALETTE],
    *[("polar", n, r) for n in range(2, 6) for r in PALETTE],
    *[("sl-into-alt", n, r) for n in (2, 3, 4) for r in ("gf2", "gf3")],
    *[("rho-xi", n, r) for n in (2, 3, 4) for r in PALETTE],
    *[("canonical-semitrace", n, r) for n, r in ((4, "gf2"), (4, "gf3"), (4, "q"), (6, "gf2"))],
    *[("q-wedge-correspondence", n, r) for n, r in ((4, "gf2"), (4, "gf3"), (4, "q"), (6, "gf2"))],
    ("pgo-invariance", 4, "gf2"),
    ("pgo-invariance", 4, "gf3"),
    ("degree4-alt", 2, "gf2"),
    ("degree4-alt", 2, "gf4"),
    ("degree4-counterexample", 2, "gf4"),
    ("base-change", None, None),
)

# Dense products over Q and Z at dim <= 16: the generic Matrix product and
# Fraction arithmetic; Z beside Q separates the loop from the Fraction cost.
RATIONAL_DENSE = (
    *[("gram", n, r) for n in (3, 4) for r in ("q", "z")],
    *[("rho-xi", n, r) for n in (2, 3, 4) for r in ("q", "z")],
    ("canonical-semitrace", 4, "q"),
    ("q-wedge-correspondence", 4, "q"),
)

# Characteristic 2 at dims 16 to 256: sparse-column products, monomial
# decomposition, span membership and the exhaustive degree-4 enumeration.
CHAR2_WIDE = (
    ("relations", 8, "gf2"),
    ("relations", 8, "gf4"),
    ("canonical-semitrace", 6, "gf2"),
    ("canonical-semitrace", 6, "gf4"),
    ("q-wedge-correspondence", 6, "gf2"),
    ("q-wedge-correspondence", 8, "gf2"),
    ("rho-xi", 6, "gf2"),
    ("pgo-invariance", 4, "gf2"),
    ("pgo-invariance", 4, "gf4"),
    ("degree4-counterexample", 2, "gf4"),
)

SKIPPED = {("sl-into-alt", 2, "gf3")}

TRIALS = 100
WARMUP_TRIALS = 1


@dataclass(frozen=True)
class Workload:
    name: str
    cells: tuple
    warm: bool  # caches filled in set-up, so the timed passes find them full
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "grid-all",
            GRID_ALL,
            False,
            "the 108 cells of the default `all` grid, cold caches in a fresh process: "
            "the command users run, table builds included",
        ),
        Workload(
            "rational-dense",
            RATIONAL_DENSE,
            True,
            "Q and Z cells at dim <= 16, caches warm: the dense generic product and "
            "Fraction arithmetic, sparse paths almost idle",
        ),
        Workload(
            "char2-wide",
            CHAR2_WIDE,
            True,
            "GF(2) and GF(4) cells at dims 16 to 256, caches warm: sparse products, "
            "monomial decomposition, span membership, no Fraction",
        ),
    )
}


def expected_status(cell) -> str:
    return "skipped" if tuple(cell) in SKIPPED else "pass"


def cell_argv(cell, trials: int, seed: int) -> list[str]:
    """The CLI arguments of one cell; --trials and --seed are always explicit."""
    check, n, ring = cell
    argv = [check]
    if n is not None:
        argv += ["--n", str(n), "--ring", ring]
    return argv + ["--trials", str(trials), "--seed", str(seed), "--json"]


def cells_hash(cells) -> str:
    return hashlib.sha256(json.dumps([list(c) for c in cells]).encode()).hexdigest()[:16]


MAX_PAIRS = 8


def another_pair(walls: list, seconds: float) -> bool:
    """Whether to run another pair of passes at a new seed.

    Passes come in pairs at one seed, so every seed is checked for
    determinism; at least one pair runs, then more while the next pair is
    expected to end within `seconds` of timed passes.
    """
    pairs = len(walls) // 2
    if pairs == 0:
        return True
    if pairs >= MAX_PAIRS:
        return False
    return sum(walls) * (1 + 2 / len(walls)) <= seconds
