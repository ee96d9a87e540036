"""Acceptance criteria, one test per criterion, all exact (zero tolerance).

Each test prints a single PASS/FAIL line; run with -s (or check the
captured output) to see the acceptance summary.
"""

import random
import time

from cliffqp.canonical import (
    base_change_report,
    canonical_semitrace,
    check_representative_independence,
    check_semitrace_defining,
    check_sl_into_alt,
    correspondence_with_q_wedge,
    degree4_alt_report,
    degree4_no_canonical,
    rho_xi_check,
)
from cliffqp.clifford import (
    classify_even_involution,
    involution_suite,
    predicted_even_involution,
    relation_suite,
)
from cliffqp.forms import b_wedge_gram, classify_bilinear, gram_agreement_suite, q_wedge_polar_gram
from cliffqp.group import pgo_invariance
from cliffqp.sampling import (
    dense_rho_xi,
    involution_pairs,
    orthogonal_words,
    phi_square,
    rank_one_values,
    semitrace_defining,
    trace_zero_into_alt,
)
from cliffqp.rings import GF2, GF3, GF4, GF5, QQ, ZZ

PALETTE = (GF2, GF3, GF4, QQ)
PALETTE_FIELDS = (GF2, GF3, GF4, GF5, QQ)
ALL_PALETTE = (GF2, GF3, GF4, GF5, QQ, ZZ)


def rng_for(tag: str) -> random.Random:
    return random.Random(f"acceptance:{tag}")


def report(number: int, name: str, ok: bool, extra: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({extra})" if extra else ""
    print(f"ACCEPTANCE {number:02d} {name}: {status}{suffix}")
    assert ok, f"acceptance criterion {number} ({name}) failed"


def test_criterion_01_relation_suite():
    failures = []
    for n in range(1, 7):
        for ring in PALETTE:
            out = relation_suite(ring, n).merge(phi_square(ring, n, rng_for(f"rel:{n}:{ring.name}"), trials=100))
            if not out.passed:
                failures.append(f"n={n} {ring.name}: {out.details[:1]}")
    report(1, "relation-suite", not failures, "n=1..6 x {gf2,gf3,gf4,q}, 100 random m each")


def test_criterion_02_gram_involution_suite():
    failures = []
    for n in range(1, 6):
        for ring in PALETTE:
            if not gram_agreement_suite(ring, n).passed:
                failures.append(f"gram n={n} {ring.name}")
            if not involution_suite(ring, n).passed:
                failures.append(f"involution n={n} {ring.name}")
            if n <= 4 and not involution_pairs(ring, n, rng_for(f"tau:{n}:{ring.name}"), trials=100).passed:
                failures.append(f"involution pairs n={n} {ring.name}")
    for n in range(2, 6):
        for ring in PALETTE:
            labels = classify_bilinear(b_wedge_gram(ring, n))
            want = "symmetric" if n % 4 in (0, 1) else "alternating"
            if want not in labels:
                failures.append(f"classification n={n} {ring.name}: {sorted(labels)}")
            if ring.char != 2:
                exact = {"symmetric"} if n % 4 in (0, 1) else {"skew", "alternating"}
                if labels != exact:
                    failures.append(f"classification n={n} {ring.name} not exact: {sorted(labels)}")
    report(2, "gram-involution-suite", not failures, "; ".join(failures[:3]))


def test_criterion_03_polar_identity():
    failures = []
    for n in (1, 4, 5):  # n = 0, 1 mod 4 within desk scale
        for ring in ALL_PALETTE:
            if q_wedge_polar_gram(ring, n) != b_wedge_gram(ring, n):
                failures.append(f"polar identity failed n={n} {ring.name}")
    for n in range(1, 6):
        for ring in (GF2, GF4):
            if q_wedge_polar_gram(ring, n) != b_wedge_gram(ring, n):
                failures.append(f"polar identity failed n={n} {ring.name}")
    if q_wedge_polar_gram(GF3, 2) == b_wedge_gram(GF3, 2):
        failures.append("negative control n=2 gf3 unexpectedly equal")
    report(3, "polar-identity", not failures, "incl. negative control n=2 gf3")


def test_criterion_04_involution_type_table():
    failures = []
    for n in range(2, 11):
        for ring in (GF2, GF3, QQ):
            got, want = classify_even_involution(ring, n), predicted_even_involution(ring, n)
            if got != want:
                failures.append(f"n={n} {ring.name}: got {got}, want {want}")
    report(4, "involution-type-table", not failures, "n=2..10 x {gf2,gf3,q}, exact types")


def test_criterion_05_sl_into_alt():
    failures = []
    for n in (3, 4):
        for ring in (GF2, GF3):
            out = check_sl_into_alt(ring, n).merge(
                trace_zero_into_alt(ring, n, rng_for(f"sl:{n}:{ring.name}"), trials=50)
            )
            if not out.passed:
                failures.append(f"n={n} {ring.name}: {out.details[:1]}")
    negative = check_sl_into_alt(GF2, 2)
    if not negative.passed:
        failures.append("negative control at n=2 over gf2 failed")
    report(5, "sl-into-alt", not failures, "basis of sl_2n + 50 randoms; n=2 control over gf2")


def test_criterion_06_rho_xi():
    failures = []
    for n in (2, 3, 4):
        for ring in PALETTE_FIELDS:
            out = rho_xi_check(ring, n).merge(dense_rho_xi(ring, n, rng_for(f"rhoxi:{n}:{ring.name}"), trials=100))
            if not out.passed:
                failures.append(f"n={n} {ring.name}")
    report(6, "rho-xi-compatibility", not failures, "all (2n)^2 units E_ij + 100 random M, n=2..4, all palette fields")


def test_criterion_07_canonical_semitrace():
    failures = []
    cells = [(4, GF2), (4, GF3), (4, QQ), (6, GF2)]
    for n, ring in cells:
        tag, f = f"{n}:{ring.name}", canonical_semitrace(ring, n)
        if not check_representative_independence(f).passed:
            failures.append(f"independence n={n} {ring.name}")
        if not trace_zero_into_alt(ring, n, rng_for(f"ind:{tag}"), trials=10).passed:
            failures.append(f"random trace-zero matrices n={n} {ring.name}")
        if not check_semitrace_defining(f).merge(semitrace_defining(ring, n, rng_for(f"def:{tag}"), trials=100)).passed:
            failures.append(f"defining identity n={n} {ring.name}")
        rank_one = rank_one_values(ring, n, rng_for(f"corr:{tag}"), trials=100)
        if not correspondence_with_q_wedge(f).merge(rank_one).passed:
            failures.append(f"quadratic-form correspondence n={n} {ring.name}")
    report(7, "canonical-semitrace", not failures, "n=4 x {gf2,gf3,q} and n=6 x gf2")


def test_criterion_08_group_invariance():
    failures = []
    for ring in (GF2, GF3):
        out = pgo_invariance(canonical_semitrace(ring, 4)).merge(
            orthogonal_words(ring, 4, rng_for(f"pgo:{ring.name}"), trials=10)
        )
        if not out.passed:
            failures.append(f"{ring.name}: {out.details[:1]}")
    report(
        8,
        "group-invariance",
        not failures,
        "6 generators certified coefficient by coefficient in their parameters and 10 random words "
        "per ring, exact on Sym by Alt membership",
    )


def test_criterion_09_degree4_negative_result():
    failures = []
    if not degree4_alt_report(GF2).passed:
        failures.append("alternating computation over gf2")
    started = time.perf_counter()
    for ring in (GF2, GF4):
        out = degree4_no_canonical(ring)
        if not out.passed:
            failures.append(f"certificate over {ring.name}: {out.details[2:3]}")
        if not any(f"B(t) over {ring.name}[t] moves every candidate" in line for line in out.details):
            failures.append(f"the certificate over {ring.name} did not cover every candidate")
    elapsed = time.perf_counter() - started
    if elapsed >= 10.0:
        failures.append(f"certificate took {elapsed:.1f}s (budget 10s)")
    report(9, "degree4-negative-result", not failures, f"certificate over gf2[t] and gf4[t] in {elapsed:.2f}s")


def test_criterion_10_base_change():
    out = base_change_report()
    report(10, "base-change", out.passed, "gf2 -> gf4 on bases at n = 2, 3, 4, so on every gf4 input")
