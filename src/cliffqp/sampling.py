"""Deterministic random inputs, and the package's only random comparisons.

Every sampler takes an explicit random.Random so runs are reproducible
from a seed, and draws all its entries in one `Ring.samples` call, each
entry one `randrange` over the ring's `draws`; a random vector is one
such call.  Each route draws `trials` inputs and compares a fast route
with its generic route on them, a cross-check of what a certificate
proves; it raises EligibilityError where it is not defined.
"""

from __future__ import annotations

from functools import reduce

from .canonical import canonical_map_c, canonical_semitrace
from .clifford import CliffordElement, canonical_involution, parity_masks, phi_vector, reduced_trace, tau_relabel
from .errors import EligibilityError
from .exterior import ExteriorVector
from .forms import HyperbolicSpace, q_wedge
from .group import invariance_problem, sample_orthogonal
from .involution import in_alternating
from .linalg import Matrix
from .reporting import CheckOutcome
from .rings import Ring


def random_matrix(ring: Ring, rows: int, cols: int, rng) -> Matrix:
    return Matrix(ring, rows, cols, ring.samples(rng, rows * cols))


def random_trace_zero(ring: Ring, size: int, rng) -> Matrix:
    """A random matrix whose (0, 0) entry is minus the sum of the other diagonal entries."""
    entries = ring.samples(rng, size * size)
    entries[0] = ring.neg(reduce(ring.add, entries[size + 1 :: size + 1], ring.zero))
    return Matrix(ring, size, size, entries)


def random_even_element(ring: Ring, n: int, rng) -> CliffordElement:
    """One draw per even unit, placed on the unit: both parity blocks, the
    even block row-major first."""
    units = [(r, c) for masks in parity_masks(n) for r in masks for c in masks]
    values = ring.samples(rng, len(units))
    dim = 1 << n
    places = ((r, c, i) for i, (r, c) in enumerate(units))
    return CliffordElement(ring, n, Matrix.from_places(ring, dim, dim, values, places))


def random_clifford_element(ring: Ring, n: int, rng) -> CliffordElement:
    dim = 1 << n
    return CliffordElement(ring, n, random_matrix(ring, dim, dim, rng))


def random_exterior(ring: Ring, n: int, rng, parity: int | None = None) -> ExteriorVector:
    """Coefficients on every mask in ascending order, or only on the masks of the parity."""
    masks = range(1 << n) if parity is None else parity_masks(n)[parity]
    is_zero = ring.is_zero
    terms = {m: a for m, a in zip(masks, ring.samples(rng, len(masks))) if not is_zero(a)}
    return ExteriorVector(ring, n, terms)


# --- routes -----------------------------------------------------------------


def _outcome(witnesses: list[str], agreement: str) -> CheckOutcome:
    """Fail on the witnesses, or note the agreement when there are none."""
    return CheckOutcome(False, witnesses) if witnesses else CheckOutcome(True, [agreement])


def phi_square(ring: Ring, n: int, rng, trials: int) -> CheckOutcome:
    """Phi(m)^2 = q(m) Id through the dense product, on random module elements m."""
    hs, dim, witnesses = HyperbolicSpace(ring, n), 1 << n, []
    for t in range(trials):
        coeffs = ring.samples(rng, 2 * n)
        phi = phi_vector(ring, n, coeffs).matrix
        square = phi * phi
        qm = hs.q(coeffs)
        if square != Matrix.scalar(ring, dim, qm):
            witnesses.append(
                f"Phi(m)^2 != q(m) Id for m=[{', '.join(map(ring.show, coeffs))}] (trial {t}): "
                f"q(m)={ring.show(qm)}, square={square!r}"
            )
    return _outcome(witnesses, f"{trials} random module elements agree: Phi(m)^2 = q(m) Id")


def involution_pairs(ring: Ring, n: int, rng, trials: int) -> CheckOutcome:
    """`canonical_involution` (row moves) = `tau_relabel` (the unit rule) on
    random x and y, and tau(xy) = tau(y) tau(x); at n <= 4, where the dense
    products stay small."""
    if n > 4:
        raise EligibilityError("the involution's random pairs run at n <= 4")
    witnesses = []
    for t in range(trials):
        x = random_clifford_element(ring, n, rng)
        y = random_clifford_element(ring, n, rng)
        tx, ty = canonical_involution(x), canonical_involution(y)
        if tx != tau_relabel(x) or ty != tau_relabel(y):
            witnesses.append(f"canonical_involution is not the unit rule on random pair {t}")
        if canonical_involution(x * y) != ty * tx:
            witnesses.append(f"involution not anti-multiplicative on random pair {t}")
    return _outcome(witnesses, f"{trials} random pairs agree with the unit rule and the dense product")


def trace_zero_into_alt(ring: Ring, n: int, rng, trials: int) -> CheckOutcome:
    """c(M) lies in Alt for random dense trace-zero M."""
    if n < 3:
        raise EligibilityError("the trace-zero inclusion needs n >= 3 (n = 2 is the negative control)")
    witnesses = []
    for t in range(trials):
        m = random_trace_zero(ring, 2 * n, rng)
        if not in_alternating(canonical_map_c(m)):
            witnesses.append(f"random trace-zero trial {t}: c(M) not alternating, M={m!r}")
    return _outcome(witnesses, f"{trials} random trace-zero matrices map into Alt")


def dense_rho_xi(ring: Ring, n: int, rng, trials: int) -> CheckOutcome:
    """(Id + tau) c(M) = trace(M) Id through `canonical_involution`, on random dense M."""
    size, witnesses = 2 * n, []
    for t in range(trials):
        m = random_matrix(ring, size, size, rng)
        image = canonical_map_c(m)
        if image + canonical_involution(image) != CliffordElement.scalar(ring, n, m.trace()):
            witnesses.append(f"random trial {t}: (Id + tau) c(M) is not trace(M) Id, M={m!r}")
    return _outcome(witnesses, f"{trials} random matrices agree: (Id + tau) c(M) = trace(M) Id")


def semitrace_defining(ring: Ring, n: int, rng, trials: int) -> CheckOutcome:
    """f(x + tau x) = trace(x) through `SemiTrace.evaluate`, on random even x."""
    f, witnesses = canonical_semitrace(ring, n), []
    for t in range(trials):
        x = random_even_element(ring, n, rng)
        got = f.evaluate(x + canonical_involution(x))
        want = reduced_trace(x)
        if not ring.eq(got, want):
            witnesses.append(f"trial {t}: f(x + tau x) = {ring.show(got)} but trace(x) = {ring.show(want)}")
    return _outcome(witnesses, f"{trials} random even elements agree: f(x + tau x) = trace(x)")


def rank_one_values(ring: Ring, n: int, rng, trials: int) -> CheckOutcome:
    """f(b(x, _) x) = q(x) through `SemiTrace.evaluate_rank_one`, on random x of each parity."""
    f, witnesses = canonical_semitrace(ring, n), []
    for parity in (0, 1):
        for t in range(trials):
            x = random_exterior(ring, n, rng, parity=parity)
            got = f.evaluate_rank_one(x)
            want = q_wedge(x)
            if not ring.eq(got, want):
                witnesses.append(
                    f"parity {parity} trial {t}: f(rank-one) = {ring.show(got)} "
                    f"but q(x) = {ring.show(want)} for x = {x!r}"
                )
    return _outcome(witnesses, f"{trials} random samples per parity block agree: f(b(x, _) x) = q(x)")


def orthogonal_words(ring: Ring, n: int, rng, trials: int) -> CheckOutcome:
    """Random words in the generators (`group.sample_orthogonal`) leave f
    invariant and commute with the involution."""
    l, witnesses = canonical_semitrace(ring, n).rep, []
    for _ in range(trials):
        desc, b, (g, g_inv) = sample_orthogonal(ring, n, rng)
        problem = invariance_problem(l, {0: b}, {0: g}, {0: g_inv})
        if problem:
            witnesses.append(f"{desc}: {problem}")
    return _outcome(witnesses, f"{trials} random words agree: they preserve the semi-trace and the involution")
