"""The canonical mapping from the split matrix algebra into the Clifford
algebra, the canonical semi-trace it induces, and the degree-4 negative
result.

The canonical map sends a 2n x 2n matrix, decomposed through the polar
pairing into rank-one tensors, to the corresponding sum of generator
pair products.  Trace-zero matrices land among the alternating elements
once n >= 3, so any trace-1 matrix yields the same semi-trace on the even
algebra; at n = 2 the alternating subspace is too small and an exhaustive
search over GF(4) shows every candidate representative is moved off its
class by the Eichler transformation B(t) = eichler_vv(2, 1, t), which acts
by conjugation with its lift 1 + t v1 v2*.
"""

from __future__ import annotations

from functools import cache
from itertools import product

from .clifford import (
    CliffordElement,
    canonical_involution,
    classify_even_involution,
    generator_matrix,
    phi_vector,
    phi_word,
    reduced_trace,
)
from .errors import EligibilityError, UsageError
from .exterior import ExteriorVector, sign_exponent
from .forms import HyperbolicSpace, b_wedge_gram, q_wedge
from .involution import SemiTrace, alt_basis, in_alternating, trace_orthogonality
from .linalg import Matrix
from .reporting import CheckOutcome
from .rings import Ring, RingMorphism, gf2_into_gf4
from .sampling import (
    random_even_element,
    random_exterior,
    random_matrix,
    random_trace_one,
    random_trace_zero,
    random_vector,
)

# --- the canonical mapping --------------------------------------------------


@cache
def _pair_matrix(ring: Ring, n: int, k: int, l: int) -> Matrix:
    """The generator pair product Phi(e_k) Phi(e_l); cached and shared."""
    return generator_matrix(ring, n, k) * generator_matrix(ring, n, l)


def phi_b_unit(ring: Ring, n: int, k: int, l: int) -> Matrix:
    """The endomorphism b(e_k, _) e_l of H(V): a single matrix unit.

    Under the polar pairing e_k pairs with e_{2n-1-k}, so this is the
    unit E_{l, 2n-1-k}.
    """
    dim = 2 * n
    if not (0 <= k < dim and 0 <= l < dim):
        raise UsageError("generator indices out of range")
    return Matrix.from_nonzeros(ring, dim, dim, [(l, dim - 1 - k, ring.one)])


def canonical_map_c(m: Matrix) -> CliffordElement:
    """Canonical mapping of a 2n x 2n matrix into the even Clifford algebra.

    The matrix is written as a sum of rank-one pairings through the polar
    form and each e_k (x) e_l term contributes Phi(e_k) Phi(e_l).
    """
    if m.rows != m.cols or m.rows % 2 != 0:
        raise UsageError("the canonical mapping needs a square even-size matrix")
    ring = m.ring
    n = m.rows // 2
    terms = ((coef, _pair_matrix(ring, n, 2 * n - 1 - j, l)) for l, j, coef in m.nonzeros())
    return CliffordElement(ring, n, Matrix.combination(ring, 1 << n, 1 << n, terms))


# --- rho/xi compatibility ----------------------------------------------------


def rho_xi_check(ring: Ring, n: int, rng, trials: int = 100) -> CheckOutcome:
    """(Id + tau)(c(M)) = trace(M) * Id, exactly, on random matrices."""
    out = CheckOutcome()
    ident = CliffordElement.identity(ring, n)

    def holds(m: Matrix, label: str) -> None:
        image = canonical_map_c(m)
        lhs = image + canonical_involution(image)
        rhs = ident.scale(m.trace())
        if lhs != rhs:
            out.fail(f"{label}: (Id + tau)c(M) = {lhs!r} but trace(M) Id = {rhs!r}")

    holds(phi_b_unit(ring, n, 0, 2 * n - 1), "trace-1 matrix unit")
    holds(Matrix.zeros(ring, 2 * n, 2 * n), "zero matrix")
    for t in range(trials):
        holds(random_matrix(ring, 2 * n, 2 * n, rng), f"random trial {t}")
    if out.passed:
        out.note(f"(Id + tau) c agrees with the trace on {trials} random matrices")
    return out


# --- trace-zero matrices land in Alt -----------------------------------------


def sl_basis(ring: Ring, n: int) -> list[tuple[str, Matrix]]:
    """The standard basis of sl_2n with labels: the off-diagonal units E_ij
    and the differences E_kk - E_(k+1)(k+1), 4n^2 - 1 matrices."""
    dim = 2 * n
    unit = lambda i, j: phi_b_unit(ring, n, dim - 1 - j, i)  # E_ij
    basis = [(f"E_({i},{j})", unit(i, j)) for i in range(dim) for j in range(dim) if i != j]
    for k in range(dim - 1):
        terms = ((ring.one, unit(k, k)), (ring.sign(1), unit(k + 1, k + 1)))
        basis.append((f"E_({k},{k}) - E_({k + 1},{k + 1})", Matrix.combination(ring, dim, dim, terms)))
    return basis


def check_sl_into_alt(ring: Ring, n: int, rng, randoms: int = 50) -> CheckOutcome:
    """Trace-zero matrices map into the alternating elements when n >= 3.

    c is linear, so the standard basis of sl_2n covers every trace-zero
    matrix; the random trials check the same inclusion on dense inputs.
    At n = 2 this runs as a negative control: the rank-one tensor
    v_1 (x) v_2 is trace zero but its image is not alternating.
    """
    out = CheckOutcome()
    if n == 2:
        if ring.char != 2:
            # With 2 invertible every skew element is alternating, so the
            # sharpness example has no content outside characteristic 2.
            raise EligibilityError(
                "the n=2 negative control needs characteristic 2 "
                "(skew and alternating coincide when 2 is invertible)"
            )
        m = phi_b_unit(ring, 2, 0, 1)
        if not ring.is_zero(m.trace()):
            out.fail("negative control input is not trace zero")
        if in_alternating(canonical_map_c(m)):
            out.fail("c(v1 (x) v2) unexpectedly alternating at n=2")
        else:
            out.note("negative control: c(v1 (x) v2) is not alternating at n=2")
        return out
    if n < 3:
        raise EligibilityError("the trace-zero inclusion needs n >= 3 (n = 2 is the negative control)")
    basis = sl_basis(ring, n)
    for label, m in basis:
        if not in_alternating(canonical_map_c(m)):
            out.fail(f"c({label}) is not alternating over {ring.name}, n={n}")
    for t in range(randoms):
        m = random_trace_zero(ring, 2 * n, rng)
        if not in_alternating(canonical_map_c(m)):
            out.fail(f"random trace-zero trial {t}: c(M) not alternating, M={m!r}")
    if out.passed:
        out.note(
            f"{len(basis)} basis elements of sl_{2 * n} and {randoms} random "
            f"trace-zero matrices map into Alt (n={n}, {ring.name})"
        )
    return out


# --- the canonical semi-trace -------------------------------------------------


def canonical_semitrace(ring: Ring, n: int) -> SemiTrace:
    """The semi-trace with representative c(a) for the trace-1 unit E_{2n,2n}."""
    reason = None
    if n % 2 == 1:
        reason = "involution acts non-trivially on the center for odd n"
    elif n % 4 == 2 and ring.char != 2:
        reason = "involution symplectic, not orthogonal"
    elif n < 4:
        reason = "no canonical semi-trace exists in degree 4"
    if reason:
        raise EligibilityError(f"canonical semi-trace unavailable for n={n} over {ring.name}: {reason}")
    return SemiTrace(canonical_map_c(phi_b_unit(ring, n, 0, 2 * n - 1)))


def check_representative_independence(ring: Ring, n: int, rng, count: int = 20) -> CheckOutcome:
    """c(a) and c(a') induce the same semi-trace for random trace-1 a':
    c(a) - c(a') is alternating, which is exact once the check has
    certified Sym^perp = Alt."""
    f = canonical_semitrace(ring, n)
    out = trace_orthogonality(ring, n)
    for t in range(count):
        a = random_trace_one(ring, 2 * n, rng)
        other = SemiTrace(canonical_map_c(a))
        if not f.agrees_with(other):
            out.fail(f"trial {t}: representative c(a') disagrees on Sym, a'={a!r}")
    if out.passed:
        out.note(f"{count} random trace-1 representatives give the same semi-trace")
    return out


def check_semitrace_defining(ring: Ring, n: int, rng, trials: int = 100) -> CheckOutcome:
    """f(x + tau(x)) = trace(x) for random even x."""
    out = CheckOutcome()
    f = canonical_semitrace(ring, n)
    for t in range(trials):
        x = random_even_element(ring, n, rng)
        got = f.evaluate(x + canonical_involution(x))
        want = reduced_trace(x)
        if not ring.eq(got, want):
            out.fail(
                f"trial {t}: f(x + tau x) = {ring.show(got)} but trace(x) = {ring.show(want)}"
            )
    if out.passed:
        out.note(f"f(x + tau x) = trace(x) on {trials} random even elements")
    return out


def rank_one_wedge(x: ExteriorVector) -> CliffordElement:
    """The rank-one endomorphism m -> b(x, m) x of a parity block of wedge V,
    embedded block-diagonally in the even algebra.
    """
    if x.parity() == "mixed":
        raise UsageError("rank-one pairing needs a parity-homogeneous element")
    ring, n = x.ring, x.n
    full = (1 << n) - 1
    dim = 1 << n
    # b(x, v_col) has a single term, from the coefficient of x at I = col^c;
    # for odd n that complement lies in the other parity block and the map
    # vanishes.  Every ring is a domain, so the products below are nonzero.
    pairs = [
        (full ^ mask, ring.mul(ring.sign(sign_exponent(mask)), a))
        for mask, a in x.terms.items()
        if n % 2 == 0
    ]
    triples = ((row, col, ring.mul(pair, a)) for col, pair in pairs for row, a in x.terms.items())
    return CliffordElement(ring, n, Matrix.from_nonzeros(ring, dim, dim, triples))


def correspondence_with_q_wedge(ring: Ring, n: int, rng, trials: int = 100) -> CheckOutcome:
    """The canonical semi-trace evaluates rank-one pairings to the quadratic
    form: f(b(x, _) x) = q(x) on both parity blocks.
    """
    out = CheckOutcome()
    f = canonical_semitrace(ring, n)
    for parity in (0, 1):
        for t in range(trials):
            x = random_exterior(ring, n, rng, parity=parity)
            got = f.evaluate(rank_one_wedge(x))
            want = q_wedge(x)
            if not ring.eq(got, want):
                out.fail(
                    f"parity {parity} trial {t}: f(rank-one) = {ring.show(got)} "
                    f"but q(x) = {ring.show(want)} for x = {x!r}"
                )
    if out.passed:
        out.note(
            f"semi-trace matches the quadratic form on {trials} samples per parity block"
        )
    return out


# --- degree 4: no canonical semi-trace ----------------------------------------

# The eight even monomials at n = 2, in the coefficient order used throughout:
# 1, v1v2, v1v2*, v1v1*, v2v2*, v2v1*, v2*v1*, v1v2v2*v1*.
EVEN_WORDS_N2: tuple[tuple[str, ...], ...] = (
    (),
    ("v1", "v2"),
    ("v1", "v2*"),
    ("v1", "v1*"),
    ("v2", "v2*"),
    ("v2", "v1*"),
    ("v2*", "v1*"),
    ("v1", "v2", "v2*", "v1*"),
)


def even_monomials_n2(ring: Ring) -> list[CliffordElement]:
    return [phi_word(ring, 2, word) for word in EVEN_WORDS_N2]


def degree4_alt_report(ring: Ring) -> CheckOutcome:
    """In characteristic 2 the alternating elements at n = 2 are exactly the
    span of the identity and of v1 v1* + v2 v2*, and x + tau(x) collapses to
    (a3 + a4 + a7) + a7 (v1 v1* + v2 v2*).

    The span is a dimension count: both stated elements are alternating,
    they are independent (v1 v1* + v2 v2* is nonzero and vanishes at E_00,
    where the identity is 1), and Alt has dimension 2.  The collapse is
    checked by probing the eight even basis directions.
    """
    if ring.char != 2:
        raise EligibilityError(f"the degree-4 alternating computation needs characteristic 2, not {ring.name}")
    out = CheckOutcome()
    dim = alt_basis(ring, 2).rows
    mono = even_monomials_n2(ring)
    ident = mono[0]
    stated = [ident, mono[3] + mono[4]]
    if dim != 2:
        out.fail(f"alternating subspace has dimension {dim}, want 2")
    for i, elem in enumerate(stated):
        if not in_alternating(elem):
            out.fail(f"stated element {i} is not alternating")
    pair = stated[1].matrix
    if pair.is_zero() or not ring.is_zero(pair.at(0, 0)) or not ring.is_one(ident.matrix.at(0, 0)):
        out.fail("the stated elements are not independent")
    # Probe x + tau(x) on each even monomial direction; by linearity this
    # pins the formula for generic coefficients.
    for k, m in enumerate(mono):
        got = m + canonical_involution(m)
        want = CliffordElement.zero(ring, 2)
        if k in (3, 4, 7):
            want = want + ident
        if k == 7:
            want = want + mono[3] + mono[4]
        if got != want:
            out.fail(f"x + tau(x) probe failed on monomial {EVEN_WORDS_N2[k]}")
    if out.passed:
        out.note("alternating subspace at n=2 has dimension 2 with the stated basis")
        out.note("x + tau(x) = (a3 + a4 + a7) + a7 (v1v1* + v2v2*) on all 8 probes")
    return out


def degree4_no_canonical(ring: Ring) -> CheckOutcome:
    """Exhaustive form of the degree-4 negative result over a finite field of
    characteristic 2 with an element t where t^2 != t (GF(4)).

    Every l with l + tau(l) = 1 is parameterized by six free coefficients
    (the identity constraint forces a7 = 0 and a3 + a4 = 1); for each of
    the 4^6 candidates there must be a nonzero t with
    l - g l g^-1 = (t + t^2 a5) v1v2* + t a5 (v1v1* + v2v2*)
    not alternating, for the certified lift g = 1 + t v1 v2* of
    B(t) = eichler_vv(2, 1, t), so no candidate class is stable under the B(t).
    """
    # local: group imports this module
    from .group import is_lift, is_orthogonal, lifted_generator

    if ring.char != 2:
        raise EligibilityError(f"the degree-4 counterexample needs characteristic 2, not {ring.name}")
    try:
        elems = list(ring.elements())
    except NotImplementedError:
        raise EligibilityError(f"the exhaustive search needs a finite ring, not {ring.name}")
    if not any(not ring.eq(ring.mul(t, t), t) for t in elems):
        raise EligibilityError(f"needs an element t with t^2 != t; {ring.name} has none")

    out = CheckOutcome()
    out.merge(degree4_alt_report(ring))

    nonzero_ts = [t for t in elems if not ring.is_zero(t)]
    mono = even_monomials_n2(ring)
    ident = CliffordElement.identity(ring, 2)

    deltas = {}
    for t in nonzero_ts:
        b, g, g_inv = lifted_generator(ring, 2, "eichler_vv", 2, 1, t)
        if not (is_orthogonal(b) and is_lift(g, g_inv, b)):
            out.fail(f"B({ring.show(t)}) is not a certified orthogonal element with lift g")
        deltas[t] = [(m - g * m * g_inv).matrix for m in mono]

    m2, m34 = mono[2].matrix, (mono[3] + mono[4]).matrix
    candidates = 0
    moved = 0
    for a0, a1, a2, a3, a5, a6 in product(elems, repeat=6):
        candidates += 1
        coeffs = (a0, a1, a2, a3, ring.add(ring.one, a3), a5, a6, ring.zero)
        for t in nonzero_ts:
            diff = Matrix.combination(ring, 4, 4, zip(coeffs, deltas[t]))
            # displayed closed form of the difference
            coef = ring.add(t, ring.mul(ring.mul(t, t), a5))
            if diff != Matrix.combination(ring, 4, 4, ((coef, m2), (ring.mul(t, a5), m34))):
                out.fail(f"difference formula failed at a5={ring.show(a5)}, t={ring.show(t)}")
            member = in_alternating(CliffordElement(ring, 2, diff))
            if member != ring.is_zero(coef):
                out.fail(
                    f"membership disagrees with the v1v2* coefficient "
                    f"at a5={ring.show(a5)}, t={ring.show(t)}"
                )
            if not member:
                moved += 1
                break
        else:
            out.fail(
                "candidate with coefficients "
                f"({', '.join(ring.show(c) for c in coeffs)}) "
                "is stable under every B(t)"
            )
    # Spot-check that the parameterization hits the constraint l + tau(l) = 1.
    spot = phi_word(ring, 2, ("v1", "v1*"))
    if spot + canonical_involution(spot) != ident:
        out.fail("parameterized representative fails l + tau(l) = 1")
    if out.passed:
        out.note(f"{candidates} candidates, all moved")
    return out


# --- base change ---------------------------------------------------------------


def map_matrix(phi: RingMorphism, m: Matrix) -> Matrix:
    return m.map_entries(phi, phi.codomain)


def map_clifford(phi: RingMorphism, x: CliffordElement) -> CliffordElement:
    return CliffordElement(phi.codomain, x.n, map_matrix(phi, x.matrix))


def map_exterior(phi: RingMorphism, x: ExteriorVector) -> ExteriorVector:
    is_zero = phi.codomain.is_zero
    terms = {mask: b for mask, a in x.terms.items() if not is_zero(b := phi(a))}
    return ExteriorVector(phi.codomain, x.n, terms)


def base_change_report(rng, samples: int = 20) -> CheckOutcome:
    """Every construction commutes with the coefficient embedding of GF(2)
    into GF(4): forms, Gram matrices, generator words, the involution, the
    reduced trace, the canonical mapping and the canonical semi-trace.
    """
    phi = gf2_into_gf4()
    small, big = phi.domain, phi.codomain
    out = CheckOutcome()

    pairs = [(a, b) for a in small.elements() for b in small.elements()]
    for a, b in pairs:
        if not big.eq(phi(small.add(a, b)), big.add(phi(a), phi(b))):
            out.fail(f"morphism does not preserve addition at ({a}, {b})")
        if not big.eq(phi(small.mul(a, b)), big.mul(phi(a), phi(b))):
            out.fail(f"morphism does not preserve multiplication at ({a}, {b})")
    if not (big.is_zero(phi(small.zero)) and big.is_one(phi(small.one))):
        out.fail("morphism does not preserve 0 and 1")

    for n in (2, 3, 4):
        hs_small = HyperbolicSpace(small, n)
        hs_big = HyperbolicSpace(big, n)
        if map_matrix(phi, b_wedge_gram(small, n)) != b_wedge_gram(big, n):
            out.fail(f"Gram matrix does not commute with base change at n={n}")
        for t in range(samples):
            w = random_vector(small, 2 * n, rng)
            if not big.eq(phi(hs_small.q(w)), hs_big.q([phi(c) for c in w])):
                out.fail(f"hyperbolic form value differs after base change, n={n} trial {t}")
            x = random_exterior(small, n, rng)
            if not big.eq(phi(q_wedge(x)), q_wedge(map_exterior(phi, x))):
                out.fail(f"quadratic form on wedge V differs after base change, n={n} trial {t}")
            m = random_vector(small, 2 * n, rng)
            lifted = phi_vector(big, n, [phi(c) for c in m])
            if map_clifford(phi, phi_vector(small, n, m)) != lifted:
                out.fail(f"Phi(m) differs after base change, n={n} trial {t}")
            if map_clifford(phi, phi_vector(small, n, m) * phi_vector(small, n, m)) != lifted * lifted:
                out.fail(f"Phi(m)^2 differs after base change, n={n} trial {t}")
            y = random_even_element(small, n, rng)
            if map_clifford(phi, canonical_involution(y)) != canonical_involution(
                map_clifford(phi, y)
            ):
                out.fail(f"involution differs after base change, n={n} trial {t}")
            if not big.eq(phi(reduced_trace(y)), reduced_trace(map_clifford(phi, y))):
                out.fail(f"reduced trace differs after base change, n={n} trial {t}")
            mm = random_matrix(small, 2 * n, 2 * n, rng)
            if map_clifford(phi, canonical_map_c(mm)) != canonical_map_c(map_matrix(phi, mm)):
                out.fail(f"canonical mapping differs after base change, n={n} trial {t}")
            image = canonical_map_c(map_matrix(phi, mm))
            want = CliffordElement.identity(big, n).scale(phi(mm.trace()))
            if image + canonical_involution(image) != want:
                out.fail(f"trace compatibility differs after base change, n={n} trial {t}")
            if n >= 3:
                z = random_trace_zero(small, 2 * n, rng)
                if not in_alternating(canonical_map_c(map_matrix(phi, z))):
                    out.fail(f"alternating membership lost after base change, n={n} trial {t}")

    for n in (2, 3, 4, 5):
        small_labels = classify_even_involution(small, n)
        big_labels = classify_even_involution(big, n)
        if small_labels.involution_labels != big_labels.involution_labels:
            out.fail(f"involution type differs after base change at n={n}")
        if small_labels.center_fixed != big_labels.center_fixed:
            out.fail(f"center behaviour differs after base change at n={n}")

    n = 4
    f_small = canonical_semitrace(small, n)
    f_big = canonical_semitrace(big, n)
    if map_clifford(phi, f_small.rep) != f_big.rep:
        out.fail("canonical representative differs after base change")
    for t in range(samples):
        x = random_even_element(small, n, rng)
        s = x + canonical_involution(x)
        if not big.eq(phi(f_small.evaluate(s)), f_big.evaluate(map_clifford(phi, s))):
            out.fail(f"semi-trace value differs after base change, trial {t}")
        v = random_exterior(small, n, rng, parity=t % 2)
        if not big.eq(
            phi(f_small.evaluate(rank_one_wedge(v))),
            f_big.evaluate(rank_one_wedge(map_exterior(phi, v))),
        ):
            out.fail(f"rank-one semi-trace value differs after base change, trial {t}")
    if out.passed:
        out.note(f"all constructions commute with gf2 -> gf4 on {samples} samples each")
    return out
