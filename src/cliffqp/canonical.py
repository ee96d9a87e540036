"""The canonical mapping from the split matrix algebra into the Clifford
algebra, the canonical semi-trace it induces, and the degree-4 negative
result.

The canonical map c sends each matrix unit E_ij, a rank-one pairing
through the polar form, to a generator pair product, a signed partial
permutation: `c_unit` is its ring-free signed support, `canonical_map_c`
the rule's linear extension, and the `rho-xi` and `sl-into-alt` walks
read the rule, summing +-1 over Z and deciding each sum in the ring.
Trace-zero matrices land among the alternating elements once n >= 3, so
by linearity any trace-1 matrix yields the same semi-trace; at
n = 2 the alternating subspace is too small: over any base R of
characteristic 2, every candidate representative is moved off its class
by the Eichler transformation B(t) = eichler_vv(2, 1, t) over R[t], which
acts by conjugation with its lift 1 + t v1 v2*.  The move is linear in
the candidate, so its coefficients in t on the eight even monomials, read
from the lift polynomials `pgo_invariance` certifies, decide every
candidate at once.  On rank-one pairings the semi-trace is the quadratic
form on wedge V, f(b(x, _) x) = q(x), with
f(b(x, _) x) = trace(l * b(x, _) x) = b(x, l x) (`SemiTrace.evaluate_rank_one`),
a quadratic form whose coefficients one pass over l gives.
"""

from __future__ import annotations

from functools import partial
from itertools import combinations_with_replacement, product
from typing import Iterator

from .clifford import (
    CliffordElement,
    canonical_involution,
    classify_even_involution,
    parity_masks,
    phi_vector,
    phi_word,
    predicted_even_involution,
    reduced_trace,
    tau_unit,
    word_support,
)
from .errors import EligibilityError, UsageError
from .exterior import ExteriorVector, mask_size, sign_exponent
from .forms import HyperbolicSpace, b_wedge_gram, q_wedge, q_wedge_polar_gram
from .group import conjugation_move, lift_polynomial, lift_problem
from .involution import SemiTrace, alt_basis, alternating_units, in_alternating, trace_orthogonality
from .linalg import Matrix
from .reporting import CheckOutcome
from .rings import Element, Ring, RingMorphism, gf2_into_gf4

# --- the canonical mapping --------------------------------------------------


def phi_b_unit(ring: Ring, n: int, k: int, l: int) -> Matrix:
    """The endomorphism b(e_k, _) e_l of H(V): a single matrix unit.

    Under the polar pairing e_k pairs with e_{2n-1-k}, so this is the
    unit E_{l, 2n-1-k}.
    """
    dim = 2 * n
    if not (0 <= k < dim and 0 <= l < dim):
        raise UsageError("generator indices out of range")
    return Matrix.from_nonzeros(ring, dim, dim, [(l, dim - 1 - k, ring.one)])


def c_unit(n: int, i: int, j: int) -> tuple[tuple[int, int, int], ...]:
    """c's unit rule: the signed support of c(E_ij), one (row, col, sign
    parity) per nonzero, a +-1, with no ring.  Under the polar form E_ij is
    b(e_k, _) e_i with k = 2n - 1 - j, and c sends it to the generator pair
    product Phi(e_k) Phi(e_i), whose support `word_support` composes."""
    return word_support(n, (2 * n - 1 - j, i))


def canonical_map_c(m: Matrix) -> CliffordElement:
    """Canonical mapping of a 2n x 2n matrix into the even Clifford algebra:
    the linear extension of the unit rule `c_unit`, which sums the entries
    of m over their units' supports in one pass (`Matrix.linear_image`)."""
    if m.rows != m.cols or m.rows % 2 != 0:
        raise UsageError("the canonical mapping needs a square even-size matrix")
    n = m.rows // 2
    dim = 1 << n
    return CliffordElement(m.ring, n, Matrix.linear_image(m, dim, dim, partial(c_unit, n)))


# --- rho/xi compatibility ----------------------------------------------------


def rho_xi_check(ring: Ring, n: int) -> CheckOutcome:
    """(Id + tau) c(M) = trace(M) Id for every M, certified on the (2n)^2
    units E_ij, as both sides are linear in M: the walk sums +-1 over Z on
    each support `c_unit(n, i, j)` and on its `tau_unit` image, as
    `tau_relabel` moves it, and every sum must map to 0 in the ring."""
    out, size = CheckOutcome(), 2 * n
    for units, (i, j) in enumerate(product(range(size), repeat=2), 1):
        total = {(d, d): -1 for d in range(1 << n)} if i == j else {}  # - trace(E_ij) Id
        for a, b, p in c_unit(n, i, j):
            parity, r, c = tau_unit(n, a, b)
            total[a, b] = total.get((a, b), 0) + 1 - 2 * p
            total[r, c] = total.get((r, c), 0) + 1 - 2 * (p ^ parity)
        if not all([ring.is_zero(ring.from_int(x)) for x in total.values()]):
            out.fail_unit("(Id + tau) c(E_ij) is not trace(E_ij) Id", (i, j))
    if out.passed:
        out.note(f"(Id + tau) c = trace Id on all {units} units E_ij")
    return out


# --- trace-zero matrices land in Alt -----------------------------------------


def sl_basis(n: int) -> list[tuple[str, tuple[tuple[int, int, int], ...]]]:
    """The standard basis of sl_2n with labels, ring-free: the off-diagonal
    units E_ij and the differences E_kk - E_(k+1)(k+1), 4n^2 - 1 elements,
    each as its (row, col, integer coefficient) terms."""
    dim = 2 * n
    basis = [(f"E_({i},{j})", ((i, j, 1),)) for i in range(dim) for j in range(dim) if i != j]
    for k in range(dim - 1):
        basis.append((f"E_({k},{k}) - E_({k + 1},{k + 1})", ((k, k, 1), (k + 1, k + 1, -1))))
    return basis


def check_sl_into_alt(ring: Ring, n: int) -> CheckOutcome:
    """Trace-zero matrices map into the alternating elements when n >= 3.

    c is linear, so the standard basis of sl_2n covers every trace-zero
    matrix; the walk sums each image over Z on the supports `c_unit`, and
    the nonzero sums, mapped into the ring, go to `alternating_units`.  At
    n = 2 this runs as a negative control: the rank-one tensor
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
    for elements, (label, terms) in enumerate(sl_basis(n), 1):
        image: dict = {}  # c of the basis element over Z
        for i, j, x in terms:
            for a, b, p in c_unit(n, i, j):
                image[a, b] = image.get((a, b), 0) + (-x if p else x)
        values = {u: v for u, s in image.items() if not ring.is_zero(v := ring.from_int(s))}
        if not alternating_units(ring, n, values):
            out.fail(f"c({label}) is not alternating over {ring.name}, n={n}")
    if out.passed:
        out.note(f"{elements} basis elements of sl_{2 * n} map into Alt (n={n}, {ring.name})")
    return out


# --- the canonical semi-trace -------------------------------------------------


def canonical_semitrace(ring: Ring, n: int) -> SemiTrace:
    """The semi-trace with representative c(a) for the trace-1 unit E_{2n,2n}."""
    predicted = predicted_even_involution(ring, n)
    reason = None
    if predicted == "center-nontrivial":
        reason = "involution acts non-trivially on the center for odd n"
    elif "orthogonal" not in predicted:
        reason = "involution symplectic, not orthogonal"
    elif n < 4:
        reason = "no canonical semi-trace exists in degree 4"
    if reason:
        raise EligibilityError(f"canonical semi-trace unavailable for n={n} over {ring.name}: {reason}")
    return SemiTrace(canonical_map_c(phi_b_unit(ring, n, 0, 2 * n - 1)))


def check_representative_independence(f: SemiTrace) -> CheckOutcome:
    """f is the semi-trace of c(a') for every trace-1 a'.  c is linear, so
    c(a') - c(E) = c(a' - E) lies in c(sl_2n) for the trace-1 unit
    E = E_(2n-1,2n-1); with Sym^perp = Alt (`trace_orthogonality`) the claim
    holds exactly when f agrees with c(E) and c(sl_2n) lies in Alt, which
    `check_sl_into_alt` certifies for n >= 3 (at n = 2 c(sl_4) leaves Alt)."""
    ring, n = f.ring, f.n
    if n < 3:
        raise EligibilityError("representative independence needs n >= 3 (c(sl_4) is not in Alt)")
    out = trace_orthogonality(ring, n)
    last = 2 * n - 1
    if not f.agrees_with(SemiTrace(canonical_map_c(phi_b_unit(ring, n, 0, last)))):
        out.fail(f"f is not the semi-trace of c(E) for the trace-1 unit E = E_({last},{last})")
    out.merge(check_sl_into_alt(ring, n))
    if out.passed:
        out.note(f"so every trace-1 representative c(a') gives f, the semi-trace of c(E_({last},{last}))")
    return out


def check_semitrace_defining(f: SemiTrace) -> CheckOutcome:
    """f(x + tau(x)) = trace(x) for every even x, certified on the even units.

    f(s) = trace(l s) and trace(l E_ab) = l[b, a], so with
    tau(E_ab) = (-1)^p E_rc (`tau_unit`), f(E_ab + tau E_ab) is
    l[b, a] + (-1)^p l[c, r]; the walk checks that it is trace(E_ab) = [a == b]
    on each of the 2 * 4^(n-1) even units, and both sides are linear in x.
    Every representative l with l + tau(l) = 1 passes, as
    trace(l (x + tau x)) = trace((l + tau l) x): this certifies that f is a
    semi-trace, not which one it is."""
    ring, n = f.ring, f.n
    out = CheckOutcome()
    l = {(r, c): v for r, c, v in f.rep.matrix.nonzeros()}
    zero, ops, units = ring.zero, (ring.add, ring.sub), 0
    for masks in parity_masks(n):
        for a in masks:
            for b in masks:
                units += 1
                parity, r, c = tau_unit(n, a, b)
                got = ops[parity](l.get((b, a), zero), l.get((c, r), zero))
                if not ring.eq(got, ring.one if a == b else zero):
                    out.fail_unit("f(E_ab + tau E_ab) is not trace(E_ab)", (a, b))
    if out.passed:
        out.note(f"f(x + tau x) = trace(x) on all {units} even units, so on every even element")
    return out


def rank_one_wedge(x: ExteriorVector) -> CliffordElement:
    """The rank-one endomorphism m -> b(x, m) x of a parity block of wedge V,
    embedded block-diagonally in the even algebra: the tests' oracle for
    `SemiTrace.evaluate_rank_one`, which the checks call instead."""
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


def correspondence_with_q_wedge(f: SemiTrace) -> CheckOutcome:
    """The semi-trace f evaluates rank-one pairings to the quadratic form,
    f(b(x, _) x) = q(x) on both parity blocks, as the canonical one does.

    Both sides are quadratic forms in x, equal exactly when their
    coefficients on x_I^2 and on x_I x_J agree for I, J of one parity.  The
    left side is Q(x) = b(x, l x) = sum s(I) l[I^c, J] x_I x_J with
    s(I) = (-1)^`sign_exponent`(I), so one pass over the nonzeros of the
    representative l gives every coefficient of Q.  The right side is
    `q_wedge`, evaluated literally: on the basis vectors for x_I^2, and
    through its polar q(e_I + e_J) - q(e_I) - q(e_J) for x_I x_J on the
    complementary pairs and on every pair where Q has a nonzero
    coefficient.  On every other pair both coefficients are 0 given the
    premise that the polar of `q_wedge` is the pairing, nonzero on
    complementary pairs only, which `polar` certifies at the same (n, ring).
    """
    ring, n, full = f.ring, f.n, (1 << f.n) - 1
    coeffs: dict = {}  # (I, J) with I <= J -> Q's coefficient on x_I x_J
    for r, c, v in f.rep.matrix.nonzeros():
        i = full ^ r  # l[r, c] = l[I^c, J] with I = r^c and J = c
        pair, term = (min(i, c), max(i, c)), ring.mul(ring.sign(sign_exponent(i)), v)
        coeffs[pair] = ring.add(coeffs[pair], term) if pair in coeffs else term
    basis = [ExteriorVector.basis(ring, n, mask) for mask in range(full + 1)]
    qs = [q_wedge(e) for e in basis]
    pairs = {(i, i) for i in range(full + 1)} | {(i, full ^ i) for i in range(full + 1) if i < full ^ i}
    pairs |= {pair for pair, v in coeffs.items() if not ring.is_zero(v)}
    out, compared = CheckOutcome(), [(i, j) for i, j in sorted(pairs) if not mask_size(i ^ j) & 1]
    for i, j in compared:  # pairs of one parity block
        want = qs[i] if i == j else ring.sub(ring.sub(q_wedge(basis[i] + basis[j]), qs[i]), qs[j])
        got = coeffs.get((i, j), ring.zero)
        if not ring.eq(got, want):
            out.fail(f"coefficient of x_{i} x_{j}: f(b(x, _) x) gives {ring.show(got)}, q_wedge {ring.show(want)}")
    if out.passed:
        out.note(
            f"f(b(x, _) x) = q(x) on both parity blocks: {len(compared)} coefficients agree, every other "
            f"one is 0 as the polar of q_wedge is the pairing (`polar` at n={n}, {ring.name})"
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
    """The degree-4 negative result over every base R of characteristic 2.
    A canonical semi-trace commutes with base change, so it is stable under
    B(t) = eichler_vv(2, 1, t) over R[t], with t an indeterminate.

    Every l with l + tau(l) = 1 is sum a_k m_k over the eight even
    monomials with a7 = 0 and a4 = 1 + a3 (`degree4_alt_report`).  The lift
    g = 1 + t v1 v2* of B(t) is certified coefficient by coefficient in t
    (`lift_problem`), so B(t) preserves q: Phi(Bv)^2 = g Phi(v)^2 g^-1 = q(v).
    The move g^-1 l g - l, which in characteristic 2 equals l - g l g^-1,
    is linear in l: 0 on m0, m1, m2, m6 and m7, t v1v2* on m3 and on m4,
    t (v1v1* + v2v2*) + t^2 v1v2* on m5.  As a3 + a4 = 1, its t coefficient
    on a candidate is v1v2* + a5 (v1v1* + v2v2*), alternating for no a5, as
    v1v1* + v2v2* is alternating and v1v2* is not.  So B(t) moves every
    candidate off its class.  B(1), the only B(t) at a nonzero value of
    GF(2), fixes those with a5 = 1: the indeterminate excludes them.
    """
    if ring.char != 2:
        raise EligibilityError(f"the degree-4 counterexample needs characteristic 2, not {ring.name}")
    out = CheckOutcome()
    out.merge(degree4_alt_report(ring))
    b, g, g_inv = lift_polynomial(ring, 2, "eichler_vv", 2, 1)
    problem = lift_problem(b, g, g_inv)
    if problem:
        out.fail(f"B(t): {problem}")
    mono = even_monomials_n2(ring)
    pair, pairs = mono[2], mono[3] + mono[4]  # v1v2*, v1v1* + v2v2*
    moves = ({}, {}, {}, {1: pair}, {1: pair}, {1: pairs, 2: pair}, {}, {})
    for word, m, want in zip(EVEN_WORDS_N2, mono, moves):
        if conjugation_move(m, g, g_inv) != want:
            out.fail(f"g^-1 l g - l is not as stated on monomial {word}")
    if not in_alternating(pairs) or in_alternating(pair):
        out.fail("membership: v1v1* + v2v2* must be alternating and v1v2* must not")
    if out.passed:
        out.note(
            f"B(t) over {ring.name}[t] moves every candidate: the t coefficient of g^-1 l g - l "
            "is v1v2* + a5 (v1v1* + v2v2*), alternating for no a5"
        )
    return out


# --- base change ---------------------------------------------------------------


def map_matrix(phi: RingMorphism, m: Matrix) -> Matrix:
    """The entrywise image of m under phi, through its stored nonzeros."""
    return Matrix.from_nonzeros(phi.codomain, m.rows, m.cols, ((r, c, phi(v)) for r, c, v in m.nonzeros()))


def _base_change_tables(ring: Ring, n: int) -> Iterator[tuple[str, tuple | None, Matrix | Element]]:
    """What `base_change_report` compares at rank n, as (witness, matrix
    unit or None, value)."""
    one, size, dim = ring.one, 2 * n, 1 << n
    e = lambda *ks: [one if i in ks else ring.zero for i in range(size)]
    yield "Gram matrix", None, b_wedge_gram(ring, n)
    for k, l in combinations_with_replacement(range(size), 2):
        yield f"q(e_{k} + e_{l})" if k < l else f"q(e_{k})", None, HyperbolicSpace(ring, n).q(e(k, l))
    for mask in range(dim):
        yield f"q_wedge(v_{mask})", None, q_wedge(ExteriorVector.basis(ring, n, mask))
    yield "polar Gram of q_wedge", None, q_wedge_polar_gram(ring, n)
    for k in range(size):
        yield f"Phi(e_{k})", None, phi_vector(ring, n, e(k)).matrix
    for a, b in product(range(dim), repeat=2):
        unit = CliffordElement(ring, n, Matrix.from_nonzeros(ring, dim, dim, [(a, b, one)]))
        yield "tau(E_ab)", (a, b), canonical_involution(unit).matrix
        yield "trace(E_ab)", (a, b), reduced_trace(unit)
    for i, j in product(range(size), repeat=2):
        yield "c(E_ij)", (i, j), canonical_map_c(Matrix.from_nonzeros(ring, size, size, [(i, j, one)])).matrix
    yield "basis of Alt", None, alt_basis(ring, n)


def base_change_report() -> CheckOutcome:
    """Every construction commutes with the coefficient embedding phi of
    GF(2) into GF(4), decided on bases: at n = 2, 3, 4 each value of
    `_base_change_tables` over GF(4) is phi of the one over GF(2).  Phi,
    tau, the trace and c are linear, so their values on the units, odd ones
    included, decide every GF(4) input; q and q_wedge are decided by their
    values on a basis and their polars.  c(E_ij) = Phi(e_(2n-1-j)) Phi(e_i)
    runs over all ordered generator pairs, so Phi(m)^2 commutes.  Then
    (Id + tau) c = trace Id commutes, because tau, c and the trace do, and
    c(sl_2n) lies in Alt over GF(4) as over GF(2), both being spans of
    images of the GF(2) bases.  f(s) = trace(l s) and b(x, l x) follow from
    l and the Gram matrix.  Also checked: the morphism axioms, which the
    tables presuppose, the involution types at n = 2..5 and the canonical
    representative at n = 4.
    """
    phi = gf2_into_gf4()
    small, big = phi.domain, phi.codomain
    out = CheckOutcome()
    for a, b in product(small.elements(), repeat=2):
        if not big.eq(phi(small.add(a, b)), big.add(phi(a), phi(b))):
            out.fail(f"morphism does not preserve addition at ({a}, {b})")
        if not big.eq(phi(small.mul(a, b)), big.mul(phi(a), phi(b))):
            out.fail(f"morphism does not preserve multiplication at ({a}, {b})")
    if not (big.is_zero(phi(small.zero)) and big.is_one(phi(small.one))):
        out.fail("morphism does not preserve 0 and 1")
    if not out.passed:
        return out

    count = 0
    for n in (2, 3, 4):
        for (witness, unit, a), (_, _, b) in zip(_base_change_tables(small, n), _base_change_tables(big, n)):
            count += 1
            if not (map_matrix(phi, a) == b if isinstance(a, Matrix) else big.eq(phi(a), b)):
                witness = f"{witness} differs after base change at n={n}"
                if unit is None:
                    out.fail(witness)
                else:
                    out.fail_unit(witness, unit)

    for n in (2, 3, 4, 5):
        small_type, big_type = classify_even_involution(small, n), classify_even_involution(big, n)
        if small_type != big_type:
            out.fail(f"involution type differs after base change at n={n}: {small_type}, then {big_type}")
    if map_matrix(phi, canonical_semitrace(small, 4).rep.matrix) != canonical_semitrace(big, 4).rep.matrix:
        out.fail("canonical representative differs after base change")
    if out.passed:
        out.note(
            f"{count} values on bases at n = 2, 3, 4 commute with gf2 -> gf4, so every gf4 input "
            "does; involution types agree at n = 2..5, canonical representatives at n = 4"
        )
    return out
