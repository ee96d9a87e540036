"""Symmetric and alternating subspaces of the even algebra, and
semi-traces built from class representatives.

The involution permutes matrix units up to sign, so the image of Id - tau
and the kernel of Id - tau both have explicit bases indexed by unit
orbits, and membership in the alternating subspace is decided orbit by
orbit; no elimination is needed for either.  A basis is a `Matrix` with
one row per element, whose column r * 2^n + c holds the coefficient of
the unit E_rc.  A semi-trace is determined by a representative l with
l + tau(l) = 1 and evaluates symmetric elements via the reduced trace of
l * s; two representatives give the same semi-trace exactly when they differ by an alternating
element, because the alternating elements are the trace-orthogonal
complement of the symmetric ones; `trace_orthogonality` certifies this
on tau itself, with no basis built, as transposition carries tau-orbits
onto tau-orbits with their signs.  A rank-one pairing m -> b(x, m) x is
evaluated as trace(l * b(x, _) x) = b(x, l x).
"""

from __future__ import annotations

from .clifford import CliffordElement, canonical_involution, parity_masks, tau_unit
from .errors import DomainError, UnsupportedRingError, UsageError
from .exterior import ExteriorVector, mask_size
from .forms import b_wedge
from .linalg import Matrix, trace_of_product
from .reporting import CheckOutcome
from .rings import Element, Ring


def _orbits(ring: Ring, n: int):
    """Every even matrix unit E_rc with tau(E_rc) = sign * E_(pr, pc), as
    (r, c, pr, pc, sign, alt, sym).  tau squares to 1 on units
    (`trace_orthogonality`); an orbit gives its basis elements at its
    lower-indexed unit E_u (index r * 2^n + c, the column of E_rc in a basis),
    where alt and sym say whether it gives one to Alt (the image of
    Id - tau) and to Sym (the kernel): a two-unit orbit gives E_u - sign * E_p
    and E_u + sign * E_p, a fixed unit 2 E_u to Alt if its sign is -1 != 1
    (never in characteristic 2), E_u to Sym if it is 1."""
    if not ring.is_field:
        raise UnsupportedRingError(f"subspace bases need a field, not {ring.name}")
    signs, dim = (ring.one, ring.sign(1)), 1 << n
    plus = (True, ring.eq(signs[1], ring.one))
    for masks in parity_masks(n):
        for r in masks:
            for c in masks:
                parity, pr, pc = tau_unit(n, r, c)
                lower, fixed = r * dim + c < pr * dim + pc, (r, c) == (pr, pc)
                alt, sym = lower or fixed and not plus[parity], lower or fixed and plus[parity]
                yield r, c, pr, pc, signs[parity], alt, sym


def _orbit_basis(ring: Ring, n: int, alternating: bool) -> Matrix:
    """One row per tau-orbit of even units that gives the alternating or
    the symmetric subspace a basis element (see `_orbits`)."""
    dim, rows, triples = 1 << n, 0, []
    for r, c, pr, pc, sign, alt, sym in _orbits(ring, n):
        if alt if alternating else sym:
            u, p = r * dim + c, pr * dim + pc
            if u == p:
                triples.append((rows, u, ring.from_int(2) if alternating else ring.one))
            else:
                triples += ((rows, u, ring.one), (rows, p, ring.neg(sign) if alternating else sign))
            rows += 1
    return Matrix.from_nonzeros(ring, rows, dim * dim, triples)


def alt_basis(ring: Ring, n: int) -> Matrix:
    """Basis of Alt, the image of Id - tau, one row per element (see `_orbit_basis`)."""
    return _orbit_basis(ring, n, alternating=True)


def sym_basis(ring: Ring, n: int) -> Matrix:
    """Basis of Sym, the kernel of Id - tau, one row per element (see `_orbit_basis`)."""
    return _orbit_basis(ring, n, alternating=False)


def in_alternating(x: CliffordElement) -> bool:
    """Membership of an even element in Alt, its nonzeros read once (`alternating_units`)."""
    return alternating_units(x.ring, x.n, {(r, c): v for r, c, v in x.matrix.nonzeros()})


def alternating_units(ring: Ring, n: int, values: dict) -> bool:
    """Whether the element x with the nonzero values[r, c] at its units E_rc
    is alternating, decided orbit by orbit (see `alt_basis`): a two-unit
    orbit tau(E_u) = sign * E_p needs x[p] = -sign * x[u], and a fixed unit
    is zero unless its sign is -1 != 1.  An odd unit raises UsageError."""
    if not ring.is_field:
        raise UnsupportedRingError(f"membership tests need a field, not {ring.name}")
    if any(mask_size(r ^ c) & 1 for r, c in values):  # |r| and |c| of different parity
        raise UsageError("alternating membership is defined for even elements")
    neg_sign, sign_is_one = (ring.sign(1), ring.one), (True, ring.eq(ring.sign(1), ring.one))
    for (r, c), v in values.items():
        parity, pr, pc = tau_unit(n, r, c)
        if pr == r and pc == c:
            if sign_is_one[parity]:
                return False
        elif not ring.eq(values.get((pr, pc), ring.zero), ring.mul(neg_sign[parity], v)):
            return False
    return True


class SemiTrace:
    """A semi-trace on the symmetric elements of the even algebra.

    Carried by a representative l with l + tau(l) = 1; evaluation is
    s -> trace(l * s).  Replacing l by l + a for alternating a does not
    change any value on symmetric elements, and no other change of l keeps
    every value, so equality is decided by Alt membership of the
    difference of representatives.
    """

    def __init__(self, rep: CliffordElement):
        ring, n = rep.ring, rep.n
        if rep.parity != "even":
            raise DomainError("a semi-trace representative must be even")
        ident = CliffordElement.identity(ring, n)
        if rep + canonical_involution(rep) != ident:
            raise DomainError("representative does not satisfy l + tau(l) = 1")
        self.ring = ring
        self.n = n
        self.rep = rep

    def evaluate(self, s: CliffordElement) -> Element:
        """Value on a symmetric element: the reduced trace of rep * s,
        summed without forming the product."""
        if (s.ring is not self.ring and s.ring != self.ring) or s.n != self.n:
            raise UsageError("the element lives in a different algebra")
        return trace_of_product(self.rep.matrix, s.matrix)

    def evaluate_rank_one(self, x: ExteriorVector) -> Element:
        """Value on the rank-one pairing m -> b(x, m) x of a parity block
        (`canonical.rank_one_wedge`) as b(x, l x), with no matrix built; at
        odd n, b joins the two blocks and the value is 0."""
        if x.parity() == "mixed":
            raise UsageError("rank-one pairing needs a parity-homogeneous element")
        if (x.ring is not self.ring and x.ring != self.ring) or x.n != self.n:
            raise UsageError("the element lives in a different algebra")
        lx = ExteriorVector(self.ring, self.n, self.rep.matrix.apply(x.terms))
        return b_wedge(x, lx)

    def agrees_with(self, other: "SemiTrace") -> bool:
        """Equality as semi-traces: the representatives differ by an
        alternating element, exact since Sym^perp = Alt
        (`trace_orthogonality`)."""
        if (self.ring is not other.ring and self.ring != other.ring) or self.n != other.n:
            return False
        return in_alternating(self.rep - other.rep)


def trace_orthogonality(ring: Ring, n: int) -> CheckOutcome:
    """Sym^perp = Alt under the trace form, which is nondegenerate on the
    even algebra, certified on tau itself in one walk over the units,
    which also checks that tau squares to 1 on each unit, as `_orbits` assumes.

    trace(E_ab E_cd) = [b == c][a == d], so only transposed units pair.
    For every even unit E_rc, tau(E_cr) must be the transpose of tau(E_rc)
    with the same sign in the ring.  Transposition then carries each orbit
    onto an orbit with its sign: an orbit's Alt element E_u - s E_p (see
    `_orbits`) pairs with the Sym element of the transposed orbit to
    1 - s^2 = 0 and with every other one to 0, and a fixed unit and its
    transpose give Alt or Sym an element, never both.  The orbit bases have
    disjoint supports and 2 * 4^(n-1) elements, the even algebra's dimension.
    """
    out = CheckOutcome()
    dim_alt = dim_sym = 0
    for r, c, pr, pc, sign, alt, sym in _orbits(ring, n):
        back, br, bc = tau_unit(n, pr, pc)
        if (br, bc) != (r, c) or not ring.eq(ring.sign(back), sign):  # sign^2 = 1
            out.fail_unit("tau does not square to 1", (r, c))
        parity, tr, tc = tau_unit(n, c, r)
        if (tr, tc) != (pc, pr) or not ring.eq(ring.sign(parity), sign):
            out.fail_unit("tau(E_cr) is not the transpose of tau(E_rc) with its sign", (r, c))
        dim_alt, dim_sym = dim_alt + alt, dim_sym + sym
    if dim_alt + dim_sym != 2 * 4 ** (n - 1):
        out.fail(f"dim Alt + dim Sym = {dim_alt} + {dim_sym}, not {2 * 4 ** (n - 1)}")
    if out.passed:
        out.note(
            f"Sym^perp = Alt: {dim_alt} alternating and {dim_sym} symmetric basis "
            f"elements, pairwise trace-orthogonal (n={n}, {ring.name})"
        )
    return out
