"""Symmetric and alternating subspaces of the even algebra, and
semi-traces built from class representatives.

The involution permutes matrix units up to sign, so the image of Id - tau
and the kernel of Id - tau both have explicit bases indexed by unit
orbits, and membership in the alternating subspace is decided orbit by
orbit; no elimination is needed for either.  A basis is a `Matrix` with
one row per element in the coordinates of `Matrix.entries`: column
r * 2^n + c holds the coefficient of the unit E_rc.  A semi-trace is
determined by a representative l with l + tau(l) = 1 and evaluates
symmetric elements via the reduced trace of l * s; two representatives
give the same semi-trace exactly when they differ by an alternating
element, because the alternating elements are the trace-orthogonal
complement of the symmetric ones (`trace_orthogonality`).  A rank-one
pairing m -> b(x, m) x is evaluated as trace(l * b(x, _) x) = b(x, l x).
"""

from __future__ import annotations

from itertools import groupby
from operator import itemgetter

from .clifford import CliffordElement, canonical_involution, parity_masks, tau_unit
from .errors import DomainError, UnsupportedRingError, UsageError
from .exterior import ExteriorVector
from .forms import b_wedge
from .linalg import Matrix, trace_of_product
from .reporting import CheckOutcome
from .rings import Element, Ring


def _orbit_basis(ring: Ring, n: int, alternating: bool) -> Matrix:
    """One row per tau-orbit of even matrix units that contributes to the
    alternating (image of Id - tau) or symmetric (kernel) subspace; column
    r * 2^n + c stands for E_rc, as in `Matrix.entries`.

    An orbit is visited from its lower-indexed unit E_u, with
    tau(E_u) = sign * E_p.  A two-unit orbit gives E_u - sign * E_p to Alt
    and E_u + sign * E_p to Sym; a fixed unit gives 2 E_u to Alt when its
    sign is -1 != 1 (so never in characteristic 2), and E_u to Sym when
    its sign is 1.
    """
    if not ring.is_field:
        raise UnsupportedRingError(f"subspace bases need a field, not {ring.name}")
    dim = 1 << n
    one, two = ring.one, ring.from_int(2)
    orbits = []
    for masks in parity_masks(n):
        for r in masks:
            for c in masks:
                parity, pr, pc = tau_unit(n, r, c)
                u, p = r * dim + c, pr * dim + pc
                sign = ring.sign(parity)
                if u < p:
                    orbits.append(((u, one), (p, ring.neg(sign) if alternating else sign)))
                elif u == p and ring.eq(sign, one) != alternating:
                    orbits.append(((u, two if alternating else one),))
    triples = ((k, col, v) for k, orbit in enumerate(orbits) for col, v in orbit)
    return Matrix.from_nonzeros(ring, len(orbits), dim * dim, triples)


def alt_basis(ring: Ring, n: int) -> Matrix:
    """Basis of the alternating elements, the image of Id - tau, one row
    per element over the matrix units (see `_orbit_basis`)."""
    return _orbit_basis(ring, n, alternating=True)


def sym_basis(ring: Ring, n: int) -> Matrix:
    """Basis of the symmetric elements, the kernel of Id - tau, one row
    per element over the matrix units (see `_orbit_basis`)."""
    return _orbit_basis(ring, n, alternating=False)


def in_alternating(x: CliffordElement) -> bool:
    """Membership of an even element in the alternating subspace, orbit by
    orbit (see `alt_basis`): a two-unit orbit tau(E_u) = sign * E_p needs
    x[p] = -sign * x[u], and a fixed unit is zero unless its sign is -1 != 1.
    """
    ring, n = x.ring, x.n
    if not ring.is_field:
        raise UnsupportedRingError(f"membership tests need a field, not {ring.name}")
    if x.parity != "even":
        raise UsageError("alternating membership is defined for even elements")
    m = x.matrix
    for r, c, v in m.nonzeros():
        parity, pr, pc = tau_unit(n, r, c)
        sign = ring.sign(parity)
        if (pr, pc) == (r, c):
            if ring.eq(sign, ring.one):
                return False
        elif not ring.eq(m.at(pr, pc), ring.neg(ring.mul(sign, v))):
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
        if s.ring != self.ring or s.n != self.n:
            raise UsageError("the element lives in a different algebra")
        return trace_of_product(self.rep.matrix, s.matrix)

    def evaluate_rank_one(self, x: ExteriorVector) -> Element:
        """Value on the rank-one pairing m -> b(x, m) x of a parity block
        (`canonical.rank_one_wedge`) as b(x, l x), with no matrix built; at
        odd n, b joins the two blocks and the value is 0."""
        if x.parity() == "mixed":
            raise UsageError("rank-one pairing needs a parity-homogeneous element")
        if x.ring != self.ring or x.n != self.n:
            raise UsageError("the element lives in a different algebra")
        lx = ExteriorVector(self.ring, self.n, self.rep.matrix.apply(x.terms))
        return b_wedge(x, lx)

    def agrees_with(self, other: "SemiTrace") -> bool:
        """Equality as semi-traces: the representatives differ by an
        alternating element, exact since Sym^perp = Alt
        (`trace_orthogonality`)."""
        if self.ring != other.ring or self.n != other.n:
            return False
        return in_alternating(self.rep - other.rep)


def trace_orthogonality(ring: Ring, n: int) -> CheckOutcome:
    """Sym^perp = Alt under the trace form, which is nondegenerate on the
    even algebra: the alternating and symmetric basis elements pair to zero
    and number 2 * 4^(n-1) together.  trace(E_ab E_cd) = [b == c][a == d],
    so only transposed units pair.
    """
    out = CheckOutcome()
    alt, sym = alt_basis(ring, n), sym_basis(ring, n)
    dim = 1 << n
    # each unit lies in one tau-orbit, so in at most one symmetric basis element
    holder = {k: s for s, k, _ in sym.nonzeros()}
    for a, terms in groupby(alt.nonzeros(), key=itemgetter(0)):
        totals: dict[int, Element] = {}
        for _, k, coef in terms:
            swapped = k % dim * dim + k // dim  # E_rc -> E_cr
            if swapped in holder:
                s = holder[swapped]
                totals[s] = ring.add(totals.get(s, ring.zero), ring.mul(coef, sym.at(s, swapped)))
        for s, total in totals.items():
            if not ring.is_zero(total):
                out.fail(f"trace pairing nonzero: alt basis row {a} vs sym basis row {s} -> {ring.show(total)}")
    if alt.rows + sym.rows != 2 * 4 ** (n - 1):
        out.fail(f"dim Alt + dim Sym = {alt.rows} + {sym.rows}, not {2 * 4 ** (n - 1)}")
    if out.passed:
        out.note(
            f"Sym^perp = Alt: {alt.rows} alternating and {sym.rows} symmetric basis "
            f"elements, pairwise trace-orthogonal (n={n}, {ring.name})"
        )
    return out
