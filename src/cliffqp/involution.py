"""Symmetric and alternating subspaces of the even algebra, and
semi-traces built from class representatives.

The involution permutes matrix units up to sign, so the image of Id - tau
and the kernel of Id - tau both have explicit bases indexed by unit
orbits, and membership in the alternating subspace is decided orbit by
orbit; no elimination is needed for either.  A semi-trace is determined
by a representative l with l + tau(l) = 1 and evaluates symmetric
elements via the reduced trace of l * s; two representatives give the
same semi-trace exactly when they differ by an alternating element,
because the alternating elements are the trace-orthogonal complement of
the symmetric ones (`trace_orthogonality`).
"""

from __future__ import annotations

from dataclasses import dataclass

from .clifford import (
    CliffordElement,
    canonical_involution,
    flatten_even,
    parity_masks,
    tau_unit,
)
from .errors import DomainError, UnsupportedRingError, UsageError
from .linalg import Matrix, trace_of_product
from .reporting import CheckOutcome
from .rings import Element, Ring

# A unit combo is a list of (coefficient, (row mask, col mask)) pairs; it
# stands for a sum of scaled matrix units inside the even algebra.
UnitCombo = list[tuple[Element, tuple[int, int]]]


@dataclass(frozen=True)
class SubspaceBasis:
    """Linearly independent unit combos spanning a subspace of the even
    algebra."""

    ring: Ring
    n: int
    combos: tuple[UnitCombo, ...]

    def __len__(self) -> int:
        return len(self.combos)

    def elements(self) -> list[CliffordElement]:
        return [self.element(i) for i in range(len(self.combos))]

    def element(self, i: int) -> CliffordElement:
        dim = 1 << self.n
        m = Matrix.zeros(self.ring, dim, dim)
        for coef, (r, c) in self.combos[i]:
            m.put(r, c, self.ring.add(m.at(r, c), coef))
        return CliffordElement(self.ring, self.n, m)

    def vectors(self) -> list[list]:
        return [flatten_even(e) for e in self.elements()]


def _even_units(n: int) -> list[tuple[int, int]]:
    """Matrix-unit positions inside the even algebra, row-major per block."""
    even, odd = parity_masks(n)
    units = []
    for masks in (even, odd):
        for r in masks:
            for c in masks:
                units.append((r, c))
    return units


def _unit_orbits(ring: Ring, n: int):
    """Orbits of even matrix units under the involution, with the unit signs.

    Yields (kind, data): kind 'fixed' with (unit, sign) for tau-eigenunits,
    kind 'pair' with (unit, partner, sign) where tau(E_unit) = sign * E_partner.
    """
    units = _even_units(n)
    position = {u: i for i, u in enumerate(units)}
    for i, (a, b) in enumerate(units):
        parity, r, c = tau_unit(n, a, b)
        partner = (r, c)
        sign = ring.sign(parity)
        if partner == (a, b):
            yield "fixed", ((a, b), sign)
        elif position[partner] > i:
            yield "pair", ((a, b), partner, sign)


def alt_basis(ring: Ring, n: int) -> SubspaceBasis:
    """Basis of the alternating elements, the image of Id - tau.

    Each unit orbit contributes independently: a two-element orbit gives
    E - sign * tau-partner, and a fixed unit contributes 2E only when its
    sign is -1 (so never in characteristic 2).
    """
    if not ring.is_field:
        raise UnsupportedRingError(f"subspace bases need a field, not {ring.name}")
    combos: list[UnitCombo] = []
    two = ring.from_int(2)
    for kind, data in _unit_orbits(ring, n):
        if kind == "pair":
            unit, partner, sign = data
            combos.append([(ring.one, unit), (ring.neg(sign), partner)])
        else:
            unit, sign = data
            if not ring.eq(sign, ring.one):
                combos.append([(two, unit)])
    return SubspaceBasis(ring, n, tuple(combos))


def sym_basis(ring: Ring, n: int) -> SubspaceBasis:
    """Basis of the symmetric elements, the kernel of Id - tau."""
    if not ring.is_field:
        raise UnsupportedRingError(f"subspace bases need a field, not {ring.name}")
    combos: list[UnitCombo] = []
    for kind, data in _unit_orbits(ring, n):
        if kind == "pair":
            unit, partner, sign = data
            combos.append([(ring.one, unit), (sign, partner)])
        else:
            unit, sign = data
            if ring.eq(sign, ring.one):
                combos.append([(ring.one, unit)])
    return SubspaceBasis(ring, n, tuple(combos))


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

    def agrees_with(self, other: "SemiTrace") -> bool:
        """Equality as semi-traces: the representatives differ by an
        alternating element, exact since Sym^perp = Alt
        (`trace_orthogonality`)."""
        if self.ring != other.ring or self.n != other.n:
            return False
        return in_alternating(self.rep - other.rep)


def semi_trace_from(rep: CliffordElement) -> SemiTrace:
    """Build the semi-trace s -> trace(rep * s); validates the representative."""
    return SemiTrace(rep)


def trace_orthogonality(ring: Ring, n: int) -> CheckOutcome:
    """Sym^perp = Alt under the trace form, which is nondegenerate on the
    even algebra: the alternating and symmetric basis elements pair to zero
    and number 2 * 4^(n-1) together.  trace(E_ab E_cd) = [b == c][a == d],
    so only transposed units pair.
    """
    out = CheckOutcome()
    alt, sym = alt_basis(ring, n), sym_basis(ring, n)
    # each unit lies in one tau-orbit, so in at most one symmetric basis element
    holder = {unit: (s, coef) for s, combo in enumerate(sym.combos) for coef, unit in combo}
    for combo in alt.combos:
        totals: dict[int, Element] = {}
        for coef, (r, c) in combo:
            if (c, r) in holder:
                s, scoef = holder[(c, r)]
                totals[s] = ring.add(totals.get(s, ring.zero), ring.mul(coef, scoef))
        for s, total in totals.items():
            if not ring.is_zero(total):
                out.fail(
                    f"trace pairing nonzero: alt {combo!r} vs sym {sym.combos[s]!r} "
                    f"-> {ring.show(total)}"
                )
    if len(alt) + len(sym) != 2 * 4 ** (n - 1):
        out.fail(f"dim Alt + dim Sym = {len(alt)} + {len(sym)}, not {2 * 4 ** (n - 1)}")
    if out.passed:
        out.note(
            f"Sym^perp = Alt: {len(alt)} alternating and {len(sym)} symmetric basis "
            f"elements, pairwise trace-orthogonal (n={n}, {ring.name})"
        )
    return out
