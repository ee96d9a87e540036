"""Exterior algebra of a free module of rank n, indexed by subset bitmasks.

Subsets I of {1, .., n} are bitmasks with bit i-1 set iff i is in I, and
v_I is the wedge of the v_i for i in I in increasing order.  An element
of wedge V stores only its nonzero coefficients, as a dict {mask:
coefficient} in the idiom of a `Matrix` row, so every operation walks the
stored terms; the even/odd grading is the popcount parity.  `+`, `wedge`
and `reversal` skip the constructor's mask check: their masks are in
range by construction.  No matrices are built here: `clifford` builds
the generator matrices from the mask arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .errors import UsageError
from .rings import Element, Ring


def mask_size(mask: int) -> int:
    return mask.bit_count()


def mask_total(mask: int) -> int:
    """Sum of the 1-based members of the subset."""
    return sum(mask_members(mask))


@lru_cache(maxsize=None)  # one int per distinct mask: at most 2^n at rank n
def sign_exponent(mask: int) -> int:
    """Exponent (sum of I) - |I|, i.e. the sum of the 0-based bit positions."""
    return mask_total(mask) - mask_size(mask)


def mask_members(mask: int) -> tuple[int, ...]:
    return tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


def inversions(mask_i: int, mask_j: int) -> int:
    """Pairs (a, b) in I x J with a > b, counted over the bit positions."""
    count = 0
    for pos in range(mask_j.bit_length()):
        if mask_j >> pos & 1:
            count += mask_size(mask_i >> (pos + 1))
    return count


def wedge_masks(mask_i: int, mask_j: int) -> Optional[tuple[int, int]]:
    """(sign, union mask) for v_I ^ v_J, or None when I and J overlap."""
    if mask_i & mask_j:
        return None
    sign = -1 if inversions(mask_i, mask_j) % 2 else 1
    return sign, mask_i | mask_j


@dataclass(slots=True)
class ExteriorVector:
    """An element of wedge V as a dict {mask: nonzero coefficient}; zero
    coefficients are never stored, so structural equality is equality.
    No operation writes into an existing vector; vectors are unhashable."""

    ring: Ring
    n: int
    terms: dict

    def __post_init__(self):
        if self.terms and (min(self.terms) < 0 or max(self.terms) >> self.n):
            raise UsageError(f"subset mask outside 0..2^{self.n}-1")

    @classmethod
    def _unchecked(cls, ring: Ring, n: int, terms: dict) -> "ExteriorVector":
        """The vector with these terms, without the mask check."""
        v = cls.__new__(cls)
        v.ring, v.n, v.terms = ring, n, terms
        return v

    @classmethod
    def basis(cls, ring: Ring, n: int, mask: int) -> "ExteriorVector":
        return cls(ring, n, {mask: ring.one})

    def _check_mate(self, other: "ExteriorVector") -> None:
        if self.n != other.n or (self.ring is not other.ring and self.ring != other.ring):  # `is` skips a Python call
            raise UsageError("operands live in different exterior algebras")

    def __add__(self, other: "ExteriorVector") -> "ExteriorVector":
        self._check_mate(other)
        add, is_zero = self.ring.add, self.ring.is_zero
        terms = dict(self.terms)
        for mask, b in other.terms.items():
            c = add(terms[mask], b) if mask in terms else b
            if is_zero(c):
                del terms[mask]
            else:
                terms[mask] = c
        return ExteriorVector._unchecked(self.ring, self.n, terms)

    def wedge(self, other: "ExteriorVector") -> "ExteriorVector":
        self._check_mate(other)
        ring = self.ring
        out: dict = {}
        for mi, a in self.terms.items():
            for mj, b in other.terms.items():
                res = wedge_masks(mi, mj)
                if res is None:
                    continue
                sign, mu = res
                term = ring.mul(a, b)
                if sign < 0:
                    term = ring.neg(term)
                out[mu] = ring.add(out[mu], term) if mu in out else term
        terms = {mask: c for mask, c in out.items() if not ring.is_zero(c)}
        return ExteriorVector._unchecked(ring, self.n, terms)

    def reversal(self) -> "ExteriorVector":
        """Reverse the wedge factors: v_I picks up (-1)**(|I|(|I|-1)/2)."""
        neg = self.ring.neg
        terms = {
            mask: a if mask_size(mask) % 4 in (0, 1) else neg(a) for mask, a in self.terms.items()
        }
        return ExteriorVector._unchecked(self.ring, self.n, terms)

    def pi_top(self) -> Element:
        """Coefficient of the top basis vector v_{1..n}."""
        return self.terms.get((1 << self.n) - 1, self.ring.zero)

    def parity(self) -> str:
        """'even', 'odd' or 'mixed' by the supports; zero counts as even."""
        parities = {mask_size(mask) % 2 for mask in self.terms}
        if len(parities) == 2:
            return "mixed"
        return "odd" if parities == {1} else "even"

    def __repr__(self) -> str:
        terms = []
        for mask, a in sorted(self.terms.items()):
            label = "1" if mask == 0 else "v" + "".join(map(str, mask_members(mask)))
            terms.append(f"{self.ring.show(a)}*{label}")
        return " + ".join(terms) if terms else "0"

