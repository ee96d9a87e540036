"""Exterior algebra of a free module of rank n, indexed by subset bitmasks.

Subsets I of {1, .., n} are stored as bitmasks with bit i-1 set iff i is
in I, and the basis vector v_I is the wedge of the v_i for i in I in
increasing order.  All of wedge V is a coefficient vector of length 2^n
in ascending mask order; the even/odd grading is the popcount parity.
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
    total = 0
    i = 1
    while mask:
        if mask & 1:
            total += i
        mask >>= 1
        i += 1
    return total


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


@dataclass(frozen=True)
class ExteriorVector:
    """An element of wedge V as a dense coefficient list in mask order."""

    ring: Ring
    n: int
    coeffs: tuple

    def __post_init__(self):
        if len(self.coeffs) != 1 << self.n:
            raise UsageError("coefficient array must have length 2^n")

    @classmethod
    def zero(cls, ring: Ring, n: int) -> "ExteriorVector":
        return cls(ring, n, tuple(ring.zero for _ in range(1 << n)))

    @classmethod
    def basis(cls, ring: Ring, n: int, mask: int) -> "ExteriorVector":
        coeffs = [ring.zero] * (1 << n)
        coeffs[mask] = ring.one
        return cls(ring, n, tuple(coeffs))

    @classmethod
    def from_coeffs(cls, ring: Ring, n: int, coeffs) -> "ExteriorVector":
        return cls(ring, n, tuple(coeffs))

    def _check_mate(self, other: "ExteriorVector") -> None:
        if self.n != other.n or self.ring != other.ring:
            raise UsageError("operands live in different exterior algebras")

    def __add__(self, other: "ExteriorVector") -> "ExteriorVector":
        self._check_mate(other)
        add = self.ring.add
        return ExteriorVector(
            self.ring, self.n, tuple(add(a, b) for a, b in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other: "ExteriorVector") -> "ExteriorVector":
        self._check_mate(other)
        sub = self.ring.sub
        return ExteriorVector(
            self.ring, self.n, tuple(sub(a, b) for a, b in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self) -> "ExteriorVector":
        neg = self.ring.neg
        return ExteriorVector(self.ring, self.n, tuple(neg(a) for a in self.coeffs))

    def scale(self, c: Element) -> "ExteriorVector":
        mul = self.ring.mul
        return ExteriorVector(self.ring, self.n, tuple(mul(c, a) for a in self.coeffs))

    def wedge(self, other: "ExteriorVector") -> "ExteriorVector":
        self._check_mate(other)
        ring = self.ring
        out = [ring.zero] * (1 << self.n)
        for mi, a in enumerate(self.coeffs):
            if ring.is_zero(a):
                continue
            for mj, b in enumerate(other.coeffs):
                if ring.is_zero(b):
                    continue
                res = wedge_masks(mi, mj)
                if res is None:
                    continue
                sign, mu = res
                term = ring.mul(a, b)
                if sign < 0:
                    term = ring.neg(term)
                out[mu] = ring.add(out[mu], term)
        return ExteriorVector(ring, self.n, tuple(out))

    def reversal(self) -> "ExteriorVector":
        """Reverse the wedge factors: v_I picks up (-1)**(|I|(|I|-1)/2)."""
        ring = self.ring
        out = []
        for mask, a in enumerate(self.coeffs):
            k = mask_size(mask)
            out.append(a if k % 4 in (0, 1) else ring.neg(a))
        return ExteriorVector(ring, self.n, tuple(out))

    def pi_top(self) -> Element:
        """Coefficient of the top basis vector v_{1..n}."""
        return self.coeffs[(1 << self.n) - 1]

    def parity(self) -> str:
        """'even', 'odd' or 'mixed' by the supports; zero counts as even."""
        has_even = has_odd = False
        for mask, a in enumerate(self.coeffs):
            if not self.ring.is_zero(a):
                if mask_size(mask) % 2 == 0:
                    has_even = True
                else:
                    has_odd = True
        if has_even and has_odd:
            return "mixed"
        return "odd" if has_odd else "even"

    def __repr__(self) -> str:
        ring = self.ring
        terms = []
        for mask, a in enumerate(self.coeffs):
            if ring.is_zero(a):
                continue
            label = "1" if mask == 0 else "v" + "".join(map(str, mask_members(mask)))
            terms.append(f"{ring.show(a)}*{label}")
        return " + ".join(terms) if terms else "0"


def left_mult_matrix(x: ExteriorVector):
    """Matrix of left wedge multiplication by x on wedge V."""
    from .linalg import Matrix

    ring, n = x.ring, x.n
    dim = 1 << n
    entries = [ring.zero] * (dim * dim)
    for col in range(dim):
        for mi, a in enumerate(x.coeffs):
            if ring.is_zero(a):
                continue
            res = wedge_masks(mi, col)
            if res is None:
                continue
            sign, row = res
            val = a if sign > 0 else ring.neg(a)
            entries[row * dim + col] = ring.add(entries[row * dim + col], val)
    return Matrix(ring, dim, dim, entries)


def contraction_matrix(ring: Ring, n: int, i: int):
    """Matrix of the dual-basis contraction by v_i^*: a degree -1 derivation.

    On a basis vector the i-th factor is dropped with sign (-1)**(pos+1)
    where pos is its 1-based position in increasing order.
    """
    from .linalg import Matrix

    if not 1 <= i <= n:
        raise UsageError(f"index {i} outside 1..{n}")
    dim = 1 << n
    bit = 1 << (i - 1)
    entries = [ring.zero] * (dim * dim)
    for col in range(dim):
        if not col & bit:
            continue
        row = col & ~bit
        below = mask_size(col & (bit - 1))
        entries[row * dim + col] = ring.sign(below)
    return Matrix(ring, dim, dim, entries)
