"""Commutative rings with exact arithmetic.

Elements are plain Python values (ints, pairs, Fractions) and every
operation goes through a Ring object, so the same matrix and algebra code
runs unchanged over GF(p), GF(4), the rationals and the integers.
Equality of elements is structural and exact in every ring.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence

from .errors import DomainError

Element = Any


class Ring:
    """Base class: a commutative unital ring with decidable equality."""

    name: str
    char: int
    is_field: bool
    zero: Element
    one: Element

    def add(self, a: Element, b: Element) -> Element:
        raise NotImplementedError

    def neg(self, a: Element) -> Element:
        raise NotImplementedError

    def sub(self, a: Element, b: Element) -> Element:
        return self.add(a, self.neg(b))

    def mul(self, a: Element, b: Element) -> Element:
        raise NotImplementedError

    def inv(self, a: Element) -> Element:
        raise NotImplementedError

    def eq(self, a: Element, b: Element) -> bool:
        return a == b

    def is_zero(self, a: Element) -> bool:
        return a == self.zero

    def is_one(self, a: Element) -> bool:
        return a == self.one

    def from_int(self, k: int) -> Element:
        raise NotImplementedError

    def sign(self, parity: int) -> Element:
        """(-1)**parity as a ring element."""
        return self.one if parity % 2 == 0 else self.neg(self.one)

    def lift(self, rows: Sequence[dict]) -> Optional[tuple[list[dict], int]]:
        """The rows {col: nonzero} of a matrix as exact ints with one common
        scale: the entry at (r, c) is ints[r][c] / scale.

        Matrix kernels multiply and add these ints and map each finished
        row back once through `lower`.  GF(p) and Z rows are their own
        image; Q rows are scaled by the lcm of their denominators.  None
        means the ring has no such lift and the kernels go through the ring
        methods instead: GF(4) is that ring, because no packing of its pairs
        into one int was faster than its bit operations.
        """
        return None

    def lower(self, pairs: Iterable[tuple[int, int]], scale: int) -> dict[int, Element]:
        """The row {col: nonzero} of the ring elements v / scale over the
        (col, v) pairs, v a sum of products of lifted ints.

        scale is the product of the scales the lifted factors came with.
        """
        raise NotImplementedError

    def elements(self) -> Iterator[Element]:
        """All elements, for finite rings only."""
        raise NotImplementedError(f"{self.name} is not finite")

    def sample(self, rng) -> Element:
        raise NotImplementedError

    def show(self, a: Element) -> str:
        return str(a)

    def __repr__(self) -> str:
        return self.name

    def __eq__(self, other) -> bool:
        return isinstance(other, Ring) and self.name == other.name

    def __hash__(self) -> int:
        return hash(self.name)


class PrimeField(Ring):
    """GF(p) for a small prime p; elements are ints in [0, p)."""

    def __init__(self, p: int):
        if p < 2 or any(p % d == 0 for d in range(2, p)):
            raise DomainError(f"{p} is not prime")
        self.p = p
        self.name = f"gf{p}"
        self.char = p
        self.is_field = True
        self.zero = 0
        self.one = 1 % p

    def add(self, a, b):
        return (a + b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise DomainError(f"zero is not invertible in {self.name}")
        return pow(a, self.p - 2, self.p)

    def from_int(self, k):
        return k % self.p

    def lift(self, rows):
        return rows, 1

    def lower(self, pairs, scale):
        p = self.p  # scale is always 1 here
        return {j: r for j, v in pairs if (r := v % p)}

    def elements(self):
        return iter(range(self.p))

    def sample(self, rng):
        return rng.randrange(self.p)


class GaloisField4(Ring):
    """GF(4) = GF(2)[w]/(w^2 + w + 1); elements are pairs (a, b) = a + b*w."""

    def __init__(self):
        self.name = "gf4"
        self.char = 2
        self.is_field = True
        self.zero = (0, 0)
        self.one = (1, 0)
        self.omega = (0, 1)

    def add(self, a, b):
        return (a[0] ^ b[0], a[1] ^ b[1])

    def neg(self, a):
        return a

    def mul(self, a, b):
        # (a0 + a1 w)(b0 + b1 w) with w^2 = w + 1
        x = a[1] & b[1]
        return ((a[0] & b[0]) ^ x, (a[0] & b[1]) ^ (a[1] & b[0]) ^ x)

    def inv(self, a):
        if a == self.zero:
            raise DomainError("zero is not invertible in gf4")
        return self.mul(a, a)  # x^3 = 1 for nonzero x

    def from_int(self, k):
        return (k % 2, 0)

    def elements(self):
        return iter([(0, 0), (1, 0), (0, 1), (1, 1)])

    def sample(self, rng):
        return (rng.randrange(2), rng.randrange(2))

    def show(self, a):
        return {(0, 0): "0", (1, 0): "1", (0, 1): "w", (1, 1): "1+w"}[a]


class Rationals(Ring):
    """Exact rationals; Fraction keeps lowest terms and positive denominator."""

    def __init__(self):
        self.name = "q"
        self.char = 0
        self.is_field = True
        self.zero = Fraction(0)
        self.one = Fraction(1)
        # the 171 values `sample` draws, keyed by its two draws: a lookup
        # costs less than building and reducing a Fraction per draw
        self._samples = {(a, b): Fraction(a, b) for a in range(-9, 10) for b in range(1, 10)}

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        if a == 0:
            raise DomainError("zero is not invertible in q")
        return 1 / a

    def is_zero(self, a):
        return not a  # Fraction.__bool__ is cheaper than comparing with zero

    def from_int(self, k):
        return Fraction(k)

    def lift(self, rows):
        scale = lcm(*{x.denominator for row in rows for x in row.values()})
        ints = [{c: x.numerator * (scale // x.denominator) for c, x in row.items()} for row in rows]
        return ints, scale

    def lower(self, pairs, scale):
        return {j: Fraction(v, scale) for j, v in pairs if v}

    def sample(self, rng):
        return self._samples[rng.randint(-9, 9), rng.randint(1, 9)]


class Integers(Ring):
    """Arbitrary-precision integers; only the units +1 and -1 invert."""

    def __init__(self):
        self.name = "z"
        self.char = 0
        self.is_field = False
        self.zero = 0
        self.one = 1

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        if a not in (1, -1):
            raise DomainError(f"{a} is not a unit in z")
        return a

    def from_int(self, k):
        return k

    def lift(self, rows):
        return rows, 1

    def lower(self, pairs, scale):
        return {j: v for j, v in pairs if v}  # scale is always 1 here

    def sample(self, rng):
        return rng.randint(-9, 9)


GF2 = PrimeField(2)
GF3 = PrimeField(3)
GF4 = GaloisField4()
GF5 = PrimeField(5)
QQ = Rationals()
ZZ = Integers()

RING_BY_NAME = {r.name: r for r in (GF2, GF3, GF4, GF5, QQ, ZZ)}


def ring_by_name(name: str) -> Ring:
    try:
        return RING_BY_NAME[name]
    except KeyError:
        raise DomainError(f"unknown ring {name!r}; choose from {sorted(RING_BY_NAME)}")


@dataclass(frozen=True)
class RingMorphism:
    """An explicit coefficient map between rings, preserving 0, 1, + and *."""

    domain: Ring
    codomain: Ring
    fn: Callable[[Element], Element]
    name: str

    def __call__(self, a: Element) -> Element:
        return self.fn(a)


def gf2_into_gf4() -> RingMorphism:
    return RingMorphism(GF2, GF4, lambda a: (a, 0), "gf2->gf4")
