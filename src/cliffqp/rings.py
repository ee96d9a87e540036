"""Commutative rings with exact arithmetic.

Elements are plain Python values (ints, Fractions) and every operation
goes through a Ring object, so the same matrix and algebra code runs
unchanged over GF(p), GF(4), the rationals and the integers.  Equality of
elements is structural and exact in every ring.  A `Matrix` stores ints:
`lift` maps elements to them, `lower` reduces int sums of products back
to stored ints, and `element` reads one stored int as an element.
Every ring lists in `draws` the values its random elements are drawn from,
uniformly, and `samples(rng, count)` draws count of them, one
`draws[rng.randrange(len(draws))]` per value.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import isqrt, lcm
from typing import Any, Callable, Iterable, Iterator, Sequence

from .errors import DomainError

Element = Any


class Ring:
    """Base class: a commutative unital ring with decidable equality."""

    name: str
    char: int
    is_field: bool
    zero: Element
    one: Element
    draws: Sequence[Element]  # what `samples` draws from, each entry equally likely

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

    _signs = cached_property(lambda self: (self.one, self.neg(self.one)))  # what `sign` returns

    def sign(self, parity: int) -> Element:
        """(-1)**parity as a ring element, one of a stored pair."""
        return self._signs[parity % 2]

    def lift(self, values: Sequence[Element]) -> tuple[list[int], int]:
        """The ints a `Matrix` stores for the values, and their common scale:
        value i is `element(ints[i], scale)`.  GF(p) (mod p) and Z store
        the elements at scale 1, GF(4) a + b*w as a | b << 32, and Q the
        numerators over the lcm of the denominators.  Values that are
        stored ints already may come back as the same list."""
        raise NotImplementedError

    def lower(self, rows: Iterable[Iterable[tuple[int, int]]]) -> list[dict[int, int]]:
        """Per row of (col, v) pairs, v a sum of products of stored ints,
        the row {col: nonzero stored int}; one call lowers a whole matrix,
        whose scale is the product of the factors' scales."""
        return [{j: v for j, v in row if v} if row else {} for row in rows]

    def element(self, v: int, scale: int) -> Element:
        """The element stored as v in a matrix of that scale."""
        return v

    def elements(self) -> Iterator[Element]:
        """All elements, for finite rings only."""
        raise NotImplementedError(f"{self.name} is not finite")

    def samples(self, rng, count: int) -> list[Element]:
        """count entries of `draws`, each drawn uniformly by rng.randrange."""
        draws, below = self.draws, rng.randrange
        return [draws[below(len(draws))] for _ in range(count)]

    def show(self, a: Element) -> str:
        return str(a)

    def __repr__(self) -> str:
        return self.name

    def __eq__(self, other) -> bool:
        return isinstance(other, Ring) and self.name == other.name

    def __hash__(self) -> int:
        return hash(self.name)


class PrimeField(Ring):
    """GF(p) for a prime p; elements are ints in [0, p)."""

    def __init__(self, p: int):
        if p < 2 or any(p % d == 0 for d in range(2, isqrt(p) + 1)):
            raise DomainError(f"{p} is not a prime")
        self.p = p
        self.name = f"gf{p}"
        self.char = p
        self.is_field = True
        self.zero = 0
        self.one = 1 % p
        self.draws = range(p)

    def add(self, a, b):
        return (a + b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise DomainError(f"zero is not invertible in {self.name}")
        return pow(a, self.p - 2, self.p)

    def from_int(self, k):
        return k % self.p

    def lift(self, values):
        p = self.p
        ints = [x % p for x in values]
        return (values if ints == values else ints), 1  # reduced values are kept as they are

    def lower(self, rows):
        p = self.p
        return [{j: r for j, v in row if (r := v % p)} if row else {} for row in rows]

    def elements(self):
        return iter(range(self.p))


W = 1 << 32  # the element w of GF(4)
_SLOT_PARITIES = 1 | W | W * W  # the lowest bit of each slot of a GF(4) sum


class GaloisField4(Ring):
    """GF(4) = GF(2)[w]/(w^2 + w + 1); a + b*w is the int a | b << 32.  A sum
    of products of these ints counts a0*b0, a0*b1 + a1*b0 and a1*b1 from
    bits 0, 32 and 64, exactly below 2^31 products; their parities, with
    w^2 = w + 1, give the sum, read from an 8-entry table keyed by the
    sum's lowest slot bits.  `lower` and `mul` both read it, so the slot
    rule lives in one place; a table read costs about half the shift and
    xor formula it replaced."""

    def __init__(self):
        self.name = "gf4"
        self.char = 2
        self.is_field = True
        self.zero = 0
        self.one = 1
        self.omega = W
        self._shows = {0: "0", 1: "1", W: "w", 1 | W: "1+w"}
        self.draws = tuple(self._shows)
        self._elements = frozenset(self._shows)
        bits = (0, 1)  # s0 + s1 w + s2 w^2 = (s0 + s2) + (s1 + s2) w
        self._by_parities = {
            s0 | s1 * W | s2 * W * W: (s0 ^ s2) | (s1 ^ s2) * W for s0 in bits for s1 in bits for s2 in bits
        }

    def add(self, a, b):
        return a ^ b

    def neg(self, a):
        return a

    sub = add  # characteristic 2

    def mul(self, a, b):
        return self._by_parities[a * b & _SLOT_PARITIES]

    def inv(self, a):
        if a == 0:
            raise DomainError("zero is not invertible in gf4")
        return self.mul(a, a)  # x^3 = 1 for nonzero x

    def from_int(self, k):
        return k % 2

    def lift(self, values):
        if not self._elements.issuperset(values):
            bad = next(x for x in values if x not in self._elements)
            raise DomainError(f"{bad!r} is not an element of gf4")
        return values, 1

    def lower(self, rows):
        table = self._by_parities
        return [{j: r for j, v in row if (r := table[v & _SLOT_PARITIES])} if row else {} for row in rows]

    def elements(self):
        return iter(self._shows)

    def show(self, a):
        return self._shows[a]


class _PythonNumbers(Ring):
    """A ring of Python numbers, Q or Z, whose +, - and * are the ring's."""

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b


class Rationals(_PythonNumbers):
    """Exact rationals; Fraction keeps lowest terms and positive denominator."""

    def __init__(self):
        self.name = "q"
        self.char = 0
        self.is_field = True
        self.zero = Fraction(0)
        self.one = Fraction(1)
        # one entry per (a, b), as Fraction(randint(-9, 9), randint(1, 9)) draws
        self.draws = tuple(Fraction(a, b) for a in range(-9, 10) for b in range(1, 10))

    def inv(self, a):
        if a == 0:
            raise DomainError("zero is not invertible in q")
        return 1 / a

    def is_zero(self, a):
        return not a  # Fraction.__bool__ is cheaper than comparing with zero

    def from_int(self, k):
        return Fraction(k)

    def lift(self, values):
        scale = lcm(*{x.denominator for x in values})
        return [x.numerator * (scale // x.denominator) for x in values], scale

    def element(self, v, scale):
        return Fraction(v, scale)


class Integers(_PythonNumbers):
    """Arbitrary-precision integers; only the units +1 and -1 invert."""

    def __init__(self):
        self.name = "z"
        self.char = 0
        self.is_field = False
        self.zero = 0
        self.one = 1
        self.draws = range(-9, 10)

    def inv(self, a):
        if a not in (1, -1):
            raise DomainError(f"{a} is not a unit in z")
        return a

    def from_int(self, k):
        return k

    def lift(self, values):
        return values, 1


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

    def __call__(self, a: Element) -> Element:
        return self.fn(a)


def gf2_into_gf4() -> RingMorphism:
    return RingMorphism(GF2, GF4, lambda a: a)
