"""Exact immutable matrices over a generic ring: one {col: nonzero int}
dict per row over one scale.

Every endomorphism in the package is a `Matrix`, in this one format.  The
ints are those of `Ring.lift` (GF(p) and Z elements, GF(4) elements packed
as a | b << 32, Q numerators), and every matrix made is divided by the gcd
of its ints and its scale, so equal matrices store equal ints.  A matrix
is never written after it is built, so cached matrices and their rows are
shared freely.  `from_places` builds a sparse matrix from values lifted
once, each put at its (row, col) places; `from_nonzeros`, `zeros`,
`scalar`, `identity` and the generator matrices go through it.
Products, `scale`, `linear_image` (the image of a matrix under a linear
map given by the signed units each matrix unit goes to),
`trace_of_product` and `apply` multiply stored ints, sum the products
and reduce them with `Ring.lower`, one kernel per job for all six rings:
the product sums each output row in one dict of the columns it reaches,
and `trace_of_product` walks the nonzeros of its first factor;
`+` and `-` apply the ring's `add` and `sub` to the stored ints entry by
entry.  Row reduction exists once, as `rref` on element rows over a
field; `SpanChecker` answers span membership from its reduced rows, and
no check eliminates.
Signed permutation matrices invert without division, keeping the
Gram-matrix machinery over the integers.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import Callable, Iterable, Iterator, Sequence

from .errors import DomainError, UnsupportedRingError, UsageError
from .rings import Element, Ring

Vector = list


class Matrix:
    """A rows x cols matrix holding, per row, a dict {col: int} of its
    nonzero entries as stored ints over one scale (`Ring.lift`); zero
    entries are never stored.  No operation writes into an existing
    matrix."""

    __slots__ = ("ring", "rows", "cols", "_rows", "_scale")

    def __init__(self, ring: Ring, rows: int, cols: int, entries: Sequence[Element]):
        if rows <= 0 or cols <= 0:
            raise UsageError("matrix dimensions must be positive")
        if len(entries) != rows * cols:
            raise UsageError(f"expected {rows * cols} entries, got {len(entries)}")
        ints, self._scale = ring.lift(entries)
        self.ring, self.rows, self.cols = ring, rows, cols
        self._rows = [
            {c: v for c, v in enumerate(ints[r * cols : (r + 1) * cols]) if v} for r in range(rows)
        ]

    @classmethod
    def _canonical(cls, ring: Ring, rows: int, cols: int, row_dicts: list, scale: int) -> "Matrix":
        """The matrix of the stored ints over scale, both divided by their
        gcd, which makes the stored form of a matrix unique."""
        g = scale
        for row in row_dicts:
            if g == 1:
                break
            g = gcd(g, *row.values())
        if g != 1:
            row_dicts, scale = [{c: v // g for c, v in row.items()} for row in row_dicts], scale // g
        m = cls.__new__(cls)
        m.ring, m.rows, m.cols, m._rows, m._scale = ring, rows, cols, row_dicts, scale
        return m

    @classmethod
    def from_places(
        cls, ring: Ring, rows: int, cols: int, values: Sequence[Element], places: Iterable[tuple[int, int, int]]
    ) -> "Matrix":
        """The matrix with values[i] at (r, c) for every (r, c, i) in places.
        The values are lifted once, and a later value at a position replaces
        an earlier one, a zero included."""
        if rows <= 0 or cols <= 0:
            raise UsageError("matrix dimensions must be positive")
        ints, scale = ring.lift(values)
        out: list = [{} for _ in range(rows)]
        r = c = i = None
        try:  # an index past the values raises IndexError as well
            for r, c, i in places:
                if r < 0 or c < 0 or i < 0 or r >= rows or c >= cols:
                    raise IndexError
                v = ints[i]
                if v:
                    out[r][c] = v
                else:
                    out[r].pop(c, None)
        except IndexError:
            raise UsageError(
                f"place ({r}, {c}) of value {i} outside a {rows}x{cols} matrix of {len(ints)} values"
            ) from None
        return cls._canonical(ring, rows, cols, out, scale)

    @classmethod
    def from_nonzeros(
        cls, ring: Ring, rows: int, cols: int, triples: Iterable[tuple[int, int, Element]]
    ) -> "Matrix":
        """A matrix from (row, col, value) triples, each value at its own
        place of `from_places`: a position given twice keeps its last value,
        and a zero value is not stored."""
        triples = list(triples)
        places = [(r, c, i) for i, (r, c, _) in enumerate(triples)]
        return cls.from_places(ring, rows, cols, [v for _, _, v in triples], places)

    @classmethod
    def linear_image(
        cls, m: "Matrix", rows: int, cols: int, unit_images: Callable[[int, int], Iterable[tuple[int, int, int]]]
    ) -> "Matrix":
        """The image of m under the linear map that sends each matrix unit
        E_rc to the sum of (-1)**p E_ij over the (i, j, p) in
        unit_images(r, c), a rows x cols matrix.  The stored ints of m,
        signed, are summed over those units in one pass and lowered once;
        no element is built."""
        if rows <= 0 or cols <= 0:
            raise UsageError("matrix dimensions must be positive")
        ring = m.ring
        (one, minus_one), sscale = ring.lift([ring.one, ring.sign(1)])
        acc: dict = {}  # only the rows reached are summed and lowered
        for r, row in enumerate(m._rows):
            for c, v in row.items() if row else ():
                signed = (v * one, v * minus_one)
                for i, j, p in unit_images(r, c):
                    if not (0 <= i < rows and 0 <= j < cols):
                        raise UsageError(f"image ({i}, {j}) of unit ({r}, {c}) outside a {rows}x{cols} matrix")
                    target = acc[i] = acc.get(i) or {}
                    target[j] = target.get(j, 0) + signed[p]
        out: list = [{} for _ in range(rows)]
        for i, row in zip(acc, ring.lower(row.items() for row in acc.values())):
            out[i] = row
        return cls._canonical(ring, rows, cols, out, m._scale * sscale)

    @classmethod
    def zeros(cls, ring: Ring, rows: int, cols: int) -> "Matrix":
        return cls.from_places(ring, rows, cols, (), ())

    @classmethod
    def scalar(cls, ring: Ring, size: int, c: Element) -> "Matrix":
        """c times the identity."""
        return cls.from_places(ring, size, size, (c,), ((i, i, 0) for i in range(size)))

    @classmethod
    def identity(cls, ring: Ring, size: int) -> "Matrix":
        return cls.scalar(ring, size, ring.one)

    def at(self, r: int, c: int) -> Element:
        return self.ring.element(self._rows[r].get(c, 0), self._scale)

    def nonzeros(self) -> Iterator[tuple[int, int, Element]]:
        """(row, col, value) for every stored nonzero entry."""
        element, scale = self.ring.element, self._scale
        for r, row in enumerate(self._rows):
            for c, v in row.items() if row else ():
                yield r, c, element(v, scale)

    def col(self, c: int) -> Vector:
        element, scale = self.ring.element, self._scale
        return [element(row.get(c, 0), scale) for row in self._rows]

    def _element_rows(self) -> list[dict]:
        element, scale = self.ring.element, self._scale
        return [{c: element(v, scale) for c, v in row.items()} for row in self._rows]

    def __eq__(self, other) -> bool:
        if not (
            isinstance(other, Matrix)
            and self.ring == other.ring
            and self.rows == other.rows
            and self.cols == other.cols
        ):
            return False
        return self._scale == other._scale and self._rows == other._rows  # both canonical

    def _combine(self, other: "Matrix", op) -> "Matrix":
        _check_shape(self.ring, self.rows, self.cols, other)
        scale = lcm(self._scale, other._scale)
        k_self, k_other = scale // self._scale, scale // other._scale  # both 1 but over Q
        rows = []
        for mine, theirs in zip(self._rows, other._rows):
            row = dict(mine) if k_self == 1 else {c: k_self * v for c, v in mine.items()}
            for c, v in theirs.items():
                w = op(row.get(c, 0), k_other * v)
                if w:
                    row[c] = w
                else:
                    row.pop(c, None)
            rows.append(row)
        return Matrix._canonical(self.ring, self.rows, self.cols, rows, scale)

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._combine(other, self.ring.add)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._combine(other, self.ring.sub)

    def __neg__(self) -> "Matrix":
        neg = self.ring.neg
        rows = [{c: neg(v) for c, v in row.items()} for row in self._rows]
        return Matrix._canonical(self.ring, self.rows, self.cols, rows, self._scale)

    def scale(self, c: Element) -> "Matrix":
        """c times the matrix: c is lifted once, every stored int is
        multiplied by it, and the rows are lowered in one call."""
        ring = self.ring
        (k,), cscale = ring.lift([c])
        rows = ring.lower(((j, k * v) for j, v in row.items()) if row else () for row in self._rows)
        return Matrix._canonical(ring, self.rows, self.cols, rows, self._scale * cscale)

    def __mul__(self, other: "Matrix") -> "Matrix":
        return matmul(self, other)

    def transpose(self) -> "Matrix":
        out: list = [{} for _ in range(self.cols)]
        for r, row in enumerate(self._rows):
            for c, v in row.items():
                out[c][r] = v
        return Matrix._canonical(self.ring, self.cols, self.rows, out, self._scale)

    def trace(self) -> Element:
        if self.rows != self.cols:
            raise UsageError("trace needs a square matrix")
        return _element(self.ring, sum(row.get(i, 0) for i, row in enumerate(self._rows)), self._scale)

    def apply(self, terms: dict) -> dict:
        """The product with the column vector {index: element}, as {row:
        nonzero element}; the vector is lifted once, and each nonempty row
        sums products of stored ints over its nonzeros."""
        if terms and (min(terms) < 0 or max(terms) >= self.cols):
            raise UsageError(f"vector index outside the {self.cols} columns")
        ints, vscale = self.ring.lift(list(terms.values()))
        x = dict(zip(terms, ints))
        sums = (
            (r, sum(v * x[c] for c, v in row.items() if c in x)) for r, row in enumerate(self._rows) if row
        )
        element, scale = self.ring.element, self._scale * vscale
        return {r: element(v, scale) for r, v in self.ring.lower([sums])[0].items()}

    def is_zero(self) -> bool:
        return not any(self._rows)

    def __repr__(self) -> str:
        """The shape and the stored nonzeros in (row, col) order, so a
        witness costs its nonzeros, not its rows times its columns."""
        show = self.ring.show
        entries = ", ".join(f"({r}, {c}): {show(v)}" for r, c, v in sorted(self.nonzeros()))
        return f"Matrix({self.ring.name}, {self.rows}x{self.cols}, {{{entries}}})"


def _check_shape(ring: Ring, rows: int, cols: int, other: Matrix) -> None:
    same_ring = ring is other.ring or ring == other.ring  # `is` skips a Python call
    if rows != other.rows or cols != other.cols or not same_ring:
        raise UsageError("matrix shapes or rings differ")


class SignedPermutation(Matrix):
    """A signed permutation matrix: row r holds a single +1 or -1, at
    column perm[r], and -1 exactly for the rows in `negated`.
    `signed_perm_inverse` returns one, so `matmul` can move rows by it."""

    __slots__ = ("perm", "negated")

    def __init__(self, ring: Ring, perm: list[int], negated: frozenset[int]):
        (one, minus_one), _ = ring.lift([ring.one, ring.neg(ring.one)])
        rows = [{c: minus_one if r in negated else one} for r, c in enumerate(perm)]
        self.ring, self.rows, self.cols, self._rows, self._scale = ring, len(perm), len(perm), rows, 1
        self.perm, self.negated = perm, negated


def _element(ring: Ring, v: int, scale: int) -> Element:
    """The element of one int sum of products of stored ints over scale."""
    return ring.element(ring.lower([[(0, v)]])[0].get(0, 0), scale)


def matmul(a: Matrix, b: Matrix) -> Matrix:
    """The product, over the stored nonzeros only.

    A `SignedPermutation` on the left moves and negates rows of the right
    factor.  Otherwise each output row sums products of stored ints in a
    dict of the columns it reaches.
    """
    ring = a.ring
    if a.cols != b.rows or (ring is not b.ring and ring != b.ring):  # as in _check_shape
        raise UsageError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    brows = b._rows
    if isinstance(a, SignedPermutation):  # row r of a * b is +- row a.perm[r] of b
        neg = ring.neg
        out = [brows[k] for k in a.perm]  # rows are never written, so they can be shared
        for r in a.negated:
            if out[r]:
                out[r] = {j: neg(w) for j, w in out[r].items()}
        return Matrix._canonical(ring, a.rows, b.cols, out, b._scale)
    sums = ring.lower(_row_sums(a._rows, brows))
    return Matrix._canonical(ring, a.rows, b.cols, sums, a._scale * b._scale)


def _row_sums(arows: list, brows: list) -> Iterator:
    """The (col, int sum) pairs of each row of a * b, one row at a time as
    `Ring.lower` takes them, so one accumulator is alive at a time."""
    for row in arows:
        acc: dict = {}
        for k, aik in row.items():
            for j, v in brows[k].items():
                acc[j] = acc.get(j, 0) + aik * v
        yield acc.items()


def trace_of_product(a: Matrix, b: Matrix) -> Element:
    """trace(a * b) without forming the product: the sum of a[r, c] * b[c, r]
    over the stored nonzeros of a, so the sparser factor goes first."""
    if a.rows != b.cols or a.cols != b.rows or (a.ring is not b.ring and a.ring != b.ring):
        raise UsageError(f"no trace of {a.rows}x{a.cols} times {b.rows}x{b.cols}")
    brows = b._rows
    total = 0
    for r, row in enumerate(a._rows):
        for c, v in row.items():
            w = brows[c].get(r)
            if w is not None:
                total += v * w
    return _element(a.ring, total, a._scale * b._scale)


def _rows_axpy(ring: Ring, rows: list, c: Element, others: list) -> None:
    """rows[i] += c * others[i] for element rows stored as {col: nonzero} dicts."""
    add, mul, is_zero = ring.add, ring.mul, ring.is_zero
    for row, other in zip(rows, others):
        for col, v in other.items():
            w = mul(c, v)
            if col in row:
                w = add(row[col], w)
            if is_zero(w):
                row.pop(col, None)
            else:
                row[col] = w


def rref(m: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form over a field, with the pivot column list.

    Pivoting is deterministic: columns left to right, first unused row
    with a nonzero entry.
    """
    ring = m.ring
    if not ring.is_field:
        raise UnsupportedRingError(f"row reduction needs a field, not {ring.name}")
    rows = m._element_rows()
    pivots: list[int] = []
    prow = 0
    for col in range(m.cols):
        sel = next((r for r in range(prow, m.rows) if col in rows[r]), None)
        if sel is None:
            continue
        rows[prow], rows[sel] = rows[sel], rows[prow]
        inv = ring.inv(rows[prow][col])
        if not ring.is_one(inv):
            rows[prow] = {c: ring.mul(inv, v) for c, v in rows[prow].items()}
        for r, row in enumerate(rows):
            if r != prow and col in row:
                _rows_axpy(ring, [row], ring.neg(row[col]), [rows[prow]])
        pivots.append(col)
        prow += 1
        if prow == m.rows:
            break
    triples = ((r, c, v) for r, row in enumerate(rows) for c, v in row.items())
    return Matrix.from_nonzeros(ring, m.rows, m.cols, triples), pivots


class SpanChecker:
    """Row-reduces a list of vectors once through `rref`, then answers
    membership queries against the fully reduced pivot rows."""

    def __init__(self, ring: Ring, vectors: Sequence[Vector]):
        self.ring = ring
        self.dim = len(vectors[0]) if vectors else 0  # no vectors: the Matrix refuses the shape
        red, pivots = rref(Matrix(ring, len(vectors), self.dim, [x for v in vectors for x in v]))
        self._pivot_rows = list(zip(pivots, red._element_rows()))

    def contains(self, v: Vector) -> bool:
        """Clear v's entry at each pivot column with that pivot's row; no
        pivot row touches another pivot column, so v lies in the span
        exactly when nothing is left."""
        if len(v) != self.dim:
            raise UsageError("vector length does not match span dimension")
        ring = self.ring
        residual = {c: x for c, x in enumerate(v) if not ring.is_zero(x)}
        for col, row in self._pivot_rows:
            if col in residual:
                _rows_axpy(ring, [residual], ring.neg(residual[col]), [row])
        return not residual


def signed_perm_inverse(b: Matrix) -> SignedPermutation:
    """Inverse of a signed permutation matrix; works over any ring.

    Each row and column must hold exactly one +1 or -1.  The inverse is
    the transpose with the same signs, so no division is ever needed.
    """
    if b.rows != b.cols:
        raise DomainError("signed permutation matrices are square")
    ring = b.ring
    minus_one = ring.neg(ring.one)
    perm = [-1] * b.rows
    negated = set()
    expected = 0  # the nonzeros come row by row, so row k holds the k-th of them
    for r, c, val in b.nonzeros():
        if r != expected:  # a second entry in row r, or an empty row `expected`
            raise DomainError(f"row {min(r, expected)} does not have exactly one nonzero entry")
        expected += 1
        if not (ring.eq(val, ring.one) or ring.eq(val, minus_one)):
            raise DomainError(f"entry at ({r}, {c}) is not +1 or -1")
        if perm[c] >= 0:
            raise DomainError(f"column {c} hit twice")
        perm[c] = r  # the inverse holds the same sign at (c, r): (+-1)^-1 = +-1
        if not ring.eq(val, ring.one):
            negated.add(c)
    if expected != b.rows:
        raise DomainError(f"row {expected} does not have exactly one nonzero entry")
    return SignedPermutation(ring, perm, frozenset(negated))
