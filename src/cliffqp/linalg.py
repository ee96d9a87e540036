"""Exact immutable matrices over a generic ring, stored as one
{col: nonzero} dict per row.

Every endomorphism in the package is a `Matrix`: dense random elements,
signed permutations such as the Gram matrix, and the generator matrices
with one nonzero per column all share this one format.  A matrix is built
once (from entries, from nonzeros or as a linear `combination`) and never
written afterwards, so cached matrices can be shared freely, and so can
the int image a matrix over GF(p), Z or Q keeps once it is first needed
(`Ring.lift`: int row dicts with one scale).  Products and combinations
over those rings add products of ints and lower each finished row once:
in a list per output row when both factors of a product are dense, in a
dict otherwise.  GF(4) has no int lift and goes through the ring methods;
`trace_of_product` sums trace(a * b) without forming the product.
Row reduction is restricted to fields and exists once, as `rref`;
`SpanChecker` answers span membership from its reduced rows.  No check
eliminates: the tests use both as the oracle for the tau-orbit bases of
Alt and Sym.  Signed permutation matrices invert without division, which
keeps the Gram-matrix machinery available over the integers as well.
"""

from __future__ import annotations

from math import lcm
from typing import Iterable, Iterator, Optional, Sequence

from .errors import DomainError, UnsupportedRingError, UsageError
from .rings import Element, Ring

Vector = list


class Matrix:
    """A rows x cols matrix holding, per row, a dict {col: value} of its
    nonzero entries; zero entries are never stored.  No operation writes
    into an existing matrix."""

    __slots__ = ("ring", "rows", "cols", "_rows", "_image")

    def __init__(self, ring: Ring, rows: int, cols: int, entries: Sequence[Element]):
        if rows <= 0 or cols <= 0:
            raise UsageError("matrix dimensions must be positive")
        if len(entries) != rows * cols:
            raise UsageError(f"expected {rows * cols} entries, got {len(entries)}")
        is_zero = ring.is_zero
        self.ring = ring
        self.rows = rows
        self.cols = cols
        self._rows = [
            {c: v for c, v in enumerate(entries[r * cols : (r + 1) * cols]) if not is_zero(v)}
            for r in range(rows)
        ]
        self._image = None

    @classmethod
    def _of(cls, ring: Ring, rows: int, cols: int, row_dicts: list) -> "Matrix":
        m = cls.__new__(cls)
        m.ring, m.rows, m.cols, m._rows, m._image = ring, rows, cols, row_dicts, None
        return m

    def _int_image(self) -> Optional[tuple[list, int]]:
        """The rows as int dicts with one scale (`Ring.lift`), built on first
        use and kept, which is sound because no operation writes into a
        matrix; None when the ring has no int lift."""
        if self._image is None:
            self._image = self.ring.lift(self._rows)
        return self._image

    @classmethod
    def from_nonzeros(
        cls, ring: Ring, rows: int, cols: int, triples: Iterable[tuple[int, int, Element]]
    ) -> "Matrix":
        """A matrix from (row, col, value) triples whose values are nonzero;
        a position given twice keeps its last value."""
        if rows <= 0 or cols <= 0:
            raise UsageError("matrix dimensions must be positive")
        out: list = [{} for _ in range(rows)]
        for r, c, v in triples:
            if not (0 <= r < rows and 0 <= c < cols):
                raise UsageError(f"position ({r}, {c}) outside a {rows}x{cols} matrix")
            out[r][c] = v
        return cls._of(ring, rows, cols, out)

    @classmethod
    def combination(
        cls, ring: Ring, rows: int, cols: int, terms: Iterable[tuple[Element, "Matrix"]]
    ) -> "Matrix":
        """The sum of c * m over the (c, m) pairs in terms, each m a rows x cols
        matrix over ring; zero coefficients are skipped.

        With an int lift the coefficients and the terms' int images are
        summed in one int dict per row, each row lowered once; GF(4) adds
        through the ring methods, the loop the int sum is tested against.
        """
        out = cls.zeros(ring, rows, cols)
        live = []
        for c, m in terms:
            out._check_shape(m)
            if not ring.is_zero(c):
                live.append((c, m))
        images = [m._int_image() for _, m in live]
        if not live or None in images:
            for c, m in live:
                _rows_axpy(ring, out._rows, c, m._rows)
            return out
        (coeffs,), cscale = ring.lift([dict(enumerate(c for c, _ in live))])
        mscale = lcm(*(scale for _, scale in images))
        acc = out._rows
        for i, (mrows, scale) in enumerate(images):
            c = coeffs[i] * (mscale // scale)
            for row, mrow in zip(acc, mrows):
                for j, v in mrow.items():
                    row[j] = row.get(j, 0) + c * v
        lower, scale = ring.lower, cscale * mscale
        return cls._of(ring, rows, cols, [lower(row.items(), scale) if row else row for row in acc])

    @classmethod
    def zeros(cls, ring: Ring, rows: int, cols: int) -> "Matrix":
        return cls.from_nonzeros(ring, rows, cols, ())

    @classmethod
    def identity(cls, ring: Ring, size: int) -> "Matrix":
        return cls.from_nonzeros(ring, size, size, ((i, i, ring.one) for i in range(size)))

    @property
    def entries(self) -> list:
        """All entries, row-major, as a new list: a dense read-only view."""
        zero = self.ring.zero
        cols = range(self.cols)
        return [row.get(c, zero) for row in self._rows for c in cols]

    def at(self, r: int, c: int) -> Element:
        return self._rows[r].get(c, self.ring.zero)

    def nonzeros(self) -> Iterator[tuple[int, int, Element]]:
        """(row, col, value) for every stored nonzero entry."""
        for r, row in enumerate(self._rows):
            for c, v in row.items():
                yield r, c, v

    def col(self, c: int) -> Vector:
        zero = self.ring.zero
        return [row.get(c, zero) for row in self._rows]

    def __eq__(self, other) -> bool:
        if not (
            isinstance(other, Matrix)
            and self.ring == other.ring
            and self.rows == other.rows
            and self.cols == other.cols
        ):
            return False
        return self._rows == other._rows  # ring elements compare structurally

    def _combine(self, other: "Matrix", op) -> "Matrix":
        self._check_shape(other)
        zero, is_zero = self.ring.zero, self.ring.is_zero
        rows = []
        for mine, theirs in zip(self._rows, other._rows):
            row = dict(mine)
            for c, v in theirs.items():
                w = op(row.get(c, zero), v)
                if is_zero(w):
                    row.pop(c, None)
                else:
                    row[c] = w
            rows.append(row)
        return Matrix._of(self.ring, self.rows, self.cols, rows)

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._combine(other, self.ring.add)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._combine(other, self.ring.sub)

    def __neg__(self) -> "Matrix":
        return self._map_nonzeros(self.ring.neg)

    def scale(self, c: Element) -> "Matrix":
        mul = self.ring.mul
        return self._map_nonzeros(lambda v: mul(c, v))

    def _map_nonzeros(self, fn) -> "Matrix":
        is_zero = self.ring.is_zero
        rows = [{c: w for c, v in row.items() if not is_zero(w := fn(v))} for row in self._rows]
        return Matrix._of(self.ring, self.rows, self.cols, rows)

    def __mul__(self, other: "Matrix") -> "Matrix":
        return matmul(self, other)

    def transpose(self) -> "Matrix":
        out: list = [{} for _ in range(self.cols)]
        for r, row in enumerate(self._rows):
            for c, v in row.items():
                out[c][r] = v
        return Matrix._of(self.ring, self.cols, self.rows, out)

    def trace(self) -> Element:
        if self.rows != self.cols:
            raise UsageError("trace needs a square matrix")
        total = self.ring.zero
        for i, row in enumerate(self._rows):
            if i in row:
                total = self.ring.add(total, row[i])
        return total

    def is_zero(self) -> bool:
        return not any(self._rows)

    def map_entries(self, fn, ring: Optional[Ring] = None) -> "Matrix":
        """Apply a coefficient map entrywise, e.g. a ring morphism."""
        return Matrix(ring or self.ring, self.rows, self.cols, [fn(a) for a in self.entries])

    def _check_shape(self, other: "Matrix") -> None:
        same_ring = self.ring is other.ring or self.ring == other.ring  # `is` skips a Python call
        if self.rows != other.rows or self.cols != other.cols or not same_ring:
            raise UsageError("matrix shapes or rings differ")

    def __repr__(self) -> str:
        show = self.ring.show
        rows = [
            "[" + ", ".join(show(self.at(r, c)) for c in range(self.cols)) + "]"
            for r in range(self.rows)
        ]
        return f"Matrix({self.ring.name}, [" + ", ".join(rows) + "])"


class SignedPermutation(Matrix):
    """A signed permutation matrix: row r holds a single +1 or -1, at
    column perm[r], and -1 exactly for the rows in `negated`.
    `signed_perm_inverse` returns one, so `matmul` can move rows by it."""

    __slots__ = ("perm", "negated")

    def __init__(self, ring: Ring, perm: list[int], negated: frozenset[int]):
        one, minus_one = ring.one, ring.neg(ring.one)
        rows = [{c: minus_one if r in negated else one} for r, c in enumerate(perm)]
        self.ring, self.rows, self.cols, self._rows = ring, len(perm), len(perm), rows
        self._image = None
        self.perm, self.negated = perm, negated


def matmul(a: Matrix, b: Matrix) -> Matrix:
    """The product, over the stored nonzeros only.

    A `SignedPermutation` on the left moves and negates rows of the right
    factor, with no ring product.  Over GF(p), Z and Q the product
    multiplies and adds the factors' cached int images (`Ring.lift`) and
    lowers each output row once: into a list of ints per output row when
    both factors are dense (4 * nonzeros >= entries, summed over the two),
    into a dict otherwise, which touches only the columns a row reaches.
    The factor 4 was timed against 2 and 8 on the benchmark workloads
    (`BENCH_3.json`, "cutoff").  Over GF(4), which has no int lift, a dict
    per output row collects the products through the ring methods; that
    loop is also the oracle the int accumulators are tested against.
    """
    ring = a.ring
    if a.cols != b.rows or (ring is not b.ring and ring != b.ring):  # as in Matrix._check_shape
        raise UsageError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    if isinstance(a, SignedPermutation):  # row r of a * b is +- row a.perm[r] of b
        brows, neg = b._rows, ring.neg
        out = [dict(brows[k]) for k in a.perm]
        for r in a.negated:
            if out[r]:
                out[r] = {j: neg(w) for j, w in out[r].items()}
        return Matrix._of(ring, a.rows, b.cols, out)
    lifted = a._int_image()
    out = []
    if lifted is None:
        add, mul, is_zero = ring.add, ring.mul, ring.is_zero
        brows = b._rows
        for row in a._rows:
            acc: dict = {}
            for k, aik in row.items():
                for j, v in brows[k].items():
                    cur = acc.get(j)
                    acc[j] = mul(aik, v) if cur is None else add(cur, mul(aik, v))
            out.append({j: v for j, v in acc.items() if not is_zero(v)} if acc else acc)
        return Matrix._of(ring, a.rows, b.cols, out)
    (arows, ascale), (brows, bscale) = lifted, b._int_image()
    lower, scale = ring.lower, ascale * bscale
    nonzeros = sum(map(len, a._rows)) + sum(map(len, b._rows))
    if 4 * nonzeros >= a.rows * a.cols + b.rows * b.cols:
        for row in arows:
            acc = [0] * b.cols
            for k, aik in row.items():
                for j, v in brows[k].items():
                    acc[j] += aik * v
            out.append(lower(enumerate(acc), scale))
    else:
        for row in arows:
            acc = {}
            for k, aik in row.items():
                for j, v in brows[k].items():
                    acc[j] = acc.get(j, 0) + aik * v
            out.append(lower(acc.items(), scale) if acc else acc)
    return Matrix._of(ring, a.rows, b.cols, out)


def trace_of_product(a: Matrix, b: Matrix) -> Element:
    """trace(a * b) without forming the product: the sum of a[r, c] * b[c, r]
    over the stored nonzeros of the sparser factor."""
    if a.rows != b.cols or a.cols != b.rows or (a.ring is not b.ring and a.ring != b.ring):
        raise UsageError(f"no trace of {a.rows}x{a.cols} times {b.rows}x{b.cols}")
    if sum(map(len, b._rows)) < sum(map(len, a._rows)):
        a, b = b, a
    ring = a.ring
    add, mul = ring.add, ring.mul
    brows = b._rows
    total = ring.zero
    for r, row in enumerate(a._rows):
        for c, v in row.items():
            w = brows[c].get(r)
            if w is not None:
                total = add(total, mul(v, w))
    return total


def _rows_axpy(ring: Ring, rows: list, c: Element, others: list) -> None:
    """rows[i] += c * others[i] for rows stored as {col: nonzero} dicts."""
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
    rows = [dict(row) for row in m._rows]
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
    return Matrix._of(ring, m.rows, m.cols, rows), pivots


class SpanChecker:
    """Row-reduces a list of vectors once through `rref`, then answers
    membership queries against the fully reduced pivot rows."""

    def __init__(self, ring: Ring, vectors: Sequence[Vector]):
        self.ring = ring
        self.dim = len(vectors[0]) if vectors else 0  # no vectors: the Matrix refuses the shape
        red, pivots = rref(Matrix(ring, len(vectors), self.dim, [x for v in vectors for x in v]))
        self._pivot_rows = list(zip(pivots, red._rows))

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
    for r, row in enumerate(b._rows):
        hits = list(row.items())
        if len(hits) != 1:
            raise DomainError(f"row {r} does not have exactly one nonzero entry")
        c, val = hits[0]
        if not (ring.eq(val, ring.one) or ring.eq(val, minus_one)):
            raise DomainError(f"entry at ({r}, {c}) is not +1 or -1")
        if perm[c] >= 0:
            raise DomainError(f"column {c} hit twice")
        perm[c] = r  # the inverse holds the same sign at (c, r): (+-1)^-1 = +-1
        if not ring.eq(val, ring.one):
            negated.add(c)
    return SignedPermutation(ring, perm, frozenset(negated))
