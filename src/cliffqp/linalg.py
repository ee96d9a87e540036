"""Exact immutable matrices over a generic ring, stored as one
{col: nonzero} dict per row.

Every endomorphism in the package is a `Matrix`: dense random elements,
signed permutations such as the Gram matrix, and the generator matrices
with one nonzero per column all share this one format.  A matrix is built
once (from entries, from nonzeros or as a linear `combination`) and never
written afterwards, so cached matrices can be shared freely.  The product
runs an int accumulator when both factors are dense and the ring lifts its
elements exactly to ints (`Ring.lift`), and a row-dict loop through the
ring methods otherwise; `trace_of_product` sums trace(a * b) without
forming the product.
Row reduction (rank, kernel and image bases, span membership) is
restricted to fields; integer problems are expected to route through the
rationals.  Signed permutation matrices invert without division, which
keeps the Gram-matrix machinery available over the integers as well.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterable, Iterator, Optional, Sequence

from .errors import DomainError, UnsupportedRingError, UsageError
from .rings import Element, Ring

Vector = list


class Matrix:
    """A rows x cols matrix holding, per row, a dict {col: value} of its
    nonzero entries; zero entries are never stored.  No operation writes
    into an existing matrix."""

    __slots__ = ("ring", "rows", "cols", "_rows")

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

    @classmethod
    def _of(cls, ring: Ring, rows: int, cols: int, row_dicts: list) -> "Matrix":
        m = cls.__new__(cls)
        m.ring, m.rows, m.cols, m._rows = ring, rows, cols, row_dicts
        return m

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
        matrix over ring; zero coefficients are skipped."""
        out = cls.zeros(ring, rows, cols)
        for c, m in terms:
            out._check_shape(m)
            if not ring.is_zero(c):
                _rows_axpy(ring, out._rows, c, m._rows)
        return out

    @classmethod
    def zeros(cls, ring: Ring, rows: int, cols: int) -> "Matrix":
        return cls.from_nonzeros(ring, rows, cols, ())

    @classmethod
    def identity(cls, ring: Ring, size: int) -> "Matrix":
        return cls.from_nonzeros(ring, size, size, ((i, i, ring.one) for i in range(size)))

    @classmethod
    def from_rows(cls, ring: Ring, rows: Sequence[Sequence[Element]]) -> "Matrix":
        nrows = len(rows)
        ncols = len(rows[0])
        flat = []
        for row in rows:
            if len(row) != ncols:
                raise UsageError("ragged rows")
            flat.extend(row)
        return cls(ring, nrows, ncols, flat)

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
        self.perm, self.negated = perm, negated


def matmul(a: Matrix, b: Matrix) -> Matrix:
    """The product, over the stored nonzeros only.

    A `SignedPermutation` on the left moves and negates rows of the right
    factor, with no ring product.  When both factors are dense
    (4 * nonzeros >= entries, summed over the two) and the ring lifts its
    elements exactly to ints (GF(p), Z, Q), each output row is accumulated
    in a list of Python ints and lowered once.  Otherwise, GF(4) always
    among them, a dict per output row collects the products through the
    ring methods; that loop is also the oracle the int path is tested
    against.  The factor 4 was timed against 2 and 8 on the benchmark
    workloads (`BENCH_3.json`, "cutoff").
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
    nonzeros = sum(map(len, a._rows)) + sum(map(len, b._rows))
    if 4 * nonzeros >= a.rows * a.cols + b.rows * b.cols:
        lifted_a = ring.lift([v for row in a._rows for v in row.values()])
        if lifted_a is not None:
            return _matmul_lifted(a, b, lifted_a)
    add, mul, is_zero = ring.add, ring.mul, ring.is_zero
    brows = b._rows
    out = []
    for row in a._rows:
        acc: dict = {}
        for k, aik in row.items():
            for j, v in brows[k].items():
                cur = acc.get(j)
                acc[j] = mul(aik, v) if cur is None else add(cur, mul(aik, v))
        out.append({j: v for j, v in acc.items() if not is_zero(v)} if acc else acc)
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


def _matmul_lifted(a: Matrix, b: Matrix, lifted_a: tuple[list[int], int]) -> Matrix:
    ring = a.ring
    (ai, ascale), (bi, bscale) = lifted_a, ring.lift([v for row in b._rows for v in row.values()])
    scale, lower = ascale * bscale, ring.lower
    values = iter(bi)
    brows = [list(zip(row, islice(values, len(row)))) for row in b._rows]
    values = iter(ai)
    out = []
    for row in a._rows:
        acc = [0] * b.cols
        for k, aik in zip(row, islice(values, len(row))):
            for j, v in brows[k]:
                acc[j] += aik * v
        out.append(lower(acc, scale))
    return Matrix._of(ring, a.rows, b.cols, out)


def mat_vec(a: Matrix, v: Vector) -> Vector:
    if a.cols != len(v):
        raise UsageError("vector length does not match matrix columns")
    ring = a.ring
    out = []
    for row in a._rows:
        total = ring.zero
        for c, x in row.items():
            if not ring.is_zero(v[c]):
                total = ring.add(total, ring.mul(x, v[c]))
        out.append(total)
    return out


def _require_field(ring: Ring, what: str) -> None:
    if not ring.is_field:
        raise UnsupportedRingError(f"{what} needs a field, not {ring.name}")


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
    _require_field(m.ring, "row reduction")
    ring = m.ring
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


def rank(m: Matrix) -> int:
    return len(rref(m)[1])


def kernel_basis(a: Matrix) -> list[Vector]:
    """Basis of the null space over a field, one vector per free column."""
    ring = a.ring
    red, pivots = rref(a)
    pivot_set = set(pivots)
    basis = []
    for free in range(a.cols):
        if free in pivot_set:
            continue
        v = [ring.zero] * a.cols
        v[free] = ring.one
        for prow, col in enumerate(pivots):
            v[col] = ring.neg(red.at(prow, free))
        basis.append(v)
    return basis


def image_basis(a: Matrix) -> list[Vector]:
    """Basis of the column space: the original pivot columns of A."""
    _, pivots = rref(a)
    return [a.col(c) for c in pivots]


class SpanChecker:
    """Row-reduces a list of vectors once, then answers membership queries."""

    def __init__(self, ring: Ring, vectors: Sequence[Vector]):
        _require_field(ring, "span membership")
        self.ring = ring
        self.dim = len(vectors[0]) if vectors else 0
        self.rows: list[Vector] = []  # reduced, each with leading 1
        self.lead: list[int] = []
        for v in vectors:
            reduced = self._reduce(list(v))
            if reduced is not None:
                self._insert(reduced)

    def _reduce(self, v: Vector) -> Optional[Vector]:
        """Eliminate v against the stored rows; None when it reduces to zero."""
        ring = self.ring
        for row, lead in zip(self.rows, self.lead):
            factor = v[lead]
            if ring.is_zero(factor):
                continue
            for c in range(lead, self.dim):
                v[c] = ring.sub(v[c], ring.mul(factor, row[c]))
        for c in range(self.dim):
            if not ring.is_zero(v[c]):
                inv = ring.inv(v[c])
                if not ring.is_one(inv):
                    for cc in range(c, self.dim):
                        v[cc] = ring.mul(inv, v[cc])
                return v
        return None

    def _insert(self, v: Vector) -> None:
        lead = next(c for c in range(self.dim) if not self.ring.is_zero(v[c]))
        self.rows.append(v)
        self.lead.append(lead)

    def contains(self, v: Vector) -> bool:
        if len(v) != self.dim:
            raise UsageError("vector length does not match span dimension")
        return self._reduce(list(v)) is None


def in_span(ring: Ring, v: Vector, basis: Sequence[Vector]) -> bool:
    """Exact membership of v in the span of the basis vectors."""
    if not basis:
        return all(ring.is_zero(x) for x in v)
    return SpanChecker(ring, basis).contains(v)


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
