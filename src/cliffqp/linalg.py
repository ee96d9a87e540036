"""Dense exact matrices over a generic ring.

Products, transpose and trace work over any ring in the palette; the
product skips zeros row by row and accumulates in Python ints wherever the
ring lifts its elements exactly (`Ring.lift`).
Row reduction (solve, rank, kernel and image bases, span membership) is
restricted to fields; integer problems are expected to route through the
rationals.  Signed permutation matrices invert without division, which
keeps the Gram-matrix machinery available over the integers as well.
"""

from __future__ import annotations

from itertools import compress
from typing import Optional, Sequence

from .errors import DomainError, UnsupportedRingError, UsageError
from .rings import Element, Ring

Vector = list


class Matrix:
    """A rows x cols matrix stored row-major as a flat list of ring elements."""

    __slots__ = ("ring", "rows", "cols", "entries")

    def __init__(self, ring: Ring, rows: int, cols: int, entries: Sequence[Element]):
        if rows <= 0 or cols <= 0:
            raise UsageError("matrix dimensions must be positive")
        if len(entries) != rows * cols:
            raise UsageError(f"expected {rows * cols} entries, got {len(entries)}")
        self.ring = ring
        self.rows = rows
        self.cols = cols
        self.entries = list(entries)

    @classmethod
    def zeros(cls, ring: Ring, rows: int, cols: int) -> "Matrix":
        return cls(ring, rows, cols, [ring.zero] * (rows * cols))

    @classmethod
    def identity(cls, ring: Ring, size: int) -> "Matrix":
        m = cls.zeros(ring, size, size)
        for i in range(size):
            m.entries[i * size + i] = ring.one
        return m

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

    def at(self, r: int, c: int) -> Element:
        return self.entries[r * self.cols + c]

    def put(self, r: int, c: int, value: Element) -> None:
        self.entries[r * self.cols + c] = value

    def row(self, r: int) -> Vector:
        return self.entries[r * self.cols : (r + 1) * self.cols]

    def col(self, c: int) -> Vector:
        return self.entries[c :: self.cols]

    def copy(self) -> "Matrix":
        return Matrix(self.ring, self.rows, self.cols, self.entries)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.ring == other.ring
            and self.rows == other.rows
            and self.cols == other.cols
            and all(self.ring.eq(a, b) for a, b in zip(self.entries, other.entries))
        )

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_shape(other)
        add = self.ring.add
        return Matrix(
            self.ring, self.rows, self.cols,
            [add(a, b) for a, b in zip(self.entries, other.entries)],
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_shape(other)
        sub = self.ring.sub
        return Matrix(
            self.ring, self.rows, self.cols,
            [sub(a, b) for a, b in zip(self.entries, other.entries)],
        )

    def __neg__(self) -> "Matrix":
        neg = self.ring.neg
        return Matrix(self.ring, self.rows, self.cols, [neg(a) for a in self.entries])

    def scale(self, c: Element) -> "Matrix":
        mul = self.ring.mul
        return Matrix(self.ring, self.rows, self.cols, [mul(c, a) for a in self.entries])

    def __mul__(self, other: "Matrix") -> "Matrix":
        return matmul(self, other)

    def transpose(self) -> "Matrix":
        out = [self.ring.zero] * (self.rows * self.cols)
        for r in range(self.rows):
            base = r * self.cols
            for c in range(self.cols):
                out[c * self.rows + r] = self.entries[base + c]
        return Matrix(self.ring, self.cols, self.rows, out)

    def trace(self) -> Element:
        if self.rows != self.cols:
            raise UsageError("trace needs a square matrix")
        total = self.ring.zero
        for i in range(self.rows):
            total = self.ring.add(total, self.entries[i * self.cols + i])
        return total

    def is_zero(self) -> bool:
        return all(self.ring.is_zero(a) for a in self.entries)

    def map_entries(self, fn, ring: Optional[Ring] = None) -> "Matrix":
        """Apply a coefficient map entrywise, e.g. a ring morphism."""
        return Matrix(ring or self.ring, self.rows, self.cols, [fn(a) for a in self.entries])

    def _check_shape(self, other: "Matrix") -> None:
        if self.rows != other.rows or self.cols != other.cols or self.ring != other.ring:
            raise UsageError("matrix shapes or rings differ")

    def __repr__(self) -> str:
        show = self.ring.show
        rows = [
            "[" + ", ".join(show(self.at(r, c)) for c in range(self.cols)) + "]"
            for r in range(self.rows)
        ]
        return f"Matrix({self.ring.name}, [" + ", ".join(rows) + "])"


def matmul(a: Matrix, b: Matrix) -> Matrix:
    """Row-sparse product: the nonzeros of each row of b are listed once and
    zero entries of a are skipped, so a factor with one nonzero per row (a
    signed permutation such as the Gram matrix) costs O(dim^2), not dim^3.

    Rings whose elements lift exactly to ints (GF(p), Z, Q) accumulate in
    Python ints and lower each output row once; the others, GF(4) among
    them, run the same loop through the ring methods.
    """
    if a.cols != b.rows or a.ring != b.ring:
        raise UsageError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    ring = a.ring
    n, m, p = a.rows, a.cols, b.cols
    lifted_b = ring.lift(b.entries)
    lifted_a = ring.lift(a.entries) if lifted_b is not None else None
    out: list = []
    if lifted_a is None:
        add, mul, is_zero, zero = ring.add, ring.mul, ring.is_zero, ring.zero
        ae, be = a.entries, b.entries
        brows = [
            [(j, v) for j, v in enumerate(be[k * p : (k + 1) * p]) if not is_zero(v)]
            for k in range(m)
        ]
        for i in range(n):
            acc = [zero] * p
            for k, aik in enumerate(ae[i * m : (i + 1) * m]):
                if is_zero(aik):
                    continue
                for j, v in brows[k]:
                    acc[j] = add(acc[j], mul(aik, v))
            out.extend(acc)
        return Matrix(ring, n, p, out)
    (ai, ascale), (bi, bscale) = lifted_a, lifted_b
    scale, lower = ascale * bscale, ring.lower
    cols, inner = range(p), range(m)
    brows = []
    for k in inner:
        row = bi[k * p : (k + 1) * p]
        brows.append([(j, row[j]) for j in compress(cols, row)])
    for i in range(n):
        arow = ai[i * m : (i + 1) * m]
        acc = [0] * p
        for k in compress(inner, arow):
            aik = arow[k]
            for j, v in brows[k]:
                acc[j] += aik * v
        out.extend(lower(acc, scale))
    return Matrix(ring, n, p, out)


def mat_vec(a: Matrix, v: Vector) -> Vector:
    if a.cols != len(v):
        raise UsageError("vector length does not match matrix columns")
    ring = a.ring
    out = []
    for r in range(a.rows):
        total = ring.zero
        base = r * a.cols
        for c, x in enumerate(v):
            if ring.is_zero(x):
                continue
            total = ring.add(total, ring.mul(a.entries[base + c], x))
        out.append(total)
    return out


def _require_field(ring: Ring, what: str) -> None:
    if not ring.is_field:
        raise UnsupportedRingError(f"{what} needs a field, not {ring.name}")


def rref(m: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form over a field, with the pivot column list.

    Pivoting is deterministic: columns left to right, first unused row
    with a nonzero entry.
    """
    _require_field(m.ring, "row reduction")
    ring = m.ring
    out = m.copy()
    e = out.entries
    ncols = out.cols
    pivots: list[int] = []
    prow = 0
    for col in range(ncols):
        sel = None
        for r in range(prow, out.rows):
            if not ring.is_zero(e[r * ncols + col]):
                sel = r
                break
        if sel is None:
            continue
        if sel != prow:
            for c in range(ncols):
                e[prow * ncols + c], e[sel * ncols + c] = e[sel * ncols + c], e[prow * ncols + c]
        inv = ring.inv(e[prow * ncols + col])
        if not ring.is_one(inv):
            for c in range(ncols):
                e[prow * ncols + c] = ring.mul(inv, e[prow * ncols + c])
        for r in range(out.rows):
            if r == prow:
                continue
            factor = e[r * ncols + col]
            if ring.is_zero(factor):
                continue
            for c in range(ncols):
                e[r * ncols + c] = ring.sub(e[r * ncols + c], ring.mul(factor, e[prow * ncols + c]))
        pivots.append(col)
        prow += 1
        if prow == out.rows:
            break
    return out, pivots


def rank(m: Matrix) -> int:
    return len(rref(m)[1])


def solve(a: Matrix, b: Vector) -> Optional[Vector]:
    """One solution of A x = b over a field, or None when inconsistent."""
    if len(b) != a.rows:
        raise UsageError("right-hand side length does not match rows")
    ring = a.ring
    aug = Matrix(ring, a.rows, a.cols + 1, [ring.zero] * (a.rows * (a.cols + 1)))
    for r in range(a.rows):
        aug.entries[r * aug.cols : r * aug.cols + a.cols] = a.row(r)
        aug.entries[r * aug.cols + a.cols] = b[r]
    red, pivots = rref(aug)
    if a.cols in pivots:
        return None
    x = [ring.zero] * a.cols
    for prow, col in enumerate(pivots):
        x[col] = red.at(prow, a.cols)
    return x


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

    @property
    def rank(self) -> int:
        return len(self.rows)

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


def signed_perm_inverse(b: Matrix) -> Matrix:
    """Inverse of a signed permutation matrix; works over any ring.

    Each row and column must hold exactly one +1 or -1.  The inverse is
    the transpose with the same signs, so no division is ever needed.
    """
    if b.rows != b.cols:
        raise DomainError("signed permutation matrices are square")
    ring = b.ring
    minus_one = ring.neg(ring.one)
    size = b.rows
    out = Matrix.zeros(ring, size, size)
    seen_cols = set()
    for r in range(size):
        hits = [
            (c, b.at(r, c))
            for c in range(size)
            if not ring.is_zero(b.at(r, c))
        ]
        if len(hits) != 1:
            raise DomainError(f"row {r} does not have exactly one nonzero entry")
        c, val = hits[0]
        if not (ring.eq(val, ring.one) or ring.eq(val, minus_one)):
            raise DomainError(f"entry at ({r}, {c}) is not +1 or -1")
        if c in seen_cols:
            raise DomainError(f"column {c} hit twice")
        seen_cols.add(c)
        out.put(c, r, val)  # (+1)^-1 = +1 and (-1)^-1 = -1
    return out
