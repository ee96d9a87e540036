"""Independent routes to what the checks compute, kept out of the package.

No check eliminates or builds a matrix from dense rows, so the field
elimination (rank, kernel and image bases, span membership), the matrix
builds of wedge and contraction on wedge V and the monomial recomposition
live here.  Everything is written on the public `Matrix` API and on
`cliffqp.linalg.rref`.
"""

from __future__ import annotations

from functools import reduce

from cliffqp.clifford import CliffordElement, generator_matrix
from cliffqp.errors import UsageError
from cliffqp.exterior import ExteriorVector, mask_size, wedge_masks
from cliffqp.linalg import Matrix, rref
from cliffqp.rings import Element, Ring


def from_rows(ring: Ring, rows: list[list[Element]]) -> Matrix:
    """The matrix with the given dense rows."""
    ncols = len(rows[0])
    if any(len(row) != ncols for row in rows):
        raise UsageError("ragged rows")
    return Matrix(ring, len(rows), ncols, [x for row in rows for x in row])


def mat_vec(a: Matrix, v: list) -> list:
    if a.cols != len(v):
        raise UsageError("vector length does not match matrix columns")
    ring = a.ring
    out = [ring.zero] * a.rows
    for r, c, x in a.nonzeros():
        out[r] = ring.add(out[r], ring.mul(x, v[c]))
    return out


def rank(m: Matrix) -> int:
    return len(rref(m)[1])


def kernel_basis(a: Matrix) -> list[list]:
    """Basis of the null space over a field, one vector per free column."""
    ring = a.ring
    red, pivots = rref(a)
    basis = []
    for free in range(a.cols):
        if free in pivots:
            continue
        v = [ring.zero] * a.cols
        v[free] = ring.one
        for prow, col in enumerate(pivots):
            v[col] = ring.neg(red.at(prow, free))
        basis.append(v)
    return basis


def image_basis(a: Matrix) -> list[list]:
    """Basis of the column space: the original pivot columns of a."""
    return [a.col(c) for c in rref(a)[1]]


def in_span(ring: Ring, v: list, basis: list[list]) -> bool:
    """The row space is the orthogonal complement of the null space, so v
    lies in the span exactly when it is orthogonal to every kernel vector
    of the basis matrix; no elimination involves v itself."""
    if not basis:
        return all(ring.is_zero(x) for x in v)
    add, mul = ring.add, ring.mul
    dots = (reduce(add, map(mul, v, k), ring.zero) for k in kernel_basis(from_rows(ring, basis)))
    return all(ring.is_zero(d) for d in dots)


def left_mult_matrix(x: ExteriorVector) -> Matrix:
    """Matrix of left wedge multiplication by x on wedge V."""
    ring, dim = x.ring, 1 << x.n
    triples = []  # in a fixed column v_J, distinct masks I land on distinct rows I | J
    for col in range(dim):
        for mi, a in x.terms.items():
            res = wedge_masks(mi, col)
            if res is not None:
                sign, row = res
                triples.append((row, col, a if sign > 0 else ring.neg(a)))
    return Matrix.from_nonzeros(ring, dim, dim, triples)


def contraction_matrix(ring: Ring, n: int, i: int) -> Matrix:
    """Matrix of the dual-basis contraction by v_i^*: a degree -1 derivation.

    On a basis vector the i-th factor is dropped with sign (-1)**(pos+1)
    where pos is its 1-based position in increasing order.
    """
    if not 1 <= i <= n:
        raise UsageError(f"index {i} outside 1..{n}")
    dim = 1 << n
    bit = 1 << (i - 1)
    triples = (
        (col & ~bit, col, ring.sign(mask_size(col & (bit - 1)))) for col in range(dim) if col & bit
    )
    return Matrix.from_nonzeros(ring, dim, dim, triples)


def recompose(ring: Ring, n: int, coords: list) -> CliffordElement:
    """The inverse of `MonomialBasis.decompose`: the sum of coords[mask]
    times the product of the generators in mask, in ascending order."""
    if len(coords) != 1 << (2 * n):
        raise UsageError(f"expected {1 << (2 * n)} coordinates")
    dim = 1 << n
    terms = []
    for mask, c in enumerate(coords):
        if ring.is_zero(c):
            continue
        monomial = Matrix.identity(ring, dim)
        for k in reversed(range(2 * n)):
            if mask >> k & 1:
                monomial = generator_matrix(ring, n, k) * monomial
        terms.append((c, monomial))
    return CliffordElement(ring, n, Matrix.combination(ring, dim, dim, terms))
