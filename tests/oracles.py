"""Independent routes to what the checks compute, kept out of the package.

No check eliminates, builds a matrix from dense rows or reads one
densely, so the dense row-major view of a matrix (`entries`), the field
elimination (rank, kernel and image bases, span membership), the matrix
builds of wedge and contraction on wedge V and the monomial recomposition
live here, and so do the ring-method loops of the product and of linear
combinations, which the int kernels of `cliffqp.linalg` (`matmul`,
`Matrix.scale`) are tested against, the bit-pair product of GF(4) and the
bit formula of its `lower`, Phi(m) as a combination of all the generator
matrices, the generator matrices built from wedge and contraction and
their words as `matmul` products, c(M) as a combination of those pair
products, the two Eichler kinds that swaps conjugate `group.eichler_vv`
onto, the trace pairing of the tau-orbit bases of Alt and Sym, which
`trace_orthogonality` certifies on tau itself, and the degree-4 negative
result by enumerating its 4^6 candidates, which
`canonical.degree4_no_canonical` certifies by linearity, and the
pairwise forms: the polars of the hyperbolic form and of q_wedge, each
q(x + y) - q(x) - q(y) evaluated whole for one pair, and the pairing of
wedge V as the top coefficient of reversal(x) wedge y, against which the
walks of `forms` and `clifford.relation_suite`, which evaluate what
depends on one vector once per walk, are tested.  Every linear
combination here, the recomposition included, sums through
`ring_method_combination`, so no oracle leans on an int kernel it is
compared with.  Everything is written on the public `Matrix` API, on the
ring methods, on `cliffqp.linalg.rref`, on the orbit bases and on the
lifted generators.
"""

from __future__ import annotations

from functools import reduce
from itertools import groupby, product
from operator import itemgetter, mul
from typing import Iterable

from cliffqp.canonical import EVEN_WORDS_N2
from cliffqp.clifford import CliffordElement, canonical_involution, generator_matrix, phi_word
from cliffqp.errors import UsageError
from cliffqp.exterior import ExteriorVector, mask_size, wedge_masks
from cliffqp.forms import HyperbolicSpace, q_wedge
from cliffqp.group import lifted_generator
from cliffqp.involution import alt_basis, in_alternating, sym_basis
from cliffqp.linalg import Matrix, rref
from cliffqp.rings import Element, Ring


def from_rows(ring: Ring, rows: list[list[Element]]) -> Matrix:
    """The matrix with the given dense rows."""
    ncols = len(rows[0])
    if any(len(row) != ncols for row in rows):
        raise UsageError("ragged rows")
    return Matrix(ring, len(rows), ncols, [x for row in rows for x in row])


def hyperbolic_polar(hs: HyperbolicSpace, x: list, y: list) -> Element:
    """The polar form q(x + y) - q(x) - q(y) of the hyperbolic form, for one pair."""
    ring = hs.ring
    xy = [ring.add(a, b) for a, b in zip(x, y)]
    return ring.sub(ring.sub(hs.q(xy), hs.q(x)), hs.q(y))


def q_wedge_polar(x: ExteriorVector, y: ExteriorVector) -> Element:
    """The polar form of q_wedge, q(x + y) - q(x) - q(y), for one pair."""
    ring = x.ring
    return ring.sub(ring.sub(q_wedge(x + y), q_wedge(x)), q_wedge(y))


def b_wedge_via_top(x: ExteriorVector, y: ExteriorVector) -> Element:
    """The pairing's defining description: top coefficient of reversal(x) wedge y."""
    return x.reversal().wedge(y).pi_top()


def hyperbolic_scale(ring: Ring, n: int, i: int, u: Element) -> Matrix:
    """The named generator that scales v_i by the unit u and v_i^* by its
    inverse, which the scale polynomial of `group.lift_polynomial` must
    give at u."""
    hs = HyperbolicSpace(ring, n)
    diagonal = {k: ring.one for k in range(2 * n)} | {hs.vector_index(i): u, hs.dual_index(i): ring.inv(u)}
    return Matrix.from_nonzeros(ring, 2 * n, 2 * n, ((k, k, v) for k, v in diagonal.items()))


def _transvection(ring: Ring, n: int, t: Element, plus: tuple[int, int], minus: tuple[int, int]) -> Matrix:
    """The identity on H(V) with t at the (row, col) plus and -t at minus."""
    values = {(k, k): ring.one for k in range(2 * n)} | {plus: t, minus: ring.neg(t)}
    return Matrix.from_nonzeros(ring, 2 * n, 2 * n, ((r, c, v) for (r, c), v in values.items() if not ring.is_zero(v)))


def eichler_vd(ring: Ring, n: int, i: int, j: int, t: Element) -> Matrix:
    """v_i -> v_i + t v_j^*, v_j -> v_j - t v_i^*: an Eichler kind that
    `group.pgo_invariance` does not certify, since it is
    `group.eichler_vv`(i, j, t) conjugated by the swap of pair j."""
    if i == j:
        raise UsageError("distinct indices required")
    hs = HyperbolicSpace(ring, n)
    vi, di, vj, dj = hs.vector_index(i), hs.dual_index(i), hs.vector_index(j), hs.dual_index(j)
    return _transvection(ring, n, t, (dj, vi), (di, vj))


def eichler_dv(ring: Ring, n: int, i: int, j: int, t: Element) -> Matrix:
    """v_i^* -> v_i^* + t v_j, v_j^* -> v_j^* - t v_i: an Eichler kind that
    `group.pgo_invariance` does not certify, since it is
    `group.eichler_vv`(i, j, t) conjugated by the swap of pair i."""
    if i == j:
        raise UsageError("distinct indices required")
    hs = HyperbolicSpace(ring, n)
    vi, di, vj, dj = hs.vector_index(i), hs.dual_index(i), hs.vector_index(j), hs.dual_index(j)
    return _transvection(ring, n, t, (vj, di), (vi, dj))


def entries(m: Matrix) -> list:
    """All entries of m, row-major, as a new list: column r * cols + c holds
    the entry at (r, c)."""
    return [m.at(r, c) for r in range(m.rows) for c in range(m.cols)]


def element_rows(m: Matrix) -> list[dict]:
    """The rows of m as {col: nonzero element} dicts."""
    rows: list = [{} for _ in range(m.rows)]
    for r, c, v in m.nonzeros():
        rows[r][c] = v
    return rows


def ring_method_product(a: Matrix, b: Matrix) -> Matrix:
    """a * b through the ring methods: a dict per output row collects
    `add` and `mul` of the stored nonzeros, element by element."""
    ring = a.ring
    brows = element_rows(b)
    triples = []
    for i, row in enumerate(element_rows(a)):
        acc: dict = {}
        for k, aik in row.items():
            for j, v in brows[k].items():
                acc[j] = ring.mul(aik, v) if j not in acc else ring.add(acc[j], ring.mul(aik, v))
        triples += ((i, j, v) for j, v in acc.items() if not ring.is_zero(v))
    return Matrix.from_nonzeros(ring, a.rows, b.cols, triples)


def ring_method_combination(ring: Ring, rows: int, cols: int, terms: Iterable) -> Matrix:
    """The sum of c * m over the (c, m) terms through the ring methods,
    one `mul` per nonzero of each term and one `add` where terms meet."""
    acc: list = [{} for _ in range(rows)]
    for c, m in terms:
        for r, j, v in m.nonzeros():
            w = ring.mul(c, v)
            acc[r][j] = ring.add(acc[r][j], w) if j in acc[r] else w
    triples = ((r, j, v) for r, row in enumerate(acc) for j, v in row.items() if not ring.is_zero(v))
    return Matrix.from_nonzeros(ring, rows, cols, triples)


def gf4_pair(x: int) -> tuple[int, int]:
    """The GF(4) element a | b << 32 as the bit pair (a, b) = a + b*w."""
    return x & 1, x >> 32


def gf4_bit_pair_mul(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    """(a0 + a1 w)(b0 + b1 w) with w^2 = w + 1, on bit pairs."""
    x = a[1] & b[1]
    return (a[0] & b[0]) ^ x, (a[0] & b[1]) ^ (a[1] & b[0]) ^ x


def gf4_lower_by_bits(v: int) -> int:
    """The GF(4) element of a sum of products of stored ints, by shifts and
    xors: bit 0 of v ^ v >> 64 and bit 32 of v ^ v >> 32."""
    return (v ^ v >> 64) & 1 | (v ^ v >> 32) & (1 << 32)


def phi_vector_by_combination(ring: Ring, n: int, coeffs: list) -> CliffordElement:
    """Phi(m) as the sum of m_k times the k-th generator matrix, over all 2n."""
    gens = [generator_matrix(ring, n, k) for k in range(2 * n)]
    return CliffordElement(ring, n, ring_method_combination(ring, 1 << n, 1 << n, zip(coeffs, gens)))


def generator_by_wedge(ring: Ring, n: int, k: int) -> Matrix:
    """The k-th generator, built as left wedge multiplication by v_{k+1}
    for k < n and as the contraction by v_{2n-k}^* otherwise."""
    if k < n:
        return left_mult_matrix(ExteriorVector.basis(ring, n, 1 << k))
    return contraction_matrix(ring, n, 2 * n - k)


def word_by_products(gens: list, word: tuple) -> Matrix:
    """The `matmul` product of gens[k] over the generator indices k of the
    word, left to right; the identity for the empty word."""
    return reduce(mul, (gens[k] for k in word), Matrix.identity(gens[0].ring, gens[0].rows))


def canonical_map_by_products(m: Matrix) -> CliffordElement:
    """c(M) as the combination of the pair products Phi(e_k) Phi(e_l), one
    `matmul` of the generators built by `generator_by_wedge` per nonzero
    M_lj, with k = 2n - 1 - j."""
    ring, n = m.ring, m.rows // 2
    gens = [generator_by_wedge(ring, n, k) for k in range(2 * n)]
    terms = [(coef, gens[2 * n - 1 - j] * gens[l]) for l, j, coef in m.nonzeros()]
    return CliffordElement(ring, n, ring_method_combination(ring, 1 << n, 1 << n, terms))


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


def exterior_from_coeffs(ring: Ring, n: int, coeffs: list) -> ExteriorVector:
    """The element of wedge V with a dense coefficient list of length 2^n in mask order."""
    if len(coeffs) != 1 << n:
        raise UsageError("coefficient array must have length 2^n")
    return ExteriorVector(ring, n, {mask: a for mask, a in enumerate(coeffs) if not ring.is_zero(a)})


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
    return CliffordElement(ring, n, ring_method_combination(ring, dim, dim, terms))


def basis_trace_pairing(ring: Ring, n: int) -> tuple[int, int, list]:
    """The trace pairing of the two tau-orbit bases, row by row:
    (dim Alt, dim Sym, [(a, s, value)] for each nonzero pairing of
    alternating row a with symmetric row s).  trace(E_ab E_cd) =
    [b == c][a == d], so only transposed units pair, and each unit lies in
    one tau-orbit, so in at most one symmetric basis element."""
    alt, sym = alt_basis(ring, n), sym_basis(ring, n)
    dim = 1 << n
    holder = {k: s for s, k, _ in sym.nonzeros()}
    nonzero = []
    for a, terms in groupby(alt.nonzeros(), key=itemgetter(0)):
        totals: dict = {}
        for _, k, coef in terms:
            swapped = k % dim * dim + k // dim  # E_rc -> E_cr
            if swapped in holder:
                s = holder[swapped]
                totals[s] = ring.add(totals.get(s, ring.zero), ring.mul(coef, sym.at(s, swapped)))
        nonzero += [(a, s, total) for s, total in totals.items() if not ring.is_zero(total)]
    return alt.rows, sym.rows, nonzero


def degree4_stable_candidates(ring: Ring) -> tuple[int, list]:
    """The degree-4 negative result by brute force over a finite ring of
    characteristic 2: each l = sum a_k m_k over the even monomials at n = 2
    with a7 = 0 and a4 = 1 + a3 that satisfies l + tau(l) = 1 is a
    candidate, conjugated by the lift g of every B(t) = eichler_vv(2, 1, t),
    t != 0.  Returns the number of candidates and the coefficients of
    those with l - g l g^-1 alternating for every t."""
    elems = list(ring.elements())
    mono = [phi_word(ring, 2, word).matrix for word in EVEN_WORDS_N2]
    lifts = [lifted_generator(ring, 2, "eichler_vv", 2, 1, t)[1:] for t in elems if not ring.is_zero(t)]
    one = CliffordElement.identity(ring, 2)
    count, stable = 0, []
    for a0, a1, a2, a3, a5, a6 in product(elems, repeat=6):
        coeffs = (a0, a1, a2, a3, ring.add(ring.one, a3), a5, a6, ring.zero)
        l = CliffordElement(ring, 2, ring_method_combination(ring, 4, 4, zip(coeffs, mono)))
        if l + canonical_involution(l) != one:
            continue
        count += 1
        if all(in_alternating(l - g * l * g_inv) for g, g_inv in lifts):
            stable.append(coeffs)
    return count, stable
