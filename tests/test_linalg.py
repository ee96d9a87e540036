"""Exact matrix arithmetic and field elimination."""

from fractions import Fraction
from functools import reduce
from itertools import product
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliffqp.clifford import generator_matrix, phi_vector
from cliffqp.errors import DomainError, UnsupportedRingError, UsageError
from cliffqp.forms import b_wedge_gram
from cliffqp.linalg import (
    Matrix,
    SpanChecker,
    matmul,
    rref,
    signed_perm_inverse,
    trace_of_product,
)
from cliffqp.rings import GF2, GF3, GF4, GF5, QQ, RING_BY_NAME, ZZ
from cliffqp.sampling import random_matrix

from conftest import fresh_rng
from oracles import (
    entries,
    from_rows,
    image_basis,
    in_span,
    kernel_basis,
    mat_vec,
    rank,
    ring_method_combination,
    ring_method_product,
)


def test_trace_identity_mod_char():
    assert Matrix.identity(GF3, 4).trace() == 1  # 4 mod 3


def test_transpose_involution(rng):
    m = random_matrix(QQ, 3, 5, rng)
    assert m.transpose().transpose() == m


def test_trace_cyclicity(rng):
    for _ in range(10):
        a = random_matrix(GF5, 4, 4, rng)
        b = random_matrix(GF5, 4, 4, rng)
        assert matmul(a, b).trace() == matmul(b, a).trace()


def test_shape_errors():
    with pytest.raises(UsageError):
        matmul(Matrix.identity(QQ, 2), Matrix.identity(QQ, 3))
    with pytest.raises(UsageError):
        Matrix.identity(QQ, 2) + Matrix.identity(QQ, 3)
    with pytest.raises(UsageError):
        Matrix.identity(QQ, 2) - Matrix.zeros(QQ, 2, 3)
    with pytest.raises(UsageError):
        Matrix.identity(GF3, 2) + Matrix.identity(GF5, 2)


@pytest.mark.parametrize("position", [(-1, 0), (2, 0), (0, -1), (0, 5), (0, 2)])
def test_from_nonzeros_rejects_a_position_outside_the_shape(position):
    r, c = position
    with pytest.raises(UsageError):
        Matrix.from_nonzeros(GF3, 2, 2, [(0, 0, 1), (r, c, 1)])


def test_elimination_needs_field():
    with pytest.raises(UnsupportedRingError):
        rref(Matrix.identity(ZZ, 2))


def test_image_of_zero_map_is_empty():
    assert image_basis(Matrix.zeros(GF3, 4, 4)) == []


def test_in_span_trivial():
    v = [QQ.one, QQ.zero]
    assert in_span(QQ, v, [v])
    assert not in_span(QQ, v, [[QQ.zero, QQ.one]])
    assert in_span(QQ, [QQ.zero, QQ.zero], [])


def test_kernel_image_dimensions(rng):
    a = random_matrix(GF3, 6, 9, rng)
    assert len(image_basis(a)) + len(kernel_basis(a)) == 9
    for v in kernel_basis(a):
        assert mat_vec(a, v) == [GF3.zero] * 6


def test_gram_rank_n2():
    assert rank(b_wedge_gram(GF3, 2)) == 4  # the pairing is regular


def test_signed_perm_identity():
    assert signed_perm_inverse(Matrix.identity(QQ, 3)) == Matrix.identity(QQ, 3)


def test_signed_perm_antidiag():
    b = from_rows(QQ, [[QQ.zero, QQ.one], [-QQ.one, QQ.zero]])
    inv = signed_perm_inverse(b)
    assert matmul(b, inv) == Matrix.identity(QQ, 2)
    assert matmul(inv, b) == Matrix.identity(QQ, 2)


@pytest.mark.parametrize("ring", (GF2, GF3, QQ, ZZ))
@pytest.mark.parametrize("n", range(1, 7))
def test_gram_inverse_by_direct_multiplication(ring, n):
    g = b_wedge_gram(ring, n)
    inv = signed_perm_inverse(g)
    assert matmul(g, inv) == Matrix.identity(ring, 1 << n)


def test_signed_perm_rejects_bad_input():
    with pytest.raises(DomainError):
        signed_perm_inverse(from_rows(QQ, [[QQ.one, QQ.one], [QQ.zero, QQ.one]]))
    with pytest.raises(DomainError):
        signed_perm_inverse(from_rows(QQ, [[QQ.from_int(2), QQ.zero], [QQ.zero, QQ.one]]))
    # the nonzeros come row by row: each row must hold exactly the next one
    for rows, row in (([[1, 1, 0], [0, 0, 1], [0, 0, 0]], 0), ([[1, 0, 0], [0, 0, 0], [0, 1, 0]], 1)):
        with pytest.raises(DomainError, match=f"row {row} does not have exactly one"):
            signed_perm_inverse(from_rows(GF3, rows))
    with pytest.raises(DomainError, match="row 2 does not have exactly one"):
        signed_perm_inverse(from_rows(GF3, [[0, 1, 0], [1, 0, 0], [0, 0, 0]]))
    with pytest.raises(DomainError, match="column 0 hit twice"):
        signed_perm_inverse(from_rows(GF3, [[1, 0], [2, 0]]))


def test_span_checker_matches_in_span(rng):
    # v lies in the span exactly when appending it leaves the rank unchanged;
    # the basis carries one dependent vector, half the draws are combinations
    # of it and half are uniform vectors, which almost all lie outside
    basis = [GF5.samples(rng, 6) for _ in range(3)]
    basis.append([GF5.add(x, y) for x, y in zip(basis[0], basis[1])])
    checker = SpanChecker(GF5, basis)
    base_rank = rank(from_rows(GF5, basis))
    seen = set()
    for t in range(40):
        v = GF5.samples(rng, 6)
        if t % 2 == 0:
            v = [GF5.zero] * 6
            for b in basis:
                c = GF5.samples(rng, 1)[0]
                v = [GF5.add(x, GF5.mul(c, y)) for x, y in zip(v, b)]
        want = rank(from_rows(GF5, basis + [v])) == base_rank
        seen.add(want)
        assert checker.contains(v) == want
        assert in_span(GF5, v, basis) == want
    assert seen == {True, False}


@pytest.mark.parametrize("ring", (GF2, GF3))
@pytest.mark.parametrize("dim", range(1, 6))
def test_span_checker_matches_a_brute_force_span(ring, dim):
    # SpanChecker and the rank oracle share `rref`, so this oracle shares
    # nothing: it lists every combination of three vectors, and every vector
    # of the ambient space is asked; the third vector is a random draw or the
    # sum of the first two, so spans of every rank up to 3 come up
    rng = fresh_rng(f"brute:{ring.name}:{dim}")
    elements = list(ring.elements())
    for t in range(6):
        a, b = ring.samples(rng, dim), ring.samples(rng, dim)
        third = ring.samples(rng, dim) if t % 2 else [ring.add(x, y) for x, y in zip(a, b)]
        basis = [a, b, third]
        span = {
            tuple(ring.add(ring.add(ring.mul(c1, x), ring.mul(c2, y)), ring.mul(c3, z)) for x, y, z in zip(*basis))
            for c1, c2, c3 in product(elements, repeat=3)
        }
        checker = SpanChecker(ring, basis)
        for v in product(elements, repeat=dim):
            assert checker.contains(list(v)) == (v in span)


# --- the product kernel against the ring-method loop ---------------------------

KERNEL_RINGS = tuple(RING_BY_NAME.values())


def element_strategy(ring):
    """Ring elements; operands get most of their zeros from
    `matrix_strategy`."""
    if ring is QQ:
        # large numerators over large, unrelated denominators
        return st.builds(Fraction, st.integers(-(2 ** 70), 2 ** 70), st.integers(1, 2 ** 40))
    if ring is ZZ:
        return st.integers(-(2 ** 80), 2 ** 80)
    if hasattr(ring, "p"):
        return st.integers(0, ring.p - 1)
    return st.sampled_from(list(ring.elements()))


@st.composite
def matrix_strategy(draw, ring, rows, cols):
    """A matrix whose entries are zero with a drawn probability, so that
    operands range from empty through sparse to dense and the product meets
    both its int path and its row-dict path."""
    zero_percent = draw(st.integers(0, 100))
    cells = draw(
        st.lists(
            st.tuples(st.integers(0, 99), element_strategy(ring)),
            min_size=rows * cols,
            max_size=rows * cols,
        )
    )
    return Matrix(ring, rows, cols, [ring.zero if roll < zero_percent else v for roll, v in cells])


@st.composite
def product_operands(draw, ring):
    n, m, p = (draw(st.integers(1, 7)) for _ in range(3))
    return draw(matrix_strategy(ring, n, m)), draw(matrix_strategy(ring, m, p))


def textbook_product(a, b):
    """The entries of a * b, row-major: the sum over every k of
    a[i, k] * b[k, j], through the ring methods only."""
    ring = a.ring
    arows = [[a.at(i, k) for k in range(a.cols)] for i in range(a.rows)]
    bcols = [b.col(j) for j in range(b.cols)]
    out = []
    for row in arows:
        for col in bcols:
            total = ring.zero
            for x, y in zip(row, col):
                total = ring.add(total, ring.mul(x, y))
            out.append(total)
    return out


def assert_entries_exact(m, want):
    """m has the entries want, each of the ring's element type: Fraction
    over Q, int elsewhere."""
    assert entries(m) == want
    kind = Fraction if m.ring is QQ else int
    assert all(type(x) is kind for x in entries(m))


def assert_product_exact(a, b):
    """The kernel, the ring-method loop and the textbook sum agree entry for
    entry, down to the Python type of every entry."""
    want = textbook_product(a, b)
    for m in (matmul(a, b), ring_method_product(a, b)):
        assert (m.rows, m.cols) == (a.rows, b.cols)
        assert_entries_exact(m, want)


def below_cutoff(a, b):
    """Fewer than a quarter of the operands' entries are nonzero, the
    sparse operands the checks multiply."""
    nonzeros = sum(1 for _ in a.nonzeros()) + sum(1 for _ in b.nonzeros())
    return 4 * nonzeros < a.rows * a.cols + b.rows * b.cols


def random_signed_permutation(ring, size, rng):
    cols = list(range(size))
    rng.shuffle(cols)
    signs = (ring.one if rng.random() < 0.5 else ring.neg(ring.one) for _ in cols)
    return Matrix.from_nonzeros(ring, size, size, zip(range(size), cols, signs))


def lowered_as(a, b):
    """Per `Ring.lower` call that `matmul(a, b)` makes, the type names of
    the rows it hands over."""
    ring, calls = a.ring, []
    lower = ring.lower
    ring.lower = lambda rows: calls.append({type(row).__name__ for row in rows}) or lower(rows)
    try:
        matmul(a, b)
    finally:
        del ring.lower
    return calls


def test_kernel_lowers_each_product_once_in_every_ring():
    # every ring multiplies stored ints and lowers the whole product in one
    # call, a dict of the columns reached per output row, dense or sparse
    for ring in KERNEL_RINGS:
        dense, sparse = Matrix(ring, 2, 2, [ring.one] * 4), Matrix.identity(ring, 8)
        assert not below_cutoff(dense, dense) and below_cutoff(sparse, sparse)
        assert lowered_as(dense, dense) == [{"dict_items"}]
        assert lowered_as(sparse, sparse) == [{"dict_items"}]


def test_int_images_are_the_rows_or_their_scaled_numerators():
    # a matrix stores ints: GF(p) and Z elements themselves, GF(4) elements
    # packed as a | b << 32, Q numerators over the lcm of the denominators
    for ring in (GF2, GF3, GF5, ZZ):
        m = Matrix(ring, 1, 3, [ring.from_int(k) for k in (1, 0, -1)])
        assert m._rows == [{0: 1, 2: ring.from_int(-1)}] and m._scale == 1
    w = GF4.omega
    m = Matrix(GF4, 1, 3, [GF4.one, w, GF4.add(GF4.one, w)])
    assert m._rows == [{0: 1, 1: 1 << 32, 2: 1 | 1 << 32}] and m._scale == 1
    m = from_rows(QQ, [[Fraction(1, 6), QQ.zero], [Fraction(-3, 4), Fraction(5)]])
    assert (m._rows, m._scale) == ([{0: 2}, {0: -9, 1: 60}], 12)
    half = from_rows(QQ, [[Fraction(1, 2), Fraction(1, 2)]])
    assert (half + half)._rows == [{0: 1, 1: 1}] and (half + half)._scale == 1  # 2/2 reduced


@pytest.mark.parametrize("ring", KERNEL_RINGS, ids=lambda r: r.name)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_kernel_matches_ring_methods_on_rectangular_shapes(ring, data):
    a, b = data.draw(product_operands(ring))
    assert_product_exact(a, b)


@pytest.mark.parametrize("ring", KERNEL_RINGS, ids=lambda r: r.name)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_kernel_matches_ring_methods_on_structured_operands(ring, data):
    size = data.draw(st.integers(1, 8))
    x = data.draw(matrix_strategy(ring, size, size))
    perm = random_signed_permutation(ring, size, fresh_rng(f"perm:{ring.name}:{size}"))
    zeros, identity = Matrix.zeros(ring, size, size), Matrix.identity(ring, size)
    # the inverse is a SignedPermutation, which matmul moves rows by
    for special in (zeros, identity, perm, signed_perm_inverse(perm)):
        assert_product_exact(special, x)
        assert_product_exact(x, special)
    assert matmul(Matrix.identity(ring, size), x) == x
    assert matmul(x, Matrix.zeros(ring, size, size)) == Matrix.zeros(ring, size, size)


@st.composite
def one_nonzero_per_row(draw, ring, rows, cols):
    nonzero = element_strategy(ring).map(lambda v: ring.one if ring.is_zero(v) else v)
    triples = [(r, draw(st.integers(0, cols - 1)), draw(nonzero)) for r in range(rows)]
    return Matrix.from_nonzeros(ring, rows, cols, triples)


@pytest.mark.parametrize("ring", KERNEL_RINGS, ids=lambda r: r.name)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_kernel_matches_ring_methods_below_the_cutoff(ring, data):
    # the sparse operands of the checks: one nonzero per row (signed
    # permutations, matrix units), generator matrices and Phi(m) = sum m_k e_k
    size = data.draw(st.sampled_from((8, 16)))
    x = data.draw(one_nonzero_per_row(ring, size, size))
    y = data.draw(one_nonzero_per_row(ring, size, size))
    n = data.draw(st.integers(3, 5))
    gen = generator_matrix(ring, n, data.draw(st.integers(0, 2 * n - 1)))
    coeffs = data.draw(st.lists(element_strategy(ring), min_size=2 * n, max_size=2 * n))
    phi = phi_vector(ring, n, coeffs).matrix
    pairs = [(x, y), (gen, phi), (phi, gen)]
    if n == 5:
        pairs.append((phi, phi))  # the relations check's Phi(m)^2, sparse from n = 5
    for a, b in pairs:
        assert below_cutoff(a, b)
        assert_product_exact(a, b)


@pytest.mark.parametrize("ring", KERNEL_RINGS, ids=lambda r: r.name)
@pytest.mark.parametrize("n", (1, 2, 3))
def test_kernel_matches_ring_methods_on_gram_sandwich(ring, n):
    # the canonical involution's G^-1 x^T G, factor by factor
    g = b_wedge_gram(ring, n)
    ginv = signed_perm_inverse(g)
    x = random_matrix(ring, 1 << n, 1 << n, fresh_rng(f"sandwich:{ring.name}:{n}"))
    assert_product_exact(g, ginv)
    assert_product_exact(ginv, x.transpose())
    assert_product_exact(matmul(ginv, x.transpose()), g)
    assert matmul(g, ginv) == Matrix.identity(ring, 1 << n)


def test_q_kernel_lowers_to_lowest_terms():
    a = from_rows(QQ, [[Fraction(1, 6), Fraction(2 ** 65, 3)]])
    b = from_rows(QQ, [[Fraction(3, 4)], [Fraction(9, 2 ** 64)]])
    product = matmul(a, b).at(0, 0)
    assert product == Fraction(1, 8) + Fraction(6) and product.denominator == 8
    assert entries(matmul(a, Matrix.zeros(QQ, 2, 1))) == [QQ.zero]


def test_z_kernel_keeps_big_integers_exact():
    big = 2 ** 64 + 1
    a = from_rows(ZZ, [[big, -big]])
    b = from_rows(ZZ, [[big], [big - 2]])
    assert entries(matmul(a, b)) == [big * big - big * (big - 2)]


@pytest.mark.parametrize("ring", KERNEL_RINGS, ids=lambda r: r.name)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_trace_of_product_matches_trace_of_matmul(ring, data):
    n, m = data.draw(st.integers(1, 7)), data.draw(st.integers(1, 7))
    a = data.draw(matrix_strategy(ring, n, m))
    b = data.draw(matrix_strategy(ring, m, n))
    want = reduce(ring.add, textbook_product(a, b)[:: n + 1])
    assert trace_of_product(a, b) == want
    assert trace_of_product(b, a) == want
    with pytest.raises(UsageError):
        trace_of_product(a, Matrix.zeros(ring, m, n + 1))


@st.composite
def vector_strategy(draw, ring, size):
    """A vector {index: element} on some of the indices below size, none
    at all included; GF(p) values may be unreduced ints, which the matrix
    boundary reduces."""
    value = element_strategy(ring)
    if hasattr(ring, "p"):
        value = st.one_of(value, st.integers(ring.p, 3 * ring.p))
    indices = draw(st.lists(st.integers(0, size - 1), unique=True, max_size=size))
    return {i: draw(value) for i in indices}


@pytest.mark.parametrize("ring", KERNEL_RINGS, ids=lambda r: r.name)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_apply_matches_the_ring_method_product_with_a_vector(ring, data):
    # Q vectors bring denominators unrelated to the matrix's scale
    rows, cols = data.draw(st.integers(1, 7)), data.draw(st.integers(1, 7))
    full = data.draw(matrix_strategy(ring, rows, cols))
    empty = data.draw(st.sets(st.integers(0, rows - 1)))
    m = Matrix.from_nonzeros(ring, rows, cols, ((r, c, v) for r, c, v in full.nonzeros() if r not in empty))
    terms = data.draw(vector_strategy(ring, cols))
    stored, copies, scale, given = m._rows, [dict(row) for row in m._rows], m._scale, dict(terms)
    got = m.apply(terms)
    want = mat_vec(m, [terms.get(c, ring.zero) for c in range(cols)])
    assert got == {r: v for r, v in enumerate(want) if not ring.is_zero(v)}
    kind = Fraction if ring is QQ else int
    assert all(type(v) is kind for v in got.values())
    assert m._rows is stored and m._rows == copies and m._scale == scale and terms == given
    assert m.apply({}) == {}
    for outside in (-1, cols):
        with pytest.raises(UsageError):
            m.apply({outside: ring.one})


def assert_combination_exact(ring, rows, cols, terms):
    """A fold of sums and scales and the ring-method loop agree entry for
    entry, down to the Python type of every entry."""
    got = Matrix.zeros(ring, rows, cols)
    for c, m in terms:
        got = got + m.scale(c)
    want = ring_method_combination(ring, rows, cols, terms)
    assert got == want
    assert_entries_exact(got, entries(want))


def coefficient_strategy(ring):
    """Coefficients with zero among them, and unreduced ints over GF(p)."""
    coefficient = st.one_of(st.just(ring.zero), element_strategy(ring))
    if hasattr(ring, "p"):
        coefficient = st.one_of(coefficient, st.integers(ring.p, 2 * ring.p))
    return coefficient


@pytest.mark.parametrize("ring", KERNEL_RINGS, ids=lambda r: r.name)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_combination_matches_a_fold_of_sums_and_scales(ring, data):
    rows, cols = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
    term = st.tuples(coefficient_strategy(ring), matrix_strategy(ring, rows, cols))
    assert_combination_exact(ring, rows, cols, data.draw(st.lists(term, max_size=5)))
    m = data.draw(matrix_strategy(ring, rows, cols))
    c = data.draw(element_strategy(ring).filter(lambda c: not ring.is_zero(c)))
    cancelled = m.scale(c) + m.scale(ring.neg(c))
    assert cancelled == Matrix.zeros(ring, rows, cols) and cancelled.is_zero()


@pytest.mark.parametrize("ring", KERNEL_RINGS, ids=lambda r: r.name)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_scale_matches_the_one_term_ring_method_combination(ring, data):
    rows, cols = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
    m = data.draw(matrix_strategy(ring, rows, cols))
    c = data.draw(coefficient_strategy(ring))
    scaled = m.scale(c)
    assert_entries_exact(scaled, entries(ring_method_combination(ring, rows, cols, [(c, m)])))
    assert m.scale(ring.zero) == Matrix.zeros(ring, rows, cols) and m.scale(ring.zero).is_zero()


def test_scale_reduces_its_coefficient_and_keeps_lowest_terms():
    g = from_rows(GF3, [[1, 2], [0, 1]])
    # 4 is one in GF(3) without being the stored one, and 3 is zero
    assert g.scale(4) == g and entries(g.scale(4)) == [1, 2, 0, 1]
    assert g.scale(3) == Matrix.zeros(GF3, 2, 2)
    a = from_rows(QQ, [[Fraction(1, 6), Fraction(2 ** 65, 3)], [QQ.zero, Fraction(-5, 4)]])
    for c in (Fraction(3, 7), Fraction(-6, 5), Fraction(12), QQ.zero):
        scaled = a.scale(c)
        assert_canonical(scaled)
        assert_entries_exact(scaled, [c * x for x in entries(a)])
    assert a.scale(Fraction(12))._scale == 1


def test_combination_of_mixed_denominators_and_zero_or_unreduced_coefficients():
    a = from_rows(QQ, [[Fraction(1, 6), Fraction(2 ** 65, 3)], [QQ.zero, Fraction(-5, 4)]])
    b = from_rows(QQ, [[Fraction(9, 2 ** 64), QQ.one], [Fraction(7, 10), QQ.zero]])
    terms = [(Fraction(3, 7), a), (QQ.zero, b), (Fraction(-5, 9), b), (Fraction(4, 7), a)]
    assert_combination_exact(QQ, 2, 2, terms)
    assert ring_method_combination(QQ, 2, 2, terms) == a + b.scale(Fraction(-5, 9))
    g = from_rows(GF3, [[1, 2], [0, 1]])
    # 3 is zero in GF(3) without being the stored zero, and 4 is one
    assert_combination_exact(GF3, 2, 2, [(3, g), (GF3.zero, g)])
    assert_combination_exact(GF3, 2, 2, [(3, g), (4, g)])


def test_from_nonzeros_keeps_the_last_value_of_a_position():
    m = Matrix.from_nonzeros(GF5, 2, 3, [(0, 2, 4), (1, 0, 1), (0, 2, 3)])
    assert m == from_rows(GF5, [[0, 0, 3], [1, 0, 0]])
    assert Matrix.from_nonzeros(GF5, 2, 2, ()) == Matrix.zeros(GF5, 2, 2)
    # the replaced 1/3 still takes part in the lift, and the result is
    # stored in lowest terms all the same
    m = Matrix.from_nonzeros(QQ, 2, 2, [(0, 1, Fraction(1, 3)), (1, 0, QQ.one), (0, 1, Fraction(1, 2))])
    assert m == Matrix(QQ, 2, 2, [QQ.zero, Fraction(1, 2), QQ.one, QQ.zero])
    assert_canonical(m)
    assert m._scale == 2
    assert Matrix.from_nonzeros(QQ, 1, 1, [(0, 0, Fraction(1, 3)), (0, 0, QQ.zero)]) == Matrix.zeros(QQ, 1, 1)


def test_prime_field_matrices_reduce_their_entries():
    assert Matrix(GF3, 1, 2, [4, 3]) == Matrix(GF3, 1, 2, [1, 0])
    assert entries(Matrix(GF3, 1, 2, [4, 3])) == [1, 0]
    assert Matrix.from_nonzeros(GF5, 1, 2, [(0, 0, 5), (0, 1, -1)]) == Matrix(GF5, 1, 2, [0, 4])


@pytest.mark.parametrize("bad", [(0, 1), 2, 1 << 33, -1])
def test_gf4_matrices_refuse_anything_but_the_four_elements(bad):
    # an old bit-pair tuple would otherwise reach the int kernel, where
    # tuple * int silently repeats the tuple
    with pytest.raises(DomainError):
        Matrix(GF4, 1, 2, [GF4.one, bad])
    with pytest.raises(DomainError):
        Matrix.from_nonzeros(GF4, 1, 1, [(0, 0, bad)])
    with pytest.raises(DomainError):
        Matrix.identity(GF4, 1).scale(bad)


def rational_matrix(rows, cols):
    """Q matrices over small denominators, so sums share factors with them."""
    entry = st.builds(Fraction, st.integers(-12, 12), st.sampled_from((1, 2, 3, 4, 6, 12)))
    return st.lists(entry, min_size=rows * cols, max_size=rows * cols).map(lambda e: Matrix(QQ, rows, cols, e))


def assert_canonical(m):
    """The stored numerators share no factor with the scale."""
    assert m._scale >= 1
    assert gcd(m._scale, *(v for row in m._rows for v in row.values())) == 1, m._rows


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_rational_matrices_are_stored_in_lowest_terms(data):
    rows, inner, cols = (data.draw(st.integers(1, 4)) for _ in range(3))
    a, b = data.draw(rational_matrix(rows, inner)), data.draw(rational_matrix(rows, inner))
    y = data.draw(rational_matrix(inner, cols))
    c = data.draw(st.builds(Fraction, st.integers(1, 12), st.sampled_from((1, 2, 3, 4, 6))))
    made = [a, a + b, a - b, -a, a.scale(c), a.transpose(), matmul(a, y), a - a]
    made.append(a.scale(c) + b.scale(-c))
    made.append(Matrix.linear_image(a, inner, rows, lambda r, k: ((k, r, 1),)))
    for m in made:
        assert_canonical(m)
    assert (a + b) - b == a
    assert a.scale(c).scale(1 / c) == a
    assert a - a == Matrix.zeros(QQ, rows, inner) and (a - a)._scale == 1
    assert made[-1] == -a.transpose()
    assert_entries_exact(matmul(a, y), entries(ring_method_product(a, y)))
    # a placement of unused and zero values is canonical as well
    placed = Matrix.from_places(QQ, rows, inner, [c, 2 * c, QQ.zero, c / 3], [(rows - 1, 0, 2), (0, 0, 1)])
    assert_canonical(placed)
    assert placed == Matrix.from_nonzeros(QQ, rows, inner, [(0, 0, 2 * c)])


def test_from_places_puts_each_value_at_its_places():
    # values are shared between places, a zero places nothing, and a later
    # value at a position replaces an earlier one, a zero included
    values = [3, 0, 1]
    places = [(0, 1, 0), (1, 2, 0), (1, 0, 1), (0, 1, 2), (1, 1, 2), (0, 0, 0), (0, 0, 1)]
    assert Matrix.from_places(GF5, 2, 3, values, places) == from_rows(GF5, [[0, 1, 0], [0, 1, 3]])
    triples = [(r, c, values[i]) for r, c, i in places]
    assert Matrix.from_places(GF5, 2, 3, values, places) == Matrix.from_nonzeros(GF5, 2, 3, triples)
    assert Matrix.from_places(GF5, 2, 2, values, ()) == Matrix.zeros(GF5, 2, 2)


@pytest.mark.parametrize("place", [(-1, 0, 0), (2, 0, 0), (0, -1, 0), (0, 3, 0), (0, 0, -1), (0, 0, 2)])
def test_from_places_rejects_a_position_or_index_out_of_range(place):
    # every place is checked, also where the values are zero and place nothing
    for values in ([GF3.one, GF3.one], [GF3.zero, GF3.zero]):
        with pytest.raises(UsageError):
            Matrix.from_places(GF3, 2, 3, values, [(0, 0, 0), place])


@pytest.mark.parametrize("ring", (GF2, GF3, GF4, GF5, QQ, ZZ), ids=lambda r: r.name)
def test_linear_image_sums_the_signed_unit_images(ring):
    # E_rc goes to E_cr - E_00: every image meets at (0, 0), where the
    # entries of m sum with sign -1, and the rest is the transpose
    rng = fresh_rng(f"image:{ring.name}")
    for m in (random_matrix(ring, 3, 4, rng), Matrix.zeros(ring, 3, 4)):
        image = Matrix.linear_image(m, 4, 3, lambda r, c: ((c, r, 0), (0, 0, 1)))
        total = reduce(ring.add, entries(m), ring.zero)
        corner = Matrix.from_places(ring, 4, 3, [ring.neg(total)], [(0, 0, 0)])
        assert image == m.transpose() + corner


@pytest.mark.parametrize("image", [(-1, 0, 0), (4, 0, 0), (0, -1, 0), (0, 3, 0)])
def test_linear_image_rejects_a_unit_image_outside_the_shape(image):
    m = Matrix.identity(GF3, 3)
    with pytest.raises(UsageError):
        Matrix.linear_image(m, 4, 3, lambda r, c: ((r, c, 0), image))


@pytest.mark.parametrize("ring", (GF2, GF3, GF4, GF5, QQ, ZZ), ids=lambda r: r.name)
def test_scalar_matrix_is_the_scaled_identity(ring):
    rng = fresh_rng(f"scalar:{ring.name}")
    extra = [Fraction(-5, 9), Fraction(7, 3)] if ring is QQ else []
    for c in [ring.zero, ring.one, *ring.samples(rng, 4), *extra]:
        for size in (1, 4, 16):
            scalar = Matrix.scalar(ring, size, c)
            assert scalar == Matrix.identity(ring, size).scale(c), (c, size)
            assert entries(scalar) == [c if r == k else ring.zero for r in range(size) for k in range(size)]
    assert Matrix.scalar(ring, 3, ring.zero) == Matrix.zeros(ring, 3, 3)


def test_repr_lists_exactly_the_nonzeros_in_row_col_order():
    triples = [(2, 1, Fraction(-1, 2)), (0, 3, QQ.one), (2, 0, QQ.zero), (0, 0, QQ.from_int(5))]
    m = Matrix.from_nonzeros(QQ, 3, 4, triples)
    assert repr(m) == "Matrix(q, 3x4, {(0, 0): 5, (0, 3): 1, (2, 1): -1/2})"
    assert repr(Matrix.zeros(GF4, 2, 2)) == "Matrix(gf4, 2x2, {})"


def test_repr_of_a_large_sparse_matrix_costs_its_nonzeros():
    # 2^10 x 2^10 with 512 nonzeros: a dense repr would run to megabytes
    assert len(repr(generator_matrix(GF2, 10, 0))) < 20_000
