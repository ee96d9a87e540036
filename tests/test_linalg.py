"""Exact matrix arithmetic and field elimination."""

from contextlib import contextmanager
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from cliffqp.rings import GF2, GF3, GF5, QQ, RING_BY_NAME, ZZ
from cliffqp.sampling import random_matrix, random_vector

from conftest import fresh_rng
from oracles import from_rows, image_basis, in_span, kernel_basis, mat_vec, rank


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


def test_span_checker_matches_in_span(rng):
    # v lies in the span exactly when appending it leaves the rank unchanged;
    # the basis carries one dependent vector, half the draws are combinations
    # of it and half are uniform vectors, which almost all lie outside
    basis = [random_vector(GF5, 6, rng) for _ in range(3)]
    basis.append([GF5.add(x, y) for x, y in zip(basis[0], basis[1])])
    checker = SpanChecker(GF5, basis)
    base_rank = rank(from_rows(GF5, basis))
    seen = set()
    for t in range(40):
        v = random_vector(GF5, 6, rng)
        if t % 2 == 0:
            v = [GF5.zero] * 6
            for b in basis:
                c = GF5.sample(rng)
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
        a, b = random_vector(ring, dim, rng), random_vector(ring, dim, rng)
        third = random_vector(ring, dim, rng) if t % 2 else [ring.add(x, y) for x, y in zip(a, b)]
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
    """Sum over every k of a[i, k] * b[k, j], through the ring methods only."""
    ring = a.ring
    out = []
    for i in range(a.rows):
        for j in range(b.cols):
            total = ring.zero
            for k in range(a.cols):
                total = ring.add(total, ring.mul(a.at(i, k), b.at(k, j)))
            out.append(total)
    return Matrix(ring, a.rows, b.cols, out)


@contextmanager
def ring_method_path(ring):
    """Force matmul onto its ring-method loop by hiding the ring's int lift."""
    ring.lift = lambda entries: None
    try:
        yield
    finally:
        del ring.lift


def assert_product_exact(a, b):
    """The kernel, its ring-method loop and the textbook sum agree entry for
    entry, down to the Python type of every entry."""
    want = textbook_product(a, b)
    got = matmul(a, b)
    with ring_method_path(a.ring):
        generic = matmul(a, b)
    for m in (got, generic):
        assert (m.rows, m.cols) == (want.rows, want.cols)
        assert m.entries == want.entries
        assert [type(x) for x in m.entries] == [type(x) for x in want.entries]


def random_signed_permutation(ring, size, rng):
    cols = list(range(size))
    rng.shuffle(cols)
    signs = (ring.one if rng.random() < 0.5 else ring.neg(ring.one) for _ in cols)
    return Matrix.from_nonzeros(ring, size, size, zip(range(size), cols, signs))


def test_kernel_rings_cover_the_int_lift_and_the_ring_methods():
    lifted = {r.name for r in KERNEL_RINGS if r.lift([r.one]) is not None}
    assert lifted == {"gf2", "gf3", "gf5", "q", "z"}  # gf4 keeps the ring methods


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
    assert matmul(a, Matrix.zeros(QQ, 2, 1)).entries == [QQ.zero]


def test_z_kernel_keeps_big_integers_exact():
    big = 2 ** 64 + 1
    a = from_rows(ZZ, [[big, -big]])
    b = from_rows(ZZ, [[big], [big - 2]])
    assert matmul(a, b).entries == [big * big - big * (big - 2)]


@pytest.mark.parametrize("ring", KERNEL_RINGS, ids=lambda r: r.name)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_trace_of_product_matches_trace_of_matmul(ring, data):
    n, m = data.draw(st.integers(1, 7)), data.draw(st.integers(1, 7))
    a = data.draw(matrix_strategy(ring, n, m))
    b = data.draw(matrix_strategy(ring, m, n))
    want = textbook_product(a, b).trace()
    assert trace_of_product(a, b) == want
    assert trace_of_product(b, a) == want
    with pytest.raises(UsageError):
        trace_of_product(a, Matrix.zeros(ring, m, n + 1))


@pytest.mark.parametrize("ring", KERNEL_RINGS, ids=lambda r: r.name)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_combination_matches_a_fold_of_sums_and_scales(ring, data):
    rows, cols = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
    coefficient = st.one_of(st.just(ring.zero), element_strategy(ring))
    term = st.tuples(coefficient, matrix_strategy(ring, rows, cols))
    terms = data.draw(st.lists(term, max_size=5))
    want = Matrix.zeros(ring, rows, cols)
    for c, m in terms:
        want = want + m.scale(c)
    got = Matrix.combination(ring, rows, cols, terms)
    assert got == want
    assert [type(x) for x in got.entries] == [type(x) for x in want.entries]
    m = data.draw(matrix_strategy(ring, rows, cols))
    c = data.draw(element_strategy(ring).filter(lambda c: not ring.is_zero(c)))
    cancelled = Matrix.combination(ring, rows, cols, [(c, m), (ring.neg(c), m)])
    assert cancelled == Matrix.zeros(ring, rows, cols) and cancelled.is_zero()


@pytest.mark.parametrize(
    "term",
    [
        (GF3.one, Matrix.identity(GF3, 3)),
        (GF3.zero, Matrix.zeros(GF3, 2, 3)),  # checked although its coefficient is zero
        (GF3.one, Matrix.identity(GF5, 2)),
    ],
    ids=("rows", "cols", "ring"),
)
def test_combination_rejects_a_term_of_another_shape_or_ring(term):
    with pytest.raises(UsageError):
        Matrix.combination(GF3, 2, 2, [(GF3.one, Matrix.identity(GF3, 2)), term])


def test_from_nonzeros_keeps_the_last_value_of_a_position():
    m = Matrix.from_nonzeros(GF5, 2, 3, [(0, 2, 4), (1, 0, 1), (0, 2, 3)])
    assert m == from_rows(GF5, [[0, 0, 3], [1, 0, 0]])
    assert Matrix.from_nonzeros(GF5, 2, 2, ()) == Matrix.zeros(GF5, 2, 2)
