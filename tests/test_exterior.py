"""Subset signs, wedge products, reversal, and the two operator families."""

import pytest

from cliffqp.exterior import (
    ExteriorVector,
    contraction_matrix,
    left_mult_matrix,
    mask_members,
    mask_size,
    mask_total,
    sign_exponent,
    wedge_masks,
)
from cliffqp.linalg import Matrix, matmul
from cliffqp.rings import GF3, GF5, QQ, ZZ

from conftest import PALETTE


def test_subset_index_fields():
    i = 0b0101  # {1, 3} inside {1, .., 4}
    assert mask_size(i) == 2
    assert mask_total(i) == 4
    assert mask_members(i) == (1, 3)
    assert mask_members(0b1111 ^ i) == (2, 4)  # the complement
    assert sign_exponent(i) == 2


def test_subset_sign_examples():
    assert QQ.sign(sign_exponent(0)) == QQ.one  # empty set
    assert QQ.sign(sign_exponent(0b011)) == QQ.neg(QQ.one)  # {1, 2}: 3 - 2 = 1
    assert QQ.sign(sign_exponent(0b001)) == QQ.one  # {1}: 1 - 1 = 0


def test_wedge_basis_examples():
    one, two = 0b01, 0b10
    assert wedge_masks(one, two) == (1, 0b11)
    assert wedge_masks(two, one) == (-1, 0b11)
    assert wedge_masks(one, one) is None


@pytest.mark.parametrize("n", range(1, 6))
def test_wedge_sign_associativity_exhaustive(n):
    # for pairwise disjoint I, J, K the two bracketings carry the same sign
    for mi in range(1 << n):
        rest = ((1 << n) - 1) ^ mi
        mj = rest
        while True:
            free = rest ^ mj
            mk = free
            while True:
                s1, u1 = wedge_masks(mi, mj)
                s2, u2 = wedge_masks(u1, mk)
                t1, w1 = wedge_masks(mj, mk)
                t2, w2 = wedge_masks(mi, w1)
                assert u2 == w2 and s1 * s2 == t1 * t2
                if mk == 0:
                    break
                mk = (mk - 1) & free
            if mj == 0:
                break
            mj = (mj - 1) & rest


@pytest.mark.parametrize("ring", PALETTE)
@pytest.mark.parametrize("n", range(1, 6))
def test_reversal_is_an_involution(ring, n):
    for mask in range(1 << n):
        v = ExteriorVector.basis(ring, n, mask)
        assert v.reversal().reversal() == v


def test_reversal_examples():
    v12 = ExteriorVector.basis(QQ, 2, 0b11)
    assert v12.reversal() == -v12  # |I| = 2
    v1 = ExteriorVector.basis(QQ, 2, 0b01)
    assert v1.reversal() == v1  # |I| = 1
    one = ExteriorVector.basis(QQ, 2, 0)
    assert one.reversal() == one


def test_pi_top():
    ring, n = GF5, 3
    top = ExteriorVector.basis(ring, n, 0b111)
    assert top.pi_top() == ring.one
    assert ExteriorVector.basis(ring, n, 0).pi_top() == ring.zero
    mixed = top.scale(3) + ExteriorVector.basis(ring, n, 0b001)
    assert mixed.pi_top() == 3


def test_contraction_examples():
    ring, n = QQ, 2
    v12 = ExteriorVector.basis(ring, n, 0b11)
    d1 = contraction_matrix(ring, n, 1)
    d2 = contraction_matrix(ring, n, 2)
    from cliffqp.linalg import mat_vec

    assert mat_vec(d1, list(v12.coeffs)) == list(ExteriorVector.basis(ring, n, 0b10).coeffs)
    assert mat_vec(d2, list(v12.coeffs)) == list((-ExteriorVector.basis(ring, n, 0b01)).coeffs)


def test_left_mult_example():
    ring, n = QQ, 2
    l1 = left_mult_matrix(ExteriorVector.basis(ring, n, 0b01))
    from cliffqp.linalg import mat_vec

    got = mat_vec(l1, list(ExteriorVector.basis(ring, n, 0b10).coeffs))
    assert got == list(ExteriorVector.basis(ring, n, 0b11).coeffs)


@pytest.mark.parametrize("n", range(1, 7))
def test_contraction_squares_to_zero(n):
    ring = GF3
    dim = 1 << n
    zero = Matrix.zeros(ring, dim, dim)
    for i in range(1, n + 1):
        d = contraction_matrix(ring, n, i)
        assert matmul(d, d) == zero


def test_parity_detection():
    ring, n = ZZ, 3
    even = ExteriorVector.basis(ring, n, 0) + ExteriorVector.basis(ring, n, 0b11)
    odd = ExteriorVector.basis(ring, n, 0b1)
    assert even.parity() == "even"
    assert odd.parity() == "odd"
    assert (even + odd).parity() == "mixed"
    assert ExteriorVector.zero(ring, n).parity() == "even"


def test_wedge_bilinear_matches_matrix():
    ring, n = GF5, 3
    x = ExteriorVector.from_coeffs(ring, n, [ring.from_int(k) for k in range(8)])
    y = ExteriorVector.from_coeffs(ring, n, [ring.from_int(3 * k + 1) for k in range(8)])
    from cliffqp.linalg import mat_vec

    via_matrix = mat_vec(left_mult_matrix(x), list(y.coeffs))
    assert via_matrix == list(x.wedge(y).coeffs)
