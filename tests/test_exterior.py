"""Subset signs, wedge products, reversal, and the two operator families."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliffqp.errors import UsageError
from cliffqp.exterior import (
    ExteriorVector,
    mask_members,
    mask_size,
    mask_total,
    sign_exponent,
    wedge_masks,
)
from cliffqp.forms import b_wedge, q_wedge, q_wedge_polar
from cliffqp.linalg import Matrix, matmul
from cliffqp.rings import GF3, GF5, QQ, ZZ

from conftest import PALETTE, dense
from oracles import contraction_matrix, left_mult_matrix, mat_vec


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
    assert mat_vec(d1, dense(v12)) == dense(ExteriorVector.basis(ring, n, 0b10))
    assert mat_vec(d2, dense(v12)) == dense(-ExteriorVector.basis(ring, n, 0b01))


def test_left_mult_example():
    ring, n = QQ, 2
    l1 = left_mult_matrix(ExteriorVector.basis(ring, n, 0b01))
    got = mat_vec(l1, dense(ExteriorVector.basis(ring, n, 0b10)))
    assert got == dense(ExteriorVector.basis(ring, n, 0b11))


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
    via_matrix = mat_vec(left_mult_matrix(x), dense(y))
    assert via_matrix == dense(x.wedge(y))


# --- the sparse operations against a dense oracle ---------------------------
#
# The oracle works on coefficient lists of length 2^n in mask order and reads
# every sign off the subset members, independently of the package's helpers.


def _sign(ring, exponent):
    return ring.neg(ring.one) if exponent % 2 else ring.one


def dense_wedge(ring, n, x, y):
    out = [ring.zero] * (1 << n)
    for mi, a in enumerate(x):
        for mj, b in enumerate(y):
            if mi & mj:
                continue
            swaps = sum(1 for i in mask_members(mi) for j in mask_members(mj) if i > j)
            out[mi | mj] = ring.add(out[mi | mj], ring.mul(_sign(ring, swaps), ring.mul(a, b)))
    return out


def dense_reversal(ring, x):
    out = []
    for mask, a in enumerate(x):
        k = len(mask_members(mask))
        out.append(ring.mul(_sign(ring, k * (k - 1) // 2), a))
    return out


def dense_pairing(ring, n, x, y, only_with_1=False):
    full = (1 << n) - 1
    total = ring.zero
    for mask, a in enumerate(x):
        if only_with_1 and not mask & 1:
            continue
        members = mask_members(mask)
        term = ring.mul(a, y[full ^ mask])
        total = ring.add(total, ring.mul(_sign(ring, sum(members) - len(members)), term))
    return total


def dense_q(ring, n, x):
    return dense_pairing(ring, n, x, x, only_with_1=True)


def _coefficients(ring):
    if ring is QQ:
        values = st.fractions(min_value=-4, max_value=4, max_denominator=5)
    else:
        values = st.sampled_from(list(ring.elements()))
    return st.one_of(st.just(ring.zero), values)  # zero often, so vectors come sparse


@pytest.mark.parametrize("ring", PALETTE, ids=lambda r: r.name)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_sparse_operations_match_the_dense_oracle(ring, data):
    n = data.draw(st.integers(1, 5), label="n")
    coeffs = st.lists(_coefficients(ring), min_size=1 << n, max_size=1 << n)
    xs, ys = data.draw(coeffs, label="x"), data.draw(coeffs, label="y")
    c = data.draw(_coefficients(ring), label="c")
    zero = [ring.zero] * (1 << n)
    for u, v in ((xs, ys), (xs, zero), (zero, ys)):
        x, y = ExteriorVector.from_coeffs(ring, n, u), ExteriorVector.from_coeffs(ring, n, v)
        assert dense(x) == u and dense(y) == v
        assert dense(x + y) == [ring.add(a, b) for a, b in zip(u, v)]
        assert dense(x - y) == [ring.sub(a, b) for a, b in zip(u, v)]
        assert dense(x.scale(c)) == [ring.mul(c, a) for a in u]
        assert dense(x.wedge(y)) == dense_wedge(ring, n, u, v)
        assert dense(x.reversal()) == dense_reversal(ring, u)
        assert ring.eq(b_wedge(x, y), dense_pairing(ring, n, u, v))
        assert ring.eq(q_wedge(x), dense_q(ring, n, u))
        uv = [ring.add(a, b) for a, b in zip(u, v)]
        polar = ring.sub(ring.sub(dense_q(ring, n, uv), dense_q(ring, n, u)), dense_q(ring, n, v))
        assert ring.eq(q_wedge_polar(x, y), polar)
        # no zero coefficient is ever stored
        for w in (x + y, x - y, x.scale(c), x.wedge(y), x.reversal()):
            assert not any(ring.is_zero(a) for a in w.terms.values())


def test_mask_outside_the_algebra_is_rejected():
    with pytest.raises(UsageError):
        ExteriorVector.basis(QQ, 3, 1 << 3)
    with pytest.raises(UsageError):
        ExteriorVector(QQ, 3, {0: QQ.one, 9: QQ.one})
    with pytest.raises(UsageError):
        ExteriorVector(QQ, 3, {-1: QQ.one})


def test_wrong_length_coefficient_list_is_rejected():
    with pytest.raises(UsageError):
        ExteriorVector.from_coeffs(QQ, 3, [QQ.one] * 7)
    with pytest.raises(UsageError):
        ExteriorVector.from_coeffs(QQ, 3, [QQ.one] * 9)


def test_repr_lists_terms_in_mask_order():
    ring, n = GF5, 3
    x = ExteriorVector.basis(ring, n, 0b110).scale(2) + ExteriorVector.basis(ring, n, 0)
    x = x + ExteriorVector.basis(ring, n, 0b001).scale(3)
    assert repr(x) == "1*1 + 3*v1 + 2*v23"
    assert repr(ExteriorVector.zero(ring, n)) == "0"
