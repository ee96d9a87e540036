"""Generator words, relations, the involution, traces, and decomposition."""

import pytest

from cliffqp import clifford
from cliffqp.clifford import (
    CliffordElement,
    canonical_involution,
    classify_even_involution,
    even_blocks,
    generator_matrix,
    involution_suite,
    involution_type_matches,
    monomial_basis,
    parity_masks,
    phi_vector,
    phi_word,
    reduced_trace,
    relation_suite,
)
from cliffqp.errors import UnsupportedRingError, UsageError
from cliffqp.exterior import mask_size
from cliffqp.forms import b_wedge_gram
from cliffqp.linalg import Matrix, SignedPermutation, rref, signed_perm_inverse, trace_of_product
from cliffqp.rings import GF2, GF3, GF4, GF5, QQ, RING_BY_NAME, ZZ
from cliffqp.sampling import random_clifford_element, random_even_element

from conftest import PALETTE, fresh_rng
from oracles import from_rows, recompose


def test_phi_word_n1_matrix():
    x = phi_word(QQ, 1, ["v1"])
    assert x.matrix == from_rows(QQ, [[QQ.zero, QQ.zero], [QQ.one, QQ.zero]])


def test_phi_anticommutator_is_identity():
    for ring in PALETTE:
        lhs = phi_word(ring, 1, ["v1", "v1*"]) + phi_word(ring, 1, ["v1*", "v1"])
        assert lhs == CliffordElement.identity(ring, 1)


def test_phi_word_n2_even_blocks():
    x = phi_word(QQ, 2, ["v1", "v2"])
    b0, b1 = even_blocks(x)
    assert b0 == from_rows(QQ, [[QQ.zero, QQ.zero], [QQ.one, QQ.zero]])
    assert b1 == Matrix.zeros(QQ, 2, 2)


def test_element_rejects_a_matrix_over_another_ring():
    with pytest.raises(UsageError):
        CliffordElement(GF2, 2, Matrix.identity(GF3, 4))


def test_phi_word_rejects_bad_label():
    with pytest.raises(UsageError):
        phi_word(QQ, 2, ["v3"])


@pytest.mark.parametrize("ring", PALETTE + (GF5,))
@pytest.mark.parametrize("n", (1, 2, 3))
def test_relation_suite_small(ring, n):
    out = relation_suite(ring, n, fresh_rng(f"rel:{ring.name}:{n}"), trials=25)
    assert out.passed, out.details


def test_phi_square_is_form_value():
    ring, n = GF5, 3
    rng = fresh_rng("phisq")
    coeffs = [ring.one, ring.zero, ring.zero, ring.zero, ring.zero, ring.one]
    x = phi_vector(ring, n, coeffs)  # v1 + v1*
    assert x * x == CliffordElement.identity(ring, n)


def test_quartic_word_idempotent_and_involution_expansion():
    ring = GF2
    x = phi_word(ring, 2, ["v1", "v2", "v2*", "v1*"])
    assert x * x == x
    expansion = (
        CliffordElement.identity(ring, 2)
        + phi_word(ring, 2, ["v1", "v1*"])
        + phi_word(ring, 2, ["v2", "v2*"])
        + x
    )
    assert canonical_involution(x) == expansion


@pytest.mark.parametrize("ring", PALETTE)
@pytest.mark.parametrize("n", range(1, 6))
def test_involution_fixes_generators(ring, n):
    for k in range(2 * n):
        g = CliffordElement(ring, n, generator_matrix(ring, n, k))
        assert canonical_involution(g) == g


def test_generators_are_shared_and_no_operation_writes_its_operands():
    # matrices are immutable: the cached generator is handed out itself, and
    # every operation leaves the entries of its operands as they were
    assert generator_matrix(GF3, 2, 0) is generator_matrix(GF3, 2, 0)
    rng = fresh_rng("immutable")
    for ring in (GF3, QQ, GF4):  # dense products take the int lift, GF(4) the row dicts
        a, b = (random_clifford_element(ring, 2, rng).matrix for _ in range(2))
        perm = signed_perm_inverse(b_wedge_gram(ring, 2))
        assert isinstance(perm, SignedPermutation)
        assert (ring.lift([ring.one]) is None) == (ring is GF4)
        c = ring.sample(rng)
        operations = {
            "+": lambda: a + b,
            "-": lambda: a - b,
            "neg": lambda: -a,
            "scale": lambda: a.scale(c),
            "transpose": lambda: (a.transpose(), perm.transpose()),
            "combination": lambda: Matrix.combination(ring, 4, 4, [(c, a), (c, b), (c, perm)]),
            "rref": lambda: (rref(a), rref(perm)),
            "trace_of_product": lambda: (trace_of_product(a, b), trace_of_product(perm, a)),
            "*": lambda: (a * b, perm * a, a * perm, perm * perm),
        }
        before = [m.entries for m in (a, b, perm)]
        for name, operation in operations.items():
            operation()
            assert [m.entries for m in (a, b, perm)] == before, (ring.name, name)


@pytest.mark.parametrize("ring", (GF3, QQ))
def test_involution_squares_to_identity_on_randoms(ring):
    rng = fresh_rng(f"tausq:{ring.name}")
    for _ in range(10):
        x = random_clifford_element(ring, 3, rng)
        assert canonical_involution(canonical_involution(x)) == x


@pytest.mark.parametrize("ring", PALETTE)
def test_involution_anti_multiplicative(ring):
    rng = fresh_rng(f"antimult:{ring.name}")
    for _ in range(25):
        x = random_clifford_element(ring, 3, rng)
        y = random_clifford_element(ring, 3, rng)
        assert canonical_involution(x * y) == canonical_involution(y) * canonical_involution(x)


def test_involution_suite_runs():
    assert involution_suite(GF3, 2, fresh_rng("isuite"), pairs=10).passed


def test_involution_on_n2_blocks_swaps_diagonal():
    rng = fresh_rng("blockswap")
    for ring in (GF2, QQ):
        x = random_even_element(ring, 2, rng)
        t = canonical_involution(x)
        xb0, xb1 = even_blocks(x)
        tb0, tb1 = even_blocks(t)
        for xb, tb in ((xb0, tb0), (xb1, tb1)):
            assert tb.at(0, 0) == xb.at(1, 1)
            assert tb.at(1, 1) == xb.at(0, 0)
        if ring.char == 2:  # full matrix form [[d, b], [c, a]] per block
            for xb, tb in ((xb0, tb0), (xb1, tb1)):
                assert tb.at(0, 1) == xb.at(0, 1)
                assert tb.at(1, 0) == xb.at(1, 0)


def test_reduced_trace_examples():
    for ring in PALETTE:
        ident = CliffordElement.identity(ring, 3)
        assert ring.eq(reduced_trace(ident), ring.from_int(8))
    # trace of v1 v1* counts the subsets containing 1 (independent oracle)
    for n in (2, 3, 4):
        count = sum(1 for mask in range(1 << n) if mask & 1)
        assert count == 1 << (n - 1)
        for ring in PALETTE:
            x = phi_word(ring, n, ["v1", "v1*"])
            assert ring.eq(reduced_trace(x), ring.from_int(count))
    assert reduced_trace(phi_word(QQ, 3, ["v1", "v2"])) == QQ.zero


def test_parity_of_words():
    rng = fresh_rng("parity")
    labels = ["v1", "v2", "v1*", "v2*"]
    for _ in range(20):
        k = rng.randint(1, 4)
        word = [rng.choice(labels) for _ in range(k)]
        x = phi_word(GF3, 2, word)
        if x.matrix.is_zero():
            continue
        assert x.parity == ("even" if k % 2 == 0 else "odd")


def test_decompose_identity_and_monomials():
    mb = monomial_basis(GF3, 2)
    ident = CliffordElement.identity(GF3, 2)
    coords = mb.decompose(ident)
    assert coords[0] == GF3.one
    assert all(c == GF3.zero for c in coords[1:])
    x = phi_word(GF3, 2, ["v1", "v2"])
    coords = mb.decompose(x)
    expect_mask = 0b0011  # generators v1 and v2 in the fixed order
    for mask, c in enumerate(coords):
        assert c == (GF3.one if mask == expect_mask else GF3.zero)


@pytest.mark.parametrize("ring", (GF2, GF3, GF4, GF5, QQ))
def test_decompose_recompose_roundtrip(ring):
    mb = monomial_basis(ring, 2)
    rng = fresh_rng(f"roundtrip:{ring.name}")
    for _ in range(100):
        x = random_clifford_element(ring, 2, rng)
        assert recompose(ring, 2, mb.decompose(x)) == x


@pytest.mark.parametrize("ring", (GF3, GF4))
def test_coordinates_roundtrip_proves_independence(ring):
    # recompose then decompose returns the same coordinates, so the 4^n
    # monomials are linearly independent as well as spanning
    mb = monomial_basis(ring, 2)
    rng = fresh_rng(f"coords:{ring.name}")
    for _ in range(25):
        coords = [ring.sample(rng) for _ in range(mb.size)]
        got = mb.decompose(recompose(ring, 2, coords))
        assert all(ring.eq(a, b) for a, b in zip(coords, got))


@pytest.mark.parametrize("ring", (GF2, GF3, GF4, GF5, QQ))
@pytest.mark.parametrize("n", (3, 4))
def test_monomials_span_at_larger_rank(ring, n):
    # decompose-recompose on arbitrary matrices proves the 4^n monomials span
    mb = monomial_basis(ring, n)
    rng = fresh_rng(f"span:{ring.name}:{n}")
    for _ in range(3):
        x = random_clifford_element(ring, n, rng)
        assert recompose(ring, n, mb.decompose(x)) == x


def test_decompose_needs_field():
    with pytest.raises(UnsupportedRingError):
        monomial_basis(ZZ, 2)


def test_decompose_caps_rank():
    with pytest.raises(UsageError):
        monomial_basis(GF2, 5)


def test_decompose_monomial_function():
    x = phi_word(GF3, 2, ["v2*"])
    coords = monomial_basis(GF3, 2).decompose(x)
    hot = [mask for mask, c in enumerate(coords) if c != GF3.zero]
    assert hot == [0b0100]  # v2* is the third generator in the fixed order


@pytest.mark.parametrize("ring", (GF2, GF3, QQ))
@pytest.mark.parametrize("n", (2, 3, 4, 5))
def test_involution_type_table(ring, n):
    report = classify_even_involution(ring, n)
    ok, want = involution_type_matches(report)
    assert ok, f"n={n} over {ring.name}: verdict {report.verdict}, want {want}"


def test_involution_type_char2_refinement():
    report = classify_even_involution(GF2, 2)
    assert report.involution_labels == {"orthogonal", "symplectic"}
    report = classify_even_involution(GF3, 2)
    assert report.involution_labels == {"symplectic"}
    report = classify_even_involution(QQ, 4)
    assert report.involution_labels == {"orthogonal"}


def test_center_behaviour():
    # for even n the two block identities commute with random even elements
    ring = GF3
    rng = fresh_rng("center")

    def block_identity(n, masks):
        dim = 1 << n
        return CliffordElement(ring, n, Matrix.from_nonzeros(ring, dim, dim, [(m, m, ring.one) for m in masks]))

    e0, e1 = (block_identity(4, masks) for masks in parity_masks(4))
    for _ in range(20):
        x = random_even_element(ring, 4, rng)
        assert e0 * x == x * e0
        assert e1 * x == x * e1
    # for odd n the involution moves the second block identity
    o1 = block_identity(3, parity_masks(3)[1])
    assert canonical_involution(o1) != o1


def test_parity_masks_order():
    even, odd = parity_masks(3)
    assert even == [0b000, 0b011, 0b101, 0b110]
    assert odd == [0b001, 0b010, 0b100, 0b111]
    assert all(mask_size(m) % 2 == 0 for m in even)


def test_sparse_paths_match_dense():
    # the involution agrees with G^-1 x^T G multiplied out here (the right
    # factor G takes the general product) and with every nonzero moved to
    # the unit tau_unit names, with its sign (the orbits in_alternating reads)
    n = 3
    for ring in RING_BY_NAME.values():
        g = b_wedge_gram(ring, n)
        ginv = signed_perm_inverse(g)
        rng = fresh_rng(f"sparse-dense:{ring.name}")
        for _ in range(10):
            x = random_clifford_element(ring, n, rng)
            moved = []
            for r, c, v in x.matrix.nonzeros():
                parity, rr, cc = clifford.tau_unit(n, r, c)
                moved.append((rr, cc, ring.neg(v) if parity else v))
            image = canonical_involution(x).matrix
            assert image == ginv * x.matrix.transpose() * g
            assert image == Matrix.from_nonzeros(ring, 1 << n, 1 << n, moved)


def test_involution_suite_catches_a_wrong_unit_sign(monkeypatch):
    # E_{1, 2} is a fixed unit at n = 2, so a flipped sign still squares to
    # the identity; only the comparison with the adjoint sees it
    ring, n = GF3, 2
    assert involution_suite(ring, n, fresh_rng("unit-sign"), pairs=0).passed
    unit = clifford.tau_unit

    def flipped(n, a, b):
        parity, r, c = unit(n, a, b)
        return (parity + ((a, b) == (1, 2))) % 2, r, c

    monkeypatch.setattr(clifford, "tau_unit", flipped)
    out = involution_suite(ring, n, fresh_rng("unit-sign"), pairs=0)
    assert not out.passed
    assert out.details == ["involution is not the adjoint G^-1 x^T G on unit (1, 2)"]
