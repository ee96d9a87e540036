"""Orthogonal-group membership, the induced action, and invariance."""

import pytest

from cliffqp.clifford import CliffordElement, canonical_involution, phi_word
from cliffqp.errors import DomainError
from cliffqp.group import (
    clifford_action,
    eichler_dv,
    eichler_vd,
    eichler_vv,
    hyperbolic_scale,
    hyperbolic_swap,
    is_orthogonal,
    pair_permutation,
    pgo_invariance,
    sample_orthogonal,
    transvection_pair,
)
from cliffqp.linalg import Matrix, matmul
from cliffqp.rings import GF2, GF3, GF4, GF5, QQ
from cliffqp.sampling import random_clifford_element

from conftest import fresh_rng


def test_identity_is_orthogonal():
    assert is_orthogonal(Matrix.identity(GF3, 4))


def test_transvection_matrix_shape():
    t = GF2.one
    b = transvection_pair(GF2, 2, 1, 2, t)
    rows = [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1], [0, 0, 0, 1]]
    assert b == Matrix.from_rows(GF2, [[GF2.from_int(v) for v in row] for row in rows])


def test_transvection_orthogonality_depends_on_characteristic():
    assert is_orthogonal(transvection_pair(GF2, 2, 1, 2, GF2.one))
    assert is_orthogonal(transvection_pair(GF4, 2, 1, 2, GF4.omega))
    assert not is_orthogonal(transvection_pair(GF3, 2, 1, 2, GF3.one))


@pytest.mark.parametrize("ring", (GF2, GF3, GF5, QQ))
def test_named_generators_are_orthogonal(ring):
    n = 3
    assert is_orthogonal(hyperbolic_swap(ring, n, 2))
    assert is_orthogonal(pair_permutation(ring, n, 1, 3))
    two = ring.from_int(2) if ring.char != 2 else ring.one
    if not ring.is_zero(two):
        assert is_orthogonal(hyperbolic_scale(ring, n, 1, two))
    t = ring.from_int(3)
    assert is_orthogonal(eichler_vv(ring, n, 1, 2, t))
    assert is_orthogonal(eichler_vd(ring, n, 1, 2, t))
    assert is_orthogonal(eichler_dv(ring, n, 1, 2, t))


@pytest.mark.parametrize("ring", (GF2, GF3, GF5, QQ))
def test_sampled_words_are_certified(ring):
    rng = fresh_rng(f"sample:{ring.name}")
    for _ in range(20):
        _, b = sample_orthogonal(ring, 3, rng)
        assert is_orthogonal(b)


def test_action_fixes_identity():
    rng = fresh_rng("actid")
    _, b = sample_orthogonal(GF3, 2, rng)
    ident = CliffordElement.identity(GF3, 2)
    assert clifford_action(b, ident) == ident


def test_action_on_generator_products_matches_direct_image():
    # C(B)(Phi(m1) Phi(m2)) = Phi(B m1) Phi(B m2)
    from cliffqp.clifford import phi_vector
    from cliffqp.linalg import mat_vec
    from cliffqp.sampling import random_vector

    rng = fresh_rng("direct")
    for ring in (GF2, GF3, QQ):
        for _ in range(10):
            _, b = sample_orthogonal(ring, 3, rng)
            m1 = random_vector(ring, 6, rng)
            m2 = random_vector(ring, 6, rng)
            x = phi_vector(ring, 3, m1) * phi_vector(ring, 3, m2)
            direct = phi_vector(ring, 3, mat_vec(b, m1)) * phi_vector(ring, 3, mat_vec(b, m2))
            assert clifford_action(b, x) == direct


def test_action_transvection_fixes_v1v2():
    # v1 (t v1 + v2) = v1 v2 because v1 squares to zero
    for ring in (GF2, GF4):
        t = ring.one
        b = transvection_pair(ring, 2, 1, 2, t)
        x = phi_word(ring, 2, ["v1", "v2"])
        assert clifford_action(b, x) == x


@pytest.mark.parametrize("ring", (GF2, GF3))
def test_action_multiplicative(ring):
    # C(B)(xy) = C(B)(x) C(B)(y) on random elements
    rng = fresh_rng(f"mult:{ring.name}")
    for _ in range(50):
        _, b = sample_orthogonal(ring, 2, rng)
        x = random_clifford_element(ring, 2, rng)
        y = random_clifford_element(ring, 2, rng)
        assert clifford_action(b, x * y) == clifford_action(b, x) * clifford_action(b, y)


@pytest.mark.parametrize("ring", (GF2, GF3))
def test_action_composition(ring):
    # C(B1 B2) = C(B1) after C(B2) on random generator pairs
    rng = fresh_rng(f"comp:{ring.name}")
    for _ in range(20):
        _, b1 = sample_orthogonal(ring, 2, rng)
        _, b2 = sample_orthogonal(ring, 2, rng)
        x = random_clifford_element(ring, 2, rng)
        assert clifford_action(matmul(b1, b2), x) == clifford_action(b1, clifford_action(b2, x))


def test_action_commutes_with_involution_samples():
    rng = fresh_rng("taucomm")
    for ring in (GF2, GF3):
        for _ in range(10):
            _, b = sample_orthogonal(ring, 3, rng)
            x = random_clifford_element(ring, 3, rng)
            assert canonical_involution(clifford_action(b, x)) == clifford_action(
                b, canonical_involution(x)
            )


@pytest.mark.parametrize("ring", (GF2, GF3))
def test_pgo_invariance_small_sample(ring):
    out = pgo_invariance(ring, 4, fresh_rng(f"pgo:{ring.name}"), samples=8)
    assert out.passed, out.details


def test_pgo_invariance_rejects_ineligible():
    with pytest.raises(DomainError):
        pgo_invariance(GF3, 2, fresh_rng("bad"), samples=1)


def test_composition_equals_product_action():
    rng = fresh_rng("prodact")
    ring = GF3
    _, b1 = sample_orthogonal(ring, 2, rng)
    _, b2 = sample_orthogonal(ring, 2, rng)
    x = random_clifford_element(ring, 2, rng)
    assert clifford_action(matmul(b1, b2), x) == clifford_action(b1, clifford_action(b2, x))
