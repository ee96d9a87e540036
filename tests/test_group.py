"""Orthogonal-group membership, lifts to the Clifford group, the induced
action, and invariance."""

import pytest

from cliffqp import group
from cliffqp.canonical import canonical_semitrace
from cliffqp.clifford import CliffordElement, canonical_involution, parity_masks, phi_word
from cliffqp.errors import DomainError
from cliffqp.group import (
    clifford_action,
    eichler_dv,
    eichler_vd,
    eichler_vv,
    hyperbolic_scale,
    hyperbolic_swap,
    is_lift,
    is_orthogonal,
    lifted_generator,
    pair_permutation,
    pgo_invariance,
    sample_orthogonal,
)
from cliffqp.involution import in_alternating
from cliffqp.linalg import Matrix, matmul
from cliffqp.rings import GF2, GF3, GF4, GF5, QQ, RING_BY_NAME
from cliffqp.sampling import random_clifford_element, random_even_element

from conftest import fresh_rng
from oracles import from_rows, mat_vec


def test_identity_is_orthogonal():
    assert is_orthogonal(Matrix.identity(GF3, 4))


def test_transvection_matrix_shape():
    # the transvection v2 -> v2 + t v1, v1* -> v1* + t v2* of characteristic 2
    t = GF2.one
    b = eichler_vv(GF2, 2, 2, 1, t)
    rows = [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1], [0, 0, 0, 1]]
    assert b == from_rows(GF2, [[GF2.from_int(v) for v in row] for row in rows])


def test_transvection_orthogonality_depends_on_characteristic():
    # eichler_vv(2, 1, t) puts t at v2 -> v1 and -t at v1* -> v2*: the same
    # entry twice only in characteristic 2
    for ring, t in ((GF2, GF2.one), (GF4, GF4.omega)):
        b = eichler_vv(ring, 2, 2, 1, t)
        assert is_orthogonal(b)
        assert b.at(0, 1) == b.at(2, 3) == t
    assert eichler_vv(GF3, 2, 2, 1, GF3.one).at(2, 3) != GF3.one


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
        _, b, (g, g_inv) = sample_orthogonal(ring, 3, rng)
        assert is_orthogonal(b)
        assert is_lift(g, g_inv, b)


def test_action_fixes_identity():
    rng = fresh_rng("actid")
    _, b, _ = sample_orthogonal(GF3, 2, rng)
    ident = CliffordElement.identity(GF3, 2)
    assert clifford_action(b, ident) == ident


def test_action_on_generator_products_matches_direct_image():
    # C(B)(Phi(m1) Phi(m2)) = Phi(B m1) Phi(B m2)
    from cliffqp.clifford import phi_vector
    from cliffqp.sampling import random_vector

    rng = fresh_rng("direct")
    for ring in (GF2, GF3, QQ):
        for _ in range(10):
            _, b, _ = sample_orthogonal(ring, 3, rng)
            m1 = random_vector(ring, 6, rng)
            m2 = random_vector(ring, 6, rng)
            x = phi_vector(ring, 3, m1) * phi_vector(ring, 3, m2)
            direct = phi_vector(ring, 3, mat_vec(b, m1)) * phi_vector(ring, 3, mat_vec(b, m2))
            assert clifford_action(b, x) == direct


def test_action_transvection_fixes_v1v2():
    # v1 (t v1 + v2) = v1 v2 because v1 squares to zero
    for ring in (GF2, GF4):
        t = ring.one
        b, g, g_inv = lifted_generator(ring, 2, "eichler_vv", 2, 1, t)
        assert b == eichler_vv(ring, 2, 2, 1, t)
        x = phi_word(ring, 2, ["v1", "v2"])
        assert clifford_action(b, x) == x
        assert g * x * g_inv == x


@pytest.mark.parametrize("ring", (GF2, GF3))
def test_action_multiplicative(ring):
    # C(B)(xy) = C(B)(x) C(B)(y) on random elements
    rng = fresh_rng(f"mult:{ring.name}")
    for _ in range(50):
        _, b, _ = sample_orthogonal(ring, 2, rng)
        x = random_clifford_element(ring, 2, rng)
        y = random_clifford_element(ring, 2, rng)
        assert clifford_action(b, x * y) == clifford_action(b, x) * clifford_action(b, y)


@pytest.mark.parametrize("ring", (GF2, GF3))
def test_action_composition(ring):
    # C(B1 B2) = C(B1) after C(B2) on random generator pairs
    rng = fresh_rng(f"comp:{ring.name}")
    for _ in range(20):
        _, b1, _ = sample_orthogonal(ring, 2, rng)
        _, b2, _ = sample_orthogonal(ring, 2, rng)
        x = random_clifford_element(ring, 2, rng)
        assert clifford_action(matmul(b1, b2), x) == clifford_action(b1, clifford_action(b2, x))


def test_action_commutes_with_involution_samples():
    rng = fresh_rng("taucomm")
    for ring in (GF2, GF3):
        for _ in range(10):
            _, b, _ = sample_orthogonal(ring, 3, rng)
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
    _, b1, _ = sample_orthogonal(ring, 2, rng)
    _, b2, _ = sample_orthogonal(ring, 2, rng)
    x = random_clifford_element(ring, 2, rng)
    assert clifford_action(matmul(b1, b2), x) == clifford_action(b1, clifford_action(b2, x))


KINDS = ("swap", "perm", "scale", "eichler_vv", "eichler_vd", "eichler_dv")


def _lifts_match_oracle(ring, n, pairs, rng, samples):
    for kind in KINDS:
        for i, j in pairs:
            x = group._nonzero(ring, rng)
            b, g, g_inv = lifted_generator(ring, n, kind, i, j, x)
            assert is_orthogonal(b), (kind, i, j)
            assert is_lift(g, g_inv, b), (kind, i, j)
            for _ in range(samples):
                y = random_even_element(ring, n, rng)
                assert g * y * g_inv == clifford_action(b, y), (kind, i, j)


@pytest.mark.parametrize(
    "ring", [r for r in RING_BY_NAME.values() if r.is_field], ids=lambda r: r.name
)
def test_lifts_match_the_monomial_oracle(ring):
    pairs = [(i, j) for i in (1, 2, 3) for j in (1, 2, 3) if i != j]
    _lifts_match_oracle(ring, 3, pairs, fresh_rng(f"lifts:{ring.name}"), samples=2)


def test_lifts_match_the_monomial_oracle_at_rank_4():
    _lifts_match_oracle(GF3, 4, [(1, 4), (3, 2)], fresh_rng("lifts:4"), samples=1)


def test_is_lift_rejects_a_wrong_lift():
    b, g, g_inv = lifted_generator(GF3, 3, "eichler_vv", 1, 2, GF3.one)
    assert not is_lift(g_inv, g, b)  # the lift of eichler_vv(1, 2, -1)
    assert not is_lift(g, g, b)  # not an inverse pair
    _, h, h_inv = lifted_generator(GF3, 3, "swap", 1, None, None)
    assert not is_lift(h, h_inv, b)


def test_pgo_invariance_fails_with_a_wrong_eichler_lift_sign(monkeypatch):
    real = group.lifted_generator

    def flipped(ring, n, kind, i, j, x):
        b, g, g_inv = real(ring, n, kind, i, j, x)
        return (b, g_inv, g) if kind == "eichler_vv" else (b, g, g_inv)

    monkeypatch.setattr(group, "lifted_generator", flipped)
    out = pgo_invariance(GF3, 4, fresh_rng("pgo:flip"), samples=10)
    assert not out.passed
    assert any("lift does not induce" in line for line in out.details)
    # -t = t in characteristic 2, so there the flipped lift is the right one
    assert pgo_invariance(GF2, 4, fresh_rng("pgo:flip"), samples=10).passed


@pytest.mark.parametrize("ring", (GF2, GF3), ids=lambda r: r.name)
def test_non_clifford_conjugator_moves_the_semitrace(ring):
    # g = 1 + E_ab is even and invertible but induces no orthogonal map,
    # and conjugating by it moves the semi-trace off its class
    n = 4
    l = canonical_semitrace(ring, n).rep
    one = CliffordElement.identity(ring, n)
    moved = unscaled = 0
    for masks in parity_masks(n):
        for a in masks:
            for b in masks:
                if a == b:
                    continue
                e = CliffordElement(ring, n, Matrix.from_nonzeros(ring, 16, 16, [(a, b, ring.one)]))
                g, g_inv = one + e, one - e
                assert g * g_inv == one
                moved += not in_alternating(g_inv * l * g - l)
                scalar = canonical_involution(g) * g
                unscaled += scalar != one.scale(scalar.matrix.at(0, 0))
    assert moved > 0 and unscaled > 0


def test_pgo_invariance_runs_at_rank_6():
    out = pgo_invariance(GF2, 6, fresh_rng("pgo:6"), samples=5)
    assert out.passed, out.details
