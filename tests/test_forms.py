"""The hyperbolic form, polar forms, and the subset pairing on wedge V."""

from fractions import Fraction

import pytest

from cliffqp import cli, forms
from cliffqp.exterior import ExteriorVector, mask_size
from cliffqp.forms import (
    HyperbolicSpace,
    b_wedge,
    b_wedge_gram,
    classify_bilinear,
    gram_agreement_suite,
    polar_matches_prediction,
    q_wedge,
    q_wedge_hyperbolic_gram,
    q_wedge_polar_gram,
)
from cliffqp.linalg import Matrix
from cliffqp.rings import GF2, GF3, GF4, QQ, ZZ
from cliffqp.sampling import random_exterior

from conftest import ALL_RINGS, PALETTE, fresh_rng
from oracles import b_wedge_via_top, hyperbolic_polar, q_wedge_polar


def basis(ring, n, mask):
    return ExteriorVector.basis(ring, n, mask)


def test_q_hyperbolic_examples():
    hs = HyperbolicSpace(QQ, 2)
    v1 = [QQ.one, QQ.zero, QQ.zero, QQ.zero]
    assert hs.q(v1) == QQ.zero
    v1_plus_dual = [QQ.one, QQ.zero, QQ.zero, QQ.one]
    assert hs.q(v1_plus_dual) == QQ.one
    v1_plus_v2dual = [QQ.one, QQ.zero, QQ.one, QQ.zero]
    assert hs.q(v1_plus_v2dual) == QQ.zero


def test_basis_order_matches_degree_4_convention():
    assert HyperbolicSpace(QQ, 2).labels() == ["v1", "v2", "v2*", "v1*"]


def test_polar_examples():
    hs = HyperbolicSpace(QQ, 2)
    e = lambda k: [QQ.one if i == k else QQ.zero for i in range(4)]
    assert hyperbolic_polar(hs, e(0), e(3)) == QQ.one  # b(v1, v1*) = 1
    assert hyperbolic_polar(hs, e(0), e(2)) == QQ.zero
    x = [Fraction(2), Fraction(1), Fraction(3), Fraction(5)]
    assert hyperbolic_polar(hs, x, x) == 2 * hs.q(x)


def test_polar_vanishes_on_diagonal_in_char_2():
    hs = HyperbolicSpace(GF2, 3)
    rng = fresh_rng("polar-char2")
    for _ in range(20):
        x = GF2.samples(rng, 6)
        assert hyperbolic_polar(hs, x, x) == GF2.zero


def test_q_wedge_polar_vanishes_on_diagonal_in_char_2():
    rng = fresh_rng("q-wedge-polar-char2")
    for _ in range(20):
        x = random_exterior(GF2, 4, rng)
        assert q_wedge_polar(x, x) == GF2.zero
        assert b_wedge(x, x) == GF2.zero


def test_b_wedge_examples_n2():
    one = basis(QQ, 2, 0)
    v12 = basis(QQ, 2, 0b11)
    v1 = basis(QQ, 2, 0b01)
    v2 = basis(QQ, 2, 0b10)
    assert b_wedge(one, v12) == QQ.one
    assert b_wedge(v12, one) == -QQ.one  # alternating for n = 2
    assert b_wedge(v1, v2) == QQ.one


@pytest.mark.parametrize("ring", PALETTE)
@pytest.mark.parametrize("n", range(1, 6))
def test_formula_matches_definition_on_random_pairs(ring, n):
    rng = fresh_rng(f"bwedge:{ring.name}:{n}")
    for _ in range(100):
        x = random_exterior(ring, n, rng)
        y = random_exterior(ring, n, rng)
        assert ring.eq(b_wedge(x, y), b_wedge_via_top(x, y))


def test_q_wedge_examples_n2():
    for mask in range(4):
        assert q_wedge(basis(QQ, 2, mask)) == QQ.zero  # single terms never pair
    v1_plus_v2 = basis(QQ, 2, 0b01) + basis(QQ, 2, 0b10)
    assert q_wedge(v1_plus_v2) == QQ.one
    one_plus_top = basis(QQ, 2, 0) + basis(QQ, 2, 0b11)
    assert q_wedge(one_plus_top) == -QQ.one
    one_plus_top_gf2 = basis(GF2, 2, 0) + basis(GF2, 2, 0b11)
    assert q_wedge(one_plus_top_gf2) == GF2.one


def test_q_wedge_n4_char2_example():
    x = basis(GF2, 4, 0) + basis(GF2, 4, 0b1111)
    assert q_wedge(x) == GF2.one  # exponent 10 - 4 is even


def test_classification_examples():
    assert classify_bilinear(b_wedge_gram(QQ, 4)) == frozenset({"symmetric"})
    assert classify_bilinear(b_wedge_gram(QQ, 2)) == frozenset({"skew", "alternating"})
    assert classify_bilinear(b_wedge_gram(GF2, 2)) == frozenset(
        {"symmetric", "skew", "alternating"}
    )


@pytest.mark.parametrize("n", range(2, 7))
def test_classification_follows_n_mod_4(n):
    labels = classify_bilinear(b_wedge_gram(QQ, n))
    if n % 4 in (0, 1):
        assert labels == {"symmetric"}
    else:
        assert labels == {"skew", "alternating"}


@pytest.mark.parametrize("ring", (GF3, QQ, ZZ))
@pytest.mark.parametrize("n", (4, 5))
def test_polar_identity_holds_when_predicted(ring, n):
    assert q_wedge_polar_gram(ring, n) == b_wedge_gram(ring, n)


@pytest.mark.parametrize("ring", (GF2, GF4))
@pytest.mark.parametrize("n", range(1, 6))
def test_polar_identity_holds_in_char_2(ring, n):
    assert q_wedge_polar_gram(ring, n) == b_wedge_gram(ring, n)


def test_polar_identity_negative_control():
    assert q_wedge_polar_gram(GF3, 2) != b_wedge_gram(GF3, 2)
    out = polar_matches_prediction(GF3, 2)
    assert out.passed  # the suite records the inequality as the expected outcome


@pytest.mark.parametrize("ring", PALETTE)
@pytest.mark.parametrize("n", range(1, 5))
def test_hyperbolic_witness_block_form(ring, n):
    g = q_wedge_hyperbolic_gram(ring, n)
    half = 1 << (n - 1)
    ident = Matrix.identity(ring, half)
    for r in range(half):
        for c in range(half):
            assert ring.eq(g.at(r, c), ring.zero)
            assert ring.eq(g.at(r + half, c + half), ring.zero)
            assert ring.eq(g.at(r, c + half), ident.at(r, c))
            assert ring.eq(g.at(r + half, c), ident.at(r, c))


@pytest.mark.parametrize("ring", PALETTE)
@pytest.mark.parametrize("n", range(1, 6))
def test_gram_agreement_suite(ring, n):
    assert gram_agreement_suite(ring, n).passed


def test_gram_agreement_suite_names_the_first_wrong_entry_of_the_hyperbolic_witness(monkeypatch):
    honest = q_wedge_hyperbolic_gram(GF3, 3)
    extra = Matrix.from_nonzeros(GF3, 8, 8, [(2, 5, GF3.one), (1, 6, GF3.one)])
    monkeypatch.setattr(forms, "q_wedge_hyperbolic_gram", lambda ring, n: honest + extra)
    out = gram_agreement_suite(GF3, 3)
    assert not out.passed
    assert out.details == ["hyperbolic witness Gram has 1 at (1, 6)"]


@pytest.mark.parametrize("n", range(2, 6))
def test_polar_gram_evaluates_q_once_per_vector_and_once_per_pair(monkeypatch, n):
    calls = []
    honest = forms.q_wedge
    monkeypatch.setattr(forms, "q_wedge", lambda x: calls.append(x) or honest(x))
    q_wedge_polar_gram(GF2, n)
    assert len(calls) == 2**n + 4**n  # 3 * 4^n when each pair evaluated all three


@pytest.mark.parametrize("ring", ALL_RINGS, ids=lambda r: r.name)
@pytest.mark.parametrize("n", range(1, 6))
def test_pairwise_oracles_agree_with_the_walks(ring, n):
    # the walks evaluate what depends on one vector once; the oracles
    # evaluate each pair whole
    dim = 1 << n
    basis = [ExteriorVector.basis(ring, n, mask) for mask in range(dim)]
    polar, pairing = q_wedge_polar_gram(ring, n), b_wedge_gram(ring, n)
    for mi, x in enumerate(basis):
        for mj, y in enumerate(basis):
            assert ring.eq(q_wedge_polar(x, y), polar.at(mi, mj))
            assert ring.eq(b_wedge_via_top(x, y), pairing.at(mi, mj))
    hs, rng = HyperbolicSpace(ring, n), fresh_rng(f"polars:{ring.name}:{n}")
    e = [[ring.one if i == k else ring.zero for i in range(2 * n)] for k in range(2 * n)]
    vectors = e + [ring.samples(rng, 2 * n) for _ in range(4)]
    qs, polars = hs.polars(vectors)
    assert qs == [hs.q(v) for v in vectors]
    pairs = [(k, l) for k in range(len(vectors)) for l in range(k + 1, len(vectors))]
    assert polars == {(k, l): hyperbolic_polar(hs, vectors[k], vectors[l]) for k, l in pairs}


def off_on_one_basis_vector(ring, mask):
    """A q_wedge that is wrong by one on the basis vector v_mask alone."""
    honest = forms.q_wedge

    def q(x):
        value = honest(x)
        return ring.add(value, ring.one) if x.terms == {mask: ring.one} else value

    return q


@pytest.mark.parametrize("check", ["polar", "gram"])
def test_a_q_wedge_wrong_on_one_basis_vector_fails_the_cell(monkeypatch, check):
    (honest,) = cli.run(check, 3, GF2, 10, 0)
    assert honest.status == "pass"
    monkeypatch.setattr(forms, "q_wedge", off_on_one_basis_vector(GF2, 0b010))
    (report,) = cli.run(check, 3, GF2, 10, 0)
    assert report.status == "fail"


def test_a_reversal_with_the_wrong_sign_fails_the_pairing_comparison(monkeypatch):
    # reversal must negate v_I for |I| = 2 mod 4; this one leaves them as they are
    def reversal(x):
        keep = lambda mask: mask_size(mask) % 4 in (0, 1, 2)
        return ExteriorVector(x.ring, x.n, {m: a if keep(m) else x.ring.neg(a) for m, a in x.terms.items()})

    monkeypatch.setattr(ExteriorVector, "reversal", reversal)
    out = gram_agreement_suite(GF3, 3)
    assert not out.passed
    assert out.details[0].startswith("pairing mismatch at basis pair (3, 4)")
