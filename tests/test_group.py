"""Orthogonal-group membership, lifts to the Clifford group, the induced
action, and invariance."""

from fractions import Fraction

import pytest

from cliffqp import group
from cliffqp.canonical import canonical_semitrace
from cliffqp.cli import run
from cliffqp.clifford import CliffordElement, canonical_involution, parity_masks, phi_word
from cliffqp.group import (
    clifford_action,
    eichler_vv,
    hyperbolic_swap,
    is_orthogonal,
    lift_problem,
    lifted_generator,
    pair_permutation,
    pgo_invariance,
    sample_orthogonal,
)
from cliffqp.forms import HyperbolicSpace
from cliffqp.involution import in_alternating
from cliffqp.linalg import Matrix, matmul
from cliffqp.rings import GF2, GF3, GF4, GF5, QQ, RING_BY_NAME
from cliffqp.sampling import orthogonal_words, random_clifford_element, random_even_element

from conftest import fresh_rng, off_canonical_semitraces
from oracles import eichler_dv, eichler_vd, from_rows, hyperbolic_scale, mat_vec


def test_identity_is_orthogonal():
    assert is_orthogonal(Matrix.identity(GF3, 4))


def test_an_isotropic_map_that_breaks_one_polar_value_is_refused():
    # v1 -> 2 v1 keeps every column isotropic, but b(2 v1, v1*) = 2 != 1
    b = Matrix.from_nonzeros(GF3, 4, 4, [(0, 0, 2), (1, 1, 1), (2, 2, 1), (3, 3, 1)])
    hs = HyperbolicSpace(GF3, 2)
    assert all(GF3.is_zero(hs.q(b.col(k))) for k in range(4))
    assert hs.polars([b.col(k) for k in range(4)])[1][0, 3] == 2
    assert not is_orthogonal(b)


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
        assert lift_problem({0: b}, {0: g}, {0: g_inv}) is None


def test_action_fixes_identity():
    rng = fresh_rng("actid")
    _, b, _ = sample_orthogonal(GF3, 2, rng)
    ident = CliffordElement.identity(GF3, 2)
    assert clifford_action(b, ident) == ident


def test_action_on_generator_products_matches_direct_image():
    # C(B)(Phi(m1) Phi(m2)) = Phi(B m1) Phi(B m2)
    from cliffqp.clifford import phi_vector

    rng = fresh_rng("direct")
    for ring in (GF2, GF3, QQ):
        for _ in range(10):
            _, b, _ = sample_orthogonal(ring, 3, rng)
            m1 = ring.samples(rng, 6)
            m2 = ring.samples(rng, 6)
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
    out = pgo_invariance(canonical_semitrace(ring, 4))
    assert out.passed, out.details
    assert "the group generated by the 6 named generators, all parameter values" in out.details[-1]
    words = orthogonal_words(ring, 4, fresh_rng(f"pgo:{ring.name}"), trials=8)
    assert words.details == ["8 random words agree: they preserve the semi-trace and the involution"]


def test_pgo_invariance_rejects_ineligible():
    # the cell builds the semi-trace it certifies, and skips where none exists
    (report,) = run("pgo-invariance", 2, GF3, trials=1, seed=0)
    assert report.status == "skipped"
    assert report.details == ["canonical semi-trace unavailable for n=2 over gf3: involution symplectic, not orthogonal"]


def test_composition_equals_product_action():
    rng = fresh_rng("prodact")
    ring = GF3
    _, b1, _ = sample_orthogonal(ring, 2, rng)
    _, b2, _ = sample_orthogonal(ring, 2, rng)
    x = random_clifford_element(ring, 2, rng)
    assert clifford_action(matmul(b1, b2), x) == clifford_action(b1, clifford_action(b2, x))


KINDS = ("swap", "perm", "scale", "eichler_vv")


def _lifts_match_oracle(ring, n, pairs, rng, samples):
    for kind in KINDS:
        for i, j in pairs:
            x = group._nonzero(ring, rng)
            b, g, g_inv = lifted_generator(ring, n, kind, i, j, x)
            assert is_orthogonal(b), (kind, i, j)
            assert lift_problem({0: b}, {0: g}, {0: g_inv}) is None, (kind, i, j)
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
    # the lift of eichler_vv(1, 2, -1)
    assert lift_problem({0: b}, {0: g_inv}, {0: g}) == "the lift does not induce the generator"
    assert lift_problem({0: b}, {0: g}, {0: g}) == "g g^-1 is not 1"  # not an inverse pair
    _, h, h_inv = lifted_generator(GF3, 3, "swap", 1, None, None)
    assert lift_problem({0: b}, {0: h}, {0: h_inv}) == "the lift does not induce the generator"


def _mutate(monkeypatch, kind, mutation):
    """Replace the lift polynomials of one generator kind by mutation(ring, n, i, b, g, g_inv)."""
    real = group.lift_polynomial

    def mutated(ring, n, k, i, j):
        b, g, g_inv = real(ring, n, k, i, j)
        return mutation(ring, n, i, b, g, g_inv) if k == kind else (b, g, g_inv)

    monkeypatch.setattr(group, "lift_polynomial", mutated)


def _failures(out):
    return [line for line in out.details if not line.startswith("Sym^perp = Alt")]


def _eichler_flipped(ring, n, i, b, g, g_inv):
    # the lift of eichler_vv(-t) in place of that of eichler_vv(t)
    return b, g_inv, g


def test_pgo_invariance_fails_with_a_wrong_eichler_lift_sign(monkeypatch):
    # the lift of eichler_vv(-t) in place of eichler_vv(t): the certificate
    # alone, with no random word, must see it
    _mutate(monkeypatch, "eichler_vv", _eichler_flipped)
    out = pgo_invariance(canonical_semitrace(GF3, 4))
    assert not out.passed
    assert "eichler_vv12: the lift does not induce the generator" in out.details
    # -t = t in characteristic 2, so there the flipped lift is the right one
    assert pgo_invariance(canonical_semitrace(GF2, 4)).passed


def _swap_plus(ring, n, i, b, g, g_inv):
    # v_i + v_i* squares to 1 and sends v_i to v_i*, but the other v_k to -v_k:
    # no one sign eps matches the swap
    plus = phi_word(ring, n, [f"v{i}"]) + phi_word(ring, n, [f"v{i}*"])
    return b, {0: plus}, {0: plus}


def _scale_inverted(ring, n, i, b, g, g_inv):
    # the lift of scale(u^-1): right wherever u = u^-1, so at every unit of gf2
    # and gf3, and pair_permutation only uses u = -1
    return b, {-1: g[1], 0: g[0]}, {0: g_inv[0], 1: g_inv[-1]}


@pytest.mark.parametrize(
    "kind, mutation, names",
    [
        ("swap", _swap_plus, ["swap1"]),
        ("scale", _scale_inverted, ["scale1"]),
        # a perm lift is E(i,j,1) E(j,i,-1) E(i,j,1) S(j,-1) with E = eichler_vv,
        # so the perm certificates see the flipped Eichler lift too
        ("eichler_vv", _eichler_flipped, ["perm12", "perm23", "perm34", "eichler_vv12"]),
    ],
    ids=("swap", "scale", "eichler"),
)
def test_each_certificate_family_catches_its_mutated_lift(monkeypatch, kind, mutation, names):
    _mutate(monkeypatch, kind, mutation)
    out = pgo_invariance(canonical_semitrace(GF3, 4))
    assert _failures(out) == [f"{name}: the lift does not induce the generator" for name in names]


def test_the_scale_mutation_is_right_at_every_value_of_gf3(monkeypatch):
    # what only a certificate of the coefficients can catch: no parameter
    # value of gf3 shows the inverted scale lift
    _mutate(monkeypatch, "scale", _scale_inverted)
    for u in (GF3.one, GF3.neg(GF3.one)):
        b, g, g_inv = lifted_generator(GF3, 4, "scale", 1, None, u)
        assert lift_problem({0: b}, {0: g}, {0: g_inv}) is None


@pytest.mark.parametrize("ring", (GF2, GF4), ids=lambda r: r.name)
def test_pgo_invariance_certificate_refuses_a_semitrace_off_the_canonical_class(ring):
    # l + E_u for each of the 16 tau-fixed even units u with sign +1 is a
    # semi-trace (`off_canonical_semitraces`), but not the canonical one
    shifted = off_canonical_semitraces(ring, 4)
    assert len(shifted) == 16
    for (a, b), f in shifted:
        out = pgo_invariance(f)
        assert not out.passed, (a, b)
        assert all(line.endswith("the semi-trace moved on the symmetric elements") for line in _failures(out))


def _nonzero_values(ring):
    if ring is QQ:
        return [Fraction(2), Fraction(-1, 3), Fraction(5, 7)]
    return [x for x in ring.elements() if not ring.is_zero(x)]


@pytest.mark.parametrize("ring", (GF3, GF4, GF5, QQ), ids=lambda r: r.name)
def test_certified_lifts_pass_their_oracle_at_every_parameter_value(ring):
    # the certificate reads coefficients; here lift_problem and the invariance of
    # the semi-trace are checked value by value on lifted_generator, whose b
    # is the named generator at that value
    n = 4
    l = canonical_semitrace(ring, n).rep
    for kind, make in {"scale": hyperbolic_scale, "eichler_vv": eichler_vv}.items():
        for x in _nonzero_values(ring):
            b, g, g_inv = lifted_generator(ring, n, kind, 1, 2, x)
            assert b == (make(ring, n, 1, x) if kind == "scale" else make(ring, n, 1, 2, x)), (kind, x)
            assert lift_problem({0: b}, {0: g}, {0: g_inv}) is None, (kind, x)
            assert in_alternating(g_inv * l * g - l), (kind, x)


def test_pair_permutations_conjugate_the_certified_generators_onto_every_named_one():
    # the group of the adjacent pair permutations, keyed by where it sends
    # the pairs 1..n; conjugating swap1, scale1, perm12 and eichler_vv12 by
    # its elements gives every named generator, and the swaps conjugate
    # eichler_vv onto the other two Eichler kinds
    ring, n = GF5, 4
    elements = {tuple(range(1, n + 1)): Matrix.identity(ring, 2 * n)}
    queue = list(elements)
    for sigma in queue:
        for i in range(1, n):
            moved = tuple(i + 1 if s == i else i if s == i + 1 else s for s in sigma)
            if moved not in elements:
                elements[moved] = matmul(pair_permutation(ring, n, i, i + 1), elements[sigma])
                queue.append(moved)
    assert len(elements) == 24
    for sigma, p in elements.items():
        i, j = sigma[0], sigma[1]

        def conjugate(m):
            return matmul(matmul(p, m), p.transpose())  # p is a permutation matrix

        assert conjugate(hyperbolic_swap(ring, n, 1)) == hyperbolic_swap(ring, n, i)
        assert conjugate(pair_permutation(ring, n, 1, 2)) == pair_permutation(ring, n, i, j)
        for x in _nonzero_values(ring):
            assert conjugate(hyperbolic_scale(ring, n, 1, x)) == hyperbolic_scale(ring, n, i, x)
            e = conjugate(eichler_vv(ring, n, 1, 2, x))
            assert e == eichler_vv(ring, n, i, j, x)
            s_i, s_j = hyperbolic_swap(ring, n, i), hyperbolic_swap(ring, n, j)
            assert matmul(matmul(s_j, e), s_j) == eichler_vd(ring, n, i, j, x)
            assert matmul(matmul(s_i, e), s_i) == eichler_dv(ring, n, i, j, x)


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
    out = pgo_invariance(canonical_semitrace(GF2, 6))
    out.merge(orthogonal_words(GF2, 6, fresh_rng("pgo:6"), trials=5))
    assert out.passed, out.details
