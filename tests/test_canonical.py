"""The canonical mapping, the canonical semi-trace, and the degree-4 results."""

import pytest

from cliffqp import canonical
from cliffqp.canonical import (
    base_change_report,
    c_unit,
    canonical_map_c,
    canonical_semitrace,
    check_representative_independence,
    check_semitrace_defining,
    check_sl_into_alt,
    correspondence_with_q_wedge,
    degree4_alt_report,
    degree4_no_canonical,
    even_monomials_n2,
    phi_b_unit,
    rank_one_wedge,
    rho_xi_check,
    sl_basis,
)
from cliffqp.cli import CHECKS
from cliffqp.clifford import (
    CliffordElement,
    canonical_involution,
    involution_suite,
    phi_word,
    predicted_even_involution,
    relation_suite,
)
from cliffqp.errors import DomainError, EligibilityError, UsageError
from cliffqp.exterior import ExteriorVector
from cliffqp.forms import gram_agreement_suite, q_wedge
from cliffqp.involution import SemiTrace, in_alternating
from cliffqp.linalg import Matrix
from cliffqp.rings import GF2, GF3, GF4, GF5, QQ, RING_BY_NAME, RingMorphism
from cliffqp.sampling import (
    dense_rho_xi,
    random_exterior,
    random_matrix,
    random_trace_zero,
    rank_one_values,
    semitrace_defining,
    trace_zero_into_alt,
)

from conftest import ALL_RINGS, dense, fresh_rng, off_canonical_semitraces
from oracles import canonical_map_by_products, degree4_stable_candidates, entries, from_rows, mat_vec, rank


def unit_matrix(ring, size, r, c):
    return Matrix.from_nonzeros(ring, size, size, [(r, c, ring.one)])


def sl_matrix(ring, n, terms):
    # the matrix of a ring-free element of `sl_basis`
    return Matrix.from_nonzeros(ring, 2 * n, 2 * n, [(i, j, ring.from_int(x)) for i, j, x in terms])


@pytest.mark.parametrize("ring", (GF2, GF3, QQ))
@pytest.mark.parametrize("n", (1, 2, 3))
def test_canonical_map_examples(ring, n):
    corner = unit_matrix(ring, 2 * n, 2 * n - 1, 2 * n - 1)
    assert canonical_map_c(corner) == phi_word(ring, n, ["v1", "v1*"])
    ident = Matrix.identity(ring, 2 * n)
    expect = CliffordElement.identity(ring, n).scale(ring.from_int(n))
    assert canonical_map_c(ident) == expect


@pytest.mark.parametrize("ring", ALL_RINGS, ids=lambda r: r.name)
@pytest.mark.parametrize("n", range(1, 6))
def test_canonical_map_matches_the_pair_products(ring, n):
    # every unit E_lj and five random matrices, against the combination of
    # matmul pair products
    size = 2 * n
    rng = fresh_rng(f"c-products:{ring.name}:{n}")
    inputs = [unit_matrix(ring, size, l, j) for l in range(size) for j in range(size)]
    inputs += [random_matrix(ring, size, size, rng) for _ in range(5)]
    for m in inputs:
        assert canonical_map_c(m) == canonical_map_by_products(m), m


def test_canonical_map_single_tensor():
    ring, n = GF3, 2
    m = phi_b_unit(ring, n, 0, 1)  # v1 (x) v2
    assert canonical_map_c(m) == phi_word(ring, n, ["v1", "v2"])


@pytest.mark.parametrize("ring", ALL_RINGS, ids=lambda r: r.name)
@pytest.mark.parametrize("n", range(1, 5))
def test_canonical_map_is_the_linear_extension_of_its_unit_rule(ring, n):
    # c(E_ij) is +-1 placed on the ring-free support c_unit(n, i, j)
    size, dim = 2 * n, 1 << n
    for i in range(size):
        for j in range(size):
            want = Matrix.from_places(ring, dim, dim, (ring.one, ring.sign(1)), c_unit(n, i, j))
            assert canonical_map_c(unit_matrix(ring, size, i, j)).matrix == want, (i, j)


@pytest.mark.parametrize("ring", (GF2, GF3, GF4, GF5, QQ))
@pytest.mark.parametrize("n", (2, 3))
def test_rho_xi(ring, n):
    out = rho_xi_check(ring, n).merge(dense_rho_xi(ring, n, fresh_rng(f"rhoxi:{ring.name}:{n}"), trials=25))
    assert out.passed, out.details


def _ring_ids(value):
    return getattr(value, "name", str(value))


@pytest.mark.parametrize(("n", "ring"), [*CHECKS["rho-xi"][0], (6, GF2), (8, GF2)], ids=_ring_ids)
def test_rho_xi_reports_the_units_it_walked(n, ring):
    # the count comes from the walk: a walk over fewer units says so
    assert rho_xi_check(ring, n).details == [f"(Id + tau) c = trace Id on all {(2 * n) ** 2} units E_ij"]


@pytest.mark.parametrize(
    ("n", "ring"), [(n, r) for n, r in CHECKS["sl-into-alt"][0] if n >= 3] + [(6, GF2), (8, GF2)], ids=_ring_ids
)
def test_sl_into_alt_reports_the_basis_elements_it_walked(n, ring):
    want = f"{4 * n * n - 1} basis elements of sl_{2 * n} map into Alt (n={n}, {ring.name})"
    assert check_sl_into_alt(ring, n).details == [want]


def _with_wide_gf2(check):
    return [*CHECKS[check][0], *((n, GF2) for n in (6, 8) if (n, GF2) not in CHECKS[check][0])]


@pytest.mark.parametrize(("n", "ring"), _with_wide_gf2("relations"), ids=_ring_ids)
def test_relation_suite_reports_the_generator_pairs_it_walked(n, ring):
    want = (
        f"relations hold for n={n} over {ring.name}: Phi(m)^2 = q(m) Id for every m, by "
        f"polarization over all {4 * n * n} generator pairs"
    )
    assert relation_suite(ring, n).details == [want]


@pytest.mark.parametrize(("n", "ring"), _with_wide_gf2("gram"), ids=_ring_ids)
def test_gram_walks_report_the_units_and_pairs_they_walked(n, ring):
    # the 16^n unit pairs of the involution follow from its argument, not a walk
    assert involution_suite(ring, n).details == [
        f"involution is the adjoint on all {4 ** n} units, squares to the identity, fixes all "
        f"generators and is anti-multiplicative on all {16 ** n} unit pairs (n={n})"
    ]
    assert gram_agreement_suite(ring, n).details == [
        f"pairing formula matches on all {4 ** n} basis pairs; "
        f"Gram invertible; hyperbolic witness in block form (n={n}, {ring.name})"
    ]


@pytest.mark.parametrize(("n", "ring"), _with_wide_gf2("canonical-semitrace"), ids=_ring_ids)
def test_semitrace_defining_reports_the_even_units_it_walked(n, ring):
    want = f"f(x + tau x) = trace(x) on all {2 * 4 ** (n - 1)} even units, so on every even element"
    assert check_semitrace_defining(canonical_semitrace(ring, n)).details == [want]


def test_rho_xi_zero_matrix():
    z = Matrix.zeros(GF3, 4, 4)
    assert canonical_map_c(z) == CliffordElement.zero(GF3, 2)


@pytest.mark.parametrize("ring", (GF2, GF3, QQ))
@pytest.mark.parametrize("n", (1, 2, 3))
def test_sl_basis_is_a_basis_of_sl(ring, n):
    # 4n^2 - 1 independent trace-zero matrices: a basis of sl_2n
    basis = [sl_matrix(ring, n, terms) for _, terms in sl_basis(n)]
    assert len(basis) == 4 * n * n - 1
    assert all(ring.is_zero(m.trace()) for m in basis)
    assert rank(from_rows(ring, [entries(m) for m in basis])) == len(basis)


def test_sl_into_alt_fails_when_c_is_perturbed(monkeypatch):
    # the unit rule with the identity's support added to every unit: c then
    # gains (sum of the entries of M) Id, which the basis catches on every
    # off-diagonal unit, as Id is not alternating over gf3, and which cancels
    # on the differences E_kk - E_(k+1)(k+1)
    ring, n = GF3, 3
    honest = canonical.c_unit

    def shifted(n_, i, j):
        return honest(n_, i, j) + tuple((d, d, 0) for d in range(1 << n_))

    monkeypatch.setattr(canonical, "c_unit", shifted)
    out = check_sl_into_alt(ring, n)
    assert not out.passed
    assert len(out.details) == 4 * n * n - 2 * n
    assert "c(E_(0,1)) is not alternating over gf3, n=3" in out.details
    assert not [d for d in out.details if " - E_(" in d]


@pytest.mark.parametrize("ring", (GF2, GF3))
@pytest.mark.parametrize("n", (3, 4))
def test_sl_into_alt(ring, n):
    out = check_sl_into_alt(ring, n).merge(trace_zero_into_alt(ring, n, fresh_rng(f"sl:{ring.name}:{n}"), trials=20))
    assert out.passed, out.details


@pytest.mark.parametrize("ring", (GF4, GF5, QQ))
def test_sl_into_alt_every_palette_field(ring):
    out = check_sl_into_alt(ring, 3).merge(trace_zero_into_alt(ring, 3, fresh_rng(f"slall:{ring.name}"), trials=10))
    assert out.passed, out.details


def test_equal_trace_images_differ_by_alternating():
    # c(a) - c(a') is alternating whenever the traces agree (n >= 3)
    ring, n = GF3, 3
    rng = fresh_rng("rho-indep")
    for _ in range(10):
        a = random_matrix(ring, 2 * n, 2 * n, rng)
        b = random_matrix(ring, 2 * n, 2 * n, rng)
        b = b + unit_matrix(ring, 2 * n, 0, 0).scale(ring.sub(a.trace(), b.trace()))
        diff = canonical_map_c(a) - canonical_map_c(b)
        assert in_alternating(diff)


@pytest.mark.parametrize("ring", ALL_RINGS, ids=lambda r: r.name)
def test_trace_samplers_shift_only_the_corner_of_a_random_matrix(ring):
    m = random_trace_zero(ring, 4, fresh_rng(f"trace:{ring.name}"))
    drawn = random_matrix(ring, 4, 4, fresh_rng(f"trace:{ring.name}"))
    assert ring.is_zero(m.trace())
    assert entries(m)[1:] == entries(drawn)[1:]


def test_sl_into_alt_row_identity_example():
    # c(v_n (x) v_n^* - v_n^* (x) v_n) = v_n v_n^* - tau(v_n v_n^*), and the
    # matrix is the negative of the basis element E_(n-1)(n-1) - E_nn
    ring, n = GF3, 4
    m = phi_b_unit(ring, n, n - 1, n) - phi_b_unit(ring, n, n, n - 1)
    assert -m == sl_matrix(ring, n, dict(sl_basis(n))[f"E_({n - 1},{n - 1}) - E_({n},{n})"])
    image = canonical_map_c(m)
    w = phi_word(ring, n, [f"v{n}", f"v{n}*"])
    assert image == w - canonical_involution(w)
    assert in_alternating(image)


def test_sl_into_alt_negative_control_needs_char2():
    out = check_sl_into_alt(GF2, 2)
    assert out.passed
    with pytest.raises(EligibilityError):
        check_sl_into_alt(GF3, 2)


def test_eligibility_table():
    for ring, n in ((GF2, 4), (QQ, 4), (GF2, 6)):
        canonical_semitrace(ring, n)
    with pytest.raises(EligibilityError, match="symplectic"):
        canonical_semitrace(GF3, 6)
    with pytest.raises(EligibilityError, match="center"):
        canonical_semitrace(GF3, 5)
    with pytest.raises(EligibilityError, match="degree 4"):
        canonical_semitrace(GF2, 2)


def test_canonical_semitrace_value_at_identity():
    f = canonical_semitrace(GF3, 4)
    assert f.evaluate(CliffordElement.identity(GF3, 4)) == 2  # 8 mod 3


def test_canonical_semitrace_errors():
    with pytest.raises(EligibilityError):
        canonical_semitrace(GF3, 2)
    with pytest.raises(EligibilityError):
        canonical_semitrace(GF3, 6)
    with pytest.raises(EligibilityError):
        canonical_semitrace(QQ, 3)
    canonical_semitrace(GF2, 6)  # eligible: characteristic 2


@pytest.mark.parametrize("ring", RING_BY_NAME.values(), ids=RING_BY_NAME)
def test_canonical_semitrace_exists_exactly_where_the_prediction_is_orthogonal(ring):
    # the reasons, written out from the rank and the characteristic alone
    for n in range(1, 11):
        if n % 2 == 1:
            reason = "involution acts non-trivially on the center for odd n"
        elif n % 4 == 2 and ring.char != 2:
            reason = "involution symplectic, not orthogonal"
        elif n < 4:
            reason = "no canonical semi-trace exists in degree 4"
        else:
            reason = None
        assert (reason is None) == ("orthogonal" in predicted_even_involution(ring, n) and n >= 4)
        if reason is not None:
            with pytest.raises(EligibilityError) as caught:
                canonical_semitrace(ring, n)
            assert str(caught.value) == f"canonical semi-trace unavailable for n={n} over {ring.name}: {reason}"
        elif n <= 6:  # larger ranks build the same way, only slower
            assert canonical_semitrace(ring, n).n == n


@pytest.mark.parametrize("ring", (GF2, GF3, QQ))
def test_representative_independence_n4(ring):
    out = check_representative_independence(canonical_semitrace(ring, 4))
    out.merge(trace_zero_into_alt(ring, 4, fresh_rng(f"ind:{ring.name}"), trials=8))
    assert out.passed, out.details


def test_representative_independence_requires_trace_one():
    # the certificate's conclusion against drawn representatives: E + z for
    # a random trace-zero z gives f; a representative needs trace 1, as
    # c(a) + tau c(a) = trace(a) Id
    ring, n = GF3, 4
    f = canonical_semitrace(ring, n)
    e = phi_b_unit(ring, n, 0, 2 * n - 1)
    rng = fresh_rng("tr1")
    for _ in range(5):
        a = e + random_trace_zero(ring, 2 * n, rng)
        assert ring.is_one(a.trace())
        assert f.agrees_with(SemiTrace(canonical_map_c(a)))
    for trace in (0, 2):
        with pytest.raises(DomainError):
            SemiTrace(canonical_map_c(e.scale(ring.from_int(trace))))


def test_representative_independence_refuses_rank_2():
    # at n = 2 over gf2 the trace-1 representatives give different
    # semi-traces, while the sl basis walk is the passing negative control:
    # the check refuses the rank before any walk rather than pass vacuously
    ring, n = GF2, 2
    e = phi_b_unit(ring, n, 0, 3)
    f = SemiTrace(canonical_map_c(e))
    assert not f.agrees_with(SemiTrace(canonical_map_c(e + phi_b_unit(ring, n, 0, 1))))
    with pytest.raises(EligibilityError, match="n >= 3"):
        check_representative_independence(f)


def test_rho_xi_walk_fails_when_the_unit_rule_flips_one_unit(monkeypatch):
    # tau's unit rule with the sign of one unit's image flipped, while
    # canonical_involution, which the random route reads, stays honest: the
    # walk names the first E_ij whose image meets that unit on one line, and
    # the random route sees nothing
    ring, n = GF3, 3
    (a, b, _), *_ = canonical_map_c(unit_matrix(ring, 2 * n, 0, 0)).matrix.nonzeros()
    honest = canonical.tau_unit

    def flipped(n_, r, c):
        parity, rr, cc = honest(n_, r, c)
        return parity ^ ((r, c) == (a, b)), rr, cc

    monkeypatch.setattr(canonical, "tau_unit", flipped)
    walk = rho_xi_check(ring, n)
    assert not walk.passed and len(walk.details) == 1
    assert walk.details[0].startswith("(Id + tau) c(E_ij) is not trace(E_ij) Id on unit (0, 0)")
    assert dense_rho_xi(ring, n, fresh_rng("flipped unit rule"), trials=10).passed


def test_a_canonical_map_that_drops_one_unit_fails_rho_xi_and_representative_independence(monkeypatch):
    # c's unit rule with the image of E_(0,0) dropped: (Id + tau) c(E_(0,0))
    # is 0, not Id, and c(E_(0,0) - E_(1,1)) = -c(E_(1,1)) leaves Alt; the
    # canonical representative c(E_(7,7)) is unchanged, so f is still built
    ring, n = GF3, 4
    honest = canonical.c_unit
    monkeypatch.setattr(canonical, "c_unit", lambda n_, i, j: () if (i, j) == (0, 0) else honest(n_, i, j))
    rho = rho_xi_check(ring, n)
    assert rho.details == ["(Id + tau) c(E_ij) is not trace(E_ij) Id on unit (0, 0)"]
    out = check_representative_independence(canonical_semitrace(ring, n))
    assert not out.passed
    assert f"c(E_(0,0) - E_(1,1)) is not alternating over gf3, n={n}" in out.details


@pytest.mark.parametrize("ring", (GF2, GF3, QQ))
def test_semitrace_defining_n4(ring):
    out = check_semitrace_defining(canonical_semitrace(ring, 4))
    out.merge(semitrace_defining(ring, 4, fresh_rng(f"def:{ring.name}"), trials=25))
    assert out.passed, out.details


def test_semitrace_walk_fails_when_tau_flips_one_even_unit(monkeypatch):
    # tau(E_ab) = +-E_rc with its sign flipped on the one even unit whose
    # image reads a nonzero l[c, r]: the walk names that unit on one line
    ring, n = GF3, 4
    f = canonical_semitrace(ring, n)
    honest = canonical.tau_unit
    (i, j, _), *_ = f.rep.matrix.nonzeros()
    _, a, b = honest(n, j, i)  # tau(E_ab) = +-E_ji, so the walk reads l[i, j] there

    def flipped(n_, r, c):
        parity, rr, cc = honest(n_, r, c)
        return parity ^ ((r, c) == (a, b)), rr, cc

    monkeypatch.setattr(canonical, "tau_unit", flipped)
    out = check_semitrace_defining(f)
    assert out.details == [f"f(E_ab + tau E_ab) is not trace(E_ab) on unit {(a, b)}"]


@pytest.mark.parametrize("ring", (GF2, GF3, QQ), ids=lambda r: r.name)
def test_semitrace_walk_fails_on_a_representative_shifted_by_a_non_alternating_unit(ring):
    # l' = l + E_u for the even unit u = (0, 3), which tau moves to (12, 15):
    # l' + tau l' = 1 + E_u + tau E_u != 1, so SemiTrace refuses l' and the
    # test builds it around that check; the walk names the two units that
    # read E_u on one line
    n = 4
    rep = canonical_semitrace(ring, n).rep + CliffordElement(ring, n, unit_matrix(ring, 16, 0, 3))
    with pytest.raises(DomainError):
        SemiTrace(rep)
    out = check_semitrace_defining(_bare_semitrace(rep))
    assert out.details == ["f(E_ab + tau E_ab) is not trace(E_ab) on unit (3, 0) and 1 more unit"]


def test_rank_one_wedge_matches_bilinear_action():
    ring, n = GF3, 4
    rng = fresh_rng("rankone")
    from cliffqp.forms import b_wedge
    from cliffqp.sampling import random_exterior

    x = random_exterior(ring, n, rng, parity=0)
    r = rank_one_wedge(x)
    for mask in range(1 << n):
        e = ExteriorVector.basis(ring, n, mask)
        image = mat_vec(r.matrix, dense(e))
        c = b_wedge(x, e)
        assert image == [ring.mul(c, a) for a in dense(x)]
    # symmetric under the involution when the pairing is symmetric-enough
    assert canonical_involution(r) == r


def test_correspondence_fixed_examples():
    ring, n = GF2, 4
    f = canonical_semitrace(ring, n)
    one = ExteriorVector.basis(ring, n, 0)
    assert f.evaluate(rank_one_wedge(one)) == ring.zero
    assert q_wedge(one) == ring.zero
    x = ExteriorVector.basis(ring, n, 0) + ExteriorVector.basis(ring, n, 0b1111)
    assert q_wedge(x) == ring.one
    assert f.evaluate(rank_one_wedge(x)) == ring.one


# every ring at n = 4 and 8, and the characteristic-2 rings at n = 6, the
# only rings with a canonical semi-trace there
RANK_ONE_CELLS = [(ring, n) for ring in ALL_RINGS for n in (4, 8)] + [(GF2, 6), (GF4, 6)]


@pytest.mark.parametrize("ring, n", RANK_ONE_CELLS, ids=lambda v: getattr(v, "name", v))
def test_evaluate_rank_one_matches_the_rank_one_matrix(ring, n):
    # b(x, l x) against trace(l * phi_x) on the matrix phi_x = rank_one_wedge(x),
    # which is symmetric, so the value does not depend on the representative l
    f = canonical_semitrace(ring, n)
    for seed in range(3):
        rng = fresh_rng(f"rank-one:{ring.name}:{n}:{seed}")
        for parity in (0, 1):
            x = random_exterior(ring, n, rng, parity=parity)
            phi = rank_one_wedge(x)
            assert canonical_involution(phi) == phi
            want = f.evaluate(phi)
            got = f.evaluate_rank_one(x)
            assert got == want and type(got) is type(want)
    zero = ExteriorVector(ring, n, {})
    assert f.evaluate_rank_one(zero) == f.evaluate(rank_one_wedge(zero)) == ring.zero


@pytest.mark.parametrize("ring", (GF2, GF3, QQ), ids=lambda r: r.name)
@pytest.mark.parametrize("n", (3, 5))
def test_evaluate_rank_one_vanishes_at_odd_rank(ring, n):
    # at odd n the pairing b joins the two parity blocks, so both routes give 0
    rng = fresh_rng(f"rank-one odd:{ring.name}:{n}")
    f = SemiTrace(canonical_map_c(phi_b_unit(ring, n, 0, 2 * n - 1) + random_trace_zero(ring, 2 * n, rng)))
    for parity in (0, 1):
        x = random_exterior(ring, n, rng, parity=parity)
        assert f.evaluate_rank_one(x) == f.evaluate(rank_one_wedge(x)) == ring.zero


def test_rank_one_routes_refuse_a_mixed_or_foreign_vector():
    f = canonical_semitrace(GF3, 4)
    mixed = ExteriorVector.basis(GF3, 4, 0) + ExteriorVector.basis(GF3, 4, 0b1)
    with pytest.raises(UsageError):
        rank_one_wedge(mixed)
    with pytest.raises(UsageError):
        f.evaluate_rank_one(mixed)
    for foreign in (ExteriorVector.basis(GF5, 4, 0b11), ExteriorVector.basis(GF3, 6, 0b11)):
        with pytest.raises(UsageError):
            f.evaluate(rank_one_wedge(foreign))
        with pytest.raises(UsageError):
            f.evaluate_rank_one(foreign)


@pytest.mark.parametrize("ring", (GF2, GF4), ids=lambda r: r.name)
def test_correspondence_fails_for_a_semitrace_off_the_canonical_class(ring):
    # l' = l + E_u carries another semi-trace (`off_canonical_semitraces`),
    # which the certificate must refuse
    honest = canonical_semitrace(ring, 4)
    shifted = off_canonical_semitraces(ring, 4)
    assert len(shifted) == 16
    for (a, _), f in shifted:
        assert not f.agrees_with(honest)
        assert not correspondence_with_q_wedge(f).passed


@pytest.mark.parametrize("ring", (GF2, GF4), ids=lambda r: r.name)
def test_canonical_semitrace_cell_refuses_a_semitrace_off_the_canonical_class(ring):
    # representative independence refuses every l + E_u on its one
    # comparison with c(E); the defining identity cannot, as
    # trace(l' (x + tau x)) = trace((l' + tau l') x) holds for every
    # semi-trace, so it accepts each one
    for (a, b), f in off_canonical_semitraces(ring, 4):
        out = check_representative_independence(f)
        assert not out.passed, (a, b)
        assert [line for line in out.details if line.startswith("f is not")] == [
            "f is not the semi-trace of c(E) for the trace-1 unit E = E_(7,7)"
        ]
        assert len(out.details) == 3  # the two certificates' notes around it
        assert check_semitrace_defining(f).passed, (a, b)


@pytest.mark.parametrize("ring", (GF2, GF3, QQ))
def test_correspondence_random(ring):
    out = correspondence_with_q_wedge(canonical_semitrace(ring, 4))
    out.merge(rank_one_values(ring, 4, fresh_rng(f"corr:{ring.name}"), trials=25))
    assert out.passed, out.details


@pytest.mark.parametrize("ring, n, compared", [(GF2, 4, 24), (GF3, 4, 24), (QQ, 4, 24), (GF2, 6, 96), (GF3, 8, 384)])
def test_correspondence_certificate_compares_every_nonzero_coefficient(ring, n, compared):
    # the 2^n basis vectors and the 2^(n-1) complementary pairs; the
    # canonical Q has no nonzero coefficient elsewhere
    out = correspondence_with_q_wedge(canonical_semitrace(ring, n))
    assert out.details == [
        f"f(b(x, _) x) = q(x) on both parity blocks: {compared} coefficients agree, every other "
        f"one is 0 as the polar of q_wedge is the pairing (`polar` at n={n}, {ring.name})"
    ]


def _bare_semitrace(rep):
    # a SemiTrace around rep without the check l + tau(l) = 1
    f = SemiTrace.__new__(SemiTrace)
    f.ring, f.n, f.rep = rep.ring, rep.n, rep
    return f


@pytest.mark.parametrize("ring", (GF2, GF3, QQ), ids=lambda r: r.name)
def test_correspondence_certificate_fails_on_a_representative_with_one_nonzero_dropped(ring):
    n = 4
    l = canonical_semitrace(ring, n).rep.matrix
    nonzeros = list(l.nonzeros())
    assert len(nonzeros) == 8
    for dropped in nonzeros:
        kept = [t for t in nonzeros if t != dropped]
        f = _bare_semitrace(CliffordElement(ring, n, Matrix.from_nonzeros(ring, l.rows, l.cols, kept)))
        out = correspondence_with_q_wedge(f)
        assert not out.passed and all(line.startswith("coefficient of x_") for line in out.details), dropped


def _q_wedge_off_on(monkeypatch, masks):
    # q_wedge plus 1 on the vector e_I + ... for the masks I, and honest elsewhere
    honest = canonical.q_wedge

    def off(x):
        value = honest(x)
        return x.ring.add(value, x.ring.one) if set(x.terms) == set(masks) else value

    monkeypatch.setattr(canonical, "q_wedge", off)


@pytest.mark.parametrize("ring", (GF2, GF3), ids=lambda r: r.name)
def test_correspondence_certificate_fails_on_a_q_wedge_off_on_one_basis_vector(monkeypatch, ring):
    # v2 v3 is mask 6, whose complement is 9: the basis vector fails, and so
    # does the polar of the one compared pair that holds it
    f = canonical_semitrace(ring, 4)
    _q_wedge_off_on(monkeypatch, [6])
    out = correspondence_with_q_wedge(f)
    assert not out.passed
    assert out.details[0] == "coefficient of x_6 x_6: f(b(x, _) x) gives 0, q_wedge 1"
    assert [line.split(":")[0] for line in out.details] == ["coefficient of x_6 x_6", "coefficient of x_6 x_9"]


@pytest.mark.parametrize("ring", (GF2, GF3), ids=lambda r: r.name)
def test_correspondence_certificate_fails_on_a_q_wedge_off_on_one_complementary_pair(monkeypatch, ring):
    f = canonical_semitrace(ring, 4)
    _q_wedge_off_on(monkeypatch, [6, 9])
    out = correspondence_with_q_wedge(f)
    assert not out.passed
    assert [line.split(":")[0] for line in out.details] == ["coefficient of x_6 x_9"]


def test_degree4_alt_report():
    assert degree4_alt_report(GF2).passed
    assert degree4_alt_report(GF4).passed
    with pytest.raises(DomainError):
        degree4_alt_report(GF3)


@pytest.mark.parametrize("ring", (GF2, GF4))
def test_degree4_alt_report_fails_on_a_larger_alt(monkeypatch, ring):
    # the span claim is a dimension count: two independent elements span Alt
    # only when Alt has dimension 2
    honest = canonical.alt_basis

    def three_rows(ring, n):
        basis = honest(ring, n)
        extra = (basis.rows, 0, ring.one)
        return Matrix.from_nonzeros(ring, basis.rows + 1, basis.cols, [*basis.nonzeros(), extra])

    monkeypatch.setattr(canonical, "alt_basis", three_rows)
    out = degree4_alt_report(ring)
    assert not out.passed
    assert out.details == ["alternating subspace has dimension 3, want 2"]


@pytest.mark.parametrize("ring", (GF2, GF4))
def test_degree4_alt_report_fails_when_a_stated_element_is_not_alternating(monkeypatch, ring):
    mono = even_monomials_n2(ring)
    pair = mono[3] + mono[4]
    honest = canonical.in_alternating
    monkeypatch.setattr(canonical, "in_alternating", lambda x: x != pair and honest(x))
    out = degree4_alt_report(ring)
    assert not out.passed
    assert out.details == ["stated element 1 is not alternating"]


def test_degree4_alt_report_fails_on_dependent_stated_elements(monkeypatch):
    # with v2 v2* replaced by v1 v1* + 1 the second stated element is the
    # identity itself (characteristic 2), so the pair spans a line
    honest = canonical.even_monomials_n2

    def shifted(ring):
        mono = honest(ring)
        mono[4] = mono[3] + mono[0]
        return mono

    monkeypatch.setattr(canonical, "even_monomials_n2", shifted)
    out = degree4_alt_report(GF2)
    assert not out.passed
    assert "the stated elements are not independent" in out.details


DEGREE4_NOTE = (
    "B(t) over {}[t] moves every candidate: the t coefficient of g^-1 l g - l "
    "is v1v2* + a5 (v1v1* + v2v2*), alternating for no a5"
)


def test_degree4_enumeration():
    # the certificate over R[t] passes over both rings, and over GF(4) the
    # oracle's enumeration at the three nonzero t gives the same verdict
    for ring in (GF2, GF4):
        out = degree4_no_canonical(ring)
        assert out.passed, out.details[:5]
        assert out.details[-1] == DEGREE4_NOTE.format(ring.name)
    assert degree4_stable_candidates(GF4) == (4096, [])


def failures(out):
    """The failure lines of a degree-4 run, past the notes of its passing
    `degree4_alt_report`."""
    assert not out.passed
    return out.details[2:]


def test_degree4_certificate_fails_on_a_wrong_monomial(monkeypatch):
    # v2 v1* in place of v2* v1* passes every probe of degree4_alt_report,
    # but B(t) moves it, so the move on m6 is not zero
    honest = canonical.even_monomials_n2

    def wrong(ring):
        mono = honest(ring)
        mono[6] = mono[5]
        return mono

    monkeypatch.setattr(canonical, "even_monomials_n2", wrong)
    for ring in (GF2, GF4):
        out = degree4_no_canonical(ring)
        assert failures(out) == ["g^-1 l g - l is not as stated on monomial ('v2*', 'v1*')"]


@pytest.mark.parametrize("ring", (GF2, GF4), ids=lambda r: r.name)
def test_degree4_certificate_fails_on_a_lift_with_the_wrong_pair_product(monkeypatch, ring):
    # w = v2 v1* in place of v1 v2*: still square-zero, so g g^-1 = 1, but it
    # lifts no B(t), and it moves four monomials otherwise than stated
    honest = canonical.lift_polynomial

    def wrong(ring, n, kind, i, j):
        b, g, g_inv = honest(ring, n, kind, i, j)
        w = phi_word(ring, 2, ("v2", "v1*"))
        return b, {0: g[0], 1: w}, {0: g_inv[0], 1: -w}

    monkeypatch.setattr(canonical, "lift_polynomial", wrong)
    out = degree4_no_canonical(ring)
    assert failures(out) == ["B(t): the lift does not induce the generator"] + [
        f"g^-1 l g - l is not as stated on monomial {word}"
        for word in (("v1", "v2*"), ("v1", "v1*"), ("v2", "v2*"), ("v2", "v1*"))
    ]


def test_degree4_certificate_fails_when_v1v2_star_counts_as_alternating(monkeypatch):
    honest = canonical.in_alternating
    for ring in (GF2, GF4):
        pair = even_monomials_n2(ring)[2]
        monkeypatch.setattr(canonical, "in_alternating", lambda x: x == pair or honest(x))
        out = degree4_no_canonical(ring)
        assert failures(out) == ["membership: v1v1* + v2v2* must be alternating and v1v2* must not"]


def test_degree4_over_gf2_needs_the_indeterminate():
    # B(1), the only B(t) at a value of GF(2), fixes the 2^5 candidates with
    # a5 = 1, so an evaluation at the points of GF(2) finds stable ones: the
    # certificate has to read t as an indeterminate
    count, stable = degree4_stable_candidates(GF2)
    assert count == 64 and len(stable) == 32 and all(coeffs[5] == 1 for coeffs in stable)


def test_degree4_needs_t_with_t2_neq_t():
    # the certificate works in R[t], so GF(2) runs; characteristic 3 does not
    assert degree4_no_canonical(GF2).passed
    with pytest.raises(DomainError):
        degree4_no_canonical(GF3)


def test_degree4_difference_formula_spot():
    # a5 = 1, t = w: the v1v2* coefficient is w + w^2 = 1, hence not alternating
    ring = GF4
    w = ring.omega
    coef = ring.add(w, ring.mul(w, w))
    assert coef == ring.one
    from cliffqp.group import clifford_action, eichler_vv, lifted_generator

    mono = even_monomials_n2(ring)
    l = mono[3] + mono[5]  # a3 = 1 (so a4 = 0), a5 = 1, others zero
    assert l + canonical_involution(l) == CliffordElement.identity(ring, 2)
    b, g, g_inv = lifted_generator(ring, 2, "eichler_vv", 2, 1, w)
    assert b == eichler_vv(ring, 2, 2, 1, w)
    assert g == CliffordElement.identity(ring, 2) + phi_word(ring, 2, ["v1", "v2*"]).scale(w)
    diff = l - g * l * g_inv
    assert diff == l - clifford_action(b, l)
    expect = mono[2].scale(coef) + (mono[3] + mono[4]).scale(ring.mul(w, ring.one))
    assert diff == expect
    assert not in_alternating(diff)


def test_base_change_suite():
    out = base_change_report()
    assert out.passed, out.details
    assert out.details == [
        "910 values on bases at n = 2, 3, 4 commute with gf2 -> gf4, so every gf4 input "
        "does; involution types agree at n = 2..5, canonical representatives at n = 4"
    ]


def test_base_change_fails_on_a_gf4_tau_that_moves_an_odd_unit(monkeypatch):
    # over gf4 only, tau(x) gains x[0, 1] E_(0,1): even elements cannot see
    # it, the odd unit E_(0,1) does, at every n
    honest = canonical.canonical_involution

    def moved(x):
        v = x.matrix.at(0, 1)
        if x.ring != GF4 or GF4.is_zero(v):
            return honest(x)
        dim = 1 << x.n
        return honest(x) + CliffordElement(GF4, x.n, Matrix.from_nonzeros(GF4, dim, dim, [(0, 1, v)]))

    monkeypatch.setattr(canonical, "canonical_involution", moved)
    out = base_change_report()
    assert not out.passed
    assert out.details == [f"tau(E_ab) differs after base change at n={n} on unit (0, 1)" for n in (2, 3, 4)]


def test_base_change_fails_on_a_morphism_that_sends_1_to_w(monkeypatch):
    w = next(a for a in GF4.elements() if not (GF4.is_zero(a) or GF4.is_one(a)))
    monkeypatch.setattr(canonical, "gf2_into_gf4", lambda: RingMorphism(GF2, GF4, lambda a: GF4.mul(w, a)))
    out = base_change_report()
    assert not out.passed
    # the tables presuppose a morphism, so only the axioms are reported
    assert out.details == ["morphism does not preserve multiplication at (1, 1)", "morphism does not preserve 0 and 1"]


def test_base_change_fails_on_a_gf4_canonical_map_that_drops_a_unit(monkeypatch):
    # c(E_01) = Phi(e_(2n-2)) Phi(e_0) = v2* v1 is nonzero at every n
    honest = canonical.canonical_map_c

    def dropped(m):
        if m.ring == GF4:
            m = Matrix.from_nonzeros(GF4, m.rows, m.cols, [t for t in m.nonzeros() if t[:2] != (0, 1)])
        return honest(m)

    monkeypatch.setattr(canonical, "canonical_map_c", dropped)
    out = base_change_report()
    assert not out.passed
    assert out.details == [f"c(E_ij) differs after base change at n={n} on unit (0, 1)" for n in (2, 3, 4)]
