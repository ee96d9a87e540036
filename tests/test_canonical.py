"""The canonical mapping, the canonical semi-trace, and the degree-4 results."""

import pytest

from cliffqp import canonical
from cliffqp.canonical import (
    base_change_report,
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
from cliffqp.clifford import (
    CliffordElement,
    canonical_involution,
    phi_word,
)
from cliffqp.errors import DomainError, EligibilityError
from cliffqp.exterior import ExteriorVector
from cliffqp.forms import q_wedge
from cliffqp.involution import in_alternating
from cliffqp.linalg import Matrix
from cliffqp.rings import GF2, GF3, GF4, GF5, QQ
from cliffqp.sampling import random_matrix, random_trace_one, random_trace_zero

from conftest import ALL_RINGS, dense, fresh_rng
from oracles import from_rows, mat_vec, rank


def unit_matrix(ring, size, r, c):
    return Matrix.from_nonzeros(ring, size, size, [(r, c, ring.one)])


@pytest.mark.parametrize("ring", (GF2, GF3, QQ))
@pytest.mark.parametrize("n", (1, 2, 3))
def test_canonical_map_examples(ring, n):
    corner = unit_matrix(ring, 2 * n, 2 * n - 1, 2 * n - 1)
    assert canonical_map_c(corner) == phi_word(ring, n, ["v1", "v1*"])
    ident = Matrix.identity(ring, 2 * n)
    expect = CliffordElement.identity(ring, n).scale(ring.from_int(n))
    assert canonical_map_c(ident) == expect


def test_canonical_map_single_tensor():
    ring, n = GF3, 2
    m = phi_b_unit(ring, n, 0, 1)  # v1 (x) v2
    assert canonical_map_c(m) == phi_word(ring, n, ["v1", "v2"])


@pytest.mark.parametrize("ring", (GF2, GF3, GF4, GF5, QQ))
@pytest.mark.parametrize("n", (2, 3))
def test_rho_xi(ring, n):
    out = rho_xi_check(ring, n, fresh_rng(f"rhoxi:{ring.name}:{n}"), trials=25)
    assert out.passed, out.details


def test_rho_xi_zero_matrix():
    z = Matrix.zeros(GF3, 4, 4)
    assert canonical_map_c(z) == CliffordElement.zero(GF3, 2)


@pytest.mark.parametrize("ring", (GF2, GF3, QQ))
@pytest.mark.parametrize("n", (1, 2, 3))
def test_sl_basis_is_a_basis_of_sl(ring, n):
    # 4n^2 - 1 independent trace-zero matrices: a basis of sl_2n
    basis = [m for _, m in sl_basis(ring, n)]
    assert len(basis) == 4 * n * n - 1
    assert all(ring.is_zero(m.trace()) for m in basis)
    assert rank(from_rows(ring, [m.entries for m in basis])) == len(basis)


def test_sl_into_alt_fails_when_c_is_perturbed(monkeypatch):
    # the basis alone catches an image pushed off Alt: c(M) + 1 is never alternating
    ring, n = GF3, 3
    honest = canonical.canonical_map_c
    monkeypatch.setattr(canonical, "canonical_map_c", lambda m: honest(m) + CliffordElement.identity(ring, n))
    out = check_sl_into_alt(ring, n, fresh_rng("sl-mutant"), randoms=0)
    assert not out.passed
    assert len(out.details) == 4 * n * n - 1
    assert "c(E_(0,1)) is not alternating over gf3, n=3" in out.details


@pytest.mark.parametrize("ring", (GF2, GF3))
@pytest.mark.parametrize("n", (3, 4))
def test_sl_into_alt(ring, n):
    out = check_sl_into_alt(ring, n, fresh_rng(f"sl:{ring.name}:{n}"), randoms=20)
    assert out.passed, out.details


@pytest.mark.parametrize("ring", (GF4, GF5, QQ))
def test_sl_into_alt_every_palette_field(ring):
    out = check_sl_into_alt(ring, 3, fresh_rng(f"slall:{ring.name}"), randoms=10)
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
    for sampler, trace in ((random_trace_zero, ring.zero), (random_trace_one, ring.one)):
        m = sampler(ring, 4, fresh_rng(f"trace:{ring.name}"))
        drawn = random_matrix(ring, 4, 4, fresh_rng(f"trace:{ring.name}"))
        assert ring.eq(m.trace(), trace)
        assert m.entries[1:] == drawn.entries[1:]


def test_sl_into_alt_row_identity_example():
    # c(v_n (x) v_n^* - v_n^* (x) v_n) = v_n v_n^* - tau(v_n v_n^*), and the
    # matrix is the negative of the basis element E_(n-1)(n-1) - E_nn
    ring, n = GF3, 4
    m = phi_b_unit(ring, n, n - 1, n) - phi_b_unit(ring, n, n, n - 1)
    assert -m == dict(sl_basis(ring, n))[f"E_({n - 1},{n - 1}) - E_({n},{n})"]
    image = canonical_map_c(m)
    w = phi_word(ring, n, [f"v{n}", f"v{n}*"])
    assert image == w - canonical_involution(w)
    assert in_alternating(image)


def test_sl_into_alt_negative_control_needs_char2():
    out = check_sl_into_alt(GF2, 2, fresh_rng("neg"), randoms=0)
    assert out.passed
    with pytest.raises(EligibilityError):
        check_sl_into_alt(GF3, 2, fresh_rng("neg3"))


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


@pytest.mark.parametrize("ring", (GF2, GF3, QQ))
def test_representative_independence_n4(ring):
    out = check_representative_independence(ring, 4, fresh_rng(f"ind:{ring.name}"), count=8)
    assert out.passed, out.details


def test_representative_independence_requires_trace_one():
    ring = GF3
    rng = fresh_rng("tr1")
    for _ in range(5):
        a = random_trace_one(ring, 8, rng)
        assert a.trace() == ring.one


@pytest.mark.parametrize("ring", (GF2, GF3, QQ))
def test_semitrace_defining_n4(ring):
    out = check_semitrace_defining(ring, 4, fresh_rng(f"def:{ring.name}"), trials=25)
    assert out.passed, out.details


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
        expect = x.scale(b_wedge(x, e))
        assert image == dense(expect)
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


@pytest.mark.parametrize("ring", (GF2, GF3, QQ))
def test_correspondence_random(ring):
    out = correspondence_with_q_wedge(ring, 4, fresh_rng(f"corr:{ring.name}"), trials=25)
    assert out.passed, out.details


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


def test_degree4_enumeration():
    out = degree4_no_canonical(GF4)
    assert out.passed, out.details[:5]
    assert any("4096 candidates, all moved" in line for line in out.details)


def test_degree4_needs_t_with_t2_neq_t():
    with pytest.raises(DomainError):
        degree4_no_canonical(GF2)
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
    out = base_change_report(fresh_rng("bc"), samples=5)
    assert out.passed, out.details
