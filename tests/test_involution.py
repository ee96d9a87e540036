"""Alternating/symmetric subspaces and semi-traces."""

import pytest

from cliffqp import involution
from cliffqp.clifford import (
    CliffordElement,
    canonical_involution,
    parity_masks,
    phi_word,
    reduced_trace,
)
from cliffqp.errors import DomainError, UnsupportedRingError, UsageError
from cliffqp.involution import (
    SemiTrace,
    alt_basis,
    in_alternating,
    sym_basis,
    trace_orthogonality,
)
from cliffqp.linalg import Matrix, SpanChecker
from cliffqp.rings import GF2, GF3, GF4, QQ, ZZ
from cliffqp.sampling import random_even_element

from conftest import FIELDS, fresh_rng
from oracles import image_basis, in_span, kernel_basis, rank


def even_units(n):
    """Positions in `Matrix.entries` of the even matrix units, block by block."""
    return [r * (1 << n) + c for masks in parity_masks(n) for r in masks for c in masks]


def involution_operator(ring, n):
    """(Id - tau) and (Id + tau) on the even units: one column per unit of
    `even_units`, rows in the coordinates of `Matrix.entries`."""
    dim = 1 << n
    units = even_units(n)
    minus, plus = [], []
    for k, unit in enumerate(units):
        x = CliffordElement(ring, n, Matrix.from_nonzeros(ring, dim, dim, [(*divmod(unit, dim), ring.one)]))
        t = canonical_involution(x)
        minus += [(r * dim + c, k, v) for r, c, v in (x - t).matrix.nonzeros()]
        plus += [(r * dim + c, k, v) for r, c, v in (x + t).matrix.nonzeros()]
    return tuple(Matrix.from_nonzeros(ring, dim * dim, len(units), op) for op in (minus, plus))


def even_kernel(ring, n, op):
    """kernel_basis of an operator from `involution_operator`, in the
    coordinates of `Matrix.entries`."""
    units = even_units(n)
    out = []
    for v in kernel_basis(op):
        full = [ring.zero] * 4**n
        for unit, coef in zip(units, v):
            full[unit] = coef
        out.append(full)
    return out


def rows(basis):
    entries, cols = basis.entries, basis.cols
    return [entries[k * cols : (k + 1) * cols] for k in range(basis.rows)]


def elements(basis, ring, n):
    return [CliffordElement(ring, n, Matrix(ring, 1 << n, 1 << n, row)) for row in rows(basis)]


@pytest.mark.parametrize("ring", (GF2, GF3, QQ))
@pytest.mark.parametrize("n", (2, 3))
def test_orbit_bases_match_elimination(ring, n):
    """The structural bases are bases of exactly the image and kernel of Id - tau."""
    minus, _ = involution_operator(ring, n)
    elim_alt = image_basis(minus)
    elim_sym = even_kernel(ring, n, minus)
    alt = alt_basis(ring, n)
    sym = sym_basis(ring, n)
    assert alt.cols == sym.cols == 4**n
    assert rank(alt) == alt.rows == len(elim_alt)
    assert rank(sym) == sym.rows == len(elim_sym)
    alt_span = SpanChecker(ring, elim_alt)
    for v in rows(alt):
        assert alt_span.contains(v)
    sym_span = SpanChecker(ring, elim_sym)
    for v in rows(sym):
        assert sym_span.contains(v)


@pytest.mark.parametrize("ring", (GF2, GF3, QQ))
@pytest.mark.parametrize("n", (2, 3))
def test_alternating_inside_skew(ring, n):
    """image_basis(Id - tau) lies inside kernel_basis(Id + tau) elementwise."""
    minus, plus = involution_operator(ring, n)
    skew = even_kernel(ring, n, plus)
    for v in image_basis(minus):
        assert in_span(ring, v, skew)
    for a in elements(alt_basis(ring, n), ring, n):
        assert canonical_involution(a) == -a


def test_alt_basis_degree4_char2():
    basis = alt_basis(GF2, 2)
    assert basis.rows == 2
    ident = CliffordElement.identity(GF2, 2)
    stated = [ident, phi_word(GF2, 2, ["v1", "v1*"]) + phi_word(GF2, 2, ["v2", "v2*"])]
    for elem in stated:
        assert in_alternating(elem)
    span = SpanChecker(GF2, [e.matrix.entries for e in stated])
    for v in rows(basis):
        assert span.contains(v)


@pytest.mark.parametrize("ring", (GF3, QQ))
@pytest.mark.parametrize("n", (2, 3))
def test_rank_nullity(ring, n):
    dim = 2 * (1 << (n - 1)) ** 2
    assert alt_basis(ring, n).rows + sym_basis(ring, n).rows == dim


def test_char2_inclusions():
    # in characteristic 2 alternating and symmetrized both sit inside symmetric
    for ring in (GF2, GF4):
        for n in (2, 3):
            sym_span = SpanChecker(ring, rows(sym_basis(ring, n)))
            for a in rows(alt_basis(ring, n)):
                assert sym_span.contains(a)
            rng = fresh_rng(f"symd:{ring.name}:{n}")
            for _ in range(10):
                y = random_even_element(ring, n, rng)
                s = y + canonical_involution(y)
                assert sym_span.contains(s.matrix.entries)


def test_in_alternating_on_differences():
    rng = fresh_rng("alt-membership")
    for ring in (GF2, GF3, QQ):
        for n in (2, 3):
            for _ in range(10):
                y = random_even_element(ring, n, rng)
                assert in_alternating(y - canonical_involution(y))


def test_in_alternating_negative_example():
    assert not in_alternating(phi_word(GF2, 2, ["v1", "v2"]))


def test_in_alternating_positive_example_n3_with_witness():
    x = phi_word(GF2, 3, ["v1", "v2"])
    assert in_alternating(x)
    # explicit witness: w - tau(w) = x for w = v1 v2 v3 v3*
    w = phi_word(GF2, 3, ["v1", "v2", "v3", "v3*"])
    assert w - canonical_involution(w) == x


@pytest.mark.parametrize("ring", FIELDS)
@pytest.mark.parametrize("n", (1, 2, 3, 4))
def test_in_alternating_matches_elimination(ring, n):
    """The orbit-wise membership test agrees with row reduction against the
    alternating basis, on differences, sums and differences with one unit
    entry changed."""
    span = SpanChecker(ring, rows(alt_basis(ring, n)))
    rng = fresh_rng(f"alt-oracle:{ring.name}:{n}")
    units = [(r, c) for masks in parity_masks(n) for r in masks for c in masks]
    answers = set()
    for kind in ("difference", "sum", "changed") * 4:
        y = random_even_element(ring, n, rng)
        x = y + canonical_involution(y) if kind == "sum" else y - canonical_involution(y)
        if kind == "changed":
            r, c = rng.choice(units)
            bump = Matrix.from_nonzeros(ring, 1 << n, 1 << n, [(r, c, ring.one)])
            x = CliffordElement(ring, n, x.matrix + bump)
        member = in_alternating(x)
        assert member == span.contains(x.matrix.entries), (kind, x)
        answers.add(member)
    assert answers == {True, False}


def test_in_alternating_rejects_odd_parity():
    with pytest.raises(UsageError):
        in_alternating(phi_word(GF2, 2, ["v1"]))


def test_subspaces_need_field():
    with pytest.raises(UnsupportedRingError):
        alt_basis(ZZ, 2)


def test_semi_trace_validates_representative():
    with pytest.raises(DomainError):
        SemiTrace(CliffordElement.zero(GF3, 2))


def test_semi_trace_defining_identity_small():
    ring, n = GF3, 2
    rep = phi_word(ring, n, ["v1", "v1*"])
    f = SemiTrace(rep)
    rng = fresh_rng("semitrace-small")
    for _ in range(25):
        x = random_even_element(ring, n, rng)
        assert ring.eq(f.evaluate(x + canonical_involution(x)), reduced_trace(x))
    ident = CliffordElement.identity(ring, n)
    assert ring.eq(f.evaluate(ident + ident), ring.from_int(1 << n))


def test_semi_trace_f_of_identity_n4():
    # with rep = v1 v1*, f(1) = trace(v1 v1*) = 2^(n-1) by the subset count
    for ring in (GF2, GF3, QQ):
        f = SemiTrace(phi_word(ring, 4, ["v1", "v1*"]))
        assert ring.eq(f.evaluate(CliffordElement.identity(ring, 4)), ring.from_int(8))


def test_semi_trace_invariant_under_alternating_shift():
    for ring in (GF2, GF3):
        for n in (2, 3):
            rep = phi_word(ring, n, ["v1", "v1*"])
            f = SemiTrace(rep)
            sym = elements(sym_basis(ring, n), ring, n)
            for a in elements(alt_basis(ring, n), ring, n):
                shifted = SemiTrace.__new__(SemiTrace)
                shifted.ring, shifted.n, shifted.rep = ring, n, rep + a
                for s in sym:
                    assert ring.eq(f.evaluate(s), shifted.evaluate(s))


def test_semi_trace_agreement_api():
    ring, n = GF2, 2
    f = SemiTrace(phi_word(ring, n, ["v1", "v1*"]))
    g = SemiTrace(phi_word(ring, n, ["v2", "v2*"]))
    # the two representatives differ by v1v1* + v2v2*, an alternating element
    assert f.agrees_with(g)
    # E_03 and E_30 are tau-fixed even units: shifting l by E_03 keeps
    # l + tau(l) = 1 but moves the value on the symmetric E_30 by 1
    u, s = (
        CliffordElement(ring, n, Matrix.from_nonzeros(ring, 4, 4, [(r, c, ring.one)]))
        for r, c in ((0, 3), (3, 0))
    )
    assert canonical_involution(u) == u and canonical_involution(s) == s
    h = SemiTrace(f.rep + u)
    assert not f.agrees_with(h)
    assert not ring.eq(f.evaluate(s), h.evaluate(s))


@pytest.mark.parametrize("ring", (GF2, GF3))
@pytest.mark.parametrize("n", (2, 3))
def test_trace_orthogonality_grid(ring, n):
    assert trace_orthogonality(ring, n).passed


def test_trace_orthogonality_random_products():
    ring, n = GF3, 3
    rng = fresh_rng("torth")
    for _ in range(25):
        y = random_even_element(ring, n, rng)
        x = random_even_element(ring, n, rng)
        a = y - canonical_involution(y)
        s = x + canonical_involution(x)
        assert reduced_trace(a * s) == ring.zero


def test_trace_orthogonality_catches_a_flipped_partner_sign(monkeypatch):
    ring, n = GF3, 2
    good = alt_basis(ring, n)
    assert trace_orthogonality(ring, n).passed
    # E - sign * partner becomes E + sign * partner: symmetric, not alternating
    triples = list(good.nonzeros())
    k = next(k for k in range(1, len(triples)) if triples[k][0] == triples[k - 1][0])
    row, col, coef = triples[k]
    triples[k] = (row, col, ring.neg(coef))
    bad = Matrix.from_nonzeros(ring, good.rows, good.cols, triples)
    monkeypatch.setattr(involution, "alt_basis", lambda ring, n: bad)
    out = trace_orthogonality(ring, n)
    assert not out.passed
    assert any("trace pairing nonzero" in line for line in out.details)


@pytest.mark.parametrize("ring", (GF2, GF3, GF4, QQ), ids=lambda r: r.name)
@pytest.mark.parametrize("n", (2, 3, 4))
def test_evaluate_matches_trace_of_product(ring, n):
    rng = fresh_rng(f"evaluate:{ring.name}:{n}")
    base = phi_word(ring, n, ["v1", "v1*"])
    y = random_even_element(ring, n, rng)
    # the sparse v1 v1* and a dense representative of the same class
    for rep in (base, base + y - canonical_involution(y)):
        f = SemiTrace(rep)
        for _ in range(10):
            s = random_even_element(ring, n, rng)
            assert f.evaluate(s) == reduced_trace(rep * s)


def test_evaluate_rejects_a_foreign_element():
    f = SemiTrace(phi_word(GF3, 2, ["v1", "v1*"]))
    with pytest.raises(UsageError):
        f.evaluate(CliffordElement.identity(GF3, 3))
    with pytest.raises(UsageError):
        f.evaluate(CliffordElement.identity(GF2, 2))
