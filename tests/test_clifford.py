"""Generator words, relations, the involution, traces, and decomposition."""

from itertools import product

import pytest

from cliffqp import cli, clifford, involution, sampling
from cliffqp.clifford import (
    CliffordElement,
    canonical_involution,
    classify_even_involution,
    generator_matrix,
    involution_suite,
    monomial_basis,
    parity_masks,
    phi_vector,
    phi_word,
    predicted_even_involution,
    reduced_trace,
    relation_suite,
    word_support,
)
from cliffqp.errors import DomainError, UnsupportedRingError, UsageError
from cliffqp.exterior import mask_size
from cliffqp.forms import b_wedge_gram
from cliffqp.linalg import Matrix, SignedPermutation, rref, signed_perm_inverse, trace_of_product
from cliffqp.rings import GF2, GF3, GF4, GF5, QQ, RING_BY_NAME, ZZ
from cliffqp.sampling import involution_pairs, phi_square, random_clifford_element, random_even_element

from conftest import ALL_RINGS, PALETTE, fresh_rng
from oracles import entries, from_rows, generator_by_wedge, phi_vector_by_combination, recompose, word_by_products


def test_phi_word_n1_matrix():
    x = phi_word(QQ, 1, ["v1"])
    assert x.matrix == from_rows(QQ, [[QQ.zero, QQ.zero], [QQ.one, QQ.zero]])


def test_phi_anticommutator_is_identity():
    for ring in PALETTE:
        lhs = phi_word(ring, 1, ["v1", "v1*"]) + phi_word(ring, 1, ["v1*", "v1"])
        assert lhs == CliffordElement.identity(ring, 1)


def test_phi_word_n2_even_blocks():
    # at n=2 the even block sits on masks 0 and 3, the odd block on 1 and 2
    x = phi_word(QQ, 2, ["v1", "v2"])
    assert x.parity == "even"
    assert [[x.matrix.at(r, c) for c in (0, 3)] for r in (0, 3)] == [[QQ.zero, QQ.zero], [QQ.one, QQ.zero]]
    assert [[x.matrix.at(r, c) for c in (1, 2)] for r in (1, 2)] == [[QQ.zero, QQ.zero], [QQ.zero, QQ.zero]]


def test_element_rejects_a_matrix_over_another_ring():
    with pytest.raises(UsageError):
        CliffordElement(GF2, 2, Matrix.identity(GF3, 4))


@pytest.mark.parametrize("ring", ALL_RINGS, ids=lambda r: r.name)
@pytest.mark.parametrize("n", range(1, 6))
def test_word_supports_are_the_generator_products(ring, n):
    # every word of length <= 3, the empty word and the pairs included,
    # against matmul products of generators built from wedge and contraction
    gens = [generator_by_wedge(ring, n, k) for k in range(2 * n)]
    dim, signs = 1 << n, (ring.one, ring.sign(1))
    for length in range(4):
        for word in product(range(2 * n), repeat=length):
            placed = Matrix.from_places(ring, dim, dim, signs, word_support(n, word))
            assert placed == word_by_products(gens, word), word
    assert [generator_matrix(ring, n, k) for k in range(2 * n)] == gens


@pytest.mark.parametrize(
    "extra",
    [(0, 0, 0), (1, 1, 0)],  # v1 at n=2 holds (1, 0) and (3, 2): a column, then a row, hit twice
    ids=("column", "row"),
)
def test_word_support_refuses_a_generator_support_that_hits_twice(monkeypatch, fresh_generator_caches, extra):
    units = clifford._generator_units
    monkeypatch.setattr(clifford, "_generator_units", lambda n, k: units(n, k) + (extra,) if k == 0 else units(n, k))
    with pytest.raises(DomainError, match="hits a row or a column twice"):
        word_support(2, (1, 0))


def test_phi_word_rejects_bad_label():
    with pytest.raises(UsageError):
        phi_word(QQ, 2, ["v3"])


@pytest.mark.parametrize("ring", PALETTE + (GF5,))
@pytest.mark.parametrize("n", (1, 2, 3))
def test_relation_suite_small(ring, n):
    out = relation_suite(ring, n).merge(phi_square(ring, n, fresh_rng(f"rel:{ring.name}:{n}"), trials=25))
    assert out.passed, out.details


@pytest.mark.parametrize("ring", (GF2, GF3, GF4, GF5, QQ, ZZ), ids=lambda r: r.name)
@pytest.mark.parametrize("n", range(1, 7))
def test_phi_vector_matches_the_combination_of_generators(ring, n):
    # random columns, a zero column, every column with one nonzero, and
    # random columns with zeros at random places
    rng = fresh_rng(f"phi:{ring.name}:{n}")
    columns = [ring.samples(rng, 2 * n) for _ in range(3)] + [[ring.zero] * (2 * n)]
    for k in range(2 * n):
        column = [ring.zero] * (2 * n)
        column[k] = ring.samples(rng, 1)[0] if k % 2 else ring.one
        columns.append(column)
    for column in columns[:3]:
        columns.append([ring.zero if rng.random() < 0.5 else c for c in column])
    for column in columns:
        assert phi_vector(ring, n, column) == phi_vector_by_combination(ring, n, column), column


def _phi_without_dual_signs(ring, n, coeffs):
    # m_k times the k-th generator, with the dual generators' signs dropped
    triples = [
        (r, c, ring.mul(m, v) if k < n else m)
        for k, m in enumerate(coeffs)
        for r, c, v in generator_matrix(ring, n, k).nonzeros()
    ]
    return CliffordElement(ring, n, Matrix.from_nonzeros(ring, 1 << n, 1 << n, triples))


def test_relation_trials_catch_a_phi_without_the_dual_signs(monkeypatch):
    # the generator relations read the composed generator supports, so
    # they still hold; the premise phi_vector(e_k) = Phi(e_k) names the
    # first dual generator v3* (v1* has no sign to drop), and the random
    # module elements of the cross-check fail
    ring, n = GF3, 3
    assert relation_suite(ring, n).passed
    assert phi_square(ring, n, fresh_rng("phi-signs"), trials=20).passed
    monkeypatch.setattr(clifford, "phi_vector", _phi_without_dual_signs)
    monkeypatch.setattr(sampling, "phi_vector", _phi_without_dual_signs)
    assert relation_suite(ring, n).details == [
        "phi_vector(e_3) is not the generator matrix of v3*",
        "phi_vector(e_4) is not the generator matrix of v2*",
    ]
    out = phi_square(ring, n, fresh_rng("phi-signs"), trials=20)
    assert not out.passed and all(line.startswith("Phi(m)^2 != q(m) Id") for line in out.details)


def test_relation_certificate_fails_on_overlapping_generator_supports(monkeypatch, fresh_generator_caches):
    # v2 at n=2 moves its nonzero of column 0 from row 2 to row 1, where v1
    # has one: each support still hits a row and a column at most once, and
    # the disjointness premise names the position
    units = clifford._generator_units
    v1, (_, *v2_rest) = units(2, 0), units(2, 1)
    moved = (v1[0], *v2_rest)
    assert v1[0][:2] == (1, 0)
    monkeypatch.setattr(clifford, "_generator_units", lambda n, k: moved if (n, k) == (2, 1) else units(n, k))
    out = relation_suite(GF3, 2)
    assert not out.passed
    assert "the supports of v1 and v2 overlap on unit (1, 0)" in out.details


def test_relation_certificate_names_each_pair_a_flipped_generator_sign_breaks(monkeypatch, fresh_generator_caches):
    # v1 at n=3 sends column 0 to row 1 with sign -1 instead of +1: each pair
    # with v1 names its smallest wrong unit over gf3; over gf2 -1 = 1, so the
    # support sums map to the same ring elements and every identity holds
    units = clifford._generator_units
    (r, c, parity), *rest = units(3, 0)
    flipped = ((r, c, parity ^ 1), *rest)
    monkeypatch.setattr(clifford, "_generator_units", lambda n, k: flipped if (n, k) == (3, 0) else units(n, k))
    out = relation_suite(GF3, 3)
    assert out.details == [
        "v1 v2 + v2 v1 is not 0 Id on unit (3, 0)",
        "v1 v3 + v3 v1 is not 0 Id on unit (5, 0)",
        "v1 v3* + v3* v1 is not 0 Id on unit (1, 4)",
        "v1 v2* + v2* v1 is not 0 Id on unit (1, 2)",
        "v1 v1* + v1* v1 is not 1 Id on unit (0, 0)",
    ]
    assert relation_suite(GF2, 3).passed


def test_relation_certificate_fails_on_a_form_the_identities_do_not_name(monkeypatch):
    # a hyperbolic form that pairs v1 with v2 as well: the generator
    # identities still hold, and only the form's values on the generator
    # pairs can see it
    honest = clifford.HyperbolicSpace.q
    monkeypatch.setattr(
        clifford.HyperbolicSpace, "q", lambda self, m: GF3.add(honest(self, m), GF3.mul(m[0], m[1]))
    )
    out = relation_suite(GF3, 2)
    assert out.details == ["b(v1, v2) = 1, but the generator identities need 0"]


def test_relations_read_the_form_of_each_generator_into_its_polars(monkeypatch):
    # q(e_k) is evaluated once and read by every polar b(e_k, e_l); a form
    # off by one on v1 alone moves all of them
    honest = clifford.HyperbolicSpace.q
    v1 = [GF3.one] + [GF3.zero] * 5
    off = lambda self, m: GF3.add(honest(self, m), GF3.one) if list(m) == v1 else honest(self, m)
    monkeypatch.setattr(clifford.HyperbolicSpace, "q", off)
    (report,) = cli.run("relations", 3, GF3, 10, 0)
    assert report.status == "fail"
    assert report.details == [
        "q(v1) = 1, but the generator identities need 0",
        *(f"b(v1, {other}) = 2, but the generator identities need 0" for other in ("v2", "v3", "v3*", "v2*")),
        "b(v1, v1*) = 0, but the generator identities need 1",
    ]


def test_certified_checks_leave_every_draw_to_the_cross_check():
    # the certified cells draw nothing, whatever --trials asks for; the
    # cross-check cell at the same (n, ring) draws exactly --trials per route
    (relations,) = cli.run("relations", 6, GF2, 100, 0)
    (semitrace,) = cli.run("canonical-semitrace", 6, GF2, 100, 0)
    assert relations.status == semitrace.status == "pass"
    assert relations.details[-1].endswith("by polarization over all 144 generator pairs")
    assert semitrace.details[-1].endswith("on all 2048 even units, so on every even element")
    (cross,) = cli.run("cross-check", 6, GF2, 25, 0)
    assert cross.status == "pass"
    assert "25 random module elements agree: Phi(m)^2 = q(m) Id" in cross.details
    assert "25 random even elements agree: f(x + tau x) = trace(x)" in cross.details


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
    # every operation leaves the stored int rows and the scale of its
    # operands as they were, the same objects with the same contents
    assert generator_matrix(GF3, 2, 0) is generator_matrix(GF3, 2, 0)
    rng = fresh_rng("immutable")
    for ring in (GF3, QQ, GF4):  # elements, numerators over a scale, packed pairs
        a, b = (random_clifford_element(ring, 2, rng).matrix for _ in range(2))
        perm = signed_perm_inverse(b_wedge_gram(ring, 2))
        assert isinstance(perm, SignedPermutation)
        c = ring.samples(rng, 1)[0]
        vector = {0: c, 3: ring.one}
        operations = {
            "+": lambda: a + b,
            "-": lambda: a - b,
            "neg": lambda: -a,
            "scale": lambda: (a.scale(c), perm.scale(c)),
            "transpose": lambda: (a.transpose(), perm.transpose()),
            "rref": lambda: (rref(a), rref(perm)),
            "trace_of_product": lambda: (trace_of_product(a, b), trace_of_product(perm, a)),
            "*": lambda: (a * b, perm * a, a * perm, perm * perm),
            "apply": lambda: (a.apply(vector), perm.apply(vector)),
        }
        stored = [(m._rows, [dict(row) for row in m._rows], m._scale) for m in (a, b, perm)]
        before = [entries(m) for m in (a, b, perm)]
        for name, operation in operations.items():
            operation()
            for m, (rows, copies, scale) in zip((a, b, perm), stored):
                assert m._rows is rows and m._rows == copies and m._scale == scale, (ring.name, name)
            assert [entries(m) for m in (a, b, perm)] == before, (ring.name, name)
            assert vector == {0: c, 3: ring.one}, (ring.name, name)


def test_a_shared_generator_is_lifted_once():
    # a matrix is lifted when it is built: products lift nothing, and a
    # scale lifts only its coefficient, once
    g = generator_matrix(QQ, 3, 1)
    rows = g._rows
    x = random_clifford_element(QQ, 3, fresh_rng("lift once")).matrix
    lifted = []
    lift = QQ.lift
    QQ.lift = lambda values: lifted.append(list(values)) or lift(values)
    try:
        for _ in range(2):
            x * g, g * x, g * g
            g.scale(QQ.one), x.scale(QQ.one)
    finally:
        del QQ.lift
    assert lifted == [[QQ.one]] * 4
    assert generator_matrix(QQ, 3, 1)._rows is rows


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
    assert involution_suite(GF3, 2).passed
    assert involution_pairs(GF3, 2, fresh_rng("isuite"), trials=10).passed


def test_involution_on_n2_blocks_swaps_diagonal():
    rng = fresh_rng("blockswap")
    for ring in (GF2, QQ):
        x = random_even_element(ring, 2, rng)
        t = canonical_involution(x)
        for lo, hi in ((0, 3), (1, 2)):  # the even block's masks, then the odd block's
            assert t.matrix.at(lo, lo) == x.matrix.at(hi, hi)
            assert t.matrix.at(hi, hi) == x.matrix.at(lo, lo)
            if ring.char == 2:  # full matrix form [[d, b], [c, a]] per block
                assert t.matrix.at(lo, hi) == x.matrix.at(lo, hi)
                assert t.matrix.at(hi, lo) == x.matrix.at(hi, lo)


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
        coords = ring.samples(rng, mb.size)
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
    want = {2: "symplectic", 3: "center-nontrivial", 4: "orthogonal", 5: "center-nontrivial"}[n]
    if ring.char == 2 and n % 2 == 0:
        want = "orthogonal+symplectic"
    assert classify_even_involution(ring, n) == want
    assert predicted_even_involution(ring, n) == want


def test_involution_type_char2_refinement():
    # in characteristic 2 the Gram matrix is symmetric and alternating at
    # every even n, so the type names both, at n = 0 mod 4 as well
    assert classify_even_involution(GF2, 2) == "orthogonal+symplectic"
    assert classify_even_involution(GF2, 4) == "orthogonal+symplectic"
    assert classify_even_involution(GF3, 2) == "symplectic"
    assert classify_even_involution(QQ, 4) == "orthogonal"


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
    assert even == (0b000, 0b011, 0b101, 0b110)
    assert odd == (0b001, 0b010, 0b100, 0b111)
    assert all(mask_size(m) % 2 == 0 for m in even)


def test_parity_masks_are_shared_and_cannot_be_modified():
    # every sampler reads them once per draw, so they are built once per n
    assert parity_masks(4) is parity_masks(4)
    even, odd = parity_masks(4)
    with pytest.raises(TypeError):
        even[0] = 1
    with pytest.raises(AttributeError):
        odd.append(0)
    assert parity_masks(4) == ((0, 3, 5, 6, 9, 10, 12, 15), (1, 2, 4, 7, 8, 11, 13, 14))


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
    assert involution_suite(ring, n).passed
    unit = clifford.tau_unit

    def flipped(n, a, b):
        parity, r, c = unit(n, a, b)
        return (parity + ((a, b) == (1, 2))) % 2, r, c

    monkeypatch.setattr(clifford, "tau_unit", flipped)
    out = involution_suite(ring, n)
    assert not out.passed
    assert out.details == ["involution is not the adjoint G^-1 x^T G on unit (1, 2)"]


def test_unit_walks_report_each_kind_of_failure_once(monkeypatch):
    # the sign rule shifted by a fails half the units of each walk; every
    # kind of failure keeps one line, its first unit and a count of the rest
    unit = clifford.tau_unit

    def shifted(n, a, b):
        parity, r, c = unit(n, a, b)
        return (parity + a) % 2, r, c

    monkeypatch.setattr(clifford, "tau_unit", shifted)
    monkeypatch.setattr(involution, "tau_unit", shifted)
    assert involution_suite(GF3, 6).details == [
        "involution does not square to the identity on unit (0, 0) and 2047 more units",
        "involution is not the adjoint G^-1 x^T G on unit (1, 0) and 2047 more units",
    ]
    assert involution.trace_orthogonality(GF3, 6).details == [
        "tau does not square to 1 on unit (0, 0) and 1023 more units",
        "tau(E_cr) is not the transpose of tau(E_rc) with its sign on unit (0, 3) and 1023 more units",
    ]


def test_relation_witness_shows_ring_elements(monkeypatch):
    # Phi(m) + Id squares to (q(m) + 1) Id in characteristic 2; the witness
    # prints m as GF(4) elements, not as their stored ints
    honest = clifford.phi_vector
    monkeypatch.setattr(
        sampling, "phi_vector", lambda ring, n, coeffs: honest(ring, n, coeffs) + CliffordElement.identity(ring, n)
    )
    out = phi_square(GF4, 2, fresh_rng("witness"), trials=20)
    assert not out.passed
    assert any("1+w" in line for line in out.details)
    assert not any("4294967296" in line for line in out.details)


@pytest.mark.parametrize("ring", (GF2, GF3, QQ), ids=lambda r: r.name)
def test_gram_cells_catch_a_negated_row_of_the_gram_inverse(monkeypatch, ring):
    # a row of G^-1 negated by D makes canonical_involution x -> D tau(x) D,
    # which moves the generators with a nonzero in row or column 0, and is
    # still anti-multiplicative, so among the random pairs only the
    # comparison with the unit rule names one; in characteristic 2, -1 = 1
    # and nothing changes
    honest = clifford._gram_inverse

    def negated(ring, n):
        ginv = honest(ring, n)
        return SignedPermutation(ring, ginv.perm, ginv.negated ^ {0})

    monkeypatch.setattr(clifford, "_gram_inverse", negated)
    for report in cli.run("gram", None, ring, 10, 0):
        if ring.char == 2:
            assert report.status == "pass", report.details
        else:
            assert report.status == "fail"
            assert "involution moves generator v1" in report.details
    for n in range(1, 5):
        out = involution_pairs(ring, n, fresh_rng(f"negated:{ring.name}:{n}"), trials=10)
        assert out.passed == (ring.char == 2)
        if ring.char != 2:
            witness = "canonical_involution is not the unit rule on random pair"
            assert all(line.startswith(witness) for line in out.details)


def _gram_with(monkeypatch, entry):
    """Patch the Gram matrix that involution_suite reads: row 0 gets
    entry(ring, n, column, value) in place of its nonzero."""
    honest = clifford.b_wedge_gram

    def patched(ring, n):
        g = honest(ring, n)
        rows = [entry(ring, n, c, v) if r == 0 else (c, v) for r, c, v in g.nonzeros()]
        return Matrix.from_nonzeros(ring, g.rows, g.cols, ((r, c, v) for r, (c, v) in enumerate(rows)))

    monkeypatch.setattr(clifford, "b_wedge_gram", patched)


@pytest.mark.parametrize("ring", (GF5, QQ), ids=lambda r: r.name)
@pytest.mark.parametrize("n", (1, 3))
def test_involution_suite_refuses_a_gram_entry_that_does_not_square_to_one(monkeypatch, ring, n):
    _gram_with(monkeypatch, lambda ring, n, c, v: (c, ring.from_int(2)))
    out = involution_suite(ring, n)
    assert out.details == ["the Gram entry g_a of row 0 does not square to 1"]


@pytest.mark.parametrize("ring", (GF2, GF3, QQ), ids=lambda r: r.name)
@pytest.mark.parametrize("n", (1, 3))
def test_involution_suite_refuses_a_gram_that_hits_a_column_twice(monkeypatch, ring, n):
    # row 0 moved onto row 1's column; signed_perm_inverse would raise on it
    _gram_with(monkeypatch, lambda ring, n, c, v: (c ^ 1, v))
    out = involution_suite(ring, n)
    assert out.details == ["the Gram matrix hits a column twice, so pi is not injective"]


@pytest.mark.parametrize("ring", ALL_RINGS, ids=lambda r: r.name)
@pytest.mark.parametrize("n", range(1, 5))
def test_tau_relabel_is_the_adjoint(ring, n):
    # the unit rule against G^-1 x^T G multiplied out, as in
    # test_sparse_paths_match_dense, on dense, generator and zero elements
    g = b_wedge_gram(ring, n)
    ginv = signed_perm_inverse(g)
    rng = fresh_rng(f"relabel:{ring.name}:{n}")
    elements = [random_clifford_element(ring, n, rng) for _ in range(5)]
    elements += [phi_word(ring, n, ["v1"]), CliffordElement.zero(ring, n)]
    for x in elements:
        assert clifford.tau_relabel(x).matrix == ginv * x.matrix.transpose() * g


def test_involution_suite_refuses_a_gram_with_an_empty_row(monkeypatch):
    _gram_with(monkeypatch, lambda ring, n, c, v: (c, ring.zero))
    out = involution_suite(GF3, 2)
    assert out.details == ["the Gram matrix does not hold exactly one nonzero per row"]
