"""The orthogonal group of the hyperbolic form and its action on the
Clifford algebra.

Group elements are certified by checking the quadratic form on basis
vectors and the polar form on basis pairs, which together force
preservation everywhere.  Each named generator comes with a lift g in the
Clifford group, a word lifts to the product of its generators' lifts, and
`is_lift` certifies a lift against its matrix.  The group acts on even
elements by conjugation x -> g x g^-1, also when g is odd (a swap).
`clifford_action`, which rebuilds all 4^n monomial images, is called by
no check: it is the tests' n <= 4 oracle for the conjugation, kept in the
package because the benchmark's tracer names it.
"""

from __future__ import annotations

from .canonical import canonical_semitrace
from .clifford import (
    CliffordElement,
    canonical_involution,
    generator_matrix,
    monomial_basis,
    phi_vector,
    phi_word,
)
from .errors import DomainError, UsageError
from .forms import HyperbolicSpace
from .involution import in_alternating, trace_orthogonality
from .linalg import Matrix, matmul
from .reporting import CheckOutcome
from .rings import Element, Ring

# --- membership --------------------------------------------------------------


def is_orthogonal(b: Matrix) -> bool:
    """Whether b preserves the hyperbolic form.

    Checks q on the basis vectors and the polar values on all basis pairs;
    bilinear expansion then gives preservation on every vector.
    """
    if b.rows != b.cols or b.rows % 2 != 0:
        return False
    ring, dim = b.ring, b.rows
    hs = HyperbolicSpace(ring, dim // 2)
    cols = [b.col(k) for k in range(dim)]
    basis = [[ring.one if r == k else ring.zero for r in range(dim)] for k in range(dim)]
    # hyperbolic basis vectors are isotropic
    return all(ring.is_zero(hs.q(c)) for c in cols) and all(
        ring.eq(hs.polar(cols[k], cols[l]), hs.polar(basis[k], basis[l]))
        for k in range(dim)
        for l in range(k, dim)
    )


# --- certified generators -----------------------------------------------------


def _identity_with(ring: Ring, n: int, entries: dict[tuple[int, int], Element]) -> Matrix:
    """The identity on H(V) with the entries at the given (row, col) replaced."""
    values = {(k, k): ring.one for k in range(2 * n)} | entries
    triples = ((r, c, v) for (r, c), v in values.items() if not ring.is_zero(v))
    return Matrix.from_nonzeros(ring, 2 * n, 2 * n, triples)


def hyperbolic_swap(ring: Ring, n: int, i: int) -> Matrix:
    """Swap v_i with v_i^*, fixing the other basis vectors."""
    hs = HyperbolicSpace(ring, n)
    vi, di = hs.vector_index(i), hs.dual_index(i)
    zero, one = ring.zero, ring.one
    return _identity_with(ring, n, {(vi, vi): zero, (di, di): zero, (di, vi): one, (vi, di): one})


def pair_permutation(ring: Ring, n: int, i: int, j: int) -> Matrix:
    """Swap the hyperbolic pairs (v_i, v_i^*) and (v_j, v_j^*)."""
    hs = HyperbolicSpace(ring, n)
    entries = {}
    for a, b in ((hs.vector_index(i), hs.vector_index(j)), (hs.dual_index(i), hs.dual_index(j))):
        entries |= {(a, a): ring.zero, (b, b): ring.zero, (b, a): ring.one, (a, b): ring.one}
    return _identity_with(ring, n, entries)


def hyperbolic_scale(ring: Ring, n: int, i: int, u: Element) -> Matrix:
    """Scale v_i by the unit u and v_i^* by its inverse."""
    hs = HyperbolicSpace(ring, n)
    vi, di = hs.vector_index(i), hs.dual_index(i)
    return _identity_with(ring, n, {(vi, vi): u, (di, di): ring.inv(u)})


def eichler_vv(ring: Ring, n: int, i: int, j: int, t: Element) -> Matrix:
    """v_i -> v_i + t v_j with the dual correction; form-preserving over any ring."""
    if i == j:
        raise UsageError("distinct indices required")
    hs = HyperbolicSpace(ring, n)
    vi, di, vj, dj = hs.vector_index(i), hs.dual_index(i), hs.vector_index(j), hs.dual_index(j)
    return _identity_with(ring, n, {(vj, vi): t, (di, dj): ring.neg(t)})


def eichler_vd(ring: Ring, n: int, i: int, j: int, t: Element) -> Matrix:
    """v_i -> v_i + t v_j^*, v_j -> v_j - t v_i^*; form-preserving over any ring."""
    if i == j:
        raise UsageError("distinct indices required")
    hs = HyperbolicSpace(ring, n)
    vi, di, vj, dj = hs.vector_index(i), hs.dual_index(i), hs.vector_index(j), hs.dual_index(j)
    return _identity_with(ring, n, {(dj, vi): t, (di, vj): ring.neg(t)})


def eichler_dv(ring: Ring, n: int, i: int, j: int, t: Element) -> Matrix:
    """v_i^* -> v_i^* + t v_j, v_j^* -> v_j^* - t v_i; form-preserving over any ring."""
    if i == j:
        raise UsageError("distinct indices required")
    hs = HyperbolicSpace(ring, n)
    vi, di, vj, dj = hs.vector_index(i), hs.dual_index(i), hs.vector_index(j), hs.dual_index(j)
    return _identity_with(ring, n, {(vj, di): t, (vi, dj): ring.neg(t)})


def _nonzero(ring: Ring, rng) -> Element:
    while True:
        t = ring.sample(rng)
        if not ring.is_zero(t):
            return t


def lifted_generator(
    ring: Ring, n: int, kind: str, i: int, j: int | None, x: Element | None
) -> tuple[Matrix, CliffordElement, CliffordElement]:
    """A named orthogonal generator b with a lift (g, g^-1) in the Clifford
    group, which `is_lift` certifies.

    kind is 'swap' (lift v_i - v_i*, odd, inverse its negative), 'perm',
    'scale' (x = u; lift u v_i v_i* + v_i* v_i) or 'eichler_vv', 'eichler_vd',
    'eichler_dv' (x = t; lift 1 + t w for a square-zero generator product w,
    inverse 1 - t w).  j is unused by 'swap' and 'scale', x by 'swap' and
    'perm'.
    """
    one = CliffordElement.identity(ring, n)
    vi, di, vj, dj = f"v{i}", f"v{i}*", f"v{j}", f"v{j}*"
    eichler = {
        "eichler_vv": (eichler_vv, (vj, di)),
        "eichler_vd": (eichler_vd, (dj, di)),
        "eichler_dv": (eichler_dv, (vj, vi)),
    }
    if kind in eichler:
        make, word = eichler[kind]
        w = phi_word(ring, n, word).scale(x)
        return make(ring, n, i, j, x), one + w, one - w
    if kind == "swap":
        g = phi_word(ring, n, [vi]) - phi_word(ring, n, [di])
        return hyperbolic_swap(ring, n, i), g, -g
    if kind == "scale":
        up, down = phi_word(ring, n, [vi, di]), phi_word(ring, n, [di, vi])
        return hyperbolic_scale(ring, n, i, x), up.scale(x) + down, up.scale(ring.inv(x)) + down
    if kind != "perm":
        raise UsageError(f"unknown generator kind {kind!r}")
    # pair_permutation(i, j) = E(i,j,1) E(j,i,-1) E(i,j,1) S(j,-1), with
    # E = eichler_vv and S = hyperbolic_scale
    plus, minus = ring.one, ring.neg(ring.one)
    g = g_inv = one
    for part, a, c, y in (
        ("eichler_vv", i, j, plus),
        ("eichler_vv", j, i, minus),
        ("eichler_vv", i, j, plus),
        ("scale", j, None, minus),
    ):
        _, h, h_inv = lifted_generator(ring, n, part, a, c, y)
        g, g_inv = g * h, h_inv * g_inv
    return pair_permutation(ring, n, i, j), g, g_inv


def is_lift(g: CliffordElement, g_inv: CliffordElement, b: Matrix) -> bool:
    """Whether conjugation by g induces b: g g^-1 = 1 and
    g Phi(e_k) g^-1 = eps Phi(b e_k) for every basis vector e_k, with one
    sign eps in {1, -1}.

    The generators generate the algebra, so x -> g x g^-1 is then the
    automorphism b induces on even elements, whatever eps is.
    """
    ring, n = g.ring, g.n
    if g * g_inv != CliffordElement.identity(ring, n):
        return False
    gens = [CliffordElement(ring, n, generator_matrix(ring, n, k)) for k in range(2 * n)]
    images = [g * gen * g_inv for gen in gens]
    wants = [phi_vector(ring, n, b.col(k)) for k in range(2 * n)]
    return any(
        all(image == want.scale(eps) for image, want in zip(images, wants))
        for eps in (ring.one, ring.neg(ring.one))
    )


def sample_orthogonal(
    ring: Ring, n: int, rng, max_word: int = 3
) -> tuple[str, Matrix, tuple[CliffordElement, CliffordElement]]:
    """A certified orthogonal element, a short word in the generators of
    `lifted_generator`, with the word's lift (g, g^-1): g is the product of
    the generator lifts."""
    if n < 2:
        raise UsageError("sampling needs at least two hyperbolic pairs")
    kinds = ["swap", "perm", "scale", "eichler_vv", "eichler_vd", "eichler_dv"]
    word_len = rng.randint(1, max_word)
    m = Matrix.identity(ring, 2 * n)
    g = g_inv = CliffordElement.identity(ring, n)
    parts = []
    for _ in range(word_len):
        kind = rng.choice(kinds)
        i = rng.randint(1, n)
        j = rng.randint(1, n)
        while j == i:
            j = rng.randint(1, n)
        x = None if kind in ("swap", "perm") else _nonzero(ring, rng)
        show = "" if x is None else f"({ring.show(x)})"
        parts.append(f"{kind}{i}{'' if kind in ('swap', 'scale') else j}{show}")
        b, h, h_inv = lifted_generator(ring, n, kind, i, j, x)
        m, g, g_inv = matmul(m, b), g * h, h_inv * g_inv
    if not is_orthogonal(m):
        raise DomainError(f"sampled word {'.'.join(parts)} failed certification")
    return ".".join(parts), m, (g, g_inv)


# --- the induced action --------------------------------------------------------


def _transformed_monomials(ring: Ring, n: int, b: Matrix) -> list[CliffordElement]:
    """Images of all monomials: each generator replaced by Phi(B e_k)."""
    images = [phi_vector(ring, n, b.col(k)) for k in range(2 * n)]
    out = [CliffordElement.identity(ring, n)]
    for mask in range(1, 1 << (2 * n)):
        low = (mask & -mask).bit_length() - 1
        out.append(images[low] * out[mask & (mask - 1)])
    return out


def clifford_action(b: Matrix, x: CliffordElement) -> CliffordElement:
    """The algebra automorphism induced by an orthogonal element, the n <= 4
    oracle for conjugation by a lift.

    x is decomposed over the monomial basis and every monomial is replaced
    by the product of the images of its generators.
    """
    ring, n = x.ring, x.n
    if b.rows != 2 * n or b.cols != 2 * n or b.ring != ring:
        raise UsageError("the acting matrix must be 2n x 2n over the same ring")
    coords = monomial_basis(ring, n).decompose(x)
    images = (image.matrix for image in _transformed_monomials(ring, n, b))
    return CliffordElement(ring, n, Matrix.combination(ring, 1 << n, 1 << n, zip(coords, images)))


def pgo_invariance(ring: Ring, n: int, rng, samples: int = 50) -> CheckOutcome:
    """Sampled orthogonal elements leave the canonical semi-trace invariant
    on all symmetric elements and commute with the involution.

    Each sample b comes with a certified lift g, so b acts on even elements
    as x -> g x g^-1.  The trace is cyclic, so f(g s g^-1) = trace(g^-1 l g s)
    for the representative l: f after b is the semi-trace of g^-1 l g, which
    equals f on every symmetric element exactly when g^-1 l g - l is
    alternating, because Sym^perp = Alt (`trace_orthogonality`, checked
    once per cell).  Conjugation commutes with the involution when
    tau(g) g is a nonzero scalar.
    """
    l = canonical_semitrace(ring, n).rep  # raises EligibilityError where f does not exist
    out = trace_orthogonality(ring, n)
    ident = CliffordElement.identity(ring, n)
    for _ in range(samples):
        desc, b, (g, g_inv) = sample_orthogonal(ring, n, rng)
        if not is_lift(g, g_inv, b):
            out.fail(f"{desc}: the lift does not induce the sampled element")
            continue
        if not in_alternating(g_inv * l * g - l):
            out.fail(f"{desc}: the semi-trace moved on the symmetric elements")
        scalar = canonical_involution(g) * g
        lam = scalar.matrix.at(0, 0)
        if ring.is_zero(lam) or scalar != ident.scale(lam):
            out.fail(f"{desc}: tau(g) g is not a nonzero scalar")
    if out.passed:
        out.note(f"{samples} certified orthogonal elements preserve the semi-trace and the involution")
    return out
