"""The orthogonal group of the hyperbolic form and its action on the
Clifford algebra.

Group elements are certified by checking the quadratic form on basis
vectors and the polar form on basis pairs, which together force
preservation everywhere.  Each named generator comes with a lift g in the
Clifford group, kept as Laurent polynomials in the generator's parameter
(`lift_polynomial`); a word lifts to the product of its generators' lifts,
and `lift_problem` certifies a lift against its matrix.  The group acts on
even elements by conjugation x -> g x g^-1, also when g is odd (a swap).
Invariance composes: if g^-1 l g - l and h^-1 l h - l are alternating
and tau(h) h = lambda is a nonzero scalar, so that conjugation by h maps
Alt to Alt, then (gh)^-1 l (gh) - l = h^-1 (g^-1 l g - l) h + (h^-1 l h - l)
is alternating.  So `pgo_invariance` certifies n + 2 generators,
coefficient by coefficient in their parameters, which covers the group
they generate at every parameter value; every other named generator is
one of them conjugated by pair permutations and swaps.  Those include the
other two Eichler kinds (Hahn-O'Meara): with s_k = hyperbolic_swap(k),
s_j eichler_vv(i, j, t) s_j sends v_i -> v_i + t v_j^* and
s_i eichler_vv(i, j, t) s_i sends v_i^* -> v_i^* + t v_j.
`clifford_action`, which rebuilds all 4^n monomial images, is called by
no check: it is the tests' n <= 4 oracle for the conjugation, kept in the
package because the benchmark's tracer names it.
"""

from __future__ import annotations

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
from .involution import SemiTrace, in_alternating, trace_orthogonality
from .linalg import Matrix, matmul
from .reporting import CheckOutcome
from .rings import Element, Ring

# --- membership --------------------------------------------------------------


def is_orthogonal(b: Matrix) -> bool:
    """Whether b preserves the hyperbolic form.

    Checks q on the basis vectors and the polar values on all pairs of
    distinct basis vectors (`HyperbolicSpace.polars`); bilinear expansion
    then gives preservation on every vector.
    """
    if b.rows != b.cols or b.rows % 2 != 0:
        return False
    ring, dim = b.ring, b.rows
    hs = HyperbolicSpace(ring, dim // 2)
    q_cols, polar_cols = hs.polars([b.col(k) for k in range(dim)])
    _, polar_basis = hs.polars([[ring.one if r == k else ring.zero for r in range(dim)] for k in range(dim)])
    # hyperbolic basis vectors are isotropic
    return all(map(ring.is_zero, q_cols)) and all(map(ring.eq, polar_cols.values(), polar_basis.values()))


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


def eichler_vv(ring: Ring, n: int, i: int, j: int, t: Element) -> Matrix:
    """v_i -> v_i + t v_j with the dual correction; form-preserving over any ring."""
    if i == j:
        raise UsageError("distinct indices required")
    hs = HyperbolicSpace(ring, n)
    vi, di, vj, dj = hs.vector_index(i), hs.dual_index(i), hs.vector_index(j), hs.dual_index(j)
    return _identity_with(ring, n, {(vj, vi): t, (di, dj): ring.neg(t)})


def _nonzero(ring: Ring, rng) -> Element:
    while True:
        t = ring.samples(rng, 1)[0]
        if not ring.is_zero(t):
            return t


def lift_polynomial(
    ring: Ring, n: int, kind: str, i: int, j: int | None
) -> tuple[dict[int, Matrix], dict[int, CliffordElement], dict[int, CliffordElement]]:
    """A named orthogonal generator b(x) with its lift g(x) and g(x)^-1 in
    the Clifford group, as Laurent polynomials {power: coefficient} in the
    parameter x, which `lifted_generator` evaluates and `invariance_problem` checks.

    kind is 'swap' (lift v_i - v_i*, odd, inverse its negative), 'perm',
    'scale' (x = u; lift u P + Q, inverse u^-1 P + Q, with P = v_i v_i* and
    Q = v_i* v_i) or 'eichler_vv' (x = t; b(t) = 1 + t N, lift 1 + t w for
    the square-zero generator product w = v_j v_i*, inverse 1 - t w).
    'swap' and 'perm' have no parameter, so their polynomials are
    constant.  j is unused by 'swap' and 'scale'.
    """
    one, eye = CliffordElement.identity(ring, n), Matrix.identity(ring, 2 * n)
    vi, di, vj = f"v{i}", f"v{i}*", f"v{j}"
    if kind == "eichler_vv":
        w = phi_word(ring, n, (vj, di))
        return {0: eye, 1: eichler_vv(ring, n, i, j, ring.one) - eye}, {0: one, 1: w}, {0: one, 1: -w}
    if kind == "swap":
        g = phi_word(ring, n, [vi]) - phi_word(ring, n, [di])
        return {0: hyperbolic_swap(ring, n, i)}, {0: g}, {0: -g}
    if kind == "scale":
        hs = HyperbolicSpace(ring, n)
        up, down = (
            Matrix.from_nonzeros(ring, 2 * n, 2 * n, [(k, k, ring.one)])
            for k in (hs.vector_index(i), hs.dual_index(i))
        )
        p, q = phi_word(ring, n, [vi, di]), phi_word(ring, n, [di, vi])
        return {-1: down, 0: eye - up - down, 1: up}, {0: q, 1: p}, {-1: p, 0: q}
    if kind != "perm":
        raise UsageError(f"unknown generator kind {kind!r}")
    # pair_permutation(i, j) = E(i,j,1) E(j,i,-1) E(i,j,1) S(j,-1), with
    # E = eichler_vv and S = the scale generator; E(i,j,1) is lifted once
    plus, minus = ring.one, ring.neg(ring.one)
    _, e, e_inv = lifted_generator(ring, n, "eichler_vv", i, j, plus)
    _, f, f_inv = lifted_generator(ring, n, "eichler_vv", j, i, minus)
    _, s, s_inv = lifted_generator(ring, n, "scale", j, None, minus)
    return {0: pair_permutation(ring, n, i, j)}, {0: e * f * e * s}, {0: s_inv * e_inv * f_inv * e_inv}


def lifted_generator(
    ring: Ring, n: int, kind: str, i: int, j: int | None, x: Element | None
) -> tuple[Matrix, CliffordElement, CliffordElement]:
    """A named orthogonal generator b with a lift (g, g^-1) in the Clifford
    group: the polynomials of `lift_polynomial` at x (see there; x is
    unused by 'swap' and 'perm')."""
    b, g, g_inv = (
        sum((c.scale(x if k == 1 else ring.inv(x)) for k, c in poly.items() if k), start=poly[0])
        for poly in lift_polynomial(ring, n, kind, i, j)
    )
    return b, g, g_inv


def _times(p: dict, q: dict, one: CliffordElement) -> dict:
    """The product of two Laurent polynomials {power: coefficient}, with no
    product by the identity `one`, which starts every Eichler lift."""
    out: dict = {}
    for a, x in p.items():
        for c, y in q.items():
            xy = y if x == one else x if y == one else x * y
            out[a + c] = out[a + c] + xy if a + c in out else xy
    return out


def lift_problem(b: dict, g: dict, g_inv: dict) -> str | None:
    """What keeps the lift polynomials g, g^-1 (`lift_polynomial`) from
    inducing b, or None when g g^-1 = 1 and g Phi(e_k) g^-1 = eps Phi(b e_k)
    for every basis vector e_k, with one sign eps in {1, -1}, coefficient by
    coefficient, and so at every value of the parameter.  Constant
    polynomials {0: ...} certify a single element.

    The generators generate the algebra, so x -> g x g^-1 is then the
    automorphism b induces on even elements, whatever eps is.
    """
    ring, n = next((c.ring, c.n) for c in g.values())
    one, zero = CliffordElement.identity(ring, n), CliffordElement.zero(ring, n)

    def equal(p: dict, q: dict) -> bool:
        return all(p.get(k, zero) == q.get(k, zero) for k in p.keys() | q.keys())

    if not equal(_times(g, g_inv, one), {0: one}):
        return "g g^-1 is not 1"
    gens = [CliffordElement(ring, n, generator_matrix(ring, n, k)) for k in range(2 * n)]
    images = [_times(_times(g, {0: gen}, one), g_inv, one) for gen in gens]
    wants = [
        {m: phi_vector(ring, n, col) for m, c in b.items() if not all(map(ring.is_zero, col := c.col(k)))}
        for k in range(2 * n)
    ]
    if all(map(equal, images, wants)) or all(
        equal(image, {m: -c for m, c in want.items()}) for image, want in zip(images, wants)
    ):
        return None
    return "the lift does not induce the generator"


def conjugation_move(l: CliffordElement, g: dict, g_inv: dict) -> dict:
    """g^-1 l g - l for the lift polynomials g, g^-1 (`lift_polynomial`), a
    Laurent polynomial {power: CliffordElement} in their parameter with no
    zero coefficient."""
    one = CliffordElement.identity(l.ring, l.n)
    moved = _times(_times(g_inv, {0: l}, one), g, one)
    moved[0] = moved[0] - l
    return {k: c for k, c in moved.items() if not c.matrix.is_zero()}


def sample_orthogonal(ring: Ring, n: int, rng) -> tuple[str, Matrix, tuple[CliffordElement, CliffordElement]]:
    """A certified orthogonal element, a short word in the generators of
    `lifted_generator`, with the word's lift (g, g^-1): g is the product of
    the generator lifts."""
    if n < 2:
        raise UsageError("sampling needs at least two hyperbolic pairs")
    kinds = ["swap", "perm", "scale", "eichler_vv"]
    word_len = rng.randint(1, 3)
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
    if b.rows != 2 * n or b.cols != 2 * n or (b.ring is not ring and b.ring != ring):  # `is` skips a Python call
        raise UsageError("the acting matrix must be 2n x 2n over the same ring")
    coords = monomial_basis(ring, n).decompose(x)
    terms = zip(coords, _transformed_monomials(ring, n, b))
    return sum((image.scale(c) for c, image in terms if not ring.is_zero(c)), CliffordElement.zero(ring, n))


def invariance_problem(l: CliffordElement, b: dict, g: dict, g_inv: dict) -> str | None:
    """What fails for the lift polynomials of a generator, or None when
    every coefficient passes, so that each claim holds at every value of
    the parameter: g lifts b (`lift_problem`), g^-1 l g - l is alternating
    and tau(g) g is a scalar (nonzero, as g is invertible)."""
    one = CliffordElement.identity(l.ring, l.n)
    problem = lift_problem(b, g, g_inv)
    if problem:
        return problem
    if not all(in_alternating(c) for c in conjugation_move(l, g, g_inv).values()):
        return "the semi-trace moved on the symmetric elements"
    scalars = _times({k: canonical_involution(c) for k, c in g.items()}, g, one).values()
    if not all(c == CliffordElement.scalar(l.ring, l.n, c.matrix.at(0, 0)) for c in scalars):
        return "tau(g) g is not a scalar"
    return None


def pgo_invariance(f: SemiTrace) -> CheckOutcome:
    """The group generated by the n + 2 generators swap_1, scale_1(u),
    perm(i, i+1) for i < n and eichler_vv(1, 2, t), at every u and t,
    leaves the semi-trace f invariant on all symmetric elements and
    commutes with the involution.

    An element b with a lift g acts on even elements as x -> g x g^-1.  The
    trace is cyclic, so f(g s g^-1) = trace(g^-1 l g s) for the
    representative l: f after b is the semi-trace of g^-1 l g, which equals
    f on every symmetric element exactly when g^-1 l g - l is alternating,
    because Sym^perp = Alt (`trace_orthogonality`, checked once per cell).
    Conjugation commutes with the involution when tau(g) g is a nonzero
    scalar.  Generators suffice because both properties compose (see the
    module docstring).
    """
    ring, n, l = f.ring, f.n, f.rep
    out = trace_orthogonality(ring, n)
    named = [("swap", 1, None), ("scale", 1, None)]
    named += [("perm", i, i + 1) for i in range(1, n)]
    named.append(("eichler_vv", 1, 2))
    for kind, i, j in named:
        problem = invariance_problem(l, *lift_polynomial(ring, n, kind, i, j))
        if problem:
            out.fail(f"{kind}{i}{'' if j is None else j}: {problem}")
    if out.passed:
        out.note(
            f"the group generated by the {len(named)} named generators, all parameter values, "
            "preserves the semi-trace and the involution"
        )
    return out
