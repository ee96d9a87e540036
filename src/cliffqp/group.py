"""The orthogonal group of the hyperbolic form and its action on the
Clifford algebra.

Group elements are certified by checking the quadratic form on basis
vectors and the polar form on basis pairs, which together force
preservation everywhere.  The action replaces each generator in a
monomial by its image and recombines by linearity; it is computed through
the monomial decomposition rather than by conjugating with a lifted
matrix, since the even-algebra automorphism need not be inner by a single
parity-preserving matrix.
"""

from __future__ import annotations

from functools import cache

from .canonical import canonical_semitrace, semitrace_eligibility
from .clifford import CliffordElement, canonical_involution, monomial_basis, phi_vector
from .errors import DomainError, EligibilityError, UsageError
from .forms import HyperbolicSpace
from .involution import sym_basis
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
    ring = b.ring
    n = b.rows // 2
    hs = HyperbolicSpace(ring, n)
    cols = [b.col(k) for k in range(2 * n)]
    for k in range(2 * n):
        want = ring.zero  # hyperbolic basis vectors are isotropic
        if not ring.eq(hs.q(cols[k]), want):
            return False
    form = hs.quadratic_form()
    basis = []
    for k in range(2 * n):
        e = [ring.zero] * (2 * n)
        e[k] = ring.one
        basis.append(e)
    for k in range(2 * n):
        for l in range(k, 2 * n):
            if not ring.eq(form.polar(cols[k], cols[l]), form.polar(basis[k], basis[l])):
                return False
    return True


# --- certified generators -----------------------------------------------------


def hyperbolic_swap(ring: Ring, n: int, i: int) -> Matrix:
    """Swap v_i with v_i^*, fixing the other basis vectors."""
    hs = HyperbolicSpace(ring, n)
    m = Matrix.identity(ring, 2 * n)
    vi, di = hs.vector_index(i), hs.dual_index(i)
    m.put(vi, vi, ring.zero)
    m.put(di, di, ring.zero)
    m.put(di, vi, ring.one)
    m.put(vi, di, ring.one)
    return m


def pair_permutation(ring: Ring, n: int, i: int, j: int) -> Matrix:
    """Swap the hyperbolic pairs (v_i, v_i^*) and (v_j, v_j^*)."""
    hs = HyperbolicSpace(ring, n)
    m = Matrix.identity(ring, 2 * n)
    for a, b in ((hs.vector_index(i), hs.vector_index(j)), (hs.dual_index(i), hs.dual_index(j))):
        m.put(a, a, ring.zero)
        m.put(b, b, ring.zero)
        m.put(b, a, ring.one)
        m.put(a, b, ring.one)
    return m


def hyperbolic_scale(ring: Ring, n: int, i: int, u: Element) -> Matrix:
    """Scale v_i by the unit u and v_i^* by its inverse."""
    hs = HyperbolicSpace(ring, n)
    m = Matrix.identity(ring, 2 * n)
    m.put(hs.vector_index(i), hs.vector_index(i), u)
    m.put(hs.dual_index(i), hs.dual_index(i), ring.inv(u))
    return m


def eichler_vv(ring: Ring, n: int, i: int, j: int, t: Element) -> Matrix:
    """v_i -> v_i + t v_j with the dual correction; form-preserving over any ring."""
    if i == j:
        raise UsageError("distinct indices required")
    hs = HyperbolicSpace(ring, n)
    m = Matrix.identity(ring, 2 * n)
    m.put(hs.vector_index(j), hs.vector_index(i), t)
    m.put(hs.dual_index(i), hs.dual_index(j), ring.neg(t))
    return m


def eichler_vd(ring: Ring, n: int, i: int, j: int, t: Element) -> Matrix:
    """v_i -> v_i + t v_j^*, v_j -> v_j - t v_i^*; form-preserving over any ring."""
    if i == j:
        raise UsageError("distinct indices required")
    hs = HyperbolicSpace(ring, n)
    m = Matrix.identity(ring, 2 * n)
    m.put(hs.dual_index(j), hs.vector_index(i), t)
    m.put(hs.dual_index(i), hs.vector_index(j), ring.neg(t))
    return m


def eichler_dv(ring: Ring, n: int, i: int, j: int, t: Element) -> Matrix:
    """v_i^* -> v_i^* + t v_j, v_j^* -> v_j^* - t v_i; form-preserving over any ring."""
    if i == j:
        raise UsageError("distinct indices required")
    hs = HyperbolicSpace(ring, n)
    m = Matrix.identity(ring, 2 * n)
    m.put(hs.vector_index(j), hs.dual_index(i), t)
    m.put(hs.vector_index(i), hs.dual_index(j), ring.neg(t))
    return m


def transvection_pair(ring: Ring, n: int, i: int, j: int, t: Element) -> Matrix:
    """v_j -> v_j + t v_i together with v_i^* -> v_i^* + t v_j^*.

    The polar cross term is 2t, so this preserves the form exactly when
    the ring has characteristic 2.
    """
    if i == j:
        raise UsageError("distinct indices required")
    hs = HyperbolicSpace(ring, n)
    m = Matrix.identity(ring, 2 * n)
    m.put(hs.vector_index(i), hs.vector_index(j), t)
    m.put(hs.dual_index(j), hs.dual_index(i), t)
    return m


def _nonzero(ring: Ring, rng) -> Element:
    while True:
        t = ring.sample(rng)
        if not ring.is_zero(t):
            return t


def sample_orthogonal(ring: Ring, n: int, rng, max_word: int = 3) -> tuple[str, Matrix]:
    """A certified orthogonal element: a short word in explicit generators."""
    if n < 2:
        raise UsageError("sampling needs at least two hyperbolic pairs")
    kinds = ["swap", "perm", "scale", "eichler_vv", "eichler_vd", "eichler_dv"]
    if ring.char == 2:
        kinds.append("transvection")
    word_len = rng.randint(1, max_word)
    m = Matrix.identity(ring, 2 * n)
    parts = []
    for _ in range(word_len):
        kind = rng.choice(kinds)
        i = rng.randint(1, n)
        j = rng.randint(1, n)
        while j == i:
            j = rng.randint(1, n)
        if kind == "swap":
            g = hyperbolic_swap(ring, n, i)
            parts.append(f"swap{i}")
        elif kind == "perm":
            g = pair_permutation(ring, n, i, j)
            parts.append(f"perm{i}{j}")
        elif kind == "scale":
            u = _nonzero(ring, rng)
            g = hyperbolic_scale(ring, n, i, u)
            parts.append(f"scale{i}({ring.show(u)})")
        else:
            t = _nonzero(ring, rng)
            maker = {
                "eichler_vv": eichler_vv,
                "eichler_vd": eichler_vd,
                "eichler_dv": eichler_dv,
                "transvection": transvection_pair,
            }[kind]
            g = maker(ring, n, i, j, t)
            parts.append(f"{kind}{i}{j}({ring.show(t)})")
        m = matmul(m, g)
    if not is_orthogonal(m):
        raise DomainError(f"sampled word {'.'.join(parts)} failed certification")
    return ".".join(parts), m


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
    """The algebra automorphism induced by an orthogonal element.

    x is decomposed over the monomial basis and every monomial is replaced
    by the product of the images of its generators.
    """
    ring, n = x.ring, x.n
    if b.rows != 2 * n or b.cols != 2 * n or b.ring != ring:
        raise UsageError("the acting matrix must be 2n x 2n over the same ring")
    coords = monomial_basis(ring, n).decompose(x)
    acc = Matrix.zeros(ring, 1 << n, 1 << n)
    for c, image in zip(coords, _transformed_monomials(ring, n, b)):
        acc.axpy(c, image.matrix)
    return CliffordElement(ring, n, acc)


@cache
def _tau_monomial_coords(ring: Ring, n: int) -> list[list[tuple[int, Element]]]:
    """Coordinates of tau(monomial) over the monomial basis, per monomial."""
    mb = monomial_basis(ring, n)
    table = []
    for mask in range(mb.size):
        coords = mb.decompose(canonical_involution(mb.monomial(mask)))
        table.append([(m, c) for m, c in enumerate(coords) if not ring.is_zero(c)])
    return table


def pgo_invariance(ring: Ring, n: int, rng, samples: int = 50) -> CheckOutcome:
    """Sampled orthogonal elements leave the canonical semi-trace invariant
    on the full symmetric basis and commute with the involution.

    The semi-trace comparison is done at the level of linear functionals in
    monomial coordinates, so it covers every symmetric basis vector exactly;
    the involution check is the operator identity on all monomials.
    """
    ok, reason = semitrace_eligibility(ring, n)
    if not ok:
        raise EligibilityError(reason)
    if n > 4:
        raise EligibilityError("action decomposition sized for n <= 4")
    out = CheckOutcome()
    f = canonical_semitrace(ring, n)
    mb = monomial_basis(ring, n)
    w0 = [f.evaluate(mb.monomial(mask)) for mask in range(mb.size)]
    sym_coords = []
    for elem in sym_basis(ring, n).elements():
        coords = mb.decompose(elem)
        sym_coords.append([(m, c) for m, c in enumerate(coords) if not ring.is_zero(c)])
    tau_table = _tau_monomial_coords(ring, n)
    ident = CliffordElement.identity(ring, n)

    for s in range(samples):
        desc, b = sample_orthogonal(ring, n, rng)
        transformed = _transformed_monomials(ring, n, b)
        if transformed[0] != ident:
            out.fail(f"{desc}: image of the identity is not the identity")
        wb = [f.evaluate(image) for image in transformed]
        for idx, coords in enumerate(sym_coords):
            delta = ring.zero
            for mask, c in coords:
                delta = ring.add(delta, ring.mul(c, ring.sub(wb[mask], w0[mask])))
            if not ring.is_zero(delta):
                out.fail(
                    f"{desc}: semi-trace moved on symmetric basis vector {idx} "
                    f"by {ring.show(delta)}"
                )
                break
        for mask, image in enumerate(transformed):
            rhs = Matrix.zeros(ring, 1 << n, 1 << n)
            for tmask, c in tau_table[mask]:
                rhs.axpy(c, transformed[tmask].matrix)
            if canonical_involution(image).matrix != rhs:
                out.fail(f"{desc}: involution does not commute on monomial {mask}")
                break
    if out.passed:
        out.note(f"{samples} certified orthogonal elements preserve the semi-trace and the involution")
    return out
