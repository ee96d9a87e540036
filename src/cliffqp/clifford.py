"""The split Clifford algebra of the hyperbolic form, realized faithfully
as endomorphisms of wedge V.

The generator v_i acts as left wedge multiplication and v_i^* as the
dual-basis contraction, so every algebra element is a concrete
2^n x 2^n `Matrix` and equality is decidable.  Generator matrices have
at most one nonzero per column, so generator words and monomials stay
sparse in that one format.  The (row, col, sign) support of each
generator is built once per n (`_generator_units`), and the 2n supports
are disjoint: `phi_vector` places +-m_k on the supports of its nonzero
coefficients, with no sum over the generator matrices.  `relation_suite`
checks that, so Phi is linear and Phi(m)^2 = q(m) Id follows for every m
from the generator identities by polarization.  Each generator
is a signed partial permutation, so a generator word is one too:
`word_support` composes the supports along the word by index arithmetic,
cached per (n, word) and ring-free; `generator_matrix` and `phi_word`
place +-1 on the composed support, with no product, and the generator
identities of `relation_suite` sum supports, with no matrix.  Matrices
are immutable, so `generator_matrix` hands every caller the one cached
matrix.  The
canonical involution is the adjoint of the subset pairing, G^-1 x^T G.
The Gram matrix G is a signed permutation, so the involution moves each
matrix unit to +- one unit, the one `tau_unit` names; `tau_relabel`
applies this unit rule to an element in one pass, and the alternating
membership test reads its orbits.  `involution_suite` certifies the rule:
it is the adjoint on every unit and anti-multiplicative on every pair of
units, so on every pair of elements by bilinearity;
`sampling.involution_pairs` checks `canonical_involution`, which moves
rows, against it on random pairs.
An element's coordinates are its matrix entries, row by row: column
r * 2^n + c holds E_rc.  The type of the
involution on the even part is read off the whole Gram matrix, which
preserves parity for even n, and `predicted_even_involution` states the
paper's rule for it once.
The 4^n ordered generator products form a monomial basis with a
division-free coordinate decomposition (their leading entries are +-1
and triangular by degree); no check uses it, it backs the n <= 4 oracle
for the group action (`group.clifford_action`), and the tests rebuild
elements from its coordinates by their own products of generators.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Sequence

from .errors import DomainError, EligibilityError, UnsupportedRingError, UsageError
from .exterior import mask_size, sign_exponent
from .forms import HyperbolicSpace, b_wedge_gram, classify_bilinear
from .linalg import Matrix, signed_perm_inverse
from .reporting import CheckOutcome
from .rings import Element, Ring

# --- generators -----------------------------------------------------------


@cache
def _generator_units(n: int, k: int) -> tuple[tuple[int, int, int], ...]:
    """The support of the k-th generator, one (row, col, sign parity) per
    nonzero, a +-1, in column order; the supports of the 2n generators are
    disjoint."""
    dim = 1 << n
    if k < n:
        bit = 1 << k  # left multiplication by v_{k+1}
        units = ((col | bit, col) for col in range(dim) if not col & bit)
    else:
        bit = 1 << (2 * n - k - 1)  # contraction by the matching dual vector
        units = ((col & ~bit, col) for col in range(dim) if col & bit)
    return tuple((r, c, mask_size(c & (bit - 1)) & 1) for r, c in units)


@cache
def word_support(n: int, word: tuple[int, ...]) -> tuple[tuple[int, int, int], ...]:
    """The support of the generator product Phi(e_k1) ... Phi(e_km) for the
    word (k1, ..., km), one (row, col, sign parity) per nonzero, a +-1, in
    column order; the empty word gives the identity's support.

    Each generator support must hit every row and every column at most
    once, or DomainError is raised; a product of such signed partial
    permutations is one as well, so its support follows each column of the
    rightmost factor through the others, with no sum and no ring."""
    if not word:
        return tuple((c, c, 0) for c in range(1 << n))
    if len(word) == 1:
        units = _generator_units(n, word[0])
        if len({c for _, c, _ in units}) != len(units) or len({r for r, _, _ in units}) != len(units):
            raise DomainError(f"the support of generator {word[0]} hits a row or a column twice")
        return units
    left = {c: (r, p) for r, c, p in word_support(n, word[:1])}
    return tuple(
        (left[r][0], c, p ^ left[r][1]) for r, c, p in word_support(n, word[1:]) if r in left
    )


def _word_matrix(ring: Ring, n: int, word: tuple[int, ...]) -> Matrix:
    """The matrix of a generator word, +-1 placed on its `word_support`."""
    dim = 1 << n
    return Matrix.from_places(ring, dim, dim, (ring.one, ring.sign(1)), word_support(n, word))


@cache
def generator_matrix(ring: Ring, n: int, k: int) -> Matrix:
    """The matrix of the k-th generator, cached and shared."""
    return _word_matrix(ring, n, (k,))


# --- algebra elements -----------------------------------------------------


@dataclass(frozen=True)
class CliffordElement:
    """An element of the algebra as a 2^n x 2^n matrix acting on wedge V."""

    ring: Ring
    n: int
    matrix: Matrix

    def __post_init__(self):
        dim = 1 << self.n
        if self.matrix.rows != dim or self.matrix.cols != dim:
            raise UsageError(f"matrix must be {dim}x{dim} for n={self.n}")
        if self.matrix.ring is not self.ring and self.matrix.ring != self.ring:
            raise UsageError(f"matrix over {self.matrix.ring.name}, element over {self.ring.name}")

    @classmethod
    def identity(cls, ring: Ring, n: int) -> "CliffordElement":
        return cls(ring, n, Matrix.identity(ring, 1 << n))

    @classmethod
    def scalar(cls, ring: Ring, n: int, c: Element) -> "CliffordElement":
        return cls(ring, n, Matrix.scalar(ring, 1 << n, c))

    @classmethod
    def zero(cls, ring: Ring, n: int) -> "CliffordElement":
        return cls(ring, n, Matrix.zeros(ring, 1 << n, 1 << n))

    def _wrap(self, m: Matrix) -> "CliffordElement":
        return CliffordElement(self.ring, self.n, m)

    def __add__(self, other: "CliffordElement") -> "CliffordElement":
        return self._wrap(self.matrix + other.matrix)

    def __sub__(self, other: "CliffordElement") -> "CliffordElement":
        return self._wrap(self.matrix - other.matrix)

    def __neg__(self) -> "CliffordElement":
        return self._wrap(-self.matrix)

    def __mul__(self, other: "CliffordElement") -> "CliffordElement":
        return self._wrap(self.matrix * other.matrix)

    def scale(self, c: Element) -> "CliffordElement":
        return self._wrap(self.matrix.scale(c))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CliffordElement)
            and self.n == other.n
            and self.matrix == other.matrix
        )

    @property
    def parity(self) -> str:
        """'even', 'odd' or 'mixed' from the matrix support; zero is even."""
        has_even = has_odd = False
        for r, c, _ in self.matrix.nonzeros():
            if (mask_size(r) ^ mask_size(c)) & 1:
                has_odd = True
            else:
                has_even = True
        if has_even and has_odd:
            return "mixed"
        return "odd" if has_odd else "even"

    def __repr__(self) -> str:
        return f"CliffordElement(n={self.n}, {self.matrix!r})"


def phi_word(ring: Ring, n: int, labels: Sequence[str]) -> CliffordElement:
    """Image of a generator word, e.g. ("v1", "v2*"), placed on the
    support `word_support` composes."""
    hs = HyperbolicSpace(ring, n)
    return CliffordElement(ring, n, _word_matrix(ring, n, tuple(map(hs.index_of, labels))))


def phi_vector(ring: Ring, n: int, coeffs: Sequence[Element]) -> CliffordElement:
    """Image of a module element of H(V): the sum of scaled generators,
    placed as +-m_k on the support of each generator with m_k nonzero;
    the supports are disjoint, so nothing is summed."""
    if len(coeffs) != 2 * n:
        raise UsageError(f"expected {2 * n} coefficients")
    values = [*coeffs, *map(ring.neg, coeffs)]  # value k + 2n is -m_k
    places = (
        (r, c, k + 2 * n * parity)
        for k, m in enumerate(coeffs)
        if not ring.is_zero(m)
        for r, c, parity in _generator_units(n, k)
    )
    dim = 1 << n
    return CliffordElement(ring, n, Matrix.from_places(ring, dim, dim, values, places))


# --- canonical involution and trace ---------------------------------------

@cache
def _gram_inverse(ring: Ring, n: int) -> Matrix:
    return signed_perm_inverse(b_wedge_gram(ring, n))


def canonical_involution(x: CliffordElement) -> CliffordElement:
    """Adjoint involution of the subset pairing: G^-1 x^T G, computed as
    G^-1 (G^-1 x)^T since G^T = G^-1, so `matmul` only moves rows."""
    ginv = _gram_inverse(x.ring, x.n)
    return CliffordElement(x.ring, x.n, ginv * (ginv * x.matrix).transpose())


def tau_unit(n: int, a: int, b: int) -> tuple[int, int, int]:
    """Image of the matrix unit E_ab under the involution.

    Returns (sign parity, row, col): tau(E_ab) = +-E_{b^c, a^c} with sign
    (-1)**(sign parity) determined by the Gram signs of a and b.
    """
    full = (1 << n) - 1
    parity = (sign_exponent(a) + sign_exponent(b)) & 1
    return parity, full ^ b, full ^ a


def tau_relabel(x: CliffordElement) -> CliffordElement:
    """The involution as the unit rule: every nonzero of x moved to the
    signed unit `tau_unit` names, in one pass (`Matrix.linear_image`).
    `involution_suite` certifies the rule, and `sampling.involution_pairs`
    checks `canonical_involution` against it."""
    n, dim = x.n, 1 << x.n

    def image(a: int, b: int) -> tuple[tuple[int, int, int]]:
        parity, r, c = tau_unit(n, a, b)
        return ((r, c, parity),)

    return CliffordElement(x.ring, n, Matrix.linear_image(x.matrix, dim, dim, image))


def reduced_trace(x: CliffordElement) -> Element:
    """The matrix trace; on the even part this is the sum of block traces."""
    return x.matrix.trace()


# --- parity blocks ---------------------------------------------------------


@cache
def parity_masks(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Masks of even and of odd popcount, each in ascending order; built
    once per n and shared, so they are tuples."""
    even = tuple(m for m in range(1 << n) if mask_size(m) % 2 == 0)
    odd = tuple(m for m in range(1 << n) if mask_size(m) % 2 == 1)
    return even, odd


# --- relation suite ---------------------------------------------------------


def relation_suite(ring: Ring, n: int) -> CheckOutcome:
    """Check the defining relations of the algebra on the generator
    supports, and certify Phi(m)^2 = q(m) * Id for every module element m.

    Every generator word is a signed partial permutation (`word_support`),
    so the identities on all (2n)^2 ordered generator pairs need no matrix:
    Phi(e_k)^2 = 0 exactly when the support of (k, k) is empty, and for
    k < l, Phi(e_k) Phi(e_l) + Phi(e_l) Phi(e_k) = b(e_k, e_l) Id is
    compared per unit as a sum of +-1 in Z mapped by `Ring.from_int`, where
    q(e_k) = 0 and the polar b(e_k, e_l) of the hyperbolic form is 1 for a
    dual pair and 0 otherwise, as checked on `HyperbolicSpace.q` itself.
    Two premises make
    `phi_vector` linear: the 2n generator supports are pairwise disjoint, so
    placing +-m_k on each overwrites nothing, and phi_vector(e_k) is the k-th
    generator matrix.  Then Phi(m) = sum m_k Phi(e_k), and
    Phi(m)^2 = sum_k m_k^2 Phi(e_k)^2 + sum_{k<l} m_k m_l (Phi(e_k) Phi(e_l)
    + Phi(e_l) Phi(e_k)) = q(m) Id by polarization, for every m.
    """
    out = CheckOutcome()
    hs = HyperbolicSpace(ring, n)
    dim, labels = 1 << n, hs.labels()
    e = [[ring.one if i == k else ring.zero for i in range(2 * n)] for k in range(2 * n)]
    (qe, polars), owner, pairs = hs.polars(e), {}, 0
    for k, label in enumerate(labels):
        pairs += 1  # (k, k)
        if word_support(n, (k, k)):
            out.fail(f"{label}^2 is not 0")
        for l in range(k, 2 * n):
            polar = int(k + l == 2 * n - 1)  # position 2n - 1 - k holds the dual of generator k
            got = qe[k] if k == l else polars[k, l]
            if not ring.eq(got, ring.from_int(polar)):
                form = f"q({label})" if k == l else f"b({label}, {labels[l]})"
                out.fail(f"{form} = {ring.show(got)}, but the generator identities need {polar}")
            if k == l:
                continue
            pairs += 2  # (k, l) and (l, k)
            # Phi(e_k) Phi(e_l) + Phi(e_l) Phi(e_k) - b(e_k, e_l) Id, over Z
            diff = {(c, c): -1 for c in range(dim)} if polar else {}
            for r, c, p in word_support(n, (k, l)) + word_support(n, (l, k)):
                diff[r, c] = diff.get((r, c), 0) + 1 - 2 * p
            wrong = [u for u, x in diff.items() if x and not ring.is_zero(ring.from_int(x))]
            if wrong:
                other = labels[l]
                out.fail(f"{label} {other} + {other} {label} is not {polar} Id on unit {min(wrong)}")
        for r, c, _ in _generator_units(n, k):
            first = owner.setdefault(r * dim + c, k)
            if first != k:
                out.fail_unit(f"the supports of {labels[first]} and {label} overlap", (r, c))
        # generator_matrix's matrix, built without filling its cache
        if phi_vector(ring, n, e[k]).matrix != _word_matrix(ring, n, (k,)):
            out.fail(f"phi_vector(e_{k}) is not the generator matrix of {label}")

    if out.passed:
        out.note(
            f"relations hold for n={n} over {ring.name}: Phi(m)^2 = q(m) Id for every m, by "
            f"polarization over all {pairs} generator pairs"
        )
    return out


# --- monomial basis ---------------------------------------------------------


class MonomialBasis:
    """The 4^n ordered products of distinct generators, with decomposition.

    Subsets of the 2n generators are indexed by bitmask (bit k is the k-th
    generator in the fixed order), and the monomial is the product in
    ascending generator order.  Each monomial has a leading matrix entry
    of +-1 that no monomial of equal or higher degree shares, so peeling
    by ascending degree recovers coordinates without any division.
    """

    def __init__(self, ring: Ring, n: int):
        if not ring.is_field:
            raise UnsupportedRingError(f"monomial decomposition needs a field, not {ring.name}")
        if n > 4:
            raise UsageError("monomial decomposition is sized for n <= 4")
        self.ring = ring
        self.n = n
        self.size = 1 << (2 * n)
        self.dim = 1 << n
        self._monomials: list[Matrix] = [Matrix.identity(ring, self.dim)]
        for mask in range(1, self.size):
            low = (mask & -mask).bit_length() - 1
            rest = self._monomials[mask & (mask - 1)]
            self._monomials.append(generator_matrix(ring, n, low) * rest)
        self._leads = [self._lead_entry(mask) for mask in range(self.size)]
        self.peel_order = sorted(range(self.size), key=lambda m: (mask_size(m), m))

    def _lead_entry(self, mask: int) -> tuple[int, int, Element]:
        n = self.n
        row = mask & ((1 << n) - 1)  # plain generators map to their wedge bits
        col = 0
        for k in range(n, 2 * n):
            if mask >> k & 1:
                col |= 1 << (2 * n - k - 1)
        return row, col, self._monomials[mask].at(row, col)

    def decompose(self, x: CliffordElement) -> list:
        """Coordinates of x in the monomial basis, indexed by subset mask."""
        return self.decompose_sparse(x.matrix)

    def decompose_sparse(self, m: Matrix) -> list:
        """Coordinates of a 2^n x 2^n matrix, peeling one leading nonzero
        per monomial off the residual."""
        ring = self.ring
        residual = m
        coords = [ring.zero] * self.size
        for mask in self.peel_order:
            row, col, lead = self._leads[mask]
            entry = residual.at(row, col)
            if ring.is_zero(entry):
                continue
            c = entry if ring.is_one(lead) else ring.neg(entry)
            coords[mask] = c
            residual = residual - self._monomials[mask].scale(c)
        if not residual.is_zero():
            raise DomainError("decomposition left a nonzero residual")
        return coords


@cache
def monomial_basis(ring: Ring, n: int) -> MonomialBasis:
    return MonomialBasis(ring, n)


def involution_suite(ring: Ring, n: int) -> CheckOutcome:
    """The involution is the adjoint G^-1 x^T G on every matrix unit,
    squares to the identity there, fixes every generator, and is
    anti-multiplicative on every pair of elements.

    G must hold one nonzero g_a per row a, at (a, pi(a)), with pi injective
    and every g_a^2 = 1: a signed permutation.  These premises are checked
    on the rows of G, in O(2^n); if one fails, nothing else is.  The adjoint
    of E_ab is then G^-1 E_ba G = g_a g_b E_{pi(b), pi(a)}, and the walk over
    the units checks `tau_unit` against it on each one; by linearity the
    unit rule is the adjoint on every element.  The rule is
    anti-multiplicative on all 16^n pairs of units:
    tau(E_cd) tau(E_ab) = g_c g_d g_a g_b E_{pi(d), pi(c)} E_{pi(b), pi(a)}
    = [b == c] g_a g_d E_{pi(d), pi(a)} = tau(E_ab E_cd), since pi(c) = pi(b)
    only when c = b (pi injective), and then g_b^2 = 1.  By bilinearity
    tau(xy) = tau(y) tau(x) for every pair x, y, at every n.  The note
    counts the units the walk visited; the 16^n unit pairs follow from
    this argument, not from a walk.
    """
    out = CheckOutcome()
    dim = 1 << n
    nonzeros = list(b_wedge_gram(ring, n).nonzeros())
    gram = {a: (pa, g) for a, pa, g in nonzeros}
    if len(nonzeros) != dim or len(gram) != dim:
        out.fail("the Gram matrix does not hold exactly one nonzero per row")
    elif len({pa for pa, _ in gram.values()}) != dim:
        out.fail("the Gram matrix hits a column twice, so pi is not injective")
    elif unsquared := [a for a, (_, g) in gram.items() if not ring.is_one(ring.mul(g, g))]:
        more = f" and {len(unsquared) - 1} more rows" if len(unsquared) > 1 else ""
        out.fail(f"the Gram entry g_a of row {unsquared[0]}{more} does not square to 1")
    if not out.passed:
        return out
    units = 0
    for a in range(dim):
        for b in range(dim):
            units += 1
            p1, r1, c1 = tau_unit(n, a, b)
            (pa, ga), (pb, gb) = gram[a], gram[b]
            if (r1, c1) != (pb, pa) or not ring.eq(ring.sign(p1), ring.mul(ga, gb)):
                out.fail_unit("involution is not the adjoint G^-1 x^T G", (a, b))
            p2, r2, c2 = tau_unit(n, r1, c1)
            if (r2, c2) != (a, b) or (p1 + p2) % 2 != 0:
                out.fail_unit("involution does not square to the identity", (a, b))
    for k, label in enumerate(HyperbolicSpace(ring, n).labels()):
        g = CliffordElement(ring, n, generator_matrix(ring, n, k))
        if canonical_involution(g) != g:
            out.fail(f"involution moves generator {label}")
    if out.passed:
        out.note(
            f"involution is the adjoint on all {units} units, squares to the identity, fixes all "
            f"generators and is anti-multiplicative on all {16 ** n} unit pairs (n={n})"
        )
    return out


# --- involution type on the even part ---------------------------------------


def predicted_even_involution(ring: Ring, n: int) -> str:
    """The paper's rule for the type of the involution on the even part:
    odd n moves the center; in characteristic 2 the Gram matrix is both
    symmetric and alternating at every even n; otherwise the involution is
    orthogonal when 4 | n, that is 8 | 2n, and symplectic when n = 2 mod 4.
    """
    if n % 2 == 1:
        return "center-nontrivial"
    if ring.char == 2:
        return "orthogonal+symplectic"
    return "orthogonal" if n % 4 == 0 else "symplectic"


def classify_even_involution(ring: Ring, n: int) -> str:
    """Type of the involution restricted to the even part, in the words of
    `predicted_even_involution`.

    The center of the even algebra is spanned by the two parity-block
    identities; the involution either fixes both (n even) or swaps them
    (n odd).  When it fixes them, the Gram matrix preserves parity, so its
    labels are exactly those both parity blocks share: symmetric gives an
    orthogonal involution, alternating a symplectic one, and in
    characteristic 2 both can hold at once.
    """
    if n < 2:
        raise EligibilityError("the even involution type needs n >= 2")
    dim = 1 << n
    for masks in parity_masks(n):
        e = CliffordElement(ring, n, Matrix.from_nonzeros(ring, dim, dim, ((m, m, ring.one) for m in masks)))
        if canonical_involution(e) != e:
            return "center-nontrivial"
    labels = classify_bilinear(b_wedge_gram(ring, n))
    kinds = [kind for label, kind in (("symmetric", "orthogonal"), ("alternating", "symplectic")) if label in labels]
    return "+".join(kinds) or "unclassified"
