"""The split Clifford algebra of the hyperbolic form, realized faithfully
as endomorphisms of wedge V.

The generator v_i acts as left wedge multiplication and v_i^* as the
dual-basis contraction, so every algebra element is a concrete
2^n x 2^n `Matrix` and equality is decidable.  Generator matrices have
at most one nonzero per column, so generator words and monomials stay
sparse in that one format.  Matrices are immutable, so
`generator_matrix` hands every caller the one cached matrix.  The
canonical involution is the adjoint of the subset pairing, G^-1 x^T G.
The Gram matrix G is a signed permutation, so the involution moves each
matrix unit to +- one unit, the one `tau_unit` names; the alternating
membership test reads those orbits, and `involution_suite` checks every
unit against the adjoint.
An element's coordinates are its `Matrix.entries`; the parity blocks
are cut out (`even_blocks`) only for the even-involution type report.
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
def generator_matrix(ring: Ring, n: int, k: int) -> Matrix:
    """The matrix of the k-th generator, cached and shared."""
    dim = 1 << n
    if k < n:
        bit = 1 << k  # left multiplication by v_{k+1}
        units = ((col | bit, col) for col in range(dim) if not col & bit)
    else:
        bit = 1 << (2 * n - k - 1)  # contraction by the matching dual vector
        units = ((col & ~bit, col) for col in range(dim) if col & bit)
    return Matrix.from_nonzeros(
        ring, dim, dim, ((r, c, ring.sign(mask_size(c & (bit - 1)))) for r, c in units)
    )


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
    """Image of a generator word, e.g. ("v1", "v2*"), as a matrix product."""
    hs = HyperbolicSpace(ring, n)
    m = Matrix.identity(ring, 1 << n)
    for label in labels:
        m = m * generator_matrix(ring, n, hs.index_of(label))
    return CliffordElement(ring, n, m)


def phi_vector(ring: Ring, n: int, coeffs: Sequence[Element]) -> CliffordElement:
    """Image of a module element of H(V): the sum of scaled generators."""
    if len(coeffs) != 2 * n:
        raise UsageError(f"expected {2 * n} coefficients")
    gens = (generator_matrix(ring, n, k) for k in range(2 * n))
    return CliffordElement(ring, n, Matrix.combination(ring, 1 << n, 1 << n, zip(coeffs, gens)))


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


def reduced_trace(x: CliffordElement) -> Element:
    """The matrix trace; on the even part this is the sum of block traces."""
    return x.matrix.trace()


# --- parity blocks ---------------------------------------------------------


def parity_masks(n: int) -> tuple[list[int], list[int]]:
    """Masks of even and of odd popcount, each in ascending order."""
    even = [m for m in range(1 << n) if mask_size(m) % 2 == 0]
    odd = [m for m in range(1 << n) if mask_size(m) % 2 == 1]
    return even, odd


def even_blocks(x: CliffordElement) -> tuple[Matrix, Matrix]:
    """The two diagonal blocks of an even element, in parity-sorted order."""
    if x.parity != "even":
        raise UsageError("parity blocks need an even element")
    blocks = []
    for masks in parity_masks(x.n):
        index = {m: i for i, m in enumerate(masks)}  # an even x keeps r and c in one block
        triples = ((index[r], index[c], v) for r, c, v in x.matrix.nonzeros() if r in index)
        blocks.append(Matrix.from_nonzeros(x.ring, len(masks), len(masks), triples))
    return blocks[0], blocks[1]


# --- relation suite ---------------------------------------------------------


def relation_suite(ring: Ring, n: int, rng, trials: int = 100) -> CheckOutcome:
    """Check the defining relations of the algebra as matrix identities.

    The six generator families: squares of the v_i and of the v_i^* vanish,
    distinct v's anticommute, distinct duals anticommute, v_i v_i^* is
    1 - v_i^* v_i, and mixed pairs with distinct indices anticommute.
    On top of that, Phi(m)^2 = q(m) * Id for random module elements m.
    """
    out = CheckOutcome()
    hs = HyperbolicSpace(ring, n)
    gens = [generator_matrix(ring, n, k) for k in range(2 * n)]
    zero = Matrix.zeros(ring, 1 << n, 1 << n)
    ident = Matrix.identity(ring, 1 << n)

    def check(name: str, got: Matrix, want: Matrix) -> None:
        if got != want:
            out.fail(f"{name}: got {got!r}, want {want!r}")

    for i in range(n):
        vi, di = gens[i], gens[hs.dual_index(i + 1)]
        check(f"v{i + 1}^2 = 0", vi * vi, zero)
        check(f"(v{i + 1}*)^2 = 0", di * di, zero)
        check(f"v{i + 1} v{i + 1}* = 1 - v{i + 1}* v{i + 1}", vi * di, ident - di * vi)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            vi, vj = gens[i], gens[j]
            di = gens[hs.dual_index(i + 1)]
            dj = gens[hs.dual_index(j + 1)]
            if i < j:
                check(f"v{i + 1} v{j + 1} = -v{j + 1} v{i + 1}", vi * vj, -(vj * vi))
                check(f"v{i + 1}* v{j + 1}* = -v{j + 1}* v{i + 1}*", di * dj, -(dj * di))
            check(f"v{i + 1} v{j + 1}* = -v{j + 1}* v{i + 1}", vi * dj, -(dj * vi))

    for t in range(trials):
        coeffs = [ring.sample(rng) for _ in range(2 * n)]
        phi = phi_vector(ring, n, coeffs).matrix
        square = phi * phi
        qm = hs.q(coeffs)
        if square != ident.scale(qm):
            out.fail(
                f"Phi(m)^2 != q(m) Id for m={coeffs!r} (trial {t}): "
                f"q(m)={ring.show(qm)}, square={square!r}"
            )
    if out.passed:
        out.note(f"relations hold for n={n} over {ring.name} ({trials} random module elements)")
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


def involution_suite(ring: Ring, n: int, rng, pairs: int = 100) -> CheckOutcome:
    """The involution is the adjoint G^-1 x^T G on every matrix unit, fixes
    every generator, squares to the identity on all matrix units, and is
    anti-multiplicative on random pairs (n <= 4).

    G has one nonzero s_m at (m, pi(m)) per row, so the adjoint of E_ab is
    G^-1 E_ba G = s_a s_b E_{pi(b), pi(a)}; by linearity the unit check
    covers every element.
    """
    out = CheckOutcome()
    for k, label in enumerate(HyperbolicSpace(ring, n).labels()):
        g = CliffordElement(ring, n, generator_matrix(ring, n, k))
        if canonical_involution(g) != g:
            out.fail(f"involution moves generator {label}")
    gram = {r: (c, sign) for r, c, sign in b_wedge_gram(ring, n).nonzeros()}
    dim = 1 << n
    for a in range(dim):
        for b in range(dim):
            p1, r1, c1 = tau_unit(n, a, b)
            (pa, sa), (pb, sb) = gram[a], gram[b]
            if (r1, c1) != (pb, pa) or not ring.eq(ring.sign(p1), ring.mul(sa, sb)):
                out.fail(f"involution is not the adjoint G^-1 x^T G on unit ({a}, {b})")
            p2, r2, c2 = tau_unit(n, r1, c1)
            if (r2, c2) != (a, b) or (p1 + p2) % 2 != 0:
                out.fail(f"involution does not square to the identity on unit ({a}, {b})")
    if n <= 4:
        # local: sampling imports this module
        from .sampling import random_clifford_element

        for t in range(pairs):
            x = random_clifford_element(ring, n, rng)
            y = random_clifford_element(ring, n, rng)
            if canonical_involution(x * y) != canonical_involution(y) * canonical_involution(x):
                out.fail(f"involution not anti-multiplicative on random pair {t}")
    if out.passed:
        extra = f"; anti-multiplicative on {pairs} random pairs" if n <= 4 else ""
        out.note(f"involution fixes all generators and squares to the identity (n={n}){extra}")
    return out


# --- involution type on the even part ---------------------------------------


@dataclass(frozen=True)
class EvenInvolutionReport:
    n: int
    ring: Ring
    center_fixed: bool
    block_labels: frozenset[str]
    involution_labels: frozenset[str]

    @property
    def verdict(self) -> str:
        if not self.center_fixed:
            return "center-nontrivial"
        return "+".join(sorted(self.involution_labels)) or "unclassified"


def classify_even_involution(ring: Ring, n: int) -> EvenInvolutionReport:
    """Type of the involution restricted to the even part.

    The center of the even algebra is spanned by the two parity-block
    identities; the involution either fixes both (n even) or swaps them
    (n odd).  When it fixes them, the restricted Gram blocks classify it:
    symmetric blocks give an orthogonal involution, alternating blocks a
    symplectic one, and in characteristic 2 both can hold at once.
    """
    if n < 2:
        raise EligibilityError("the even involution type needs n >= 2")
    dim = 1 << n
    block_identities = (
        CliffordElement(ring, n, Matrix.from_nonzeros(ring, dim, dim, ((m, m, ring.one) for m in masks)))
        for masks in parity_masks(n)
    )
    center_fixed = all(canonical_involution(e) == e for e in block_identities)

    labels: set[str] = set()
    if center_fixed:  # so n is even and the Gram matrix preserves parity
        for block in even_blocks(CliffordElement(ring, n, b_wedge_gram(ring, n))):
            labels |= classify_bilinear(block)
    involution = set()
    if "symmetric" in labels:
        involution.add("orthogonal")
    if "alternating" in labels:
        involution.add("symplectic")
    return EvenInvolutionReport(
        n=n,
        ring=ring,
        center_fixed=center_fixed,
        block_labels=frozenset(labels),
        involution_labels=frozenset(involution),
    )


def involution_type_matches(report: EvenInvolutionReport) -> tuple[bool, str]:
    """Compare the computed even-involution type with the rank prediction:
    odd n moves the center, n = 0 mod 4 is orthogonal, n = 2 mod 4 is
    symplectic and additionally orthogonal in characteristic 2.
    """
    n, ring = report.n, report.ring
    if n % 2 == 1:
        return (not report.center_fixed), "center-nontrivial"
    if not report.center_fixed:
        return False, "center unexpectedly moved for even n"
    if n % 4 == 0:
        want = "orthogonal"
        return ("orthogonal" in report.involution_labels), want
    want = "symplectic+orthogonal" if ring.char == 2 else "symplectic"
    ok = "symplectic" in report.involution_labels and (
        ring.char != 2 or "orthogonal" in report.involution_labels
    )
    return ok, want
