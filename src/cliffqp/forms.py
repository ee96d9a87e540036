"""Quadratic and bilinear forms: the hyperbolic form on V + V^* and the
pairing of complementary subsets on wedge V.

Quadratic forms are kept as evaluation procedures, never as symmetric
matrices: in characteristic 2 the form and its polar carry genuinely
different information, and conflating them is exactly the mistake this
package exists to avoid.  So polars are computed literally, as
q(x + y) - q(x) - q(y), with q of each vector evaluated once per walk.
"""

from __future__ import annotations

from functools import reduce
from typing import Sequence

from .errors import UsageError
from .exterior import ExteriorVector, sign_exponent
from .linalg import Matrix, signed_perm_inverse
from .reporting import CheckOutcome
from .rings import Element, Ring


class HyperbolicSpace:
    """H(V) = V + V^* with basis ordered (v_1, .., v_n, v_n^*, .., v_1^*)."""

    def __init__(self, ring: Ring, n: int):
        if n < 1:
            raise UsageError("n must be positive")
        self.ring = ring
        self.n = n
        self.dim = 2 * n

    def labels(self) -> list[str]:
        return [f"v{i}" for i in range(1, self.n + 1)] + [
            f"v{i}*" for i in range(self.n, 0, -1)
        ]

    def index_of(self, label: str) -> int:
        try:
            return self.labels().index(label)
        except ValueError:
            raise UsageError(f"unknown basis label {label!r}")

    def vector_index(self, i: int) -> int:
        """Position of v_i."""
        if not 1 <= i <= self.n:
            raise UsageError(f"index {i} outside 1..{self.n}")
        return i - 1

    def dual_index(self, i: int) -> int:
        """Position of v_i^*."""
        if not 1 <= i <= self.n:
            raise UsageError(f"index {i} outside 1..{self.n}")
        return 2 * self.n - i

    def q(self, coeffs: Sequence[Element]) -> Element:
        """The hyperbolic quadratic form: sum over i of x_i * y_i."""
        if len(coeffs) != self.dim:
            raise UsageError(f"expected {self.dim} coefficients")
        ring = self.ring
        total = ring.zero
        for i in range(self.n):
            total = ring.add(total, ring.mul(coeffs[i], coeffs[self.dim - 1 - i]))
        return total

    def polars(self, vectors: list) -> tuple[list, dict]:
        """q of each vector, and the polar q(x + y) - q(x) - q(y) on each pair
        of positions k < l, computed literally: q of each vector once."""
        ring, qs = self.ring, [self.q(x) for x in vectors]
        return qs, {
            (k, l): ring.sub(ring.sub(self.q(list(map(ring.add, x, vectors[l]))), qs[k]), qs[l])
            for k, x in enumerate(vectors)
            for l in range(k + 1, len(vectors))
        }

    def __repr__(self) -> str:
        return f"HyperbolicSpace({self.ring.name}, n={self.n})"


def _complement_sum(x: ExteriorVector, y: ExteriorVector, masks) -> Element:
    """Sum over the given masks I of (-1)**((sum I) - |I|) x_I y_{I^c}."""
    ring = x.ring
    full = (1 << x.n) - 1
    total = ring.zero
    for mask in masks:
        b = y.terms.get(full ^ mask)
        if b is None:
            continue
        term = ring.mul(x.terms[mask], b)
        if sign_exponent(mask) % 2:
            term = ring.neg(term)
        total = ring.add(total, term)
    return total


def b_wedge(x: ExteriorVector, y: ExteriorVector) -> Element:
    """Pairing of complementary subsets:
    sum over I of (-1)**((sum I) - |I|) x_I y_{I^c}.
    """
    if x.n != y.n or (x.ring is not y.ring and x.ring != y.ring):  # `is` skips a Python call
        raise UsageError("operands live in different exterior algebras")
    return _complement_sum(x, y, x.terms)


def b_wedge_gram(ring: Ring, n: int) -> Matrix:
    """Gram matrix of the pairing: one signed entry per row, at (I, I^c)."""
    dim = 1 << n
    full = dim - 1
    return Matrix.from_nonzeros(
        ring, dim, dim, ((mask, full ^ mask, ring.sign(sign_exponent(mask))) for mask in range(dim))
    )


def q_wedge(x: ExteriorVector) -> Element:
    """Quadratic form on wedge V:
    sum over I containing 1 of (-1)**((sum I) - |I|) x_I x_{I^c}.
    """
    return _complement_sum(x, x, (mask for mask in x.terms if mask & 1))


def _polar_gram(ring: Ring, vectors: list[ExteriorVector]) -> Matrix:
    """Gram matrix of the polar form q(x + y) - q(x) - q(y) of q_wedge on
    the given vectors, computed literally, q of each vector once and
    subtracted only where it is nonzero."""
    dim, sub, is_zero = len(vectors), ring.sub, ring.is_zero
    with_q = [(x, () if is_zero(q := q_wedge(x)) else (q,)) for x in vectors]
    triples = (
        (r, c, v)
        for r, (x, qx) in enumerate(with_q)
        for c, (y, qy) in enumerate(with_q)
        if not is_zero(v := reduce(sub, qx + qy, q_wedge(x + y)))
    )
    return Matrix.from_nonzeros(ring, dim, dim, triples)


def q_wedge_polar_gram(ring: Ring, n: int) -> Matrix:
    """Gram matrix of the polar form of q_wedge over the standard basis."""
    return _polar_gram(ring, [ExteriorVector.basis(ring, n, mask) for mask in range(1 << n)])


def q_wedge_hyperbolic_gram(ring: Ring, n: int) -> Matrix:
    """Polar Gram of q_wedge in the rescaled basis that exhibits it as
    hyperbolic: v_I for 1 not in I, and (-1)**((sum I)-|I|) v_I otherwise.

    Basis order: the masks without 1 ascending, then their complements in
    matching order, so a hyperbolic pairing shows up as [[0, I], [I, 0]].
    """
    full = (1 << n) - 1
    without = [m for m in range(1 << n) if not m & 1]
    order = without + [full ^ m for m in without]
    basis = [
        ExteriorVector(ring, n, {mask: ring.sign(sign_exponent(mask)) if mask & 1 else ring.one})
        for mask in order
    ]
    return _polar_gram(ring, basis)


def gram_agreement_suite(ring: Ring, n: int) -> CheckOutcome:
    """Formula vs definition on all basis pairs, plus regularity.

    The subset-pairing formula must agree with the top coefficient of
    reversal(x) wedge y on every basis pair, the Gram matrix must invert
    as a signed permutation, and the rescaled basis must exhibit the
    quadratic form as hyperbolic with polar Gram [[0, I], [I, 0]].
    """
    out = CheckOutcome()
    dim = 1 << n
    basis = [ExteriorVector.basis(ring, n, mask) for mask in range(dim)]
    pairs = 0
    for mi, (x, rx) in enumerate(zip(basis, [v.reversal() for v in basis])):  # each reversed once
        for mj, y in enumerate(basis):
            pairs += 1
            lhs = b_wedge(x, y)
            rhs = rx.wedge(y).pi_top()
            if not ring.eq(lhs, rhs):
                out.fail(
                    f"pairing mismatch at basis pair ({mi}, {mj}): "
                    f"formula {ring.show(lhs)} vs definition {ring.show(rhs)}"
                )
    gram = b_wedge_gram(ring, n)
    inverse = signed_perm_inverse(gram)
    if gram * inverse != Matrix.identity(ring, dim):
        out.fail("Gram matrix times its signed-permutation inverse is not the identity")
    hyper = q_wedge_hyperbolic_gram(ring, n)
    half = dim // 2
    block = Matrix.from_places(ring, dim, dim, (ring.one,), ((r, (r + half) % dim, 0) for r in range(dim)))
    if hyper != block:
        r, c = min((r, c) for r, c, _ in (hyper - block).nonzeros())
        out.fail(f"hyperbolic witness Gram has {ring.show(hyper.at(r, c))} at ({r}, {c})")
    if out.passed:
        out.note(
            f"pairing formula matches on all {pairs} basis pairs; "
            f"Gram invertible; hyperbolic witness in block form (n={n}, {ring.name})"
        )
    return out


def polar_matches_prediction(ring: Ring, n: int) -> CheckOutcome:
    """polar(q_wedge) equals the pairing exactly when n = 0, 1 mod 4 or the
    characteristic is 2; otherwise the comparison must fail (the negative
    control at n = 2 over GF(3)).
    """
    out = CheckOutcome()
    expected_equal = n % 4 in (0, 1) or ring.char == 2
    equal = q_wedge_polar_gram(ring, n) == b_wedge_gram(ring, n)
    if equal != expected_equal:
        out.fail(
            f"polar identity {'held' if equal else 'failed'} for n={n} over {ring.name}, "
            f"expected the opposite"
        )
    else:
        out.note(
            f"polar of the quadratic form {'equals' if equal else 'differs from'} the pairing "
            f"(n={n}, {ring.name}), as predicted"
        )
    return out


def classify_bilinear(gram: Matrix) -> frozenset[str]:
    """All labels that apply: 'symmetric', 'skew', 'alternating'.

    In characteristic 2 symmetric and skew coincide, so several labels can
    hold at once; the empty set means none applies.
    """
    if gram.rows != gram.cols:
        raise UsageError("classification needs a square Gram matrix")
    ring = gram.ring
    labels = set()
    transpose = gram.transpose()
    if gram == transpose:
        labels.add("symmetric")
    if gram == -transpose:
        labels.add("skew")
        if all(ring.is_zero(gram.at(i, i)) for i in range(gram.rows)):
            labels.add("alternating")
    return frozenset(labels)
