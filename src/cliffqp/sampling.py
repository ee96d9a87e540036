"""Deterministic random inputs for the verification suites.

Every sampler takes an explicit random.Random so runs are reproducible
from a seed, and draws all its entries in one `Ring.samples` batch,
uniformly from the ring's `draws`; a random vector is such a batch.
"""

from __future__ import annotations

from functools import cache, reduce

from .clifford import CliffordElement, parity_masks
from .exterior import ExteriorVector
from .linalg import Matrix
from .rings import Ring


def random_matrix(ring: Ring, rows: int, cols: int, rng) -> Matrix:
    return Matrix(ring, rows, cols, ring.samples(rng, rows * cols))


def random_trace_zero(ring: Ring, size: int, rng) -> Matrix:
    """A random matrix whose (0, 0) entry is minus the sum of the other diagonal entries."""
    entries = ring.samples(rng, size * size)
    entries[0] = ring.neg(reduce(ring.add, entries[size + 1 :: size + 1], ring.zero))
    return Matrix(ring, size, size, entries)


@cache
def _even_units(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Rows and columns of the even matrix units in draw order: both parity
    blocks, the even block row-major first; built once per n."""
    units = [(r, c) for masks in parity_masks(n) for r in masks for c in masks]
    return tuple(r for r, _ in units), tuple(c for _, c in units)


def random_even_element(ring: Ring, n: int, rng) -> CliffordElement:
    """One draw per even unit, placed on the unit."""
    rows, cols = _even_units(n)
    values = ring.samples(rng, len(rows))
    dim = 1 << n
    return CliffordElement(ring, n, Matrix.from_places(ring, dim, dim, values, zip(rows, cols, range(len(rows)))))


def random_clifford_element(ring: Ring, n: int, rng) -> CliffordElement:
    dim = 1 << n
    return CliffordElement(ring, n, random_matrix(ring, dim, dim, rng))


def random_exterior(ring: Ring, n: int, rng, parity: int | None = None) -> ExteriorVector:
    """Coefficients on every mask in ascending order, or only on the masks of the parity."""
    masks = range(1 << n) if parity is None else parity_masks(n)[parity]
    is_zero = ring.is_zero
    terms = {m: a for m, a in zip(masks, ring.samples(rng, len(masks))) if not is_zero(a)}
    return ExteriorVector(ring, n, terms)
