import importlib.util
import random
from pathlib import Path

import pytest

from cliffqp import clifford
from cliffqp.canonical import canonical_semitrace
from cliffqp.clifford import CliffordElement, parity_masks, tau_unit
from cliffqp.involution import SemiTrace
from cliffqp.linalg import Matrix
from cliffqp.rings import GF2, GF3, GF4, GF5, QQ, ZZ, Ring

ALL_RINGS = (GF2, GF3, GF4, GF5, QQ, ZZ)
FIELDS = (GF2, GF3, GF4, GF5, QQ)
FINITE_RINGS = (GF2, GF3, GF4, GF5)
PALETTE = (GF2, GF3, GF4, QQ)  # the default verification palette


@pytest.fixture
def rng():
    return random.Random(12345)


@pytest.fixture
def fresh_generator_caches():
    """Empty the caches built from the generator supports before and after
    the test, so a test that patches `clifford._generator_units` neither
    reads nor leaves a matrix of the other supports."""
    caches = (clifford.word_support, clifford.generator_matrix, clifford.monomial_basis)
    for cached in caches:
        cached.cache_clear()
    yield
    for cached in caches:
        cached.cache_clear()


def perfbench_tracer():
    """The benchmark's tracer module, `perfbench/tracer.py`, loaded from its file."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def fresh_rng(tag: str) -> random.Random:
    return random.Random(f"test:{tag}")


def dense(x) -> list:
    """The coefficients of an ExteriorVector as a list of length 2^n in mask order."""
    return [x.terms.get(mask, x.ring.zero) for mask in range(1 << x.n)]


def off_canonical_semitraces(ring: Ring, n: int) -> list[tuple[tuple[int, int], SemiTrace]]:
    """The semi-traces l + E_u of characteristic 2, l the canonical
    representative and u = (row, col) one of the tau-fixed even units with
    sign +1: E_u is symmetric but not alternating, and
    l' + tau(l') = l + tau(l) = 1, so each l' carries a semi-trace off the
    canonical class.  In any other characteristic SemiTrace refuses them."""
    l, dim = canonical_semitrace(ring, n).rep, 1 << n
    fixed = [(a, b) for masks in parity_masks(n) for a in masks for b in masks if tau_unit(n, a, b) == (0, a, b)]
    return [
        ((a, b), SemiTrace(l + CliffordElement(ring, n, Matrix.from_nonzeros(ring, dim, dim, [(a, b, ring.one)]))))
        for a, b in fixed
    ]
