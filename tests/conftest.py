import random

import pytest

from cliffqp.rings import GF2, GF3, GF4, GF5, QQ, ZZ

ALL_RINGS = (GF2, GF3, GF4, GF5, QQ, ZZ)
FIELDS = (GF2, GF3, GF4, GF5, QQ)
FINITE_RINGS = (GF2, GF3, GF4, GF5)
PALETTE = (GF2, GF3, GF4, QQ)  # the default verification palette


@pytest.fixture
def rng():
    return random.Random(12345)


def fresh_rng(tag: str) -> random.Random:
    return random.Random(f"test:{tag}")


def dense(x) -> list:
    """The coefficients of an ExteriorVector as a list of length 2^n in mask order."""
    return [x.terms.get(mask, x.ring.zero) for mask in range(1 << x.n)]
