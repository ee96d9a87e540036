"""Exact split Clifford algebras of hyperbolic forms over small rings.

The package builds the algebra faithfully as endomorphisms of the
exterior algebra, equips it with its canonical involution and the
canonical semi-trace, verifies invariance under the orthogonal group,
and certifies the degree-4 counterexample over every char-2 base.
"""

from .canonical import (
    canonical_map_c,
    canonical_semitrace,
    correspondence_with_q_wedge,
    degree4_no_canonical,
    rho_xi_check,
)
from .clifford import (
    CliffordElement,
    MonomialBasis,
    canonical_involution,
    classify_even_involution,
    phi_vector,
    phi_word,
    reduced_trace,
    relation_suite,
)
from .errors import DomainError, EligibilityError, UnsupportedRingError, UsageError
from .exterior import ExteriorVector
from .forms import (
    HyperbolicSpace,
    b_wedge,
    b_wedge_gram,
    classify_bilinear,
    q_wedge,
)
from .group import clifford_action, is_orthogonal, pgo_invariance
from .involution import (
    SemiTrace,
    alt_basis,
    in_alternating,
    sym_basis,
    trace_orthogonality,
)
from .linalg import Matrix, signed_perm_inverse
from .rings import GF2, GF3, GF4, GF5, QQ, ZZ, Ring, RingMorphism, gf2_into_gf4, ring_by_name

__all__ = [
    "CliffordElement",
    "DomainError",
    "EligibilityError",
    "ExteriorVector",
    "GF2",
    "GF3",
    "GF4",
    "GF5",
    "HyperbolicSpace",
    "Matrix",
    "MonomialBasis",
    "QQ",
    "Ring",
    "RingMorphism",
    "SemiTrace",
    "UnsupportedRingError",
    "UsageError",
    "ZZ",
    "alt_basis",
    "b_wedge",
    "b_wedge_gram",
    "canonical_involution",
    "canonical_map_c",
    "canonical_semitrace",
    "classify_bilinear",
    "classify_even_involution",
    "clifford_action",
    "correspondence_with_q_wedge",
    "degree4_no_canonical",
    "gf2_into_gf4",
    "in_alternating",
    "is_orthogonal",
    "pgo_invariance",
    "phi_vector",
    "phi_word",
    "q_wedge",
    "reduced_trace",
    "relation_suite",
    "rho_xi_check",
    "ring_by_name",
    "signed_perm_inverse",
    "sym_basis",
    "trace_orthogonality",
]
