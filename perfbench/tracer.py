"""Spans and counts recorded from outside the program.

`Tracer` replaces every binding of a set of public functions and methods of
the cliffqp modules with a wrapper that records one span per call: the
function, its start and end, and the span that was open when it was called.
Spans stay in memory (four flat arrays) until `summary` or `write_spans`;
a function's self time is the sum of its spans' durations minus the time
their child spans cover.  Private helpers are not wrapped, so their time
lands in the self time of the public function that called them.

`RingOpCounter` counts calls into the methods of each ring instance.  It is
kept apart from `Tracer` because its wrappers sit on the innermost loops and
would inflate every span's self time.

A target that a later version of the program no longer has is reported as
absent rather than raising.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time
from array import array

PACKAGE = "cliffqp"

# Metric stem -> (module, attribute path).  Dunder methods get short stems.
TARGETS = {
    "linalg.matmul": ("linalg", ("matmul",)),
    "linalg.Matrix.eq": ("linalg", ("Matrix", "__eq__")),
    "linalg.Matrix.transpose": ("linalg", ("Matrix", "transpose")),
    "linalg.signed_perm_inverse": ("linalg", ("signed_perm_inverse",)),
    "linalg.SpanChecker.init": ("linalg", ("SpanChecker", "__init__")),
    "linalg.SpanChecker.contains": ("linalg", ("SpanChecker", "contains")),
    "exterior.ExteriorVector.wedge": ("exterior", ("ExteriorVector", "wedge")),
    "forms.b_wedge_gram": ("forms", ("b_wedge_gram",)),
    "forms.q_wedge": ("forms", ("q_wedge",)),
    "forms.gram_agreement_suite": ("forms", ("gram_agreement_suite",)),
    "clifford.canonical_involution": ("clifford", ("canonical_involution",)),
    "clifford.involution_suite": ("clifford", ("involution_suite",)),
    "clifford.relation_suite": ("clifford", ("relation_suite",)),
    "clifford.MonomialBasis.init": ("clifford", ("MonomialBasis", "__init__")),
    "clifford.MonomialBasis.decompose_sparse": ("clifford", ("MonomialBasis", "decompose_sparse")),
    "involution.alt_basis": ("involution", ("alt_basis",)),
    "involution.sym_basis": ("involution", ("sym_basis",)),
    "involution.SemiTrace.init": ("involution", ("SemiTrace", "__init__")),
    "involution.SemiTrace.evaluate": ("involution", ("SemiTrace", "evaluate")),
    "canonical.canonical_map_c": ("canonical", ("canonical_map_c",)),
    "canonical.rho_xi_check": ("canonical", ("rho_xi_check",)),
    "canonical.rank_one_wedge": ("canonical", ("rank_one_wedge",)),
    "canonical.check_sl_into_alt": ("canonical", ("check_sl_into_alt",)),
    "canonical.degree4_no_canonical": ("canonical", ("degree4_no_canonical",)),
    "group.clifford_action": ("group", ("clifford_action",)),
    "group.pgo_invariance": ("group", ("pgo_invariance",)),
    "group.sample_orthogonal": ("group", ("sample_orthogonal",)),
    "group.is_orthogonal": ("group", ("is_orthogonal",)),
    "sampling.random_matrix": ("sampling", ("random_matrix",)),
    "sampling.random_even_element": ("sampling", ("random_even_element",)),
    "sampling.random_clifford_element": ("sampling", ("random_clifford_element",)),
    "sampling.random_exterior": ("sampling", ("random_exterior",)),
    "cli.main": ("cli", ("main",)),
}

RING_NAMES = ("gf2", "gf3", "gf4", "q", "z")
RING_METHODS = (
    "add", "neg", "sub", "mul", "inv", "eq", "is_zero", "is_one",
    "from_int", "sign", "elements", "sample", "show",
)


def _resolve(module: str, path: tuple):
    """(owner, attribute name, original) for a target, or None when absent."""
    try:
        owner = importlib.import_module(f"{PACKAGE}.{module}")
    except ImportError:
        return None
    for name in path[:-1]:
        owner = getattr(owner, name, None)
        if not isinstance(owner, type):
            return None
    original = vars(owner).get(path[-1]) if isinstance(owner, type) else getattr(owner, path[-1], None)
    if not callable(original):
        return None
    return owner, path[-1], original


def _package_modules() -> list:
    return [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


class Tracer:
    """Wraps the TARGETS while installed; collects one span per wrapped call."""

    def __init__(self, targets: dict = TARGETS):
        self.stems = list(targets)
        self.absent: list[str] = []
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        self._targets = targets

    def install(self) -> None:
        for idx, stem in enumerate(self.stems):
            module, path = self._targets[stem]
            found = _resolve(module, path)
            if found is None:
                self.absent.append(stem)
                continue
            owner, attr, original = found
            wrapper = self._wrap(original, idx)
            if isinstance(owner, type):
                self._rebind(owner, attr, wrapper)
                continue
            # Module functions: every module that holds the same object,
            # including names bound by `from .x import f`.
            for mod in _package_modules():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, key, wrapper)

    def _rebind(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _wrap(self, fn, idx: int):
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = len(name_ids)
            name_ids.append(idx)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(span)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[span] = clock()
                starts[span] = t0
                stack.pop()

        return wrapper

    def summary(self) -> dict:
        """Per stem: calls and self time; absent stems are listed apart."""
        count = len(self.name_ids)
        child = [0.0] * count
        starts, ends, parents = self.starts, self.ends, self.parents
        for span in range(count):
            parent = parents[span]
            if parent >= 0:
                child[parent] += ends[span] - starts[span]
        calls = [0] * len(self.stems)
        self_s = [0.0] * len(self.stems)
        for span, idx in enumerate(self.name_ids):
            calls[idx] += 1
            self_s[idx] += ends[span] - starts[span] - child[span]
        return {
            "functions": {
                stem: {"calls": calls[i], "self_s": self_s[i]}
                for i, stem in enumerate(self.stems)
                if stem not in self.absent
            },
            "absent": list(self.absent),
            "spans": count,
        }

    def write_spans(self, path) -> None:
        """All spans as gzipped JSON: names plus parallel arrays per span."""
        doc = {
            "names": self.stems,
            "name": self.name_ids.tolist(),
            "parent": self.parents.tolist(),
            "start": self.starts.tolist(),
            "end": self.ends.tolist(),
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh)


class RingOpCounter:
    """Counts every call into a Ring method, per ring instance, while installed.

    The counting wrappers are instance attributes, which shadow the class
    methods until `uninstall` deletes them again.
    """

    def __init__(self):
        self.counts = {name: 0 for name in RING_NAMES}
        self.absent: list[str] = []
        self._boxes: dict[str, list] = {}
        self._installed: list[tuple] = []

    def install(self) -> None:
        try:
            rings = importlib.import_module(f"{PACKAGE}.rings").RING_BY_NAME
        except (ImportError, AttributeError):
            rings = {}
        for name in self.counts:
            ring = rings.get(name)
            if ring is None:
                self.absent.append(name)
                continue
            box = self._boxes.setdefault(name, [0])
            for method in RING_METHODS:
                bound = getattr(ring, method, None)
                if bound is None:
                    continue
                try:
                    setattr(ring, method, self._wrap(bound, box))
                except AttributeError:
                    continue
                self._installed.append((ring, method))

    @staticmethod
    def _wrap(bound, box):
        def counted(*args, **kwargs):
            box[0] += 1
            return bound(*args, **kwargs)

        return counted

    def uninstall(self) -> None:
        for ring, method in self._installed:
            delattr(ring, method)
        self._installed.clear()
        for name, box in self._boxes.items():
            self.counts[name] += box[0]
            box[0] = 0
