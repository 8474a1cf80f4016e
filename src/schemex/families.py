"""Deterministic generators for a corpus of small schemes with known verdicts.

Point orderings are canonical (lexicographic words / sorted subsets), so the
generated relation matrices are byte-reproducible.  Every generator runs the
full axiom validation before handing the scheme back.
"""

from __future__ import annotations

from itertools import combinations, product
from math import comb

import numpy as np

from .scheme_core import AssociationScheme, RelationMatrix, ValueRecord, build_scheme

MAX_POINTS = 5000

# connection classes of the index-3 cyclotomic scheme on 13 points
_CYCLO13 = {1: (1, 5, 8, 12), 2: (2, 3, 10, 11), 3: (4, 6, 7, 9)}


class ParamOutOfRange(ValueError):
    pass


class FamilySpec(ValueRecord):
    """A family name and its integer parameters; equal specs are one dict key."""

    __slots__ = ("family", "params")

    def __init__(self, family: str, params: tuple = ()):
        params = tuple(int(v) for v in params)
        if family not in FAMILIES:
            raise ParamOutOfRange(f"unknown family {family!r}; known: {FAMILIES}")
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "params", params)


def _require(cond, msg):
    if not cond:
        raise ParamOutOfRange(msg)


def _rel_hamming(n, q):
    _require(n >= 1 and q >= 2, f"hamming needs n >= 1 and q >= 2, got ({n},{q})")
    # q^n >= 2^n > MAX_POINTS once n reaches MAX_POINTS.bit_length(), and q^n >= q; past
    # either bound q^n is never formed, as it may not fit in memory or print in 4300 digits
    _require(n < MAX_POINTS.bit_length() and q <= MAX_POINTS,
             f"hamming({n},{q}) has more than {MAX_POINTS} points")
    npoints = q ** n
    _require(npoints <= MAX_POINTS, f"hamming({n},{q}) has {npoints} > {MAX_POINTS} points")
    pts = np.array(list(product(range(q), repeat=n)), dtype=np.int16)
    rel = np.zeros((npoints, npoints), dtype=np.uint16)
    for c in range(n):
        rel += pts[:, c][:, None] != pts[None, :, c]
    return rel, n


def _rel_johnson(v, k):
    _require(1 <= k and v >= 2 * k, f"johnson needs 1 <= k and v >= 2k, got ({v},{k})")
    # C(v, k) >= v for 1 <= k <= v - 1; C(v, k) itself may take hours to count
    _require(v <= MAX_POINTS, f"johnson({v},{k}) has more than {MAX_POINTS} points")
    npoints = comb(v, k)
    _require(npoints <= MAX_POINTS, f"johnson({v},{k}) has {npoints} > {MAX_POINTS} points")
    # 0/1 membership rows; M M^T counts common elements, <= k, exact in float32
    members = np.array(list(combinations(range(v), k)), dtype=np.intp)
    M = np.zeros((npoints, v), dtype=np.float32)
    M[np.arange(npoints)[:, None], members] = 1.0
    rel = (k - M @ M.T).astype(np.uint16)
    return rel, k


def _rel_cycle(n):
    _require(3 <= n <= MAX_POINTS, f"cycle needs 3 <= n <= {MAX_POINTS}, got {n}")
    i = np.arange(n)
    diff = (i[:, None] - i[None, :]) % n
    rel = np.minimum(diff, n - diff).astype(np.uint16)
    return rel, n // 2


def _rel_complete(n):
    _require(2 <= n <= MAX_POINTS, f"complete needs 2 <= n <= {MAX_POINTS}, got {n}")
    rel = np.ones((n, n), dtype=np.uint16) - np.eye(n, dtype=np.uint16)
    return rel, 1


def _rel_disjoint_cliques(c, m):
    _require(c >= 2 and m >= 2, f"disjoint_cliques needs c, m >= 2, got ({c},{m})")
    # c m >= 2 max(c, m); past that bound c m is never formed, as it may not print in 4300 digits
    _require(max(c, m) <= MAX_POINTS, f"disjoint_cliques({c},{m}) has more than {MAX_POINTS} points")
    n = c * m
    _require(n <= MAX_POINTS, f"disjoint_cliques({c},{m}) has {n} > {MAX_POINTS} points")
    block = np.arange(n) // m
    same = block[:, None] == block[None, :]
    rel = np.where(same, 1, 2).astype(np.uint16)
    np.fill_diagonal(rel, 0)
    return rel, 2


def _rel_cyclotomic13():
    lut = np.zeros(13, dtype=np.uint16)
    for cls, members in _CYCLO13.items():
        for v in members:
            lut[v] = cls
    i = np.arange(13)
    return lut[(i[None, :] - i[:, None]) % 13], 3


def _rel_petersen():
    # johnson(5,2) with the sharing/disjoint classes swapped, so that A_1 is the
    # disjointness (Petersen graph) relation
    rel, d = _rel_johnson(5, 2)
    return np.array([0, 2, 1], dtype=np.uint16)[rel], d


def _rel_hypercube_reordered(*perm):
    _require(sorted(perm) == [0, 1, 2, 3] and perm[0] == 0,
             f"hypercube_reordered takes a permutation of 0..3 fixing 0, got {perm}")
    rel, d = _rel_hamming(3, 2)
    return np.array(perm, dtype=np.uint16)[rel], d


# family -> (relation-matrix builder, parameter count, usage error)
_BUILDERS = {
    "hamming": (_rel_hamming, 2, "hamming takes (n, q)"),
    "johnson": (_rel_johnson, 2, "johnson takes (v, k)"),
    "cycle": (_rel_cycle, 1, "cycle takes (n,)"),
    "complete": (_rel_complete, 1, "complete takes (n,)"),
    "disjoint_cliques": (_rel_disjoint_cliques, 2, "disjoint_cliques takes (c, m)"),
    "cyclotomic13": (_rel_cyclotomic13, 0, "cyclotomic13 takes no parameters"),
    "petersen": (_rel_petersen, 0, "petersen takes no parameters"),
    "hypercube_reordered": (_rel_hypercube_reordered, 4,
                            "hypercube_reordered takes a permutation of 0..3 fixing 0"),
}

FAMILIES = tuple(_BUILDERS)


def generate(spec: FamilySpec) -> AssociationScheme:
    """Build and fully validate the requested family member."""
    build, count, usage = _BUILDERS[spec.family]
    _require(len(spec.params) == count, usage)
    rel, d = build(*spec.params)
    return build_scheme(RelationMatrix(n=rel.shape[0], d=d, rel=rel))


def corpus():
    """(name, scheme, expected status) triples used across the test suite.

    Expected status is "yes"/"no" for clean verdicts, or "precondition-failed"
    for inputs whose spectral routes cannot run (the chain route still reports
    a negative on those).
    """
    entries = []

    def add(name, spec, expected):
        entries.append((name, generate(spec), expected))

    for n in range(5, 13):
        add(f"cycle({n})", FamilySpec("cycle", (n,)), "yes")
    for n, q in [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (4, 3)]:
        add(f"hamming({n},{q})", FamilySpec("hamming", (n, q)), "yes")
    for v in range(4, 9):
        add(f"johnson({v},2)", FamilySpec("johnson", (v, 2)), "yes")
    add("johnson(7,3)", FamilySpec("johnson", (7, 3)), "yes")
    for n in range(2, 7):
        add(f"complete({n})", FamilySpec("complete", (n,)), "yes")
    add("petersen", FamilySpec("petersen"), "yes")

    add("cyclotomic13", FamilySpec("cyclotomic13"), "no")

    add("disjoint_cliques(3,3)", FamilySpec("disjoint_cliques", (3, 3)), "precondition-failed")
    # the 3-cube with the antipodal matching promoted to relation 1
    add("hamming(3,2)+A1=antipodal", FamilySpec("hypercube_reordered", (0, 3, 2, 1)),
        "precondition-failed")

    return entries
