"""Symmetric association schemes: axiom validation and exact intersection numbers.

A scheme on n points with d classes is stored as an n x n matrix of relation
indices.  Every count is exact: the intersection tensor is counted in
integers, and the validation products run as float32 GEMMs whose entries are
integers small enough for float32 to hold exactly (see :func:`build_scheme`).
Validation checks the products A_i A_j row by row and stops once a verified
relation generates the Bose-Mesner algebra, which proves the unchecked
products constant (see :func:`_generates_algebra`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class SchemeValidationError(ValueError):
    """One of the defining axioms of a symmetric association scheme failed."""


class DiagonalNotZero(SchemeValidationError):
    def __init__(self, x: int, value: int):
        self.x, self.value = x, value
        super().__init__(f"rel({x},{x}) = {value}; the diagonal must carry relation 0")


class NotSymmetric(SchemeValidationError):
    def __init__(self, x: int, y: int, vxy: int, vyx: int):
        self.x, self.y = x, y
        super().__init__(
            f"rel({x},{y}) = {vxy} but rel({y},{x}) = {vyx}; every relation must be symmetric"
        )


class ZeroOffDiagonal(SchemeValidationError):
    def __init__(self, x: int, y: int):
        self.x, self.y = x, y
        super().__init__(f"rel({x},{y}) = 0 off the diagonal; relation 0 must be the identity")


class MissingRelation(SchemeValidationError):
    def __init__(self, i: int):
        self.i = i
        super().__init__(f"relation index {i} never occurs in the matrix")


class NotConstant(SchemeValidationError):
    """The count of common (i, j)-neighbours is not constant on one relation class."""

    def __init__(self, i, j, k, witness_lo, witness_hi):
        self.i, self.j, self.k = i, j, k
        self.witness_lo = witness_lo
        self.witness_hi = witness_hi
        (x1, y1, c1), (x2, y2, c2) = witness_lo, witness_hi
        super().__init__(
            f"p^{k}_{{{i},{j}}} is not well defined: pair ({x1},{y1}) sees {c1} "
            f"common neighbours but pair ({x2},{y2}) sees {c2}"
        )


class PermMovesZero(ValueError):
    def __init__(self, perm):
        super().__init__(f"relabelling {tuple(perm)} must fix the identity relation 0")


# relation indices are stored as uint16
_MAX_INDEX = np.iinfo(np.uint16).max

#: a (d+1)^3 pass handles this many entries at once: whole at small d, where the
#: cost is one numpy call per step, and one (d+1)^2 slab per step from d = 90 on
BLOCK_ENTRIES = 2 ** 14


def slab_step(d: int) -> int:
    """Number of (d+1)^2 slabs in one block of a (d+1)^3 pass; at least 1."""
    return max(1, BLOCK_ENTRIES // (d + 1) ** 2)


@dataclass(frozen=True, eq=False)
class RelationMatrix:
    """Raw input: n points, d non-identity classes, and the n x n index matrix.

    Both n and d are explicit; they are never inferred from the matrix.  The
    constructor only checks shape and index range -- the scheme axioms are the
    job of :func:`build_scheme`.
    """

    n: int
    d: int
    rel: np.ndarray

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("a scheme needs at least 2 points")
        if self.d < 1:
            raise ValueError("a scheme needs at least 1 non-identity relation")
        rel = np.asarray(self.rel)
        if rel.shape != (self.n, self.n):
            raise ValueError(f"relation matrix has shape {rel.shape}, expected {(self.n, self.n)}")
        if not np.issubdtype(rel.dtype, np.integer):
            raise ValueError("relation matrix must be integer valued")
        if rel.size:
            lo, hi = int(rel.min()), int(rel.max())
            if lo < 0 or hi > self.d:
                raise ValueError(f"relation indices must lie in 0..{self.d}")
            if hi > _MAX_INDEX:
                raise ValueError(f"relation index {hi} exceeds {_MAX_INDEX}, the largest index stored")
        rel = np.ascontiguousarray(rel.astype(np.uint16))
        rel.flags.writeable = False
        object.__setattr__(self, "rel", rel)


@dataclass(frozen=True, eq=False)
class IntersectionTensor:
    """All p^k_{ij} as a (d+1)^3 integer array, indexed p[k, i, j]: all that analysis reads."""

    d: int
    p: np.ndarray

    def __post_init__(self):
        p = np.ascontiguousarray(np.asarray(self.p, dtype=np.int64))
        m = self.d + 1
        if p.shape != (m, m, m):
            raise ValueError(f"tensor has shape {p.shape}, expected {(m, m, m)}")
        if p.min() < 0:
            raise ValueError("intersection numbers must be non-negative")
        k = p[0].diagonal()
        # every check works one block of slab_step(d) (d+1)^2 slabs at a time, so none
        # allocates a (d+1)^3 temporary
        step = slab_step(self.d)
        for a in range(0, m, step):
            blk = p[a:a + step]
            if not np.array_equal(blk, blk.transpose(0, 2, 1)):
                raise ValueError("p^k_{ij} != p^k_{ji}; input is not a symmetric scheme")
        if not np.array_equal(p[0], np.diag(k)):
            raise ValueError("p^0_{ij} must equal delta_{ij} k_i; input is not a scheme")
        if not np.array_equal(p[:, 0, :], np.eye(m, dtype=np.int64)):
            raise ValueError("p^k_{0j} must equal delta_{kj}; input is not a scheme")
        # kb[i, c, j] = k_c p^c_{ij}: its column sums are sum_k p^k_{ij} k_k = k_i k_j, and
        # k_k p^k_{ij} = k_j p^j_{ik} (Bannai-Ito 1984) makes each kb[i] symmetric, so
        # diag(sqrt k) B_i diag(sqrt k)^-1 is too.  The first failing i is reported,
        # its row-sum identity before its symmetry.
        kb = np.empty((min(step, m), m, m), dtype=np.int64)
        for a in range(0, m, step):
            blk = kb[:min(step, m - a)]
            np.multiply(k[None, :, None], p[:, a:a + step, :].transpose(1, 0, 2), out=blk)
            sums_bad = (blk.sum(axis=1) != k[a:a + step, None] * k).any(axis=1)
            asym = (blk != blk.transpose(0, 2, 1)).any(axis=(1, 2))
            bad = np.flatnonzero(sums_bad | asym)
            if bad.size:
                if sums_bad[bad[0]]:
                    raise ValueError("sum_k p^k_{ij} k_k != k_i k_j; input is not a scheme")
                i = a + int(bad[0])
                raise ValueError(f"k_k p^k_{{{i}j}} != k_j p^j_{{{i}k}}; not a symmetric scheme")
        if k.min() < 1:
            raise ValueError(f"k_{int(np.argmin(k))} = 0: every class must be nonempty")
        p.flags.writeable = False
        object.__setattr__(self, "p", p)

    @property
    def valencies(self) -> np.ndarray:
        """k_i = p^0_{ii}."""
        return self.p[0].diagonal()

    @property
    def n(self) -> int:
        """Number of points, n = sum_i k_i."""
        return int(self.valencies.sum())


@dataclass(frozen=True, eq=False)
class AssociationScheme:
    """A validated scheme: the relation matrix plus its cached intersection tensor."""

    n: int
    d: int
    rel: np.ndarray
    tensor: IntersectionTensor

    @property
    def valencies(self) -> np.ndarray:
        return self.tensor.valencies


def _tensor_from_representatives(rel: np.ndarray, d: int) -> np.ndarray:
    """Count p^k_{ij} exactly, using one representative pair per class.

    For (x, y) in class k, p[k, i, j] is the number of z with rel(x, z) = i
    and rel(z, y) = j.  Constancy over the class is *assumed* here; it is
    checked separately by :func:`build_scheme`.
    """
    m = d + 1
    # each class's row-major first pair: in a scheme every class occurs in
    # every row, so row 0 holds them all; else a stable sort of all n^2 entries
    _, y = np.unique(rel[0], return_index=True)
    x = np.zeros_like(y)
    if y.size < m:
        x, y = np.divmod(np.unique(rel.ravel(), return_index=True)[1], rel.shape[0])
    # key[k, z] = (k m + rel(x_k, z)) m + rel(z, y_k), the flat index of p[k, i, j]
    key = (np.arange(m)[:, None] * m + rel[x]) * m + rel[:, y].T
    return np.bincount(key.ravel(), minlength=m ** 3).reshape(m, m, m)


# float32 represents every integer of magnitude <= 2**24 exactly
_FLOAT32_EXACT = 2 ** 24
# graph_tools' Seidel products are counts <= (n - 1)**2 <= _FLOAT32_EXACT up to this n
_SEIDEL_FLOAT32_MAX_N = 1 + 2 ** 12


def _check_products_constant(rel, p, a_i, a_j, i, j):
    """Verify that A_i A_j is constant on every relation class.

    The product is a float32 GEMM.  Its entries are counts <= n < 2**24, so
    every partial sum is an integer float32 holds exactly.  A_i A_j is constant
    on class k exactly when it equals p[k, i, j], counted at k's representative
    pair, on all of class k; the min/max scan that names a witness runs only
    when that comparison fails.
    """
    M = a_i @ a_j
    if np.array_equal(M, p[:, i, j].astype(np.float32)[rel]):
        return
    m = p.shape[0]
    # M's exact float32 counts and rel's indices as they are: no n^2 copy
    flat_rel = rel.ravel()
    flat_m = M.ravel()
    mins = np.full(m, np.inf, dtype=np.float32)
    maxs = np.full(m, -1, dtype=np.float32)
    np.minimum.at(mins, flat_rel, flat_m)
    np.maximum.at(maxs, flat_rel, flat_m)
    k = int(np.flatnonzero(mins != maxs)[0])
    n = rel.shape[0]
    in_k = flat_rel == k
    lo = int(np.flatnonzero(in_k & (flat_m == mins[k]))[0])
    hi = int(np.flatnonzero(in_k & (flat_m == maxs[k]))[0])
    raise NotConstant(
        i, j, k,
        (*divmod(lo, n), int(mins[k])),
        (*divmod(hi, n), int(maxs[k])),
    )


def _generates_algebra(p, i):
    """True if A_i provably generates the span V of A_0..A_d.

    Call it only once every product A_i A_j, j = 0..d, is verified constant on
    the classes.  Then A_i A_j = sum_k p[k, i, j] A_k, so multiplication by
    A_i maps V into V with matrix B_i = p[:, i, :] in the basis A_0..A_d, and
    A_i^h = sum_k (B_i^h e_0)_k A_k.  B_i is non-negative, so (B_i^h e_0)_k > 0
    exactly when the support graph of B_i (j -> k when p[k, i, j] > 0) has a
    walk of length h from class 0 to class k.

    The test: breadth-first search from class 0 puts exactly one class c_h on
    each level h = 0..d.  Then B_i^h e_0 is positive on c_h and zero on
    c_{h+1}..c_d, so the d+1 vectors B_i^h e_0 are triangular with positive
    pivots and I, A_i, ..., A_i^d span V.  With A_i V in V this gives
    V = C[A_i], a commutative algebra (Bannai-Ito 1984, III.1;
    Brouwer-Cohen-Neumaier 1989, 2.1).  So every product A_a A_b lies in V,
    that is, it is constant on each class, with the coefficients p[:, a, b]
    counted at the representative pairs.  The test holds exactly when
    relation i is the distance-1 relation of a metric ordering, c_0..c_d.
    """
    out = (p[:, i, :] > 0).T.tolist()  # out[c][k]: the support graph has the edge c -> k
    seen = [False] * len(out)
    seen[0] = True
    c = 0
    for _ in range(len(out) - 1):
        level = [k for k, on in enumerate(out[c]) if on and not seen[k]]
        if len(level) != 1:
            return False
        c = level[0]
        seen[c] = True
    return True


def build_scheme(rm: RelationMatrix) -> AssociationScheme:
    """Validate the scheme axioms and compute the intersection tensor.

    The products A_i A_j, 1 <= i <= j <= d, are checked to be constant on
    each class, row by row in i.  Once row i has passed, every A_i A_j is
    verified (rows before i covered j < i, as A_i A_j = (A_j A_i)^T); if then
    A_i generates the algebra (:func:`_generates_algebra`), every unchecked
    product is constant by proof and validation stops.  On a metric scheme
    ordered by distance that is after row 1: d products, not d(d+1)/2.  A
    failure after the stopping point is impossible, so every input gets the
    same verdict and the same :class:`NotConstant` witness as the full scan.

    The products are float32 GEMMs, exact for n < 2**24; at most two class
    indicators are held at a time, so memory stays O(n^2) whatever d is.
    """
    rel, n, d = rm.rel, rm.n, rm.d
    if n >= _FLOAT32_EXACT:
        raise ValueError(f"n = {n} points: float32 validation is exact only for n < 2**24")

    diag = rel.diagonal()
    off = np.flatnonzero(diag != 0)
    if off.size:
        x = int(off[0])
        raise DiagonalNotZero(x, int(diag[x]))
    if not np.array_equal(rel, rel.T):
        x, y = np.argwhere(rel != rel.T)[0]
        raise NotSymmetric(int(x), int(y), int(rel[x, y]), int(rel[y, x]))
    # rel.max() <= d; count only the indices that occur, never d + 1 of them
    counts = np.bincount(rel.ravel())
    absent = np.flatnonzero(counts == 0)
    if absent.size or counts.size <= d:
        raise MissingRelation(int(absent[0]) if absent.size else counts.size)

    p = _tensor_from_representatives(rel, d)

    for i in range(1, d + 1):
        a_i = (rel == i).astype(np.float32)
        for j in range(i, d + 1):
            a_j = a_i if j == i else (rel == j).astype(np.float32)
            _check_products_constant(rel, p, a_i, a_j, i, j)
        if _generates_algebra(p, i):
            break
    # last, so every other failure keeps its witness (the early stop assumed A_0 = I)
    if counts[0] != n:
        x, y = np.argwhere((rel == 0) & ~np.eye(n, dtype=bool))[0]
        raise ZeroOffDiagonal(int(x), int(y))

    return AssociationScheme(n=n, d=d, rel=rel, tensor=IntersectionTensor(d=d, p=p))


def reorder_relations(s: AssociationScheme, perm) -> AssociationScheme:
    """Relabel relation i as perm[i].  perm must be a permutation of 0..d fixing 0.

    The relabelled scheme is built directly from the permuted relation matrix
    and tensor; relabelling cannot break the axioms, so no O(n^3) re-check is
    performed.
    """
    perm = tuple(int(v) for v in perm)
    if len(perm) != s.d + 1 or sorted(perm) != list(range(s.d + 1)):
        raise ValueError(f"{perm} is not a permutation of 0..{s.d}")
    if perm[0] != 0:
        raise PermMovesZero(perm)
    lut = np.asarray(perm, dtype=np.uint16)
    rel2 = lut[s.rel]
    rel2.flags.writeable = False
    idx = np.asarray(perm)
    p2 = np.empty_like(s.tensor.p)
    p2[np.ix_(idx, idx, idx)] = s.tensor.p
    return AssociationScheme(n=s.n, d=s.d, rel=rel2, tensor=IntersectionTensor(d=s.d, p=p2))
