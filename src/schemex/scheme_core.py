"""Symmetric association schemes: axiom validation and exact intersection numbers.

A scheme on n points with d classes is stored as an n x n matrix of relation
indices.  Every count is exact: each slab B_i of intersection numbers is
counted in integers the first time it is read, and the validation products run
as float32 GEMMs whose entries are integers small enough for float32 to hold
exactly, several products packed into one GEMM as the digits of one count (see
:func:`_check_product_group`).  Validation checks the products A_i A_j row by
row and stops once a verified relation generates the Bose-Mesner algebra,
which proves the unchecked products constant (see :func:`greedy_chain`).
"""

from __future__ import annotations

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


# relation indices are stored as uint16
_MAX_INDEX = np.iinfo(np.uint16).max

#: validation gathers from the n x n relation matrix this many entries' rows at once
BLOCK_ENTRIES = 2 ** 14


class FrozenRecord:
    """Base of the records that refuse attribute assignment once built.

    A subclass lists its fields in ``__slots__`` and sets them in its own ``__init__``
    with ``object.__setattr__``, after making read-only every array it is given.
    ``__setstate__`` does the same for copy and pickle, and makes read-only every array
    it restores, a field's or a dict field's value, since pickle and deepcopy hand back
    writeable ones.  Records compare by identity; a :class:`ValueRecord` compares by value.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state):
        for name, value in state[1].items():
            for a in value.values() if isinstance(value, dict) else (value,):
                if isinstance(a, np.ndarray):
                    a.setflags(write=False)
            object.__setattr__(self, name, value)


class ValueRecord(FrozenRecord):
    """A frozen record that compares, hashes and prints as the tuple of its ``__slots__``.

    A subclass lists every field in its own ``__slots__``, in constructor order.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class RelationMatrix(FrozenRecord):
    """Raw input: n points, d non-identity classes, and the n x n index matrix.

    Both n and d are explicit; they are never inferred from the matrix.  The
    constructor only checks shape and index range -- the scheme axioms are the
    job of :func:`build_scheme`.  Callers pass any integer dtype: only after the
    range check has seen the true values are they cast to uint16.
    """

    __slots__ = ("n", "d", "rel")

    def __init__(self, n: int, d: int, rel: np.ndarray):
        if n < 2:
            raise ValueError("a scheme needs at least 2 points")
        if d < 1:
            raise ValueError("a scheme needs at least 1 non-identity relation")
        rel = np.asarray(rel)
        if rel.shape != (n, n):
            raise ValueError(f"relation matrix has shape {rel.shape}, expected {(n, n)}")
        if not np.issubdtype(rel.dtype, np.integer):
            raise ValueError("relation matrix must be integer valued")
        lo, hi = int(rel.min()), int(rel.max())
        if lo < 0 or hi > d:
            raise ValueError(f"relation indices must lie in 0..{d}")
        if hi > _MAX_INDEX:
            raise ValueError(f"relation index {hi} exceeds {_MAX_INDEX}, the largest index stored")
        rel = np.ascontiguousarray(rel.astype(np.uint16))
        rel.flags.writeable = False
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "rel", rel)


class AssociationScheme(FrozenRecord):
    """A validated scheme: its relation matrix and intersection numbers p^k_{ij}, one slab
    B_i at a time.

    ``slab(i)`` = B_i, indexed [k, j] = p^k_{ij}, read-only, is the only way any
    stage outside this module reads them.  A slab is counted on its first read at
    the pairs (0, y_k) (:func:`_count_slab`), checked and kept in ``slabs``, where
    build_scheme leaves the slabs that validation counted.  ``valencies`` k_i is
    the count of relation i in row 0, and ``n`` = sum_i k_i the number of points.
    """

    __slots__ = ("rel", "y", "valencies", "slabs", "n", "d")

    def __init__(self, rel: np.ndarray, y: np.ndarray, valencies: np.ndarray, slabs: dict):
        y.setflags(write=False)
        valencies.setflags(write=False)
        ks = valencies.tolist()
        object.__setattr__(self, "rel", rel)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "valencies", valencies)
        object.__setattr__(self, "slabs", {})
        object.__setattr__(self, "n", sum(ks))
        object.__setattr__(self, "d", len(ks) - 1)
        for i, b in slabs.items():
            self._keep(i, b)
        if min(ks) < 1:
            raise ValueError(f"k_{ks.index(min(ks))} = 0: every class must be nonempty")

    def slab(self, i: int) -> np.ndarray:
        """B_i, indexed [k, j] = p^k_{ij}: read-only, counted and checked on the first read."""
        if i in self.slabs:
            return self.slabs[i]
        if not 0 <= i <= self.d:
            raise IndexError(f"slab {i} is out of range 0..{self.d}")
        return self._keep(i, _count_slab(self.rel, self.y, i))

    def _keep(self, i: int, b: np.ndarray) -> np.ndarray:
        """Check B_i's identities, then p^k_{ij} = p^k_{ji} against each slab kept before it,
        and keep it; the first failing identity is reported.  The O(d) ones compare Python
        lists.  kb[c, j] = k_c p^c_{ij} = k_j p^j_{ic} (Bannai-Ito 1984) makes kb symmetric,
        so diag(sqrt k) B_i diag(sqrt k)^-1 is too.
        """
        k = self.valencies
        ks, row, col = k.tolist(), b[0].tolist(), b[:, 0].tolist()
        if b.min() < 0:
            raise ValueError("intersection numbers must be non-negative")
        if row[i] != ks[i] or any(row[:i]) or any(row[i + 1:]):
            raise ValueError("p^0_{ij} must equal delta_{ij} k_i; input is not a scheme")
        if col[i] != 1 or any(col[:i]) or any(col[i + 1:]):
            raise ValueError("p^k_{0j} must equal delta_{kj}; input is not a scheme")
        if (k @ b).tolist() != [ks[i] * kj for kj in ks]:
            raise ValueError("sum_k p^k_{ij} k_k != k_i k_j; input is not a scheme")
        kb = k[:, None] * b
        if (kb != kb.T).any():
            raise ValueError(f"k_k p^k_{{{i}j}} != k_j p^j_{{{i}k}}; not a symmetric scheme")
        for j, c in self.slabs.items():
            if (b[:, j] != c[:, i]).any():
                raise ValueError("p^k_{ij} != p^k_{ji}; input is not a symmetric scheme")
        b.setflags(write=False)
        self.slabs[i] = b
        return b


def _count_slab(rel: np.ndarray, y: np.ndarray, i: int, x=None) -> np.ndarray:
    """B_i[k, j] = #{z : rel(x_k, z) = i, rel(z, y_k) = j}, counted exactly at one pair
    (x_k, y_k) of each class k (x_k = 0 when x is None), whose constancy over the class
    :func:`build_scheme` checks.  With x_k = 0 this is one k_i x (d+1) gather and one
    bincount.  The gathered indices become intp before k (d+1) is added: uint16 wraps
    once (d+1)^2 > 65536.
    """
    m = y.size
    if x is None:
        key = rel[(rel[0] == i).nonzero()[0][:, None], y].astype(np.intp)
        key += np.arange(0, m * m, m)
        return np.bincount(key.ravel(), minlength=m * m).reshape(m, m)
    return np.stack([np.bincount(rel[rel[xk] == i, yk], minlength=m) for xk, yk in zip(x, y)])


# float32 represents every integer of magnitude <= 2**24 exactly
_FLOAT32_EXACT = 2 ** 24
# a validation GEMM packs the g products of base**g <= _PACKED_MAX, at least one
_PACKED_MAX = _FLOAT32_EXACT


def _row_blocks(n: int):
    """Row slices of an n x n array, each of at most BLOCK_ENTRIES entries (one row at least)."""
    step = max(1, BLOCK_ENTRIES // n)
    return [slice(a, a + step) for a in range(0, n, step)]


def _check_product_group(rel, bi, a_i, i, j0, j1, base):
    """Verify, with one float32 GEMM, that A_i A_j is constant on every class for j0 <= j < j1.

    The GEMM is M = A_i W with W = sum_j base**(j - j0) A_j, so M(x, y) is
    sum_j c_j(x, y) base**(j - j0), where c_j(x, y) counts the z with
    rel(x, z) = i and rel(z, y) = j.

    Exactness: every c_j(x, y) <= deg_i(x) < base, so M <= base**(j1 - j0) - 1,
    which is below 2**24: base**(j1 - j0) <= _PACKED_MAX = 2**24, or j1 - j0 = 1
    and base <= n < 2**24.  Every partial sum of the GEMM is a sum of non-negative
    integer terms no larger than M, so float32 holds each one exactly.  Base-base
    digits are unique, so M equals sum_j B_i[rel, j] base**(j - j0) on every
    pair exactly when each A_i A_j is constant on every class with its
    representative count, the slab B_i (the representative pair of class k
    sees B_i[k, j] <= deg_i < base).  Only on a mismatch are the digits decoded, for
    the witness (:func:`_raise_group_witness`).
    """
    powers = base ** np.arange(j1 - j0, dtype=np.int64)
    weights = np.zeros(bi.shape[0], dtype=np.float32)
    weights[j0:j1] = powers
    expected = (bi[:, j0:j1] @ powers).astype(np.float32)
    n = rel.shape[0]
    blocks = _row_blocks(n)
    # W and the expected values are gathered a block of rows at a time: np.take casts
    # its indices to intp, which for all of rel at once is two more n^2 arrays
    w = np.empty((n, n), dtype=np.float32)
    for b in blocks:
        weights.take(rel[b], out=w[b], mode="clip")
    M = a_i @ w
    del w
    for b in blocks:
        if not (M[b] == expected.take(rel[b], mode="clip")).all():
            _raise_group_witness(rel, bi, M, i, j0, j1, base)


def _raise_group_witness(rel, bi, M, i, j0, j1, base):
    """Raise the NotConstant that a scan of the single products A_i A_j, j0 <= j < j1, raises.

    Digit j - j0 of M in base ``base`` is the exact count c_j (see
    :func:`_check_product_group`), decoded by integer division a block of rows at
    a time.  The first j whose digits differ from their class's representative
    count somewhere is the first product that is not constant, and on it the first
    class in index order with a mismatch is the first class that is not constant.
    Its minimum and maximum count and their first row-major positions are taken
    over that class alone, as the min/max scan of A_i A_j would find them.
    """
    n, m = rel.shape[0], bi.shape[0]
    blocks = _row_blocks(n)

    def counts(x, j):  # digit j - j0 of x, entries of M: integers below 2**24
        q = x.astype(np.int32)
        return (q // base ** (j - j0) if j > j0 else q) % base

    k = m
    for j in range(j0, j1):
        expected = bi[:, j].astype(np.int32)
        for b in blocks:
            r = rel[b]
            off = r[counts(M[b], j) != np.take(expected, r, mode="clip")]
            if off.size:
                k = min(k, int(off.min()))
        if k < m:
            break
    lo = hi = None
    for b in blocks:
        in_k = rel[b] == k
        c = counts(M[b][in_k], j)
        if not c.size:
            continue
        pos = np.flatnonzero(in_k) + b.start * n
        a, z = int(np.argmin(c)), int(np.argmax(c))
        if lo is None or c[a] < lo[1]:
            lo = (int(pos[a]), int(c[a]))
        if hi is None or c[z] > hi[1]:
            hi = (int(pos[z]), int(c[z]))
    raise NotConstant(i, j, k, (*divmod(lo[0], n), lo[1]), (*divmod(hi[0], n), hi[1]))


def greedy_chain(support, start):
    """The chain 0, start, c_2, .., c_d: from each c_h, step to the one unused
    class k with support[k, c_h].  Returns (ordering, None) once all
    len(support) classes are on it, or (None, witness) where a step finds no
    candidate or several.

    On the slab B_i (B_i[k, j] = p^k_{ij}, counted exactly at one pair of each
    class), with start = i, the chain completes exactly when A_i generates the
    span V of A_0..A_d, once every product A_i A_j, j = 0..d, is verified
    constant on the classes.  Then A_i A_j = sum_k B_i[k, j] A_k, so
    multiplication by A_i maps V into V with matrix B_i in the basis A_0..A_d,
    and A_i^h = sum_k (B_i^h e_0)_k A_k.  B_i is non-negative, so
    (B_i^h e_0)_k > 0 exactly when the support graph of B_i (c -> k when
    B_i[k, c] > 0) has a walk of length h from class 0 to k.

    The chain may start at [0, i] because column 0 of the support is {i}: a
    counted slab has B_i[k, 0] = delta_ki, since B_i[k, 0] counts the z
    with rel(x_k, z) = i and rel(z, y_k) = 0 at the representative pair
    (x_k, y_k) of class k.  (Should relation 0 hold an off-diagonal pair, which
    build_scheme reports last, a verified A_i A_i still gives such a z the k_i
    i-neighbours of y_k, x_k among them, so k = i.)  A completed chain then
    puts exactly one class c_h on each breadth-first level h = 0..d: B_i^h e_0
    is positive on c_h and zero on c_{h+1}..c_d, so the d+1 vectors B_i^h e_0
    are triangular with positive pivots and I, A_i, ..., A_i^d span V.  With
    A_i V in V this gives V = C[A_i], a commutative algebra (Bannai-Ito 1984,
    III.1; Brouwer-Cohen-Neumaier 1989, 2.1).  So every product A_a A_b lies
    in V, that is, it is constant on each class, with the coefficients
    B_a[:, b] counted at the representative pairs.  The chain completes
    exactly when relation i is the distance-1 relation of a metric ordering,
    c_0..c_d.
    """
    cols = support.T.tolist()  # cols[c][k] = support[k, c]
    order = [0, start]
    used = {0, start}
    while len(order) < len(cols):
        cur = order[-1]
        cands = [k for k, on in enumerate(cols[cur]) if on and k not in used]
        if len(cands) != 1:
            return None, (
                f"chain {tuple(order)} cannot be extended from {cur}: "
                f"{len(cands)} candidates {cands}"
            )
        order.append(cands[0])
        used.add(cands[0])
    return tuple(order), None


def build_scheme(rm: RelationMatrix) -> AssociationScheme:
    """Validate the scheme axioms; the scheme keeps the slabs validation counted.

    The products A_i A_j, 1 <= i <= j <= d, are checked to be constant on
    each class, row by row in i.  Once row i has passed, every A_i A_j is
    verified (rows before i covered j < i, as A_i A_j = (A_j A_i)^T); if then
    A_i generates the algebra (:func:`greedy_chain` from [0, i]), every unchecked
    product is constant by proof and validation stops.  On a metric scheme
    ordered by distance that is after row 1: d products, not d(d+1)/2.  A
    failure after the stopping point is impossible, so every input gets the
    same verdict and the same :class:`NotConstant` witness as the full scan.

    Row i packs the g products A_i A_j, j = j0 .. j0 + g - 1, into one float32
    GEMM, with g the largest for which base**g <= 2**24, and base one more than
    the largest i-degree of a row (:func:`_check_product_group`): one GEMM on
    hamming(6,3), 34 for the 500 products of cycle(1000).  Exact for n < 2**24.
    It holds A_i, the packed class indicator W and the product, and gathers from
    rel a block of rows at a time, so it peaks near 3 n^2 float32s whatever d is.

    Row i counts B_i (:func:`_count_slab`) at pairs (0, y_k), and no other slab is
    counted: B_1 alone on a metric scheme in distance order.  Any pair of class k
    gives the same counts on a scheme and the same NotConstant on a non-scheme (a
    class is flagged exactly when it is not constant), so y_k is whichever z of
    row 0 one scatter leaves; without a class in row 0 (no scheme), (x_k, y_k)
    come from a scatter over all of rel.  The slabs are checked after the scan
    (:class:`AssociationScheme`), so every validation failure keeps its witness.
    """
    rel, n, d = rm.rel, rm.n, rm.d
    if n >= _FLOAT32_EXACT:
        raise ValueError(f"n = {n} points: float32 validation is exact only for n < 2**24")

    diag = rel.diagonal()
    if diag.any():
        x = int(np.flatnonzero(diag)[0])
        raise DiagonalNotZero(x, int(diag[x]))
    if not (rel == rel.T).all():
        x, y = np.argwhere(rel != rel.T)[0]
        raise NotSymmetric(int(x), int(y), int(rel[x, y]), int(rel[y, x]))
    # row 0 of a scheme holds every class, so only otherwise are all n^2 indices counted;
    # rel.max() <= d, so count only the indices that occur, never d + 1 of them
    row0 = np.bincount(rel[0])
    x = None
    if row0.size <= d or not row0.all():
        counts = np.bincount(rel.ravel())
        absent = np.flatnonzero(counts == 0)
        if absent.size or counts.size <= d:
            raise MissingRelation(int(absent[0]) if absent.size else counts.size)
        flat = np.empty(d + 1, dtype=np.intp)
        flat[rel.ravel()] = np.arange(n * n)
        x, y = np.divmod(flat, n)
    else:
        y = np.empty(d + 1, dtype=np.intp)
        y[rel[0]] = np.arange(n)

    slabs = {}
    for i in range(1, d + 1):
        bi = slabs[i] = _count_slab(rel, y, i, x)
        a_i = (rel == i).astype(np.float32)
        # the base is the largest i-degree of any row, not of row 0: on a non-scheme a
        # smaller base could carry one digit into the next and alias two counts
        base = int(a_i.sum(axis=1).max()) + 1
        g = 1  # products per GEMM: base**g <= _PACKED_MAX, and no more than the row has
        while g <= d - i and base ** (g + 1) <= _PACKED_MAX:
            g += 1
        for j0 in range(i, d + 1, g):
            _check_product_group(rel, bi, a_i, i, j0, min(j0 + g, d + 1), base)
        if greedy_chain(bi > 0, i)[0] is not None:
            break
    # last, so every other failure keeps its witness (the early stop assumed A_0 = I)
    if np.count_nonzero(rel) != n * (n - 1):
        x, y = np.argwhere((rel == 0) & ~np.eye(n, dtype=bool))[0]
        raise ZeroOffDiagonal(int(x), int(y))

    return AssociationScheme(rel, y, row0, slabs)

