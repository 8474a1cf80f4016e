from __future__ import annotations

import numpy as np
import pytest

from schemex import scheme_core
from schemex.families import FamilySpec, generate
from schemex.scheme_core import (
    DiagonalNotZero,
    IntersectionTensor,
    MissingRelation,
    NotConstant,
    NotSymmetric,
    PermMovesZero,
    RelationMatrix,
    build_scheme,
    reorder_relations,
)


def _cycle_rel(n):
    i = np.arange(n)
    diff = (i[:, None] - i[None, :]) % n
    return np.minimum(diff, n - diff)


def _path_rel(n):
    i = np.arange(n)
    return np.abs(i[:, None] - i[None, :])


class TestRelationMatrix:
    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            RelationMatrix(n=3, d=1, rel=np.zeros((2, 3), dtype=int))

    def test_rejects_out_of_range_index(self):
        rel = _cycle_rel(5)
        with pytest.raises(ValueError):
            RelationMatrix(n=5, d=1, rel=rel)  # contains index 2

    def test_rejects_float_matrix(self):
        with pytest.raises(ValueError):
            RelationMatrix(n=2, d=1, rel=np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_rejects_index_past_uint16(self):
        # indices are stored as uint16; 65537 must not wrap to 1
        with pytest.raises(ValueError, match="relation index 65537 exceeds 65535"):
            RelationMatrix(n=2, d=65537, rel=[[0, 65537], [65537, 0]])

    def test_is_read_only(self):
        rm = RelationMatrix(n=5, d=2, rel=_cycle_rel(5))
        with pytest.raises(ValueError):
            rm.rel[0, 1] = 0


class TestBuildScheme:
    def test_cycle5(self):
        s = build_scheme(RelationMatrix(n=5, d=2, rel=_cycle_rel(5)))
        assert s.n == 5 and s.d == 2
        assert list(s.valencies) == [1, 2, 2]
        # adjacent vertices of a pentagon share no neighbour; distance-2 pairs share one
        assert s.tensor.p[1, 1, 1] == 0
        assert s.tensor.p[2, 1, 1] == 1

    def test_diagonal_not_zero(self):
        rel = _cycle_rel(5)
        rel[2, 2] = 1
        with pytest.raises(DiagonalNotZero) as info:
            build_scheme(RelationMatrix(n=5, d=2, rel=rel))
        assert info.value.x == 2

    def test_not_symmetric(self):
        rel = _cycle_rel(5)
        rel[0, 1] = 2
        with pytest.raises(NotSymmetric) as info:
            build_scheme(RelationMatrix(n=5, d=2, rel=rel))
        assert (info.value.x, info.value.y) == (0, 1)

    def test_missing_relation(self):
        rel = _cycle_rel(5)
        with pytest.raises(MissingRelation) as info:
            build_scheme(RelationMatrix(n=5, d=3, rel=rel))
        assert info.value.i == 3

    def test_path3_not_constant(self):
        # the path 0-1-2 with distance classes is not a scheme
        with pytest.raises(NotConstant) as info:
            build_scheme(RelationMatrix(n=3, d=2, rel=_path_rel(3)))
        err = info.value
        (x1, y1, c1), (x2, y2, c2) = err.witness_lo, err.witness_hi
        assert c1 != c2
        # both witness pairs really belong to the reported class
        rel = _path_rel(3)
        assert rel[x1, y1] == err.k and rel[x2, y2] == err.k


def _reference_validation(rel, d):
    """The integer per-pair check: (tensor, None) on a scheme, else (None, witness).

    Every product A_i A_j is formed in int32 and scanned for its min and max on
    each class, pairs in the order build_scheme checks them.  The witness is
    (i, j, k, witness_lo, witness_hi) of the first pair and class that fail.
    """
    n, m = rel.shape[0], d + 1
    adj = [(rel == i).astype(np.int32) for i in range(m)]
    flat_rel = rel.ravel().astype(np.intp)
    p = np.zeros((m, m, m), dtype=np.int64)
    for i in range(m):
        for j in range(i, m):
            flat_m = (adj[i] @ adj[j]).ravel()
            mins = np.full(m, np.iinfo(np.int32).max, dtype=np.int32)
            maxs = np.full(m, -1, dtype=np.int32)
            np.minimum.at(mins, flat_rel, flat_m)
            np.maximum.at(maxs, flat_rel, flat_m)
            bad = np.flatnonzero(mins != maxs)
            if bad.size:
                k = int(bad[0])
                in_k = flat_rel == k
                lo = int(np.flatnonzero(in_k & (flat_m == mins[k]))[0])
                hi = int(np.flatnonzero(in_k & (flat_m == maxs[k]))[0])
                return None, (i, j, k, (*divmod(lo, n), int(mins[k])),
                              (*divmod(hi, n), int(maxs[k])))
            p[:, i, j] = p[:, j, i] = mins
    return p, None


def _random_relation_matrix(rng, n, d):
    """Symmetric, zero diagonal, every class 0..d present."""
    while True:
        rel = np.zeros((n, n), dtype=np.int64)
        iu = np.triu_indices(n, 1)
        rel[iu] = rng.integers(1, d + 1, size=iu[0].size)
        rel = rel + rel.T
        if np.unique(rel).size == d + 1:
            return rel


def _perturbed_scheme(rng, s):
    """A scheme with one point pair moved to another non-identity class.

    Such near-schemes fail at later class pairs (i, j) too, where fully random
    matrices almost always fail at the first one, (1, 1).
    """
    while True:
        rel = np.array(s.rel, dtype=np.int64)
        x, y = rng.choice(s.n, size=2, replace=False)
        rel[x, y] = rel[y, x] = 1 + (rel[x, y] - 1 + rng.integers(1, s.d)) % s.d
        if np.unique(rel).size == s.d + 1:
            return rel


SMALL_SOURCES = [("cycle", (n,)) for n in range(7, 13)] + [
    ("hamming", (2, 3)), ("hamming", (3, 2)), ("johnson", (5, 2)), ("petersen", ()),
    ("disjoint_cliques", (4, 3)),
]
# larger metric sources, where validation stops after row 1 of the scan
METRIC_SOURCES = [("cycle", (30,)), ("hamming", (4, 3)), ("johnson", (8, 3))]


def test_validation_witnesses_match_integer_reference():
    rng = np.random.default_rng(20261017)
    sources = [generate(FamilySpec(f, params)) for f, params in SMALL_SOURCES + METRIC_SOURCES]
    failing_pairs = set()
    for trial in range(400):
        if trial % 2:
            n = int(rng.integers(3, 13))
            d = int(rng.integers(1, min(4, n * (n - 1) // 2) + 1))
            rel = _random_relation_matrix(rng, n, d)
        else:
            src = sources[int(rng.integers(len(sources)))]
            n, d = src.n, src.d
            rel = _perturbed_scheme(rng, src)
        tensor, witness = _reference_validation(rel, d)
        rm = RelationMatrix(n=n, d=d, rel=rel)
        if witness is None:
            assert np.array_equal(build_scheme(rm).tensor.p, tensor)
            continue
        failing_pairs.add(witness[:2])
        with pytest.raises(NotConstant) as info:
            build_scheme(rm)
        err = info.value
        assert (err.i, err.j, err.k, err.witness_lo, err.witness_hi) == witness
    assert len(failing_pairs) >= 3


def _blow_up(rel_t, s):
    """Replace each point of rel_t by a clique of s points, which is class 1.

    Class 1 + c joins points whose cliques are in class c of rel_t.  Every
    product A_1 A_j is then constant on the classes, whatever rel_t is, while
    A_1 spans only I and A_1 with its powers; so when rel_t is not a scheme,
    validation passes row 1 and must fail in a later row.
    """
    b = np.repeat(np.arange(rel_t.shape[0]), s)
    rel = 1 + rel_t[np.ix_(b, b)]
    rel[b[:, None] == b[None, :]] = 1
    np.fill_diagonal(rel, 0)
    return rel


def test_perturbed_blow_ups_fail_after_row_one():
    rng = np.random.default_rng(20261018)
    sources = [generate(FamilySpec(f, params)) for f, params in SMALL_SOURCES]
    for _ in range(60):
        src = sources[int(rng.integers(len(sources)))]
        rel = _blow_up(_perturbed_scheme(rng, src), int(rng.integers(2, 4)))
        _tensor, witness = _reference_validation(rel, src.d + 1)
        assert witness is not None and witness[0] >= 2
        with pytest.raises(NotConstant) as info:
            build_scheme(RelationMatrix(n=rel.shape[0], d=src.d + 1, rel=rel))
        err = info.value
        assert (err.i, err.j, err.k, err.witness_lo, err.witness_hi) == witness


# (family, params, products A_i A_j checked); the full scan checks d(d+1)/2
PRODUCT_CHECKS = [
    ("cycle", (100,), 50),                        # stops after row 1
    ("hamming", (6, 3), 6),
    ("johnson", (12, 4), 4),
    ("hypercube_reordered", (0, 2, 1, 3), 5),     # relation 2 is distance 1: row 2
    ("cyclotomic13", (), 6),                      # not metric: full scan
    ("disjoint_cliques", (4, 3), 3),
]


@pytest.mark.parametrize("family,params,checks", PRODUCT_CHECKS)
def test_validation_stops_once_a_relation_generates(monkeypatch, family, params, checks):
    s = generate(FamilySpec(family, params))
    calls = []
    check = scheme_core._check_products_constant

    def spy(rel, p, a_i, a_j, i, j):
        calls.append((i, j))
        return check(rel, p, a_i, a_j, i, j)

    monkeypatch.setattr(scheme_core, "_check_products_constant", spy)
    rebuilt = build_scheme(RelationMatrix(n=s.n, d=s.d, rel=np.asarray(s.rel)))
    assert len(calls) == checks
    assert np.array_equal(rebuilt.tensor.p, s.tensor.p)


def _cycle_band(d):
    """B_1 of the cycle on 2d points: b_0 = c_d = 2, b_j = c_j = 1 for 0 < j < d, a_j = 0."""
    upper = np.r_[2, np.ones(d - 1, dtype=np.int64)]
    lower = np.r_[np.ones(d - 1, dtype=np.int64), 2]
    return np.diag(upper, 1) + np.diag(lower, -1)


def test_cycle400_builds_with_its_band(cycle_scheme):
    s = cycle_scheme(400)
    assert s.d == 200
    assert np.array_equal(s.tensor.p[:, 1, :], _cycle_band(200))


@pytest.mark.slow
def test_cycle1000_builds_with_its_band():
    s = generate(FamilySpec("cycle", (1000,)))
    assert s.d == 500
    assert np.array_equal(s.tensor.p[:, 1, :], _cycle_band(500))


def test_corpus_tensors_match_integer_reference(scheme_corpus):
    for name, s, _expected in scheme_corpus:
        rel = np.asarray(s.rel)
        tensor, witness = _reference_validation(rel, s.d)
        assert witness is None, name
        rebuilt = build_scheme(RelationMatrix(n=s.n, d=s.d, rel=rel))
        assert np.array_equal(rebuilt.tensor.p, tensor), name


SMALL = [
    ("cycle", (6,)),
    ("cycle", (9,)),
    ("hamming", (2, 2)),
    ("hamming", (3, 2)),
    ("johnson", (5, 2)),
    ("complete", (5,)),
    ("disjoint_cliques", (3, 3)),
    ("cyclotomic13", ()),
]


@pytest.mark.parametrize("family,params", SMALL)
def test_product_expansion_identity(family, params):
    # A_i A_j = sum_k p^k_{ij} A_k, checked entrywise in integers
    s = generate(FamilySpec(family, params))
    A = [s.adjacency(i).astype(np.int64) for i in range(s.d + 1)]
    p = s.tensor.p
    for i in range(s.d + 1):
        for j in range(s.d + 1):
            lhs = A[i] @ A[j]
            rhs = sum(int(p[k, i, j]) * A[k] for k in range(s.d + 1))
            assert np.array_equal(lhs, rhs), (i, j)


def test_tensor_rejects_unsymmetrizable_counts():
    # keeps p^k_{ij} = p^k_{ji}, p^0 = diag(k) and sum_k p^k_{ij} k_k = k_i k_j,
    # but k_1 p^1_{12} = 4 while k_2 p^2_{11} = 2
    p = generate(FamilySpec("cycle", (5,))).tensor.p.copy()
    p[1, 1, 2] += 1
    p[1, 2, 1] += 1
    p[2, 1, 2] -= 1
    p[2, 2, 1] -= 1
    with pytest.raises(ValueError, match=r"k_k p\^k_\{1j\} != k_j p\^j_\{1k\}"):
        IntersectionTensor(d=2, p=p)


def test_tensor_rejects_non_identity_relation_zero():
    # both keep the four identities above, but p^k_{0j} = delta_{kj} fails:
    # twice Petersen has k_0 = 2, and the padded class 3 has valency 0
    pet = generate(FamilySpec("petersen")).tensor.p
    padded = np.zeros((4, 4, 4), dtype=np.int64)
    padded[:3, :3, :3] = pet
    for d, p in ((2, 2 * pet), (3, padded)):
        with pytest.raises(ValueError, match=r"p\^k_\{0j\} must equal delta_\{kj\}"):
            IntersectionTensor(d=d, p=p)


def test_tensor_rejects_empty_class():
    # K_2 plus a class of valency 0: every other identity holds with n = 2
    p = np.zeros((3, 3, 3), dtype=np.int64)
    p[0] = np.diag([1, 1, 0])
    p[:, 0, :] = p[:, :, 0] = np.eye(3, dtype=np.int64)
    p[2, 1, 1] = 1
    with pytest.raises(ValueError, match="k_2 = 0: every class must be nonempty"):
        IntersectionTensor(d=2, p=p)


def test_missing_relation_ignores_an_absurd_class_count():
    # the check counts only the indices that occur, never d + 1 of them
    rel = _cycle_rel(5)
    for d in (10**18, 10**30):
        with pytest.raises(MissingRelation) as info:
            build_scheme(RelationMatrix(n=5, d=d, rel=rel))
        assert info.value.i == 3


@pytest.mark.parametrize("family,params", SMALL)
def test_tensor_invariants(family, params):
    s = generate(FamilySpec(family, params))
    p = s.tensor.p
    k = s.valencies
    assert int(k.sum()) == s.n == s.tensor.n
    assert np.array_equal(p, p.transpose(0, 2, 1))
    assert np.array_equal(p[0], np.diag(k))
    assert np.array_equal(np.einsum("kij,k->ij", p, k), np.outer(k, k))
    # indicators partition all of X x X
    total = sum(s.adjacency(i) for i in range(s.d + 1))
    assert np.array_equal(total, np.ones((s.n, s.n), dtype=total.dtype))


class TestReorder:
    def test_identity_perm(self):
        s = generate(FamilySpec("cycle", (7,)))
        t = reorder_relations(s, (0, 1, 2, 3))
        assert np.array_equal(t.rel, s.rel)
        assert np.array_equal(t.tensor.p, s.tensor.p)

    def test_perm_must_fix_zero(self):
        s = generate(FamilySpec("cycle", (7,)))
        with pytest.raises(PermMovesZero):
            reorder_relations(s, (1, 0, 2, 3))

    def test_rejects_non_permutation(self):
        s = generate(FamilySpec("cycle", (7,)))
        with pytest.raises(ValueError):
            reorder_relations(s, (0, 1, 1, 3))

    def test_swap_moves_classes(self):
        s = generate(FamilySpec("cycle", (7,)))
        t = reorder_relations(s, (0, 2, 1, 3))
        assert np.array_equal(t.rel == 1, s.rel == 2)
        assert np.array_equal(t.rel == 2, s.rel == 1)
        # p-numbers transported: p'^{perm k}_{perm i, perm j} = p^k_{ij}
        assert t.tensor.p[3, 2, 2] == s.tensor.p[3, 1, 1]

    @pytest.mark.parametrize("family,params", SMALL)
    def test_rebuild_after_reorder_never_fails(self, family, params):
        rng = np.random.default_rng(20260823)
        s = generate(FamilySpec(family, params))
        for _ in range(3):
            perm = [0] + list(1 + rng.permutation(s.d))
            t = reorder_relations(s, perm)
            rebuilt = build_scheme(RelationMatrix(n=t.n, d=t.d, rel=np.asarray(t.rel)))
            assert np.array_equal(rebuilt.tensor.p, t.tensor.p)


def test_tensor_constructor_rejects_garbage():
    with pytest.raises(ValueError):
        IntersectionTensor(d=1, p=np.ones((2, 2, 2), dtype=np.int64))
