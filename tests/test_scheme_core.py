from __future__ import annotations

import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from schemex import scheme_core
from schemex.detect import analyze
from schemex.families import FamilySpec, generate
from schemex.graph_tools import Graph, distance_data
from schemex.scheme_core import (
    AssociationScheme,
    DiagonalNotZero,
    MissingRelation,
    NotConstant,
    NotSymmetric,
    RelationMatrix,
    SchemeValidationError,
    ZeroOffDiagonal,
    build_scheme,
)

from nxn_reference import (
    adjacency,
    dense,
    reorder_relations,
    tensor_checks_loop,
    tensor_from_representatives_full,
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

    @pytest.mark.parametrize("n, d, message", [
        (1, 1, "a scheme needs at least 2 points"),
        (2, 0, "a scheme needs at least 1 non-identity relation"),
    ])
    def test_rejects_too_few_points_or_classes(self, n, d, message):
        with pytest.raises(ValueError, match=message):
            RelationMatrix(n=n, d=d, rel=np.zeros((n, n), dtype=int))

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
        assert s.slab(1)[1, 1] == 0
        assert s.slab(1)[2, 1] == 1

    def test_diagonal_not_zero(self):
        rel = _cycle_rel(5)
        rel[2, 2] = 1
        with pytest.raises(DiagonalNotZero) as info:
            build_scheme(RelationMatrix(n=5, d=2, rel=rel))
        assert info.value.x == 2

    def test_zero_off_diagonal(self):
        # two blocks {0,2}, {1,3} joined by relation 1: every product is constant,
        # but relation 0 is not the identity
        rel = np.array([[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0]])
        with pytest.raises(ZeroOffDiagonal) as info:
            build_scheme(RelationMatrix(n=4, d=1, rel=rel))
        assert (info.value.x, info.value.y) == (0, 2)

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
    lacking = 0  # matrices whose row 0 lacks a class: the representatives come from all of rel
    for trial in range(400):
        if trial % 2:
            n = int(rng.integers(3, 13))
            d = int(rng.integers(1, min(4, n * (n - 1) // 2) + 1))
            rel = _random_relation_matrix(rng, n, d)
        else:
            src = sources[int(rng.integers(len(sources)))]
            n, d = src.n, src.d
            rel = _perturbed_scheme(rng, src)
        lacking += np.unique(rel[0]).size < d + 1
        tensor, witness = _reference_validation(rel, d)
        rm = RelationMatrix(n=n, d=d, rel=rel)
        if witness is None:
            assert np.array_equal(dense(build_scheme(rm)), tensor)
            continue
        failing_pairs.add(witness[:2])
        with pytest.raises(NotConstant) as info:
            build_scheme(rm)
        err = info.value
        assert (err.i, err.j, err.k, err.witness_lo, err.witness_hi) == witness
    assert len(failing_pairs) >= 3 and lacking >= 20


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
# the GEMMs that check them: base 3 packs 15 products of cycle(100)'s row 1, base 13 all 6
# of hamming(6,3)'s; one per row where a row's products fit one GEMM
PRODUCT_GEMMS = {"cycle": 4, "hamming": 1, "johnson": 1, "hypercube_reordered": 2,
                 "cyclotomic13": 3, "disjoint_cliques": 2}


@pytest.mark.parametrize("family,params,checks", PRODUCT_CHECKS)
def test_validation_stops_once_a_relation_generates(monkeypatch, family, params, checks):
    s = generate(FamilySpec(family, params))
    groups = []
    check = scheme_core._check_product_group

    def spy(rel, p, a_i, i, j0, j1, base):
        groups.append(range(j0, j1))
        return check(rel, p, a_i, i, j0, j1, base)

    monkeypatch.setattr(scheme_core, "_check_product_group", spy)
    rebuilt = build_scheme(RelationMatrix(n=s.n, d=s.d, rel=np.asarray(s.rel)))
    assert sum(len(js) for js in groups) == checks
    assert len(groups) == PRODUCT_GEMMS[family]
    assert np.array_equal(dense(rebuilt), dense(s))


def _packed_outcome(rel, d):
    """build_scheme's tensor, every slab stacked, or its NotConstant witness (i, j, k, lo, hi)."""
    try:
        return dense(build_scheme(RelationMatrix(n=rel.shape[0], d=d, rel=rel)))
    except NotConstant as e:
        return e.i, e.j, e.k, e.witness_lo, e.witness_hi


def _same_outcome(a, b):
    return np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b


def _packing_inputs(scheme_corpus):
    """(name, rel, d): the corpus, perturbed schemes and blow-ups, and the benchmark's matrices."""
    rng = np.random.default_rng(20261020)
    sources = [generate(FamilySpec(f, params)) for f, params in SMALL_SOURCES + METRIC_SOURCES]
    for name, s, _expected in scheme_corpus:
        yield name, np.asarray(s.rel), s.d
    for t in range(60):
        src = sources[int(rng.integers(len(sources)))]
        yield f"perturbed {t}", _perturbed_scheme(rng, src), src.d
    for t in range(20):
        src = sources[int(rng.integers(len(SMALL_SOURCES)))]
        yield f"blow-up {t}", _blow_up(_perturbed_scheme(rng, src), int(rng.integers(2, 4))), src.d + 1
    for t in range(40):
        n = int(rng.integers(3, 13))
        d = int(rng.integers(1, min(4, n * (n - 1) // 2) + 1))
        yield f"random {t}", _random_relation_matrix(rng, n, d), d
    yield from _benchmark_matrices()


def test_one_product_per_gemm_gives_the_same_outcomes(monkeypatch, scheme_corpus):
    # _PACKED_MAX = 1 leaves one digit per GEMM, and BLOCK_ENTRIES = 1 one row per block:
    # the same tensors and witnesses must come out, and on every input small enough,
    # those of the integer reference
    rejected = 0
    for name, rel, d in _packing_inputs(scheme_corpus):
        packed = _packed_outcome(rel, d)
        for constant in ("_PACKED_MAX", "BLOCK_ENTRIES"):
            monkeypatch.setattr(scheme_core, constant, 1)
            assert _same_outcome(packed, _packed_outcome(rel, d)), (name, constant)
            monkeypatch.undo()
        rejected += not isinstance(packed, np.ndarray)
        if rel.shape[0] <= 100:
            tensor, witness = _reference_validation(np.asarray(rel, dtype=np.int64), d)
            assert _same_outcome(packed, tensor if witness is None else witness), name
    assert rejected >= 60


def test_the_base_is_the_largest_row_degree():
    # path 0-1-2-3: row 0 has one 1-neighbour, rows 1 and 2 have two.  A base of
    # deg_1(0) + 1 = 2 would read M(1, 1) = 2 as the digits (0, 1), a count of 0
    rel = _path_rel(4)
    tensor, witness = _reference_validation(rel, 3)
    assert witness == (1, 1, 0, (0, 0, 1), (1, 1, 2))
    assert _packed_outcome(rel, 3) == witness


def test_a_row_block_without_the_failing_class_adds_no_count(monkeypatch):
    # one row per block: the witness scan skips the rows that hold no pair of class k.
    # A_1 A_2 fails on class 2 here, which row 3 does not hold
    monkeypatch.setattr(scheme_core, "BLOCK_ENTRIES", 1)
    rel = np.array([[0, 2, 1, 3], [2, 0, 2, 1], [1, 2, 0, 3], [3, 1, 3, 0]])
    assert _reference_validation(rel, 3)[1] == (1, 2, 2, (1, 0, 0), (0, 1, 1))
    inputs = [(rel, 3)]
    rng = np.random.default_rng(7)
    for _ in range(3000):
        n, d = int(rng.integers(4, 10)), int(rng.integers(2, 5))
        inputs.append((_random_relation_matrix(rng, n, d), d))
    hits = 0
    for rel, d in inputs:
        _tensor, witness = _reference_validation(rel, d)
        if witness is None or (rel == witness[2]).any(axis=1).all():
            continue
        hits += 1
        assert _packed_outcome(rel, d) == witness
    assert hits >= 10


def test_a_verified_square_leaves_class_i_alone_in_column_0():
    # greedy_chain starts at [0, i] because column 0 of B_i's support is {i}; once
    # A_i A_i is constant on the classes that holds at any pair of each class, even
    # where relation 0 has off-diagonal pairs, which give B_i[i, 0] > 1
    rng, pick = np.random.default_rng(11), np.random.default_rng(12)
    checked = wide = 0
    for _ in range(3000):
        n, d = int(rng.integers(4, 8)), int(rng.integers(1, 4))
        rel = np.zeros((n, n), dtype=np.int64)
        iu = np.triu_indices(n, 1)
        rel[iu] = rng.choice(d + 1, size=iu[0].size, p=[0.3] + [0.7 / d] * d)
        rel = rel + rel.T
        if np.unique(rel).size != d + 1:
            continue
        pairs = [np.argwhere(rel == k) for k in range(d + 1)]
        x, y = np.array([pk[pick.integers(len(pk))] for pk in pairs]).T
        for i in range(1, d + 1):
            a_i = (rel == i).astype(np.int64)
            square = a_i @ a_i
            if all(np.unique(square[rel == k]).size == 1 for k in range(d + 1)):
                b = scheme_core._count_slab(rel.astype(np.uint16), y, i, x)
                assert np.flatnonzero(b[:, 0]).tolist() == [i]
                checked += 1
                wide += b[i, 0] > 1
    assert wide >= 20 and checked >= 25


@pytest.mark.parametrize("name", ["johnson(12,4)-graph", "8-cube"])
def test_validation_holds_a_bounded_number_of_matrices(name):
    # A_i, the packed W and the product M, with the gathers a block of rows at a time
    rel, d = next((r, d) for case, r, d in _benchmark_matrices() if case == name)
    rm = RelationMatrix(n=rel.shape[0], d=d, rel=rel)
    one = rm.n ** 2 * np.dtype(np.float32).itemsize
    tracemalloc.start()
    try:
        build_scheme(rm)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * one, f"validation peaked at {peak / one:.2f} n^2 float32 arrays"


def _cycle_band(d):
    """B_1 of the cycle on 2d points: b_0 = c_d = 2, b_j = c_j = 1 for 0 < j < d, a_j = 0."""
    upper = np.r_[2, np.ones(d - 1, dtype=np.int64)]
    lower = np.r_[np.ones(d - 1, dtype=np.int64), 2]
    return np.diag(upper, 1) + np.diag(lower, -1)


def test_cycle400_builds_with_its_band(cycle_scheme):
    s = cycle_scheme(400)
    assert s.d == 200
    assert np.array_equal(s.slab(1), _cycle_band(200))


@pytest.mark.slow
def test_cycle1000_builds_with_its_band():
    s = generate(FamilySpec("cycle", (1000,)))
    assert s.d == 500
    assert np.array_equal(s.slab(1), _cycle_band(500))


def test_corpus_tensors_match_integer_reference(scheme_corpus):
    for name, s, _expected in scheme_corpus:
        rel = np.asarray(s.rel)
        tensor, witness = _reference_validation(rel, s.d)
        assert witness is None, name
        rebuilt = build_scheme(RelationMatrix(n=s.n, d=s.d, rel=rel))
        assert np.array_equal(dense(rebuilt), tensor), name


def _benchmark_matrices():
    """(name, rel, d) of the benchmark's cli ladder schemes and its four graphs' distance matrices."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    import inputs

    for case in inputs.ladder_cases(1):
        yield case.name, case.rel, case.d
    for case in inputs.graph_cases(1):
        dd = distance_data(Graph.from_edges(case.n, case.edge_array))
        yield case.name, dd.dist, dd.diameter


def test_representatives_from_row_zero_match_the_full_scan(scheme_corpus):
    # on a scheme any pair of a class gives its counts: the pairs (0, y_k) that row 0's
    # scatter leaves, which are not all the first ones, count the tensor of the first pairs
    mats = [(name, s.rel, s.d) for name, s, _expected in scheme_corpus]
    schemes = later = 0
    for name, rel, d in [*mats, *_benchmark_matrices()]:
        rm = RelationMatrix(n=rel.shape[0], d=d, rel=rel)
        rel = rm.rel
        try:
            t = build_scheme(rm)
        except SchemeValidationError:
            continue
        schemes += 1
        later += (t.y != np.unique(rel[0], return_index=True)[1]).any()
        assert np.array_equal(dense(t), tensor_from_representatives_full(rel, d)), name
    assert schemes >= 35 and later >= 30


def test_representatives_when_row_zero_lacks_a_class(monkeypatch):
    # such a matrix is no scheme, so the pairs come from a scatter over all of rel;
    # validation then fails as with the full scan's first pairs, with the same witness
    rng = np.random.default_rng(20261019)
    count = scheme_core._count_slab
    fallbacks = []

    def spy(rel, y, i, x=None):
        fallbacks.append(x is not None)
        return count(rel, y, i, x)

    def first_pairs(rel, y, i, x=None):
        return tensor_from_representatives_full(rel, y.size - 1)[:, i, :]

    outcomes = []
    for _ in range(100):
        n, d = int(rng.integers(4, 16)), int(rng.integers(2, 5))
        rel = _random_relation_matrix(rng, n, d)
        gone = int(rng.integers(1, d + 1))
        row = np.where(rel[0] == gone, 1 + gone % d, rel[0])
        rel[0], rel[:, 0] = row, row
        if np.unique(rel).size != d + 1:
            continue
        rel = RelationMatrix(n=n, d=d, rel=rel).rel
        assert np.unique(rel[0]).size < d + 1
        monkeypatch.setattr(scheme_core, "_count_slab", spy)
        outcomes.append(_build_outcome(rel, d))
        monkeypatch.setattr(scheme_core, "_count_slab", first_pairs)
        assert _build_outcome(rel, d) == outcomes[-1]
        monkeypatch.undo()
    assert len(outcomes) >= 50 and all(isinstance(o, str) for o in outcomes)
    assert fallbacks and all(fallbacks)


def _build_outcome(rel, d):
    try:
        return dense(build_scheme(RelationMatrix(n=rel.shape[0], d=d, rel=rel)))
    except SchemeValidationError as e:
        return f"{type(e).__name__}: {e}"


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
    A = [adjacency(s, i).astype(np.int64) for i in range(s.d + 1)]
    p = dense(s)
    for i in range(s.d + 1):
        for j in range(s.d + 1):
            lhs = A[i] @ A[j]
            rhs = sum(int(p[k, i, j]) * A[k] for k in range(s.d + 1))
            assert np.array_equal(lhs, rhs), (i, j)


def _checked(p):
    """An AssociationScheme handed every slab p[:, i, :] of p and the valencies p^0_{ii}, as
    build_scheme hands it the slabs validation counted: its constructor checks them.  It has
    no relation matrix to count a slab from, and no pairs (0, y_k)."""
    slabs = {i: p[:, i, :].copy() for i in range(p.shape[0])}
    return AssociationScheme(None, np.empty(0, dtype=np.intp), p[0].diagonal().copy(), slabs)


def test_tensor_rejects_unsymmetrizable_counts():
    # keeps p^k_{ij} = p^k_{ji}, p^0 = diag(k) and sum_k p^k_{ij} k_k = k_i k_j,
    # but k_1 p^1_{12} = 4 while k_2 p^2_{11} = 2
    p = dense(generate(FamilySpec("cycle", (5,))))
    p[1, 1, 2] += 1
    p[1, 2, 1] += 1
    p[2, 1, 2] -= 1
    p[2, 2, 1] -= 1
    with pytest.raises(ValueError, match=r"k_k p\^k_\{1j\} != k_j p\^j_\{1k\}"):
        _checked(p)


def test_tensor_n_is_the_valency_sum_as_an_int(scheme_corpus):
    for name, s, _ in scheme_corpus:
        assert type(s.n) is int and s.n == int(s.valencies.sum()), name


def test_slab_index_must_name_a_class():
    # a negative i no longer wraps to a slab from the end, as an index into a dense p did
    t = generate(FamilySpec("cycle", (5,)))
    for i in (-1, 3):
        with pytest.raises(IndexError, match=f"slab {i} is out of range 0..2"):
            t.slab(i)
    assert sorted(t.slabs) == [1]


def test_tensor_rejects_asymmetric_lower_indices():
    # B_1 of the pentagon plus [[0, 0, 0], [0, 1, -1], [0, -1, 1]] keeps every identity of
    # slab 1 alone, but p^2_{12} = 2 while B_2 keeps p^2_{21} = 1
    p = dense(generate(FamilySpec("cycle", (5,))))
    p[1:, 1, 1:] += np.array([[1, -1], [-1, 1]])
    with pytest.raises(ValueError, match=r"p\^k_\{ij\} != p\^k_\{ji\}"):
        _checked(p)


def test_tensor_rejects_negative_entry():
    p = dense(generate(FamilySpec("cycle", (5,))))
    p[2, 1, 1] = -1
    with pytest.raises(ValueError, match="intersection numbers must be non-negative"):
        _checked(p)


def test_tensor_rejects_off_diagonal_p0():
    # symmetric in the lower indices, but p^0_{12} = p^0_{21} = 1
    p = dense(generate(FamilySpec("cycle", (5,))))
    p[0, 1, 2] = p[0, 2, 1] = 1
    with pytest.raises(ValueError, match=r"p\^0_\{ij\} must equal delta_\{ij\} k_i"):
        _checked(p)


def test_tensor_rejects_broken_row_sums():
    # p^0 = diag(1, 3), p^k_{0j} = delta_{kj} and p^1_{11} = 0 (K_4 has 2): k_1 p^1_{11}
    # stays symmetric, but sum_k p^k_{11} k_k = 3 while k_1 k_1 = 9
    p = np.zeros((2, 2, 2), dtype=np.int64)
    p[0] = np.diag([1, 3])
    p[:, 0, :] = p[:, :, 0] = np.eye(2, dtype=np.int64)
    with pytest.raises(ValueError, match=r"sum_k p\^k_\{ij\} k_k != k_i k_j"):
        _checked(p)


def _break_row_sums(p, i):
    """Add 1 to p^1_{ii}: the row sums of B_i fail, and for i > 1 so does its symmetry."""
    p[1, i, i] += 1


def _break_bannai_ito(p, i):
    """Move one count of p^c_{id} from class c2 to class c1, in B_i and B_d alike.

    All valencies of an odd cycle are equal, so every row sum holds, but
    k_k p^k_{ij} = k_j p^j_{ik} fails for i and for d.
    """
    d = p.shape[0] - 1
    c2 = next(c for c in range(1, d + 1) if p[c, i, d] >= 1)
    c1 = next(c for c in range(1, d + 1) if c != c2)
    for a, b in ((i, d), (d, i)):
        p[c1, a, b] += 1
        p[c2, a, b] -= 1


ROW_SUMS = "sum_k p^k_{ij} k_k != k_i k_j; input is not a scheme"


def _bannai_ito(i):
    return f"k_k p^k_{{{i}j}} != k_j p^j_{{{i}k}}; not a symmetric scheme"


@pytest.mark.parametrize("n, breaks, want", [
    # cycle(13): d = 6
    (13, [("sums", 3)], ROW_SUMS),
    (13, [("bi", 1)], _bannai_ito(1)),
    (13, [("bi", 3)], _bannai_ito(3)),
    (13, [("bi", 5)], _bannai_ito(5)),
    (13, [("bi", 4), ("sums", 2)], ROW_SUMS),
    (13, [("sums", 5), ("bi", 2)], _bannai_ito(2)),
    # cycle(121): d = 60.  Each case fails on checks that report the last failing i
    # rather than the first, or one identity of a slab before the other.
    (121, [("sums", 4)], ROW_SUMS),
    (121, [("sums", 5)], ROW_SUMS),
    (121, [("sums", 7)], ROW_SUMS),
    (121, [("bi", 4)], _bannai_ito(4)),
    (121, [("bi", 5)], _bannai_ito(5)),
    (121, [("bi", 7)], _bannai_ito(7)),
    (121, [("bi", 5), ("sums", 6)], _bannai_ito(5)),
    (121, [("sums", 5), ("bi", 6)], ROW_SUMS),
    (121, [("sums", 7), ("bi", 4)], _bannai_ito(4)),
    (121, [("bi", 9), ("bi", 6)], _bannai_ito(6)),
    (121, [("sums", 9), ("bi", 13)], ROW_SUMS),
])
def test_blocked_checks_report_the_slab_loop_witness(cycle_scheme, n, breaks, want):
    # the slabs are checked one by one as they are kept, in index order here
    p = dense(cycle_scheme(n))
    d = p.shape[0] - 1
    for kind, i in breaks:
        (_break_row_sums if kind == "sums" else _break_bannai_ito)(p, i)
    with pytest.raises(ValueError) as ref:
        tensor_checks_loop(d, p)
    with pytest.raises(ValueError) as got:
        _checked(p)
    assert str(got.value) == str(ref.value) == want


def test_tensor_checks_allocate_no_cube(cycle_scheme):
    # each check reads one slab, or one column of two, at a time
    t = cycle_scheme(400)
    slabs = {i: scheme_core._count_slab(t.rel, t.y, i) for i in range(t.d + 1)}
    one_cube = (t.d + 1) ** 3 * np.dtype(np.int64).itemsize
    tracemalloc.start()
    try:
        AssociationScheme(t.rel, t.y, t.valencies, slabs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 0.01 * one_cube, f"the checks peaked at {peak / one_cube:.4f} (d+1)^3 int64 arrays"


def test_build_counts_no_cube():
    # validation's n x n float32 matrices and slab 1: the dense tensor alone was 61 MiB
    rm = RelationMatrix(n=400, d=200, rel=_cycle_rel(400))
    tracemalloc.start()
    try:
        build_scheme(rm)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20, f"build_scheme peaked at {peak / 2 ** 20:.1f} MiB"


@pytest.mark.parametrize("family, params, counted", [
    ("cycle", (100,), [1]), ("cyclotomic13", (), [1, 2, 3]),
])
def test_analyze_counts_only_the_slabs_it_reads(family, params, counted):
    # a simple spectrum is split by S_1 and every route reads B_1; validation of the
    # non-metric cyclotomic13 runs all three rows
    s = generate(FamilySpec(family, params))
    analyze(s)
    assert sorted(s.slabs) == counted


def test_tensor_rejects_non_identity_relation_zero():
    # both keep the identities above, but p^k_{0j} = delta_{kj} fails:
    # twice Petersen has k_0 = 2, and the padded class 3 has valency 0
    pet = dense(generate(FamilySpec("petersen")))
    padded = np.zeros((4, 4, 4), dtype=np.int64)
    padded[:3, :3, :3] = pet
    for p in (2 * pet, padded):
        with pytest.raises(ValueError, match=r"p\^k_\{0j\} must equal delta_\{kj\}"):
            _checked(p)


def test_tensor_rejects_empty_class():
    # K_2 plus a class of valency 0: every other identity holds with n = 2
    p = np.zeros((3, 3, 3), dtype=np.int64)
    p[0] = np.diag([1, 1, 0])
    p[:, 0, :] = p[:, :, 0] = np.eye(3, dtype=np.int64)
    p[2, 1, 1] = 1
    with pytest.raises(ValueError, match="k_2 = 0: every class must be nonempty"):
        _checked(p)


def test_float32_validation_refuses_2_to_the_24_points():
    # a stub: a real 2**24-point matrix would take 512 TiB; the guard runs before any check
    class Stub:
        n, d, rel = 2 ** 24, 1, np.array([[0, 1], [1, 0]], dtype=np.uint16)

    with pytest.raises(ValueError) as exc:
        build_scheme(Stub())
    assert str(exc.value) == "n = 16777216 points: float32 validation is exact only for n < 2**24"


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
    p = dense(s)
    k = s.valencies
    assert int(k.sum()) == s.n
    assert np.array_equal(p, p.transpose(0, 2, 1))
    assert np.array_equal(p[0], np.diag(k))
    assert np.array_equal(np.einsum("kij,k->ij", p, k), np.outer(k, k))
    # indicators partition all of X x X
    total = sum(adjacency(s, i) for i in range(s.d + 1))
    assert np.array_equal(total, np.ones((s.n, s.n), dtype=total.dtype))


class TestReorder:
    def test_identity_perm(self):
        s = generate(FamilySpec("cycle", (7,)))
        t = reorder_relations(s, (0, 1, 2, 3))
        assert np.array_equal(t.rel, s.rel)
        assert np.array_equal(dense(t), dense(s))

    def test_rejects_non_permutation(self):
        s = generate(FamilySpec("cycle", (7,)))
        with pytest.raises(MissingRelation):  # relations 1 and 2 merge; 2 never occurs
            reorder_relations(s, (0, 1, 1, 3))

    def test_swap_moves_classes(self):
        s = generate(FamilySpec("cycle", (7,)))
        t = reorder_relations(s, (0, 2, 1, 3))
        assert np.array_equal(t.rel == 1, s.rel == 2)
        assert np.array_equal(t.rel == 2, s.rel == 1)
        # p-numbers transported: p'^{perm k}_{perm i, perm j} = p^k_{ij}
        assert t.slab(2)[3, 2] == s.slab(1)[3, 1]

    @pytest.mark.parametrize("family,params", SMALL)
    def test_rebuild_after_reorder_never_fails(self, family, params):
        rng = np.random.default_rng(20260823)
        s = generate(FamilySpec(family, params))
        for _ in range(3):
            perm = [0] + list(1 + rng.permutation(s.d))
            t = reorder_relations(s, perm)
            # counted again at the relabelled representatives: p'[perm k, perm i, perm j] = p[k, i, j]
            assert np.array_equal(dense(t)[np.ix_(perm, perm, perm)], dense(s))


def test_tensor_constructor_rejects_garbage():
    with pytest.raises(ValueError):
        _checked(np.ones((2, 2, 2), dtype=np.int64))
