from __future__ import annotations

from math import comb

import numpy as np
import pytest

from schemex.families import FAMILIES, FamilySpec, ParamOutOfRange, corpus, generate

from nxn_reference import adjacency, dense

SIZE_CAP_MESSAGES = [
    ("hamming", (8, 3), "hamming(8,3) has 6561 > 5000 points"),
    ("hamming", (12, 3), "hamming(12,3) has 531441 > 5000 points"),
    ("hamming", (13, 2), "hamming(13,2) has more than 5000 points"),
    ("hamming", (1, 5001), "hamming(1,5001) has more than 5000 points"),
    ("johnson", (101, 2), "johnson(101,2) has 5050 > 5000 points"),
    ("johnson", (5000, 2500), f"johnson(5000,2500) has {comb(5000, 2500)} > 5000 points"),
    ("johnson", (5001, 1), "johnson(5001,1) has more than 5000 points"),
    ("disjoint_cliques", (3, 2000), "disjoint_cliques(3,2000) has 6000 > 5000 points"),
    ("disjoint_cliques", (2, 5001), "disjoint_cliques(2,5001) has more than 5000 points"),
]


class TestFamilySpec:
    def test_known_families(self):
        assert "hamming" in FAMILIES and "cyclotomic13" in FAMILIES

    def test_rejects_unknown_family(self):
        with pytest.raises(ParamOutOfRange):
            FamilySpec("paley", (13,))

    @pytest.mark.parametrize(
        "family,params",
        [
            ("cycle", (2,)),
            ("cycle", ()),
            ("complete", (1,)),
            ("hamming", (0, 2)),
            ("hamming", (2, 1)),
            ("hamming", (2,)),
            ("johnson", (4, 0)),
            ("johnson", (3, 2)),      # needs v >= 2k
            ("disjoint_cliques", (1, 3)),
            ("disjoint_cliques", (3, 1)),
            ("cyclotomic13", (13,)),
            ("petersen", (5,)),
            ("hypercube_reordered", (1, 0, 2, 3)),  # must fix class 0
            ("hypercube_reordered", (0, 1, 2)),
        ],
    )
    def test_rejects_bad_params(self, family, params):
        with pytest.raises(ParamOutOfRange):
            spec = FamilySpec(family, params)
            generate(spec)

    @pytest.mark.parametrize(
        "family,params,n",
        [("cycle", (3,), 3), ("hamming", (1, 2), 2), ("johnson", (4, 1), 4)],
    )
    def test_degenerate_edges_are_valid(self, family, params, n):
        s = generate(FamilySpec(family, params))
        assert (s.n, s.d) == (n, 1)

    def test_size_cap(self):
        with pytest.raises(ParamOutOfRange):
            generate(FamilySpec("hamming", (13, 2)))  # 8192 points > cap

    @pytest.mark.parametrize("family,params,msg", SIZE_CAP_MESSAGES,
                             ids=[f"{family}{params}" for family, params, _ in SIZE_CAP_MESSAGES])
    def test_size_cap_messages(self, family, params, msg):
        # 2^n and q bound q^n, v bounds C(v, k) and 2 max(c, m) bounds c m from below,
        # so past them nothing is counted
        with pytest.raises(ParamOutOfRange) as exc:
            generate(FamilySpec(family, params))
        assert str(exc.value) == msg


class TestGolden:
    def test_hamming_3_2(self):
        s = generate(FamilySpec("hamming", (3, 2)))
        assert (s.n, s.d) == (8, 3)
        assert tuple(s.valencies) == (1, 3, 3, 1)

    def test_hamming_2_3(self):
        s = generate(FamilySpec("hamming", (2, 3)))
        assert (s.n, s.d) == (9, 2)
        assert tuple(s.valencies) == (1, 4, 4)

    def test_johnson_5_2(self):
        s = generate(FamilySpec("johnson", (5, 2)))
        assert (s.n, s.d) == (10, 2)
        assert tuple(s.valencies) == (1, 6, 3)

    def test_cycle_5(self):
        s = generate(FamilySpec("cycle", (5,)))
        assert (s.n, s.d) == (5, 2)
        assert tuple(s.valencies) == (1, 2, 2)

    def test_cycle_6_has_antipode_class(self):
        s = generate(FamilySpec("cycle", (6,)))
        assert (s.n, s.d) == (6, 3)
        assert tuple(s.valencies) == (1, 2, 2, 1)

    def test_complete(self):
        s = generate(FamilySpec("complete", (6,)))
        assert (s.n, s.d) == (6, 1)
        assert tuple(s.valencies) == (1, 5)

    def test_disjoint_cliques(self):
        s = generate(FamilySpec("disjoint_cliques", (3, 3)))
        assert (s.n, s.d) == (9, 2)
        assert tuple(s.valencies) == (1, 2, 6)

    def test_cyclotomic13(self):
        s = generate(FamilySpec("cyclotomic13"))
        assert (s.n, s.d) == (13, 3)
        assert tuple(s.valencies) == (1, 4, 4, 4)
        # the classes are the cubic-residue cosets; difference 5 sits with 1
        assert s.rel[0, 5] == 1 and s.rel[0, 2] == 2 and s.rel[0, 4] == 3

    def test_hamming_6_3(self):
        s = generate(FamilySpec("hamming", (6, 3)))
        assert (s.n, s.d) == (729, 6)
        assert tuple(s.valencies) == (1, 12, 60, 160, 240, 192, 64)

    def test_johnson_12_4(self):
        s = generate(FamilySpec("johnson", (12, 4)))
        assert (s.n, s.d) == (495, 4)
        assert tuple(s.valencies) == (1, 32, 168, 224, 70)

    def test_petersen_first_relation_is_disjointness(self):
        s = generate(FamilySpec("petersen"))
        assert tuple(s.valencies) == (1, 3, 6)
        j = generate(FamilySpec("johnson", (5, 2)))
        assert np.array_equal(adjacency(s, 1), adjacency(j, 2))
        # relation-1 graph is 3-regular on 10 points with girth-5 structure:
        # no triangles and no 4-cycles
        A = adjacency(s, 1)
        assert np.trace(A @ A @ A) == 0
        A2 = A @ A
        off = A2 - np.diag(np.diag(A2))
        assert off.max() == 1

    def test_hypercube_reordered(self):
        s = generate(FamilySpec("hypercube_reordered", (0, 3, 2, 1)))
        h = generate(FamilySpec("hamming", (3, 2)))
        assert tuple(s.valencies) == (1, 1, 3, 3)
        assert np.array_equal(adjacency(s, 1), adjacency(h, 3))


class TestCorpus:
    def test_contents(self, scheme_corpus):
        names = [name for name, _, _ in scheme_corpus]
        assert len(names) == len(set(names))
        labels = {label for _, _, label in scheme_corpus}
        assert labels == {"yes", "no", "precondition-failed"}
        negatives = [n for n, _, lab in scheme_corpus if lab != "yes"]
        assert sorted(negatives) == [
            "cyclotomic13", "disjoint_cliques(3,3)", "hamming(3,2)+A1=antipodal"
        ]

    def test_reasonable_size(self, scheme_corpus):
        assert 25 <= len(scheme_corpus) <= 40
        assert max(s.n for _, s, _ in scheme_corpus) <= 400

    def test_generation_is_deterministic(self):
        for spec in [
            FamilySpec("hamming", (3, 3)),
            FamilySpec("johnson", (6, 2)),
            FamilySpec("petersen"),
        ]:
            a, b = generate(spec), generate(spec)
            assert np.array_equal(a.rel, b.rel)
            assert np.array_equal(dense(a), dense(b))
