from __future__ import annotations

import importlib
import itertools
import tracemalloc

import numpy as np
import pytest

from schemex.detect import (
    BASE_TOL,
    MultipleL,
    PerronNotSeparated,
    SpectrumNotSimple,
    YES,
    NO,
    PRECONDITION_FAILED,
    analyze,
    detect,
    excess_route,
    mstar_decomposition_residual,
    nstar_sets,
    predistance_route,
    q_polynomial_route,
    tridiagonal_route,
)
from schemex.families import FamilySpec, generate
from schemex.poly import predistance_polynomials
from schemex.scheme_core import IntersectionTensor, reorder_relations
from schemex.spectral import KreinTensor, krein_parameters, spectral_data

from nxn_reference import krein_expansion, mstar_product


def _scheme(family, params=()):
    return generate(FamilySpec(family, params))


def _seven_cycle_swapped():
    # distance classes 2 and 3 exchanged; the chain must rediscover 0,1,3,2
    return reorder_relations(_scheme("cycle", (7,)), (0, 1, 3, 2))


def _walk_count_first_appearance(s):
    """Reference for nstar: exact walk counts B_1^h e_0 in Python integers, h <= d."""
    d = s.d
    B1 = [[int(v) for v in row] for row in s.tensor.p[:, 1, :]]
    coeff = [1] + [0] * d  # A_1^0 = A_0
    first = [None] * (d + 1)
    first[0] = 0
    for h in range(1, d + 1):
        coeff = [sum(B1[k][j] * coeff[j] for j in range(d + 1)) for k in range(d + 1)]
        for j, v in enumerate(coeff):
            if v != 0 and first[j] is None:
                first[j] = h
    return first


def _assert_nstar_matches_walk_counts(s, label):
    first = _walk_count_first_appearance(s)
    sd = spectral_data(s.tensor)
    unreached = [j for j, f in enumerate(first) if f is None]
    if unreached:
        with pytest.raises(PerronNotSeparated) as exc:
            nstar_sets(s.tensor, sd)
        assert f"relations {unreached} never appear" in str(exc.value), label
        return
    want = tuple(
        frozenset(j for j, f in enumerate(first) if f == h) for h in range(s.d + 1)
    )
    assert nstar_sets(s.tensor, sd).sets == want, label


# ---------------------------------------------------------------------------
# exhaustive reference: try every relabelling of the classes >= 2
# ---------------------------------------------------------------------------

def _oracle_chain_orders(mat, d, positive, zero):
    """All orderings (0, 1, ...) under which mat becomes irreducible tridiagonal."""
    found = []
    for perm in itertools.permutations(range(2, d + 1)):
        order = (0, 1) + perm
        ok = True
        for a in range(d + 1):
            for b in range(d + 1):
                v = mat[order[a], order[b]]
                if abs(a - b) >= 2 and not zero(v):
                    ok = False
                elif abs(a - b) == 1 and not positive(v):
                    ok = False
            if not ok:
                break
        if ok:
            found.append(order)
    return found


class TestTridiagonal:
    def test_pentagon(self):
        v = tridiagonal_route(_scheme("cycle", (5,)).tensor)
        assert v.verdict == YES
        assert v.ordering == (0, 1, 2)
        assert v.l == 2

    def test_swapped_cycle_recovers_order(self):
        v = tridiagonal_route(_seven_cycle_swapped().tensor)
        assert v.verdict == YES
        assert v.ordering == (0, 1, 3, 2)

    def test_single_class_is_trivially_yes(self):
        v = tridiagonal_route(_scheme("complete", (4,)).tensor)
        assert v.verdict == YES
        assert v.ordering == (0, 1)

    def test_cyclotomic_branches(self):
        v = tridiagonal_route(_scheme("cyclotomic13").tensor)
        assert v.verdict == NO
        assert "2 candidates" in v.witness

    def test_disjoint_cliques_stalls(self):
        v = tridiagonal_route(_scheme("disjoint_cliques", (3, 3)).tensor)
        assert v.verdict == NO
        assert "0 candidates" in v.witness

    def test_antipodal_relabelling_fails(self):
        v = tridiagonal_route(_scheme("hypercube_reordered", (0, 3, 2, 1)).tensor)
        assert v.verdict == NO

    def test_matches_exhaustive_scan(self, scheme_corpus):
        # tridiagonal_route runs no band check, so a completed chain must
        # already be a band whichever class plays relation 1: every
        # relabelling fixing 0 when d <= 4, the corpus labels otherwise
        for name, s, _ in scheme_corpus:
            rests = itertools.permutations(range(1, s.d + 1)) if s.d <= 4 else [range(1, s.d + 1)]
            for rest in rests:
                idx = np.array((0, *rest))
                p = np.empty_like(s.tensor.p)
                p[np.ix_(idx, idx, idx)] = s.tensor.p
                got = tridiagonal_route(IntersectionTensor(d=s.d, p=p))
                found = _oracle_chain_orders(p[:, 1, :], s.d, lambda v: v > 0, lambda v: v == 0)
                assert len(found) <= 1, (name, rest, found)
                assert found == ([got.ordering] if got.verdict == YES else []), (name, rest)


class TestNStar:
    def test_cube_chain(self):
        s = _scheme("hamming", (3, 2))
        chain = nstar_sets(s.tensor, spectral_data(s.tensor))
        assert chain.sets == tuple(frozenset({h}) for h in range(4))
        assert chain.singletons() == (0, 1, 2, 3)

    def test_cyclotomic_collapses_early(self):
        s = _scheme("cyclotomic13")
        chain = nstar_sets(s.tensor, spectral_data(s.tensor))
        assert chain.sets == (
            frozenset({0}), frozenset({1}), frozenset({2, 3}), frozenset()
        )
        assert chain.singletons() is None
        assert frozenset().union(*chain.sets[:3]) == frozenset({0, 1, 2, 3})

    def test_swapped_cycle(self):
        s = _seven_cycle_swapped()
        chain = nstar_sets(s.tensor, spectral_data(s.tensor))
        assert chain.singletons() == (0, 1, 3, 2)

    def test_disconnected_first_relation(self):
        s = _scheme("disjoint_cliques", (3, 3))
        with pytest.raises(PerronNotSeparated) as exc:
            nstar_sets(s.tensor, spectral_data(s.tensor))
        assert "[2]" in str(exc.value)  # the cross-clique relation is unreachable

    def test_matches_walk_counts_on_corpus(self, scheme_corpus):
        for name, s, _ in scheme_corpus:
            _assert_nstar_matches_walk_counts(s, name)

    def test_matches_walk_counts_on_relabelled_cycles(self):
        rng = np.random.default_rng(20111020)
        for n in (7, 10, 15, 24):
            s = _scheme("cycle", (n,))
            for _ in range(3):
                perm = (0,) + tuple(int(v) for v in 1 + rng.permutation(s.d))
                _assert_nstar_matches_walk_counts(reorder_relations(s, perm), (n, perm))


class TestExcess:
    def test_cube(self):
        s = _scheme("hamming", (3, 2))
        v = excess_route(spectral_data(s.tensor))
        assert v.verdict == YES
        assert v.l == 3
        assert v.max_residual < 1e-9

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_complete(self, n):
        s = _scheme("complete", (n,))
        v = excess_route(spectral_data(s.tensor))
        assert (v.verdict, v.l) == (YES, 1)

    def test_petersen(self):
        s = _scheme("petersen")
        v = excess_route(spectral_data(s.tensor))
        assert (v.verdict, v.l) == (YES, 2)

    def test_cyclotomic_no(self):
        s = _scheme("cyclotomic13")
        v = excess_route(spectral_data(s.tensor))
        assert v.verdict == NO
        assert v.witness is not None

    def test_tied_spectrum_precondition(self):
        s = _scheme("hypercube_reordered", (0, 3, 2, 1))
        v = excess_route(spectral_data(s.tensor))
        assert v.verdict == PRECONDITION_FAILED

    def test_sloppy_tolerance_hits_many_columns(self, monkeypatch):
        # the name schemex.detect resolves to the re-exported function, not the module
        monkeypatch.setattr(importlib.import_module("schemex.detect"), "ROUTE_MATCH_RTOL", 10.0)
        s = _scheme("complete", (2,))
        with pytest.raises(MultipleL):
            excess_route(spectral_data(s.tensor))


class TestPredistanceRoute:
    def test_petersen(self):
        sd = spectral_data(_scheme("petersen").tensor)
        ps = predistance_polynomials(sd.spectrum)
        v = predistance_route(sd, ps)
        assert (v.verdict, v.l) == (YES, 2)
        assert v.max_residual < 1e-9

    def test_cube(self):
        sd = spectral_data(_scheme("hamming", (3, 2)).tensor)
        ps = predistance_polynomials(sd.spectrum)
        v = predistance_route(sd, ps)
        assert (v.verdict, v.l) == (YES, 3)

    def test_cyclotomic_no(self):
        sd = spectral_data(_scheme("cyclotomic13").tensor)
        ps = predistance_polynomials(sd.spectrum)
        v = predistance_route(sd, ps)
        assert v.verdict == NO


class TestMStar:
    def test_k2_is_exact(self):
        s = _scheme("complete", (2,))
        assert mstar_decomposition_residual(s.tensor, spectral_data(s.tensor), 1) == 0.0

    def test_small_residual_everywhere(self, scheme_corpus):
        for name, s, expected in scheme_corpus:
            sd = spectral_data(s.tensor)
            if expected == "precondition-failed":
                continue
            for i in range(1, s.d + 1):
                r = mstar_decomposition_residual(s.tensor, sd, i)
                assert r < 1e-8, (name, i, r)

    def test_cyclotomic_included(self):
        # the identity holds without the chain property
        s = _scheme("cyclotomic13")
        sd = spectral_data(s.tensor)
        assert max(
            mstar_decomposition_residual(s.tensor, sd, i) for i in (1, 2, 3)
        ) < 1e-10

    def test_matches_nxn_product(self, scheme_corpus):
        for name, s, _ in scheme_corpus:
            sd = spectral_data(s.tensor)
            if sd.tie is not None:
                continue
            for i in range(1, s.d + 1):
                got = mstar_decomposition_residual(s.tensor, sd, i)
                assert abs(got - mstar_product(s, sd, i)) <= 1e-12, (name, i)

    def test_tied_spectrum_raises(self):
        s = _scheme("hypercube_reordered", (0, 3, 2, 1))
        with pytest.raises(SpectrumNotSimple):
            mstar_decomposition_residual(s.tensor, spectral_data(s.tensor), 1)

    def test_index_range(self):
        s = _scheme("cycle", (5,))
        sd = spectral_data(s.tensor)
        with pytest.raises(ValueError):
            mstar_decomposition_residual(s.tensor, sd, 0)
        with pytest.raises(ValueError):
            mstar_decomposition_residual(s.tensor, sd, 3)


class TestQPolynomial:
    def _krein(self, s):
        sd = spectral_data(s.tensor)
        return krein_parameters(sd)

    def test_cube_self_dual(self):
        v = q_polynomial_route(self._krein(_scheme("hamming", (3, 2))))
        assert v.verdict == YES
        assert v.ordering == (0, 1, 2, 3)

    def test_petersen(self):
        v = q_polynomial_route(self._krein(_scheme("petersen")))
        assert v.verdict == YES

    def test_matches_exhaustive_scan(self, scheme_corpus):
        for name, s, _ in scheme_corpus:
            kt = self._krein(s)
            thr = BASE_TOL * max(1.0, float(kt.q[0].diagonal().sum()))
            got = q_polynomial_route(kt)
            found = _oracle_chain_orders(
                kt.q[:, 1, :], kt.d,
                lambda v: v > thr, lambda v: abs(v) <= thr,
            )
            if got.verdict == YES:
                assert got.ordering in found, name
            else:
                assert found == [], name

    def test_no_entry_near_the_threshold(self, corpus_analyses, ladder, cycle_scheme):
        """Every q^j_{1i} is 1000x below or above the chain threshold, so no q_poly
        verdict here would move if BASE_TOL moved a thousandfold either way."""
        analyses = dict(corpus_analyses)
        analyses.update((spec, analyze(s)) for spec, s in ladder.items())
        analyses.update((f"cycle({n})", analyze(cycle_scheme(n))) for n in (44, 100, 200))
        for name, a in analyses.items():
            thr = BASE_TOL * max(1.0, a.report.n)
            q1 = a.krein.q[:, 1, :]
            near = (np.abs(q1) > thr / 1000) & (q1 < thr * 1000)
            assert not near.any(), (name, q1[near])


class TestAnalyze:
    def test_corpus_statuses(self, scheme_corpus, corpus_analyses):
        for name, _s, expected in scheme_corpus:
            report = corpus_analyses[name].report
            assert report.status == expected, name

    def test_yes_reports_are_internally_consistent(self, scheme_corpus, corpus_analyses):
        for name, _s, expected in scheme_corpus:
            report = corpus_analyses[name].report
            if expected != "yes":
                continue
            assert report.preconditions_ok, name
            assert report.ordering is not None, name
            assert report.l == report.ordering[-1], name
            assert report.nstar.ordering == report.ordering, name
            assert report.excess.l == report.l, name
            assert report.predistance.l == report.l, name

    def test_no_keeps_evidence(self, corpus_analyses):
        report = corpus_analyses["cyclotomic13"].report
        assert report.consensus == NO
        assert report.status == NO
        assert report.preconditions_ok
        assert report.ordering is None and report.l is None
        for v in report.routes().values():
            if v.route == "q_poly":
                continue
            assert v.verdict == NO, v.route

    def test_precondition_failed_shape(self, corpus_analyses):
        for name in ("disjoint_cliques(3,3)", "hamming(3,2)+A1=antipodal"):
            report = corpus_analyses[name].report
            assert report.status == PRECONDITION_FAILED, name
            assert report.consensus == NO, name
            assert not report.preconditions_ok, name
            assert report.tridiagonal.verdict == NO, name
            assert report.excess.verdict == PRECONDITION_FAILED, name
            assert report.predistance.verdict == PRECONDITION_FAILED, name

    def test_analysis_residual_fields(self, scheme_corpus, corpus_analyses):
        for name, s, expected in scheme_corpus:
            a = corpus_analyses[name]
            assert a.pq_residual <= 1e-8 * s.n, name
            assert a.multiplicity_residual <= 1e-6, name
            if expected == "precondition-failed":
                assert a.mstar_max is None, name
            else:
                assert a.mstar_max is not None and a.mstar_max < 1e-8, name

    def test_detect_returns_report(self):
        s = _scheme("cycle", (6,))
        report = detect(s)
        assert report.status == YES
        assert report.ordering == (0, 1, 2, 3)
        assert report.valencies == (1, 2, 2, 1)

    def test_swapped_cycle_full_agreement(self):
        report = detect(_seven_cycle_swapped())
        assert report.status == YES
        assert report.ordering == (0, 1, 3, 2)
        assert report.l == 2

    def test_route_verdict_to_dict(self):
        v = tridiagonal_route(_scheme("cycle", (5,)).tensor)
        d = v.to_dict()
        assert d["verdict"] == YES
        assert d["ordering"] == [0, 1, 2]
        assert d["l"] == 2
        assert set(d) == {"verdict", "ordering", "l", "max_residual", "witness"}


LADDER = (("hamming", (6, 3)), ("johnson", (12, 4)))


@pytest.fixture(scope="module")
def ladder():
    return {spec: _scheme(*spec) for spec in LADDER}


class TestLadder:
    """The mid-sized ladder schemes, affordable now that analyze does no n x n work."""

    @pytest.mark.parametrize("spec", LADDER)
    def test_metric_with_reference_q_poly(self, ladder, spec):
        s = ladder[spec]
        a = analyze(s)
        assert a.report.status == YES
        assert a.mstar_max < 1e-8
        ref = KreinTensor(d=s.d, q=krein_expansion(s, a.spectral))
        assert a.report.q_poly.verdict == q_polynomial_route(ref).verdict

    def test_analyze_allocates_no_nxn_array(self, ladder):
        s = ladder[("hamming", (6, 3))]
        one_nxn = s.n * s.n * np.dtype(np.float64).itemsize
        tracemalloc.start()
        try:
            analyze(s)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < one_nxn, f"analyze peaked at {peak} bytes, n x n float64 is {one_nxn}"


class TestLargeDiameter:
    """Cycles past d = 22, where a monomial (Vandermonde) basis collapses."""

    @pytest.mark.parametrize("n", [45, 100, 200])
    def test_long_cycle_is_metric(self, n, cycle_scheme):
        a = analyze(cycle_scheme(n))
        assert a.report.status == YES
        assert a.report.l == n // 2
        assert a.report.predistance.max_residual < 1e-9
        assert a.mstar_max < 1e-10

    def test_mstar_product_stays_accurate(self):
        s = _scheme("cycle", (60,))
        sd = spectral_data(s.tensor)
        for i in range(1, s.d + 1):
            assert mstar_decomposition_residual(s.tensor, sd, i) < 1e-10, i


class TestTensorOnly:
    """Every stage after validation runs on an IntersectionTensor with no relation matrix."""

    PENTAGON = [
        [[1, 0, 0], [0, 2, 0], [0, 0, 2]],
        [[0, 1, 0], [1, 0, 1], [0, 1, 1]],
        [[0, 0, 1], [0, 1, 1], [1, 1, 0]],
    ]

    @staticmethod
    def _stages(t):
        sd = spectral_data(t)
        ps = predistance_polynomials(sd.spectrum)
        return {
            "P": sd.P, "Q": sd.Q, "m": sd.multiplicities,
            "tridiagonal": tridiagonal_route(t),
            "nstar": nstar_sets(t, sd).sets,
            "excess": excess_route(sd),
            "predistance": predistance_route(sd, ps),
            "krein": krein_parameters(sd).q,
            "mstar": [mstar_decomposition_residual(t, sd, i) for i in (1, 2)],
        }

    def test_literal_pentagon_matches_generated(self):
        t = IntersectionTensor(d=2, p=np.array(self.PENTAGON))
        assert t.n == 5
        got = self._stages(t)
        want = self._stages(_scheme("cycle", (5,)).tensor)
        for key, value in want.items():
            if isinstance(value, np.ndarray):
                assert np.array_equal(got[key], value), key
            else:
                assert got[key] == value, key
        assert got["tridiagonal"].verdict == YES
        assert got["excess"].l == got["predistance"].l == 2
