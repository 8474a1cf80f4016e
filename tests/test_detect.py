from __future__ import annotations

import importlib
import itertools
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from schemex.detect import (
    BASE_TOL,
    ROUTE_MATCH_RTOL,
    MultipleL,
    PerronNotSeparated,
    RouteDisagreement,
    RouteVerdict,
    YES,
    NO,
    PRECONDITION_FAILED,
    _band_violation,
    _match_columns,
    _nstar_verdict,
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
from schemex.scheme_core import RelationMatrix, build_scheme
from schemex.spectral import (
    EIG_GROUP_RTOL,
    INTEGRALITY_TOL,
    DegenerateSpectrum,
    eigen_groups,
    krein_parameters,
    predistance_polynomials,
    spectral_data,
)

from nxn_reference import (
    array_slabs,
    band_violation_loop,
    column_deviations_loop,
    dense,
    dense_slabs,
    intersection_array,
    krein_expansion,
    mstar_product,
    reorder_relations,
)


def _scheme(family, params=()):
    return generate(FamilySpec(family, params))


def _seven_cycle_swapped():
    # distance classes 2 and 3 exchanged; the chain must rediscover 0,1,3,2
    return reorder_relations(_scheme("cycle", (7,)), (0, 1, 3, 2))


def _walk_count_first_appearance(s):
    """Reference for nstar: exact walk counts B_1^h e_0 in Python integers, h <= d."""
    d = s.d
    B1 = s.slab(1).tolist()
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
    sd = spectral_data(s)
    unreached = [j for j, f in enumerate(first) if f is None]
    if unreached:
        with pytest.raises(PerronNotSeparated) as exc:
            nstar_sets(s, sd)
        assert f"relations {unreached} never appear" in str(exc.value), label
        return
    want = tuple(
        frozenset(j for j, f in enumerate(first) if f == h) for h in range(s.d + 1)
    )
    assert nstar_sets(s, sd) == want, label


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
        v = tridiagonal_route(_scheme("cycle", (5,)))
        assert v.verdict == YES
        assert v.ordering == (0, 1, 2)
        assert v.l == 2

    def test_swapped_cycle_recovers_order(self):
        v = tridiagonal_route(_seven_cycle_swapped())
        assert v.verdict == YES
        assert v.ordering == (0, 1, 3, 2)

    def test_single_class_is_trivially_yes(self):
        v = tridiagonal_route(_scheme("complete", (4,)))
        assert v.verdict == YES
        assert v.ordering == (0, 1)

    def test_cyclotomic_branches(self):
        v = tridiagonal_route(_scheme("cyclotomic13"))
        assert v.verdict == NO
        assert "2 candidates" in v.witness

    def test_disjoint_cliques_stalls(self):
        v = tridiagonal_route(_scheme("disjoint_cliques", (3, 3)))
        assert v.verdict == NO
        assert "0 candidates" in v.witness

    def test_antipodal_relabelling_fails(self):
        v = tridiagonal_route(_scheme("hypercube_reordered", (0, 3, 2, 1)))
        assert v.verdict == NO

    def test_matches_exhaustive_scan(self, scheme_corpus):
        # tridiagonal_route runs no band check, so a completed chain must
        # already be a band whichever class plays relation 1: every
        # relabelling fixing 0 when d <= 4, the corpus labels otherwise
        for name, s, _ in scheme_corpus:
            rests = itertools.permutations(range(1, s.d + 1)) if s.d <= 4 else [range(1, s.d + 1)]
            for rest in rests:
                idx = np.array((0, *rest))
                p = np.empty((s.d + 1,) * 3, dtype=np.int64)
                p[np.ix_(idx, idx, idx)] = dense(s)
                got = tridiagonal_route(dense_slabs(p))
                found = _oracle_chain_orders(p[:, 1, :], s.d, lambda v: v > 0, lambda v: v == 0)
                assert len(found) <= 1, (name, rest, found)
                assert found == ([got.ordering] if got.verdict == YES else []), (name, rest)


class TestNStar:
    def test_cube_chain(self):
        s = _scheme("hamming", (3, 2))
        sd = spectral_data(s)
        assert nstar_sets(s, sd) == tuple(frozenset({h}) for h in range(4))
        assert _nstar_verdict(s, sd).ordering == (0, 1, 2, 3)

    def test_cyclotomic_collapses_early(self):
        s = _scheme("cyclotomic13")
        sd = spectral_data(s)
        chain = nstar_sets(s, sd)
        assert chain == (
            frozenset({0}), frozenset({1}), frozenset({2, 3}), frozenset()
        )
        assert _nstar_verdict(s, sd).verdict == NO
        assert frozenset().union(*chain[:3]) == frozenset({0, 1, 2, 3})

    def test_swapped_cycle(self):
        s = _seven_cycle_swapped()
        chain = nstar_sets(s, spectral_data(s))
        assert chain == tuple(frozenset({j}) for j in (0, 1, 3, 2))

    def test_disconnected_first_relation(self):
        s = _scheme("disjoint_cliques", (3, 3))
        with pytest.raises(PerronNotSeparated) as exc:
            nstar_sets(s, spectral_data(s))
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
        v = excess_route(spectral_data(s))
        assert v.verdict == YES
        assert v.l == 3
        assert v.max_residual < 1e-9

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_complete(self, n):
        s = _scheme("complete", (n,))
        v = excess_route(spectral_data(s))
        assert (v.verdict, v.l) == (YES, 1)

    def test_petersen(self):
        s = _scheme("petersen")
        v = excess_route(spectral_data(s))
        assert (v.verdict, v.l) == (YES, 2)

    def test_cyclotomic_no(self):
        s = _scheme("cyclotomic13")
        v = excess_route(spectral_data(s))
        assert v.verdict == NO
        assert v.witness is not None

    def test_tied_spectrum_precondition(self):
        s = _scheme("hypercube_reordered", (0, 3, 2, 1))
        v = excess_route(spectral_data(s))
        assert v.verdict == PRECONDITION_FAILED

    def test_sloppy_tolerance_hits_many_columns(self, monkeypatch):
        # the name schemex.detect resolves to the re-exported function, not the module
        monkeypatch.setattr(importlib.import_module("schemex.detect"), "ROUTE_MATCH_RTOL", 10.0)
        s = _scheme("complete", (2,))
        with pytest.raises(MultipleL):
            excess_route(spectral_data(s))
        # both column-matching routes name every passing column
        sd = spectral_data(_scheme("cycle", (5,)))
        with pytest.raises(MultipleL) as exc:
            excess_route(sd)
        assert str(exc.value) == "columns [0, 1, 2] all satisfy kappa_i = -Q_i(l)"
        with pytest.raises(MultipleL) as exc:
            predistance_route(sd, predistance_polynomials(sd.spectrum))
        assert str(exc.value) == "columns [0, 1, 2] of P all match p_d on the spectrum"


class TestPredistanceRoute:
    def test_petersen(self):
        sd = spectral_data(_scheme("petersen"))
        v = predistance_route(sd, predistance_polynomials(sd.spectrum))
        assert (v.verdict, v.l) == (YES, 2)
        assert v.max_residual < 1e-9

    def test_cube(self):
        sd = spectral_data(_scheme("hamming", (3, 2)))
        v = predistance_route(sd, predistance_polynomials(sd.spectrum))
        assert (v.verdict, v.l) == (YES, 3)

    def test_cyclotomic_no(self):
        sd = spectral_data(_scheme("cyclotomic13"))
        v = predistance_route(sd, predistance_polynomials(sd.spectrum))
        assert v.verdict == NO


class TestMStar:
    def test_k2_is_exact(self):
        s = _scheme("complete", (2,))
        assert mstar_decomposition_residual(s, spectral_data(s), 1) == 0.0

    def test_small_residual_everywhere(self, scheme_corpus):
        for name, s, expected in scheme_corpus:
            sd = spectral_data(s)
            if expected == "precondition-failed":
                continue
            for i in range(1, s.d + 1):
                r = mstar_decomposition_residual(s, sd, i)
                assert r < 1e-8, (name, i, r)

    def test_cyclotomic_included(self):
        # the identity holds without the chain property
        s = _scheme("cyclotomic13")
        sd = spectral_data(s)
        assert max(
            mstar_decomposition_residual(s, sd, i) for i in (1, 2, 3)
        ) < 1e-10

    def test_matches_nxn_product(self, scheme_corpus):
        for name, s, _ in scheme_corpus:
            sd = spectral_data(s)
            if sd.tie is not None:
                continue
            for i in range(1, s.d + 1):
                got = mstar_decomposition_residual(s, sd, i)
                assert abs(got - mstar_product(s, sd, i)) <= 1e-12, (name, i)

    def test_tied_spectrum_raises(self):
        s = _scheme("hypercube_reordered", (0, 3, 2, 1))
        with pytest.raises(DegenerateSpectrum):
            mstar_decomposition_residual(s, spectral_data(s), 1)

    def test_index_range(self):
        s = _scheme("cycle", (5,))
        sd = spectral_data(s)
        with pytest.raises(ValueError):
            mstar_decomposition_residual(s, sd, 0)
        with pytest.raises(ValueError):
            mstar_decomposition_residual(s, sd, 3)

    def test_mstar_max_is_relative_to_kappa(self):
        # the cyclotomic scheme of Z_101 with 25 classes: x - y in the c-th coset of
        # H = {1, 10, 91, 100}, the order-4 subgroup of Z_101^*, cosets numbered by their
        # smallest member.  Its |kappa_i| reach 4.7e11, so the absolute residuals reach
        # about 7e-5 while each is ~1e-13 of max(1, |kappa_i| / n), the size of what it checks
        p = 101
        cls = np.zeros(p, dtype=np.int64)
        for x in range(1, p):
            if not cls[x]:
                cls[[x * h % p for h in (1, 10, 91, 100)]] = cls.max() + 1
        x = np.arange(p)
        s = build_scheme(RelationMatrix(n=p, d=25, rel=cls[(x[:, None] - x) % p]))
        a = analyze(s)
        assert a.report.status == NO and a.spectral.spectrum is not None
        kappa = a.spectral.spectrum.kappa
        assert np.abs(kappa).max() > 1e11
        raw = [mstar_decomposition_residual(s, a.spectral, i) for i in range(1, 26)]
        assert max(raw) > 1e-6
        assert a.mstar_max == max(r / max(1.0, abs(k) / p) for r, k in zip(raw, kappa[1:]))
        assert a.mstar_max < 1e-10

    def test_mstar_max_is_absolute_on_the_corpus(self, scheme_corpus, corpus_analyses):
        # every corpus kappa_i is at most n, so the scale is 1 there (cyclotomic13: 0.43 n)
        for name, s, _ in scheme_corpus:
            a = corpus_analyses[name]
            if a.spectral.spectrum is not None:
                assert (np.abs(a.spectral.spectrum.kappa) <= s.n).all(), name
                assert a.mstar_max == max(mstar_decomposition_residual(s, a.spectral, i)
                                          for i in range(1, s.d + 1)), name


class TestQPolynomial:
    def _krein(self, s):
        """The reference q1 of the n x n expansion, with the point count."""
        return krein_expansion(s, spectral_data(s))[:, 1, :], s.n

    def test_cube_self_dual(self):
        v = q_polynomial_route(*self._krein(_scheme("hamming", (3, 2))))
        assert v.verdict == YES
        assert v.ordering == (0, 1, 2, 3)

    def test_petersen(self):
        v = q_polynomial_route(*self._krein(_scheme("petersen")))
        assert v.verdict == YES

    @pytest.mark.parametrize("entry, value, witness", [
        ((0, 3), 0.5, "entry (0,3) = 0.5 lies outside the band"),
        ((0, 1), 0.0, "band entry (0,1) = 0.0 is not positive"),
    ])
    def test_a_completed_chain_still_meets_the_band_check(self, entry, value, witness):
        # the 3-cube's q1 = B_1 with one entry changed that the chain never reads: it
        # steps through the unused rows of columns 1 and 2 only, and ends at (0, 1, 2, 3)
        q1 = np.array([[0, 3, 0, 0], [1, 0, 2, 0], [0, 2, 0, 3], [0, 0, 1, 0]], dtype=float)
        q1[entry] = value
        v = q_polynomial_route(q1, 8)
        assert (v.verdict, v.ordering, v.witness) == (NO, None, witness)

    def test_matches_exhaustive_scan(self, scheme_corpus):
        for name, s, _ in scheme_corpus:
            q1, n = self._krein(s)
            thr = BASE_TOL * max(1.0, n)
            got = q_polynomial_route(q1, n)
            found = _oracle_chain_orders(
                q1, s.d,
                lambda v: v > thr, lambda v: abs(v) <= thr,
            )
            if got.verdict == YES:
                assert got.ordering in found, name
            else:
                assert found == [], name

    def test_band_mask_matches_entrywise_loop(self):
        # band patterns (off the band 0 or +-1e-12, on it positive) with some entries
        # redrawn from 0, +-1e-12, positive, negative and NaN, so witnesses land anywhere
        rng = np.random.default_rng(13)
        thr = 1e-8
        values = np.array([0.0, 1e-12, -1e-12, 0.5, 3.0, -0.5, -2.0, np.nan])
        outcomes = {None: 0, "entry": 0, "band": 0, "nan": 0}
        for m in range(2, 7):
            count = 2_000
            pos = np.arange(m)
            gap = np.abs(pos[:, None] - pos[None, :])
            R = np.where(gap == 1, rng.uniform(0.1, 5.0, (count, m, m)),
                         rng.choice(values[:3], (count, m, m)))
            hit = rng.random((count, m, m)) < rng.uniform(0.0, 0.3, (count, 1, 1))
            R[hit] = rng.choice(values, int(hit.sum()))
            orders = rng.permuted(np.tile(pos, (count, 1)), axis=1)
            for r, idx in zip(R, orders):
                mat = np.empty_like(r)
                mat[np.ix_(idx, idx)] = r
                order = tuple(idx.tolist())
                got = _band_violation(mat, order, thr)
                assert got == band_violation_loop(mat, order, thr), (mat, order)
                outcomes[None if got is None else got.split()[0]] += 1
                outcomes["nan"] += got is not None and "nan" in got
        assert min(outcomes.values()) >= 100, outcomes

    def test_band_mask_matches_entrywise_loop_on_the_corpus(self, corpus_analyses):
        rng = np.random.default_rng(13)
        for name, a in corpus_analyses.items():
            mat = a.krein_q1
            thr = BASE_TOL * max(1.0, a.report.n)
            m = a.report.d + 1
            orders = [tuple(range(m))] + [tuple(rng.permutation(m).tolist()) for _ in range(5)]
            if a.report.q_poly.ordering is not None:
                orders.append(a.report.q_poly.ordering)
            for order in orders:
                assert _band_violation(mat, order, thr) == band_violation_loop(mat, order, thr), (
                    name, order)

    def test_no_entry_near_the_threshold(self, margin_analyses):
        """Every q^j_{1i} is 1000x below or above the chain threshold, so no q_poly
        verdict here would move if BASE_TOL moved a thousandfold either way."""
        for name, a in margin_analyses.items():
            thr = BASE_TOL * max(1.0, a.report.n)
            q1 = a.krein_q1
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

    def test_column_route_witnesses(self, corpus_analyses):
        tie = "theta values at sorted positions 0 and 1 coincide"
        want = {
            "cyclotomic13": (
                "no column of -Q matches kappa; closest is l=2 (scaled deviation 1.103e+00)",
                "p_d matches no column of P; closest is l=2 (scaled deviation 8.000e-01)",
            ),
            "disjoint_cliques(3,3)": (tie, tie),
            "hamming(3,2)+A1=antipodal": (tie, tie),
        }
        for name, witnesses in want.items():
            report = corpus_analyses[name].report
            assert (report.excess.witness, report.predistance.witness) == witnesses, name

    def test_analysis_residual_fields(self, scheme_corpus, corpus_analyses):
        for name, s, expected in scheme_corpus:
            a = corpus_analyses[name]
            assert a.pq_residual <= 1e-8 * s.n, name
            assert a.spectral.multiplicity_residual <= 1e-6, name
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

    @staticmethod
    def _disagreement(monkeypatch, name, fake):
        """The RouteDisagreement message of analyze on cycle(7) with detect.<name> faked."""
        monkeypatch.setattr(importlib.import_module("schemex.detect"), name, fake)
        with pytest.raises(RouteDisagreement) as exc:
            analyze(_scheme("cycle", (7,)))
        return str(exc.value)

    def test_contradicting_verdicts_raise(self, monkeypatch):
        r = detect(_scheme("cycle", (7,)))
        msg = self._disagreement(monkeypatch, "tridiagonal_route",
                                 lambda t: RouteVerdict("tridiagonal", NO, witness="forced"))
        assert msg == (
            "routes disagree: tridiagonal=no (residual 0.000e+00), nstar=yes (residual 0.000e+00), "
            f"excess=yes (residual {r.excess.max_residual:.3e}), "
            f"predistance=yes (residual {r.predistance.max_residual:.3e})"
        )

    def test_precondition_failed_next_to_yes_raises(self, monkeypatch):
        msg = self._disagreement(monkeypatch, "excess_route",
                                 lambda sd: RouteVerdict("excess", PRECONDITION_FAILED))
        assert msg == (
            "a positive verdict forces distinct eigenvalues, yet a spectral route reported "
            "precondition-failed: tridiagonal=yes, nstar=yes, excess=precondition-failed, "
            "predistance=yes"
        )

    def test_another_nstar_ordering_raises(self, monkeypatch):
        msg = self._disagreement(monkeypatch, "_nstar_verdict", lambda t, sd: RouteVerdict(
            "nstar", YES, ordering=(0, 1, 3, 2), l=2))
        assert msg == "nstar ordering (0, 1, 3, 2) != tridiagonal ordering (0, 1, 2, 3)"

    @pytest.mark.parametrize("route", ["excess", "predistance"])
    def test_another_l_raises(self, monkeypatch, route):
        msg = self._disagreement(monkeypatch, f"{route}_route",
                                 lambda *args: RouteVerdict(route, YES, l=2))
        assert msg == f"{route} found l = 2 but the chain ends at xi_d = 3"

    def test_route_verdict_to_dict(self):
        v = tridiagonal_route(_scheme("cycle", (5,)))
        d = v.to_dict()
        assert d["verdict"] == YES
        assert d["ordering"] == [0, 1, 2]
        assert d["l"] == 2
        assert set(d) == {"verdict", "ordering", "l", "max_residual", "witness"}


LADDER = (("hamming", (6, 3)), ("johnson", (12, 4)))


@pytest.fixture(scope="module")
def ladder():
    return {spec: _scheme(*spec) for spec in LADDER}


@pytest.fixture(scope="module")
def margin_analyses(corpus_analyses, ladder, cycle_scheme):
    """The inputs every tolerance must clear by a wide margin: corpus, ladder, three cycles."""
    analyses = dict(corpus_analyses)
    analyses.update((spec, analyze(s)) for spec, s in ladder.items())
    analyses.update((f"cycle({n})", analyze(cycle_scheme(n))) for n in (44, 100, 200))
    return analyses


def _assert_multiplicities_margin(name, sd):
    assert sd.multiplicity_residual <= INTEGRALITY_TOL / 1000, name


def _assert_route_margins(name, sd, values, ls, matched=1000):
    """The matched column of each spectral route lies ``matched`` times inside
    ROUTE_MATCH_RTOL, every other column 1000 times outside; ls maps route to l."""
    checks = {
        "excess": (sd.spectrum.kappa[1:], -sd.Q[:, 1:].T),
        "predistance": (values[-1], sd.P),
    }
    for route, (vals, targets) in checks.items():
        _, raws, scaleds = _match_columns(vals, targets)
        assert (raws, scaleds) == column_deviations_loop(vals, targets), (name, route)
        for col, sc in enumerate(scaleds):
            if col == ls[route]:
                assert sc <= ROUTE_MATCH_RTOL / matched, (name, route, col, sc)
            else:
                assert sc >= 1000 * ROUTE_MATCH_RTOL, (name, route, col, sc)


def _assert_theta_gap_margins(name, sd, between=1000):
    """Gaps inside an eigen_groups cluster lie 1000 times below the threshold, gaps
    between clusters ``between`` times above it."""
    w = np.sort(sd.theta)
    thr = EIG_GROUP_RTOL * max(1.0, float(np.abs(w).max()))
    gaps = np.diff(w)
    inside = np.ones(len(gaps), dtype=bool)
    for _, b in eigen_groups(w):
        if b < len(w):
            inside[b - 1] = False  # the gap from w[b - 1] to the next cluster
    assert (gaps[inside] <= thr / 1000).all(), (name, gaps[inside].max() / thr)
    assert (gaps[~inside] >= between * thr).all(), (name, gaps[~inside].min() / thr)


class TestToleranceMargins:
    """Each tolerance-gated decision clears its tolerance 1000x either way on every known
    input, so moving a tolerance a thousandfold would change no verdict here."""

    def test_multiplicities_are_far_inside_integrality(self, margin_analyses):
        for name, a in margin_analyses.items():
            _assert_multiplicities_margin(name, a.spectral)

    def test_route_columns_match_or_miss_by_far(self, margin_analyses):
        for name, a in margin_analyses.items():
            if a.spectral.spectrum is None:
                continue  # tied theta: neither route matches columns
            ls = {route: a.report.routes()[route].l for route in ("excess", "predistance")}
            _assert_route_margins(name, a.spectral, a.predistance_values, ls)

    def test_theta_gaps_are_far_from_the_group_threshold(self, margin_analyses):
        for name, a in margin_analyses.items():
            _assert_theta_gap_margins(name, a.spectral)


class TestLadder:
    """The mid-sized ladder schemes, affordable now that analyze does no n x n work."""

    @pytest.mark.parametrize("spec", LADDER)
    def test_metric_with_reference_q_poly(self, ladder, spec):
        s = ladder[spec]
        a = analyze(s)
        assert a.report.status == YES
        assert a.mstar_max < 1e-8
        ref = krein_expansion(s, a.spectral)[:, 1, :]
        assert a.report.q_poly.verdict == q_polynomial_route(ref, s.n).verdict

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

    def test_analyze_allocates_no_cubic_array(self, cycle_scheme):
        # only the Krein slab q^k_{1j} is computed; p itself is built before analyze runs
        s = cycle_scheme(200)
        one_cube = (s.d + 1) ** 3 * np.dtype(np.float64).itemsize
        tracemalloc.start()
        try:
            analyze(s)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 0.15 * one_cube, f"analyze peaked at {peak / one_cube:.3f} (d+1)^3 arrays"

    def test_mstar_product_stays_accurate(self):
        s = _scheme("cycle", (60,))
        sd = spectral_data(s)
        for i in range(1, s.d + 1):
            assert mstar_decomposition_residual(s, sd, i) < 1e-10, i


class TestTensorOnly:
    """Every stage after validation reads only n, d, the valencies and slab(i): a slab
    source over a literal tensor, with no relation matrix, gives the same results."""

    PENTAGON = [
        [[1, 0, 0], [0, 2, 0], [0, 0, 2]],
        [[0, 1, 0], [1, 0, 1], [0, 1, 1]],
        [[0, 0, 1], [0, 1, 1], [1, 1, 0]],
    ]

    @staticmethod
    def _stages(t):
        sd = spectral_data(t)
        values = predistance_polynomials(sd.spectrum)
        return {
            "P": sd.P, "Q": sd.Q, "m": sd.multiplicities,
            "tridiagonal": tridiagonal_route(t),
            "nstar": nstar_sets(t, sd),
            "excess": excess_route(sd),
            "predistance": predistance_route(sd, values),
            "krein_q1": krein_parameters(t, sd),
            "mstar": [mstar_decomposition_residual(t, sd, i) for i in (1, 2)],
        }

    def test_literal_pentagon_matches_generated(self):
        t = dense_slabs(self.PENTAGON)
        assert t.n == 5
        got = self._stages(t)
        want = self._stages(_scheme("cycle", (5,)))
        for key, value in want.items():
            if isinstance(value, np.ndarray):
                assert np.array_equal(got[key], value), key
            else:
                assert got[key] == value, key
        assert got["tridiagonal"].verdict == YES
        assert got["excess"].l == got["predistance"].l == 2


def _stages_without_mstar(t):
    """Every stage of analyze but the M* residual (d^4 per scheme), with the routes'
    agreement checked: the evidence the margin checks read."""
    sd = spectral_data(t)
    values = predistance_polynomials(sd.spectrum)
    routes = {
        "tridiagonal": tridiagonal_route(t),
        "nstar": _nstar_verdict(t, sd),
        "excess": excess_route(sd),
        "predistance": predistance_route(sd, values),
    }
    tri = routes["tridiagonal"]
    assert {v.verdict for v in routes.values()} == {YES}
    assert routes["nstar"].ordering == tri.ordering
    assert {v.l for v in routes.values()} == {tri.ordering[-1]}
    q_poly = q_polynomial_route(krein_parameters(t, sd), t.n)
    return SimpleNamespace(spectral=sd, values=values, routes=routes, q_poly=q_poly)


def _check_margins(name, stages, matched=1000, between=1000):
    sd = stages.spectral
    ls = {route: stages.routes[route].l for route in ("excess", "predistance")}
    _assert_multiplicities_margin(name, sd)
    _assert_route_margins(name, sd, stages.values, ls, matched=matched)
    _assert_theta_gap_margins(name, sd, between=between)


class TestArraySlabs:
    """The stages read a scheme only through s.n, s.d, s.valencies and s.slab(i), so the
    slabs of an intersection array, computed on demand, stand in for the scheme."""

    def test_matches_the_generated_tensors(self, corpus_analyses):
        specs = [("hamming", (6, 3)), ("hamming", (10, 2)), ("johnson", (12, 4)), ("cycle", (100,))]
        for name, a in corpus_analyses.items():
            if a.report.ordering == tuple(range(a.report.d + 1)):  # metric, in distance order
                family, _, params = name.rstrip(")").partition("(")
                specs.append((family, tuple(int(v) for v in params.split(",") if v)))
        assert len(specs) == 4 + 26
        for family, params in specs:
            t = _scheme(family, params)
            src = array_slabs(*intersection_array(family, *params))
            assert (src.d, src.n) == (t.d, t.n), (family, params)
            assert np.array_equal(src.valencies, t.valencies), (family, params)
            for i in range(t.d + 1):
                assert np.array_equal(src.slab(i), t.slab(i)), (family, params, i)

    def test_slab_is_a_read_only_view(self):
        t = _scheme("hamming", (3, 2))
        for i in range(t.d + 1):
            b = t.slab(i)
            assert b is t.slab(i) and not b.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                b[0, 0] = 7
        src = array_slabs(*intersection_array("hamming", 3, 2))
        assert not any(src.slab(i).flags.writeable for i in range(4))

    def test_rejects_an_array_no_scheme_has(self):
        with pytest.raises(ValueError, match="k_2 = k_1 b_1 / c_2"):
            array_slabs([3, 2], [1, 4])

    def test_analysis_matches_the_generated_scheme(self, margin_analyses):
        want = margin_analyses["cycle(100)"]
        got = analyze(array_slabs(*intersection_array("cycle", 100)))
        assert got.report.routes() == want.report.routes()
        assert got.mstar_max == want.mstar_max
        assert np.array_equal(got.spectral.P, want.spectral.P)
        assert np.array_equal(got.spectral.Q, want.spectral.Q)

    def test_analyze_on_cycle_400(self):
        a = analyze(array_slabs(*intersection_array("cycle", 400)))
        assert a.report.status == YES
        assert a.report.l == 200
        assert a.mstar_max <= 1e-8

    def test_stages_at_d_1000_clear_every_margin(self):
        # cycle(2000), whose dense p would take 8 GB; without M*, which is d^4
        stages = _stages_without_mstar(array_slabs(*intersection_array("cycle", 2000)))
        assert stages.routes["tridiagonal"].l == 1000
        assert stages.q_poly.verdict == YES
        _check_margins("cycle(2000)", stages)

    @pytest.mark.slow
    def test_stages_at_d_2500(self):
        # cycle(5000), the largest cycle gen admits, whose dense p would take 117 GiB.  Two
        # margins fall under 1000x here: the route columns (219x excess, 133x predistance)
        # and the theta gaps (790x); the floors sit below those measured values.
        stages = _stages_without_mstar(array_slabs(*intersection_array("cycle", 5000)))
        assert stages.routes["tridiagonal"].l == 2500
        assert stages.q_poly.verdict == YES
        _check_margins("cycle(5000)", stages, matched=100, between=500)
