from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from schemex.families import FamilySpec, generate
from schemex.graph_tools import Graph, graph_spectrum
from schemex.spectral import (
    DegenerateSpectrum,
    NumericalBreakdown,
    Spectrum,
    predistance_polynomials,
    spectral_data,
    spectral_excess,
)

from nxn_reference import (
    RepeatedBeta,
    graph_property_residual,
    inner_product,
    kappa_scalar,
    lagrange_power_identity,
)


def _spectrum_of(s):
    return spectral_data(s).spectrum


def _spectrum(family, params=()):
    return _spectrum_of(generate(FamilySpec(family, params)))


PETERSEN = Spectrum(theta=np.array([3.0, 1.0, -2.0]), m=np.array([1.0, 5.0, 4.0]), n=10)
CUBE = Spectrum(
    theta=np.array([3.0, 1.0, -1.0, -3.0]), m=np.array([1.0, 3.0, 3.0, 1.0]), n=8
)


class TestSpectrum:
    def test_rejects_unsorted(self):
        with pytest.raises(DegenerateSpectrum):
            Spectrum(theta=np.array([1.0, 3.0]), m=np.array([1.0, 1.0]), n=2)

    def test_rejects_repeats(self):
        with pytest.raises(DegenerateSpectrum) as exc:
            Spectrum(theta=np.array([2.0, 1.0, 1.0]), m=np.array([1.0, 1.0, 2.0]), n=4)
        assert "1" in str(exc.value)

    def test_rejects_unequal_shapes(self):
        with pytest.raises(ValueError, match="^theta and m must be 1-d arrays of equal"):
            Spectrum(theta=np.array([3.0, 1.0, -2.0]), m=np.array([1.0, 9.0]), n=10)

    @pytest.mark.parametrize("m, message", [
        ([1.0, 9.0, 0.0], "^multiplicities must be positive$"),
        ([2.0, 4.0, 4.0], "^m_0 = 2.0 but the top eigenvalue must be simple$"),
    ])
    def test_rejects_bad_multiplicities(self, m, message):
        with pytest.raises(ValueError, match=message):
            Spectrum(theta=np.array([3.0, 1.0, -2.0]), m=np.array(m), n=10)

    def test_rejects_bad_mass(self):
        with pytest.raises(ValueError):
            Spectrum(theta=np.array([2.0, -1.0]), m=np.array([1.0, 5.0]), n=4)

    @pytest.mark.parametrize("theta, m", [
        ([3.0, np.nan, -1.0], [1.0, 2.0, 3.0]),
        ([3.0, 1.0, -1.0], [1.0, np.nan, 3.0]),
        ([np.inf, 1.0, -1.0], [1.0, 2.0, 3.0]),
    ])
    def test_rejects_non_finite(self, theta, m):
        with pytest.raises(ValueError, match="^theta and m must be finite$"):
            Spectrum(theta=np.array(theta), m=np.array(m), n=6)

    def test_d(self):
        assert PETERSEN.d == 2


class TestPredistance:
    def test_first_two_members(self):
        values = predistance_polynomials(PETERSEN)
        assert np.allclose(values[0], 1.0, atol=1e-12)
        assert np.allclose(values[1], PETERSEN.theta, atol=1e-10)

    def test_petersen_top(self):
        # p_2 = t^2 - 3 at theta = (3, 1, -2)
        values = predistance_polynomials(PETERSEN)
        assert np.allclose(values[2], [6.0, -2.0, 1.0], atol=1e-9)

    def test_pentagon_top(self):
        sp = _spectrum("cycle", (5,))
        values = predistance_polynomials(sp)
        assert np.allclose(values[2], sp.theta ** 2 - 2.0, atol=1e-9)
        assert values[2, 0] == pytest.approx(2.0, abs=1e-9)

    def test_norm_equals_value_at_theta0(self):
        # the defining normalization: <p_i, p_i> = p_i(theta_0)
        for fam, params in [("cycle", (7,)), ("hamming", (3, 2)), ("johnson", (5, 2))]:
            sp = _spectrum(fam, params)
            values = predistance_polynomials(sp)
            for i, row in enumerate(values):
                ip = inner_product(lambda t: row, lambda t: row, sp)
                assert ip == pytest.approx(row[0], rel=1e-8), (fam, i)

    def test_orthogonality(self):
        for fam, params in [("cycle", (9,)), ("hamming", (2, 3)), ("petersen", ())]:
            sp = _spectrum(fam, params)
            values = predistance_polynomials(sp)
            d = sp.d
            for i in range(d + 1):
                for j in range(i):
                    ip = inner_product(lambda t: values[i], lambda t: values[j], sp)
                    assert abs(ip) < 1e-8, (fam, i, j)

    def test_values_sum_to_n_minus_something(self):
        # sum_i p_i(theta_0) = n for any spectrum of a connected regular graph
        for fam, params in [("cycle", (8,)), ("hamming", (3, 3)), ("johnson", (6, 2))]:
            sp = _spectrum(fam, params)
            values = predistance_polynomials(sp)
            assert values[:, 0].sum() == pytest.approx(sp.n, rel=1e-8), fam


def _kappa_form(sp):
    """n / sum_h kappa_h^2 / m_h: kappa_h = -m_h p_d(theta_h) / p_d(theta_0) in <p_d, p_d> = p_d(theta_0)."""
    return sp.n / float((sp.kappa ** 2 / sp.m).sum())


def _corpus_spectra(scheme_corpus):
    spectra = [_spectrum_of(s) for _, s, _ in scheme_corpus]
    return [sp for sp in spectra if sp is not None]  # tied theta: no Spectrum


def _random_regular_spectra(seed, count):
    rng = np.random.default_rng(seed)
    spectra = []
    for _ in range(count):
        k = int(rng.integers(3, 7))
        n = int(rng.integers(8, 60)) // 2 * 2
        h = nx.random_regular_graph(k, n, seed=int(rng.integers(2 ** 31)))
        if nx.is_connected(h):
            spectra.append(graph_spectrum(Graph.from_edges(n, h.edges())))
    return spectra


def test_gram_schmidt_breakdown_raises():
    # theta_1 = 1e-9 sits next to theta_2 = 0, so q_3 keeps a norm far under the rounding of
    # theta p_2; no scheme or graph in the tests comes near
    with pytest.raises(NumericalBreakdown) as exc:
        predistance_polynomials(Spectrum([3, 1e-9, 0, -3], [1, 1, 1, 1], 4))
    assert str(exc.value) == "||q_3||^2 = 5.000e-19 collapsed during Gram-Schmidt"


class TestTopValueClosedForm:
    def test_seeded_random_regular_spectra(self):
        spectra = _random_regular_spectra(20261018, 25)
        for sp in spectra:
            values = predistance_polynomials(sp)
            assert abs(values[sp.d, 0] - spectral_excess(sp)) < 1e-12, (sp.n, sp.d)
        assert len(spectra) >= 20

    def test_recurrence_where_it_resolves_the_value(self, scheme_corpus):
        # below about 1e-12 the recurrence's top value is its rounding, so only the
        # absolute check above applies there
        corpus_spectra = _corpus_spectra(scheme_corpus)
        compared = 0
        for sp in corpus_spectra + _random_regular_spectra(20261019, 25):
            pd0 = predistance_polynomials(sp)[sp.d, 0]
            if pd0 > 1e-12:
                assert spectral_excess(sp) == pytest.approx(pd0, rel=1e-9, abs=0), (sp.n, sp.d)
                compared += 1
        assert compared > len(corpus_spectra)

    def test_kappa_form(self, scheme_corpus):
        for sp in _corpus_spectra(scheme_corpus) + _random_regular_spectra(20261019, 25):
            assert spectral_excess(sp) == pytest.approx(_kappa_form(sp), rel=1e-12, abs=0), (sp.n, sp.d)

    def test_corpus_positives_give_last_valency(self, scheme_corpus, corpus_analyses):
        for name, s, expected in scheme_corpus:
            if expected != "yes":
                continue
            sp = _spectrum_of(s)
            pd0 = predistance_polynomials(sp)[sp.d, 0]
            k_l = s.valencies[corpus_analyses[name].report.l]
            assert pd0 == pytest.approx(k_l, rel=1e-9), name
            assert spectral_excess(sp) == pytest.approx(k_l, rel=1e-9), name


class TestKappa:
    def test_single_class(self):
        sp = Spectrum(theta=np.array([1.0, -1.0]), m=np.array([1.0, 1.0]), n=2)
        assert sp.kappa[1] == pytest.approx(1.0)

    def test_cube(self):
        assert np.allclose(CUBE.kappa, [1.0, 3.0, -3.0, 1.0], atol=1e-12)

    def test_petersen(self):
        assert np.allclose(PETERSEN.kappa, [1.0, 5.0 / 3.0, -2.0 / 3.0], atol=1e-12)

    def test_cached_and_read_only(self):
        kap = CUBE.kappa
        assert CUBE.kappa is kap
        with pytest.raises(ValueError):
            kap[1] = 0.0

    def test_within_1e_12_of_the_scalar_loop(self, scheme_corpus, cycle_scheme):
        schemes = [(name, s) for name, s, _ in scheme_corpus]
        schemes += [(f"cycle({n})", cycle_scheme(n)) for n in (44, 100, 200)]
        checked = 0
        for name, s in schemes:
            sp = spectral_data(s).spectrum
            if sp is None:  # tied theta: no kappa
                continue
            ref = np.array([1.0] + [kappa_scalar(sp.theta, i) for i in range(1, sp.d + 1)])
            assert (np.abs(sp.kappa - ref) <= 1e-12 * np.abs(ref)).all(), name
            checked += 1
        assert checked == len(schemes) - 2  # all but the two tied corpus entries

    @pytest.mark.parametrize("N", [1300, 2000, 5000])
    def test_cycle_spectrum_past_float_range(self, N):
        # C_N: theta_j = 2 cos(2 pi j / N), m = (1, 2, ..., 2, 1), and
        # kappa_i = -m_i (-1)^i; the running products leave float64's range near d = 600
        j = np.arange(N // 2 + 1)
        m = np.where((j == 0) | (j == N // 2), 1.0, 2.0)
        sp = Spectrum(theta=2 * np.cos(2 * np.pi * j / N), m=m, n=N)
        want = np.where(j == 0, 1.0, -m * (-1.0) ** j)
        assert np.abs(sp.kappa - want).max() < 1e-8

    def test_past_float_range_is_inf_without_a_warning(self):
        # pi_0 is about 1e1200 here; the suite turns any RuntimeWarning into an error
        theta = np.concatenate(([1e3], np.linspace(1.0, -1.0, 400)))
        sp = Spectrum(theta=theta, m=np.ones(401), n=401)
        assert sp.kappa[0] == 1.0
        assert np.array_equal(sp.kappa[1:5], [np.inf, -np.inf, np.inf, -np.inf])
        assert sp.log_kappa[1] == pytest.approx(2874.72, abs=0.01)  # kappa_1 is about 1e1248
        assert spectral_excess(sp) == 0.0

    def test_sums_to_one_minus_kappa0_style_identity(self):
        # kappa_i interpolates x -> prod (x - theta_j); at theta_0 the Lagrange
        # basis sums to 1, so sum over all i (including i=0 with value 1) is
        # the constant polynomial 1 evaluated anywhere: check via h=0 identity.
        theta = CUBE.theta
        val = lagrange_power_identity(theta, 0.37, 0)
        assert val == pytest.approx(1.0, abs=1e-12)


class TestLagrange:
    def test_rejects_repeated_nodes(self):
        with pytest.raises(RepeatedBeta):
            lagrange_power_identity(np.array([1.0, 1.0, 2.0]), 0.5, 1)

    def test_rejects_bad_degree(self):
        with pytest.raises(ValueError):
            lagrange_power_identity(np.array([0.0, 1.0]), 0.5, 2)
        with pytest.raises(ValueError):
            lagrange_power_identity(np.array([0.0, 1.0]), 0.5, -1)

    def test_reproduces_powers(self):
        rng = np.random.default_rng(20260823)
        for _ in range(200):
            d = int(rng.integers(1, 9))
            betas = np.sort(rng.uniform(-5, 5, d + 1))[::-1]
            if np.min(-np.diff(betas)) < 0.02:
                continue
            x = float(rng.uniform(-5, 5))
            h = int(rng.integers(0, d))
            got = lagrange_power_identity(betas, x, h)
            scale = max(1.0, abs(x), float(np.abs(betas).max())) ** h
            assert abs(got - x**h) <= 1e-8 * scale


class TestGraphPropertyResidual:
    def test_petersen_exact(self):
        values = predistance_polynomials(PETERSEN)
        for i in (1, 2):
            assert abs(graph_property_residual(PETERSEN, values, i)) < 1e-10

    def test_corpus_spectra(self):
        for fam, params in [
            ("cycle", (6,)),
            ("cycle", (11,)),
            ("hamming", (4, 2)),
            ("johnson", (7, 2)),
            ("complete", (5,)),
        ]:
            sp = _spectrum(fam, params)
            values = predistance_polynomials(sp)
            for i in range(1, sp.d + 1):
                assert abs(graph_property_residual(sp, values, i)) < 1e-8, (fam, i)
