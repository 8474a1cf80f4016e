from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from schemex.families import FamilySpec, generate
from schemex.graph_tools import Graph, graph_spectrum
from schemex.poly import (
    DegenerateSpectrum,
    RepeatedBeta,
    Spectrum,
    graph_property_residual,
    inner_product,
    kappa,
    lagrange_power_identity,
    predistance_polynomials,
)
from schemex.spectral import spectral_data


def _spectrum_of(s):
    sd = spectral_data(s.tensor)
    return Spectrum(theta=sd.theta, m=sd.multiplicities, n=sd.n)


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

    def test_rejects_bad_mass(self):
        with pytest.raises(ValueError):
            Spectrum(theta=np.array([2.0, -1.0]), m=np.array([1.0, 5.0]), n=4)

    def test_d(self):
        assert PETERSEN.d == 2


class TestPredistance:
    def test_first_two_members(self):
        ps = predistance_polynomials(PETERSEN)
        assert np.allclose(ps.values[0], 1.0, atol=1e-12)
        assert np.allclose(ps.values[1], PETERSEN.theta, atol=1e-10)

    def test_petersen_top(self):
        # p_2 = t^2 - 3 at theta = (3, 1, -2)
        ps = predistance_polynomials(PETERSEN)
        assert np.allclose(ps.values[2], [6.0, -2.0, 1.0], atol=1e-9)

    def test_pentagon_top(self):
        sp = _spectrum("cycle", (5,))
        ps = predistance_polynomials(sp)
        assert np.allclose(ps.values[2], sp.theta ** 2 - 2.0, atol=1e-9)
        assert ps.values[2, 0] == pytest.approx(2.0, abs=1e-9)

    def test_norm_equals_value_at_theta0(self):
        # the defining normalization: <p_i, p_i> = p_i(theta_0)
        for fam, params in [("cycle", (7,)), ("hamming", (3, 2)), ("johnson", (5, 2))]:
            sp = _spectrum(fam, params)
            ps = predistance_polynomials(sp)
            for i, row in enumerate(ps.values):
                ip = inner_product(lambda t: row, lambda t: row, sp)
                assert ip == pytest.approx(row[0], rel=1e-8), (fam, i)
                assert ps.norms[i] == pytest.approx(row[0], rel=1e-8), (fam, i)

    def test_orthogonality(self):
        for fam, params in [("cycle", (9,)), ("hamming", (2, 3)), ("petersen", ())]:
            sp = _spectrum(fam, params)
            ps = predistance_polynomials(sp)
            d = sp.d
            for i in range(d + 1):
                for j in range(i):
                    ip = inner_product(lambda t: ps.values[i], lambda t: ps.values[j], sp)
                    assert abs(ip) < 1e-8, (fam, i, j)

    def test_values_sum_to_n_minus_something(self):
        # sum_i p_i(theta_0) = n for any spectrum of a connected regular graph
        for fam, params in [("cycle", (8,)), ("hamming", (3, 3)), ("johnson", (6, 2))]:
            sp = _spectrum(fam, params)
            ps = predistance_polynomials(sp)
            assert ps.values[:, 0].sum() == pytest.approx(sp.n, rel=1e-8), fam


def _spectral_excess_closed_form(sp):
    """n / sum_h pi_0^2 / (m_h pi_h^2), pi_h = prod_{j != h} |theta_h - theta_j|, in log space.

    The spectral excess theorem's value of p_d(theta_0) (Fiol and Garriga,
    J. Combin. Theory Ser. B 71 (1997)); it shares no arithmetic with the
    recurrence.
    """
    gaps = np.abs(sp.theta[:, None] - sp.theta[None, :])
    np.fill_diagonal(gaps, 1.0)
    log_pi = np.log(gaps).sum(axis=1)
    e = 2 * log_pi[0] - np.log(sp.m) - 2 * log_pi
    top = e.max()
    return sp.n * np.exp(-top - np.log(np.exp(e - top).sum()))


class TestTopValueClosedForm:
    def test_seeded_random_regular_spectra(self):
        rng = np.random.default_rng(20261018)
        checked = 0
        for _ in range(25):
            k = int(rng.integers(3, 7))
            n = int(rng.integers(8, 60)) // 2 * 2
            h = nx.random_regular_graph(k, n, seed=int(rng.integers(2 ** 31)))
            if not nx.is_connected(h):
                continue
            sp = graph_spectrum(Graph.from_edges(n, h.edges()))
            ps = predistance_polynomials(sp)
            assert abs(ps.values[sp.d, 0] - _spectral_excess_closed_form(sp)) < 1e-12, (n, k)
            checked += 1
        assert checked >= 20

    def test_corpus_positives_give_last_valency(self, scheme_corpus, corpus_analyses):
        for name, s, expected in scheme_corpus:
            if expected != "yes":
                continue
            sp = _spectrum_of(s)
            pd0 = predistance_polynomials(sp).values[sp.d, 0]
            k_l = s.valencies[corpus_analyses[name].report.l]
            assert pd0 == pytest.approx(k_l, rel=1e-9), name
            assert _spectral_excess_closed_form(sp) == pytest.approx(k_l, rel=1e-9), name


class TestKappa:
    def test_single_class(self):
        sp = Spectrum(theta=np.array([1.0, -1.0]), m=np.array([1.0, 1.0]), n=2)
        assert kappa(sp, 1) == pytest.approx(1.0)

    def test_cube(self):
        got = [kappa(CUBE, i) for i in (1, 2, 3)]
        assert np.allclose(got, [3.0, -3.0, 1.0], atol=1e-12)

    def test_petersen(self):
        got = [kappa(PETERSEN, i) for i in (1, 2)]
        assert np.allclose(got, [5.0 / 3.0, -2.0 / 3.0], atol=1e-12)

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
        ps = predistance_polynomials(PETERSEN)
        for i in (1, 2):
            assert abs(graph_property_residual(PETERSEN, ps, i)) < 1e-10

    def test_corpus_spectra(self):
        for fam, params in [
            ("cycle", (6,)),
            ("cycle", (11,)),
            ("hamming", (4, 2)),
            ("johnson", (7, 2)),
            ("complete", (5,)),
        ]:
            sp = _spectrum(fam, params)
            ps = predistance_polynomials(sp)
            for i in range(1, sp.d + 1):
                assert abs(graph_property_residual(sp, ps, i)) < 1e-8, (fam, i)
