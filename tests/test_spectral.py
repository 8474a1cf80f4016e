from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from schemex.families import FamilySpec, generate
from schemex.spectral import (
    krein_parameters,
    primitive_idempotents,
    spectral_data,
)

from nxn_reference import krein_expansion

SQ5 = 5 ** 0.5


def _sd(family, params=()):
    return spectral_data(generate(FamilySpec(family, params)).tensor)


class TestEigenmatrices:
    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_complete_graph(self, n):
        sd = _sd("complete", (n,))
        assert np.allclose(sd.P, [[1, n - 1], [1, -1]])
        assert np.allclose(sd.Q, [[1, n - 1], [1, -1]])
        assert np.allclose(sd.multiplicities, [1, n - 1])

    def test_pentagon_golden(self):
        sd = _sd("cycle", (5,))
        golden = [2.0, (-1 + SQ5) / 2, (-1 - SQ5) / 2]
        assert np.allclose(sd.theta, golden, atol=1e-12)
        assert np.allclose(sd.multiplicities, [1, 2, 2], atol=1e-9)

    def test_cube_golden(self):
        sd = _sd("hamming", (3, 2))
        assert np.allclose(sd.theta, [3, 1, -1, -3], atol=1e-12)
        assert np.allclose(sd.multiplicities, [1, 3, 3, 1], atol=1e-9)
        # binary Hamming schemes are formally self-dual
        assert np.allclose(sd.P, sd.Q, atol=1e-10)
        assert np.allclose(sd.P[:, 3], [1, -1, 1, -1], atol=1e-12)

    def test_petersen(self):
        sd = _sd("petersen")
        assert np.allclose(sd.theta, [3, 1, -2], atol=1e-12)
        assert np.allclose(sd.multiplicities, [1, 5, 4], atol=1e-9)

    def test_valency_row_is_row_zero(self, scheme_corpus):
        for name, s, _ in scheme_corpus:
            sd = spectral_data(s.tensor)
            assert np.allclose(sd.P[0], s.valencies), name
            assert abs(sd.multiplicities[0] - 1) < 1e-9, name

    def test_theta_sorted_with_tie_rule(self):
        # antipodal relabelling of the cube: theta = (1, 1, -1, -1)
        sd = _sd("hypercube_reordered", (0, 3, 2, 1))
        assert np.allclose(sd.theta, [1, 1, -1, -1], atol=1e-12)
        # tied thetas are ordered by ascending multiplicity
        assert np.allclose(sd.multiplicities, [1, 3, 1, 3], atol=1e-9)

    def test_disjoint_cliques_needs_refinement(self):
        # B_1 alone has a repeated eigenvalue; B_2 must split it
        sd = _sd("disjoint_cliques", (3, 3))
        assert np.allclose(sd.theta, [2, 2, -1], atol=1e-12)
        assert np.allclose(sd.multiplicities, [1, 2, 6], atol=1e-9)
        assert np.allclose(sd.P, [[1, 2, 6], [1, 2, -3], [1, -1, 0]], atol=1e-9)


def test_pq_identity_and_integrality(scheme_corpus):
    for name, s, _ in scheme_corpus:
        sd = spectral_data(s.tensor)
        n = s.n
        assert np.abs(sd.P @ sd.Q - n * np.eye(s.d + 1)).max() <= 1e-8 * n, name
        rounded = np.round(sd.multiplicities)
        assert np.abs(sd.multiplicities - rounded).max() <= 1e-6, name
        assert int(rounded.sum()) == n, name


class TestIdempotents:
    def test_k2_exact(self):
        s = generate(FamilySpec("complete", (2,)))
        E = primitive_idempotents(s, spectral_data(s.tensor))
        assert np.allclose(E[0], [[0.5, 0.5], [0.5, 0.5]], atol=1e-12)
        assert np.allclose(E[1], [[0.5, -0.5], [-0.5, 0.5]], atol=1e-12)

    def test_petersen_ranks(self):
        s = generate(FamilySpec("petersen"))
        E = primitive_idempotents(s, spectral_data(s.tensor))
        ranks = [np.linalg.matrix_rank(Ek, tol=1e-8) for Ek in E]
        assert ranks == [1, 5, 4]

    def test_pentagon_traces(self):
        s = generate(FamilySpec("cycle", (5,)))
        E = primitive_idempotents(s, spectral_data(s.tensor))
        assert np.allclose([np.trace(Ek) for Ek in E], [1, 2, 2], atol=1e-9)

    def test_projection_algebra(self, scheme_corpus):
        for name, s, _ in scheme_corpus:
            sd = spectral_data(s.tensor)
            E = primitive_idempotents(s, sd)
            n, d = s.n, s.d
            assert np.allclose(E[0], np.full((n, n), 1.0 / n), atol=1e-9), name
            assert np.allclose(sum(E), np.eye(n), atol=1e-9), name
            for i in range(d + 1):
                for j in range(d + 1):
                    want = E[i] if i == j else np.zeros((n, n))
                    assert np.abs(E[i] @ E[j] - want).max() < 1e-9, (name, i, j)

    def test_reconstruction(self, scheme_corpus):
        # A_i = sum_j P_i(j) E_j
        for name, s, _ in scheme_corpus:
            sd = spectral_data(s.tensor)
            E = primitive_idempotents(s, sd)
            for i in range(s.d + 1):
                got = sum(sd.P[j, i] * E[j] for j in range(s.d + 1))
                assert np.abs(got - s.adjacency(i)).max() < 1e-8, (name, i)


class TestKrein:
    def test_k3_value(self):
        s = generate(FamilySpec("complete", (3,)))
        sd = spectral_data(s.tensor)
        kt = krein_parameters(sd)
        assert abs(kt.q[1, 1, 1] - 1.0) < 1e-10

    def test_q0_diagonal_is_multiplicities(self, scheme_corpus):
        for name, s, _ in scheme_corpus:
            sd = spectral_data(s.tensor)
            kt = krein_parameters(sd)
            for i in range(s.d + 1):
                for j in range(s.d + 1):
                    want = sd.multiplicities[i] if i == j else 0.0
                    assert abs(kt.q[0, i, j] - want) < 1e-8, (name, i, j)

    def test_binary_hamming_self_dual(self):
        s = generate(FamilySpec("hamming", (3, 2)))
        sd = spectral_data(s.tensor)
        kt = krein_parameters(sd)
        assert np.abs(kt.q - s.tensor.p).max() < 1e-8

    def test_nonnegativity_floor(self, scheme_corpus):
        for name, s, _ in scheme_corpus:
            sd = spectral_data(s.tensor)
            kt = krein_parameters(sd)
            assert kt.min_value >= -1e-8 * s.n, name

    def test_row_sums(self, scheme_corpus):
        # sum_j q^k_{ij} = m_i, the dual of the valency row-sum identity
        for name, s, _ in scheme_corpus:
            sd = spectral_data(s.tensor)
            kt = krein_parameters(sd)
            m = sd.multiplicities
            got = kt.q.sum(axis=2)
            assert np.abs(got - m[None, :]).max() < 1e-7, name

    def test_closed_form_matches_nxn_expansion(self, scheme_corpus):
        for name, s, _ in scheme_corpus:
            sd = spectral_data(s.tensor)
            ref = krein_expansion(s, sd)
            q = krein_parameters(sd).q
            assert np.abs(q - ref).max() <= 1e-10 * max(1.0, np.abs(ref).max()), name


def test_spectral_data_builds_no_cubic_array():
    t = generate(FamilySpec("cycle", (100,))).tensor
    one_cube = (t.d + 1) ** 3 * np.dtype(np.float64).itemsize
    tracemalloc.start()
    try:
        spectral_data(t)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < one_cube, f"spectral_data peaked at {peak} bytes, (d+1)^3 float64 is {one_cube}"
