from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from schemex.families import FamilySpec, generate
from schemex import spectral
from schemex.spectral import krein_parameters, primitive_idempotents, spectral_data

from nxn_reference import (
    adjacency,
    array_slabs,
    dense,
    intersection_array,
    krein_expansion,
    krein_slabs_loop,
)

SQ5 = 5 ** 0.5


def _sd(family, params=()):
    return spectral_data(generate(FamilySpec(family, params)))


def _krein_cube(s, sd):
    """q[k, i, j], stacked from the reference slabs q[:, i, :]."""
    return np.stack(list(krein_slabs_loop(s, sd)), axis=1)


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
            sd = spectral_data(s)
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


def test_a_family_that_splits_nothing_raises():
    # no scheme reaches this: its intersection matrices separate every eigenspace
    with pytest.raises(spectral.EigenSplitFailure) as exc:
        spectral._split_blocks([np.eye(2), np.eye(2)])
    assert str(exc.value) == (
        "eigenspaces of dimensions [2] could not be split by the intersection matrices; "
        "identical P-rows should be impossible"
    )


def _turn(a):
    return np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])


# Bends of the pentagon's common eigenvectors V, as _split_blocks returns them: eigh sorts
# the eigenvalues of S_1 ascending, so the last column is the valency one, sqrt(k / n).
def _unit_vectors(V):
    return np.eye(3)


def _mix_the_valency_column(V):
    W = V.copy()
    W[:, [0, 2]] = V[:, [0, 2]] @ _turn(0.3)
    return W


def _turn_below_the_top(V):
    # column 0 keeps its norm and top entry, so its multiplicity n V[0, 0]^2 stays 2, but
    # it is no longer orthogonal to the others, and P Q = n I measures that orthogonality
    W = V.copy()
    W[1:, 0] = _turn(0.5) @ V[1:, 0]
    return W


def _near_copy(V):
    # column 1 becomes column 0 turned by 1e-13 below its top entry: two P rows agree to
    # 13 digits and P is near singular
    W = V.copy()
    W[:, 1] = V[:, 0]
    W[1:, 1] = _turn(1e-13) @ V[1:, 0]
    return W


class TestSpectralDataGuards:
    """The raises of spectral_data that no scheme reaches: an intersection array no scheme
    has, or common eigenvectors bent after _split_blocks has found them."""

    def test_multiplicities_of_the_missing_moore_graph(self):
        # {4, 3; 1, 1}: a Moore graph of valency 4 on 17 points, which does not exist
        with pytest.raises(spectral.EigenSplitFailure) as exc:
            spectral_data(array_slabs([4, 3], [1, 1]))
        assert str(exc.value) == (
            "multiplicities [1.         9.10940039 6.89059961] do not round to positive "
            "integers summing to 17"
        )

    # ids name the bends, so rewording a message keeps the test ids
    @pytest.mark.parametrize("bend, message", [
        (_unit_vectors, "eigenvector with vanishing identity coordinate"),
        (_mix_the_valency_column, "no computed row matches the valency row"),
        (_near_copy, r"P Q = nI fails \(residual "),
        (_turn_below_the_top, r"P Q = nI fails \(residual "),
    ], ids=["unit_vectors", "mix_the_valency_column", "near_copy", "turn_below_the_top"])
    def test_bent_eigenvectors(self, monkeypatch, bend, message):
        found = spectral._split_blocks
        monkeypatch.setattr(spectral, "_split_blocks", lambda mats: bend(found(mats)))
        with pytest.raises(spectral.EigenSplitFailure, match=f"^{message}"):
            spectral_data(array_slabs(*intersection_array("cycle", 5)))

    def test_the_bends_start_from_the_pentagon(self):
        t = array_slabs(*intersection_array("cycle", 5))
        sq = np.sqrt(t.valencies)
        V = spectral._split_blocks(
            (sq[:, None] * t.slab(i) / sq[None, :] for i in (1, 2)))
        assert np.allclose(V[:, 2], sq / 5 ** 0.5)
        assert np.allclose(np.abs(V[0, :2]), (2 / 5) ** 0.5)


def test_pq_identity_and_integrality(scheme_corpus):
    for name, s, _ in scheme_corpus:
        sd = spectral_data(s)
        n = s.n
        assert np.abs(sd.P @ sd.Q - n * np.eye(s.d + 1)).max() <= 1e-8 * n, name
        rounded = np.round(sd.multiplicities)
        assert np.abs(sd.multiplicities - rounded).max() <= 1e-6, name
        assert int(rounded.sum()) == n, name


def test_q_from_multiplicities_is_n_times_the_inverse_of_p(scheme_corpus):
    # Q_i(l) = m_i P_l(i) / k_l; a solve of P Q = n I is a second way to the same Q
    ladder = [("hamming", (6, 3)), ("johnson", (12, 4)), ("cycle", (44,)), ("cycle", (100,)),
              ("cycle", (200,)), ("hamming", (10, 2))]
    tensors = [(name, s) for name, s, _ in scheme_corpus]
    tensors += [(f"{fam}{par}", generate(FamilySpec(fam, par))) for fam, par in ladder]
    tensors.append(("cycle(2000)", array_slabs(*intersection_array("cycle", 2000))))
    for name, t in tensors:
        sd = spectral_data(t)
        ref = np.linalg.solve(sd.P, t.n * np.eye(t.d + 1))
        assert np.abs(sd.Q - ref).max() <= 1e-9 * np.abs(sd.Q).max(), name


class TestIdempotents:
    def test_k2_exact(self):
        s = generate(FamilySpec("complete", (2,)))
        E = primitive_idempotents(s, spectral_data(s))
        assert np.allclose(E[0], [[0.5, 0.5], [0.5, 0.5]], atol=1e-12)
        assert np.allclose(E[1], [[0.5, -0.5], [-0.5, 0.5]], atol=1e-12)

    def test_petersen_ranks(self):
        s = generate(FamilySpec("petersen"))
        E = primitive_idempotents(s, spectral_data(s))
        ranks = [np.linalg.matrix_rank(Ek, tol=1e-8) for Ek in E]
        assert ranks == [1, 5, 4]

    def test_pentagon_traces(self):
        s = generate(FamilySpec("cycle", (5,)))
        E = primitive_idempotents(s, spectral_data(s))
        assert np.allclose([np.trace(Ek) for Ek in E], [1, 2, 2], atol=1e-9)

    def test_projection_algebra(self, scheme_corpus):
        for name, s, _ in scheme_corpus:
            sd = spectral_data(s)
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
            sd = spectral_data(s)
            E = primitive_idempotents(s, sd)
            for i in range(s.d + 1):
                got = sum(sd.P[j, i] * E[j] for j in range(s.d + 1))
                assert np.abs(got - adjacency(s, i)).max() < 1e-8, (name, i)


class TestKrein:
    def test_k3_value(self):
        s = generate(FamilySpec("complete", (3,)))
        q = _krein_cube(s, spectral_data(s))
        assert abs(q[1, 1, 1] - 1.0) < 1e-10

    def test_q0_diagonal_is_multiplicities(self, scheme_corpus):
        for name, s, _ in scheme_corpus:
            sd = spectral_data(s)
            q = _krein_cube(s, sd)
            for i in range(s.d + 1):
                for j in range(s.d + 1):
                    want = sd.multiplicities[i] if i == j else 0.0
                    assert abs(q[0, i, j] - want) < 1e-8, (name, i, j)

    def test_binary_hamming_self_dual(self):
        s = generate(FamilySpec("hamming", (3, 2)))
        q = _krein_cube(s, spectral_data(s))
        assert np.abs(q - dense(s)).max() < 1e-8

    def test_nonnegativity_floor(self, scheme_corpus, cycle_scheme):
        # the Krein conditions q^k_{ij} >= 0 (Scott 1973), an oracle for P and m
        schemes = [(name, s) for name, s, _ in scheme_corpus] + [("cycle(200)", cycle_scheme(200))]
        for name, s in schemes:
            assert _krein_cube(s, spectral_data(s)).min() >= -1e-8 * s.n, name

    def test_row_sums(self, scheme_corpus):
        # sum_j q^k_{ij} = m_i, the dual of the valency row-sum identity
        for name, s, _ in scheme_corpus:
            sd = spectral_data(s)
            m = sd.multiplicities
            got = _krein_cube(s, sd).sum(axis=2)
            assert np.abs(got - m[None, :]).max() < 1e-7, name

    def test_closed_form_matches_nxn_expansion(self, scheme_corpus):
        for name, s, _ in scheme_corpus:
            sd = spectral_data(s)
            ref = krein_expansion(s, sd)
            q = _krein_cube(s, sd)
            assert np.abs(q - ref).max() <= 1e-10 * max(1.0, np.abs(ref).max()), name
            # krein_parameters does not check q^k_{ij} = q^k_{ji}; it holds by construction
            assert np.abs(q - q.transpose(0, 2, 1)).max() <= 1e-12 * max(1.0, np.abs(q).max()), name

    def test_kept_fields_match_the_cube(self, scheme_corpus, cycle_scheme):
        schemes = [(name, s) for name, s, _ in scheme_corpus] + [("cycle(200)", cycle_scheme(200))]
        for name, s in schemes:
            sd = spectral_data(s)
            q = _krein_cube(s, sd)
            q1 = krein_parameters(s, sd)
            assert np.array_equal(q1, q[:, 1, :]), name
            assert not q1.flags.writeable, name
            assert np.abs(q - q.transpose(0, 2, 1)).max() <= 1e-12 * max(1.0, np.abs(q).max()), name


def test_spectral_data_builds_no_cubic_array(cycle_scheme):
    t = cycle_scheme(100)
    one_cube = (t.d + 1) ** 3 * np.dtype(np.float64).itemsize
    tracemalloc.start()
    try:
        spectral_data(t)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < one_cube, f"spectral_data peaked at {peak} bytes, (d+1)^3 float64 is {one_cube}"


def test_spectral_data_refuses_writes(scheme_corpus):
    # theta and m are held once, so a write could reach M* and nstar but not the Spectrum's kappa
    sds = [spectral_data(s) for _, s, _ in scheme_corpus]
    distinct = next(sd for sd in sds if sd.tie is None)
    tied = next(sd for sd in sds if sd.tie is not None)
    for sd in (distinct, tied):
        for name in ("theta", "multiplicities", "P", "Q"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(sd, name)[-1] = 0.0


def test_krein_parameters_hold_no_cubic_array(cycle_scheme):
    # only the slab q^k_{1j} is computed, from a few (d+1)^2 temporaries
    s = cycle_scheme(200)
    sd = spectral_data(s)
    one_slab = (s.d + 1) ** 2 * np.dtype(np.float64).itemsize
    tracemalloc.start()
    try:
        krein_parameters(s, sd)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4.5 * one_slab, f"krein_parameters peaked at {peak / one_slab:.2f} (d+1)^2 arrays"
