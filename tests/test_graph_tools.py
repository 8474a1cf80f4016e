from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from schemex.detect import detect
from schemex.families import FamilySpec, generate
from schemex.graph_tools import (
    Disconnected,
    Graph,
    NotDistanceRegular,
    NotRegular,
    distance_data,
    graph_spectrum,
    scheme_from_drg,
    spectral_excess_report,
)


def _cycle_graph(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def _path_graph(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def _petersen_graph():
    s = generate(FamilySpec("petersen"))
    A = s.adjacency(1)
    edges = [(u, v) for u in range(10) for v in range(u + 1, 10) if A[u, v]]
    return Graph.from_edges(10, edges)


def _cube_graph():
    # vertices 0..7, adjacent iff the binary labels differ in one bit
    edges = [
        (u, u ^ (1 << b)) for u in range(8) for b in range(3) if u < (u ^ (1 << b))
    ]
    return Graph.from_edges(8, edges)


class TestGraph:
    def test_from_edges(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        assert g.degrees == (1, 2, 1)
        A = g.adj
        assert A.dtype == bool and not A.flags.writeable
        assert np.array_equal(A, A.T) and int(A.sum()) // 2 == 2

    def test_rejects_loops_duplicates_range(self):
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(0, 0)])
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(0, 1), (1, 0)])
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(0, 2)])


class TestDistances:
    def test_pentagon(self):
        dd = distance_data(_cycle_graph(5))
        assert dd.diameter == 2
        assert np.all(dd.excess == 2)
        assert np.all(dd.eccentricity == 2)

    def test_petersen(self):
        dd = distance_data(_petersen_graph())
        assert dd.diameter == 2
        assert np.all(dd.excess == 6)
        assert np.all(dd.gamma_counts == [1, 3, 6])

    def test_path_has_varying_excess(self):
        dd = distance_data(_path_graph(4))
        assert dd.diameter == 3
        assert tuple(dd.eccentricity) == (3, 2, 2, 3)
        # every vertex sees exactly one vertex at its maximal distance
        assert tuple(dd.excess) == (1, 1, 1, 1)

    def test_disconnected(self):
        g = Graph.from_edges(5, [(0, 1), (2, 3)])
        with pytest.raises(Disconnected) as exc:
            distance_data(g)
        assert exc.value.components == 3


def _from_networkx(h):
    h = nx.convert_node_labels_to_integers(h)
    return Graph.from_edges(h.number_of_nodes(), h.edges())


def _assert_networkx_distances(h):
    g = _from_networkx(h)
    lengths = dict(nx.all_pairs_shortest_path_length(nx.convert_node_labels_to_integers(h)))
    ref = np.array([[lengths[x][y] for y in range(g.n)] for x in range(g.n)])
    dd = distance_data(g)
    assert np.array_equal(dd.dist, ref)
    assert dd.diameter == ref.max()
    assert np.array_equal(dd.eccentricity, ref.max(axis=1))
    for x in range(g.n):
        assert np.array_equal(dd.gamma_counts[x], np.bincount(ref[x], minlength=dd.diameter + 1))


class TestDistancesAgainstNetworkx:
    @pytest.mark.parametrize("h", [
        nx.cycle_graph(301),
        nx.cycle_graph(8),
        nx.path_graph(2),
        nx.path_graph(57),
        nx.petersen_graph(),
        nx.hypercube_graph(6),
        nx.complete_graph(1),
        nx.complete_graph(2),
        nx.complete_graph(9),
    ], ids=["cycle301", "cycle8", "path2", "path57", "petersen", "6-cube",
            "K1", "K2", "K9"])
    def test_named_graphs(self, h):
        _assert_networkx_distances(h)

    def test_edgeless_pair_is_disconnected(self):
        with pytest.raises(Disconnected) as exc:
            distance_data(Graph.from_edges(2, []))
        assert exc.value.components == 2

    def test_seeded_random_graphs(self):
        rng = np.random.default_rng(20261017)
        disconnected = 0
        for _ in range(60):
            n = int(rng.integers(2, 40))
            h = nx.gnp_random_graph(n, float(rng.uniform(0.02, 0.5)),
                                    seed=int(rng.integers(2 ** 31)))
            comps = nx.number_connected_components(h)
            if comps == 1:
                _assert_networkx_distances(h)
                continue
            disconnected += 1
            with pytest.raises(Disconnected) as exc:
                distance_data(_from_networkx(h))
            assert exc.value.components == comps
        assert 10 <= disconnected <= 50


class TestSpectrum:
    def test_complete_graph(self):
        g = Graph.from_edges(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
        sp = graph_spectrum(g)
        assert np.allclose(sp.theta, [3, -1], atol=1e-9)
        assert np.allclose(sp.m, [1, 3])

    def test_petersen(self):
        sp = graph_spectrum(_petersen_graph())
        assert np.allclose(sp.theta, [3, 1, -2], atol=1e-9)
        assert np.allclose(sp.m, [1, 5, 4])

    def test_hexagon(self):
        sp = graph_spectrum(_cycle_graph(6))
        assert np.allclose(sp.theta, [2, 1, -1, -2], atol=1e-9)
        assert np.allclose(sp.m, [1, 2, 2, 1])

    def test_not_regular(self):
        with pytest.raises(NotRegular):
            graph_spectrum(_path_graph(4))

    def test_disconnected(self):
        g = Graph.from_edges(6, [(0, 1), (2, 3), (4, 5)])
        with pytest.raises(Disconnected) as exc:
            graph_spectrum(g)
        assert exc.value.components == 3


class TestSpectralExcess:
    def test_petersen_is_drg(self):
        rep = spectral_excess_report(_petersen_graph())
        assert rep.drg is True
        assert rep.witness is None
        assert (rep.diameter, rep.d) == (2, 2)
        assert rep.pd_theta0 == pytest.approx(6.0, abs=1e-9)
        assert rep.excess_mean == pytest.approx(6.0)
        assert rep.excess_harmonic_mean == pytest.approx(6.0)

    def test_petersen_minus_edge(self):
        s = generate(FamilySpec("petersen"))
        A = s.adjacency(1)
        edges = [(u, v) for u in range(10) for v in range(u + 1, 10) if A[u, v]]
        g = Graph.from_edges(10, edges[1:])  # drop one edge: no longer regular
        with pytest.raises(NotRegular):
            spectral_excess_report(g)

    def test_prism_is_not_drg(self):
        # K_3 x K_2: vertex-transitive, 3-regular, but not distance-regular
        base = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
        rungs = [(0, 3), (1, 4), (2, 5)]
        g = Graph.from_edges(6, base + rungs)
        rep = spectral_excess_report(g)
        assert rep.drg is False
        assert rep.witness is not None
        # harmonic mean never exceeds the arithmetic mean
        assert rep.excess_harmonic_mean <= rep.excess_mean + 1e-12

    def test_cube(self):
        rep = spectral_excess_report(_cube_graph())
        assert rep.drg is True
        assert rep.pd_theta0 == pytest.approx(1.0, abs=1e-9)
        assert np.all(rep.excess == 1)


class TestSchemeFromDrg:
    def test_petersen_roundtrip(self):
        s = scheme_from_drg(_petersen_graph())
        fam = generate(FamilySpec("petersen"))
        assert np.array_equal(s.tensor.p, fam.tensor.p)
        assert detect(s).status == "yes"

    def test_cycle_roundtrip(self):
        s = scheme_from_drg(_cycle_graph(7))
        fam = generate(FamilySpec("cycle", (7,)))
        assert np.array_equal(s.tensor.p, fam.tensor.p)
        assert detect(s).ordering == (0, 1, 2, 3)

    def test_cube_roundtrip(self):
        s = scheme_from_drg(_cube_graph())
        fam = generate(FamilySpec("hamming", (3, 2)))
        assert np.array_equal(s.tensor.p, fam.tensor.p)

    def test_8_cube_roundtrip(self):
        s = scheme_from_drg(_from_networkx(nx.hypercube_graph(8)))
        fam = generate(FamilySpec("hamming", (8, 2)))
        assert np.array_equal(s.tensor.p, fam.tensor.p)

    def test_non_drg_raises(self):
        base = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
        rungs = [(0, 3), (1, 4), (2, 5)]
        with pytest.raises(NotDistanceRegular):
            scheme_from_drg(Graph.from_edges(6, base + rungs))

    def test_detect_agrees_on_random_drg_sources(self):
        # every metric scheme built from a distance-regular graph must come
        # back "yes" with the identity ordering
        for g in [_cycle_graph(9), _cube_graph(), _petersen_graph()]:
            s = scheme_from_drg(g)
            rep = detect(s)
            assert rep.status == "yes"
            assert rep.ordering == tuple(range(s.d + 1))
