from __future__ import annotations

import tracemalloc

import networkx as nx
import numpy as np
import pytest

from schemex import graph_tools
from schemex.detect import analyze, detect, q_polynomial_route
from schemex.families import FamilySpec, generate
from schemex.graph_tools import (
    Disconnected,
    DistanceData,
    Graph,
    NotDistanceRegular,
    NotRegular,
    SpectrumSanityFailure,
    distance_data,
    graph_spectrum,
    scheme_from_drg,
    spectral_excess_report,
)
from schemex.scheme_core import _FLOAT32_EXACT
from schemex.spectral import Spectrum

from nxn_reference import adjacency, dense, from_edges_loop, krein_expansion


def _cycle_graph(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def _path_graph(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def _petersen_graph():
    s = generate(FamilySpec("petersen"))
    A = adjacency(s, 1)
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


def _edges_outcome(build, n, edges):
    """The adjacency matrix build makes, or the message of the ValueError it raises."""
    try:
        return build(n, edges)
    except ValueError as e:
        return str(e)


def _seeded_edge_list(rng):
    """(n, pairs): a random simple graph's edges in random order and orientation, with 0-3
    faults (a vertex out of range, a loop, a repeat in either orientation) put in."""
    n = int(rng.integers(1, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    pairs = [pairs[i] for i in rng.permutation(len(pairs))[:int(rng.integers(0, len(pairs) + 1))]]
    pairs = [(v, u) if rng.integers(2) else (u, v) for u, v in pairs]
    for _ in range(int(rng.integers(0, 4))):
        kind = int(rng.integers(3))
        if kind == 0:
            w = int(rng.choice([-1, n, n + 5]))
            fault = (w, int(rng.integers(n))) if rng.integers(2) else (int(rng.integers(-1, n + 1)), w)
        elif kind == 1:
            w = int(rng.integers(-1, n + 1))
            fault = (w, w)
        elif pairs:
            u, v = pairs[int(rng.integers(len(pairs)))]
            fault = (v, u) if rng.integers(2) else (u, v)
        else:
            continue
        pairs.insert(int(rng.integers(len(pairs) + 1)), fault)
    return n, pairs


class TestFromEdgesAgainstLoop:
    """Graph.from_edges against the pair-at-a-time loop: the same matrix or the same first error."""

    def test_seeded_edge_lists_with_mixed_errors(self):
        rng = np.random.default_rng(20261019)
        seen = set()
        forms = [list, lambda ps: (p for p in ps), lambda ps: np.array(ps, dtype=np.int64).reshape(-1, 2),
                 lambda ps: [list(p) for p in ps]]
        for trial in range(400):
            n, pairs = _seeded_edge_list(rng)
            want = _edges_outcome(from_edges_loop, n, pairs)
            got = _edges_outcome(lambda n, e: Graph.from_edges(n, e).adj, n, forms[trial % 4](pairs))
            if isinstance(want, str):
                assert got == want, (n, pairs)
                seen.add(want.split(" ")[0] if "range" not in want else "range")
            else:
                assert isinstance(got, np.ndarray) and not got.flags.writeable, (n, pairs)
                assert np.array_equal(got, want), (n, pairs)
                seen.add("graph")
        assert seen == {"graph", "range", "loop", "duplicate"}

    @pytest.mark.parametrize("n, edges, message", [
        (3, [(0, 1), (5, 5)], "edge (5,5) out of range 0..2"),
        (3, [(0, 1), (2, 2), (1, 0)], "loop at vertex 2"),
        (3, [(0, 1), (1, 0), (2, 2)], "duplicate edge (1,0)"),
        (3, [(0, 1), (1, 2), (1, 2)], "duplicate edge (1,2)"),
        (3, [(-1, 0)], "edge (-1,0) out of range 0..2"),
        (3, [(0, 10 ** 30)], f"edge (0,{10 ** 30}) out of range 0..2"),
        (3, [(1, 1), (0, 7)], "loop at vertex 1"),
        (3, [(0, 1.5)], "edge (0,1.5) has a vertex that is not an integer"),
        (3, [(0, 1), (float("inf"), 1)], "edge (inf,1) has a vertex that is not an integer"),
        (3, [(0, -float("inf"))], "edge (0,-inf) has a vertex that is not an integer"),
        (3, [(0, float("nan"))], "edge (0,nan) has a vertex that is not an integer"),
        (3, [(0, None)], "edge (0,None) has a vertex that is not an integer"),
        (3, [(0, "1.5")], "edge (0,1.5) has a vertex that is not an integer"),
        (3, [(7, 1.5)], "edge (7,1.5) has a vertex that is not an integer"),  # before the range
        (3, [(0, 1.5), (5, 5)], "edge (0,1.5) has a vertex that is not an integer"),
        (3, [(5, 5), (0, 1.5)], "edge (5,5) out of range 0..2"),  # pairs in input order
        (3, [(0, 1), (2.0, "1"), (True, 0.5)], "edge (True,0.5) has a vertex that is not an integer"),
    ])
    def test_first_offender_and_message(self, n, edges, message):
        assert _edges_outcome(from_edges_loop, n, edges) == message
        with pytest.raises(ValueError) as exc:
            Graph.from_edges(n, edges)
        assert str(exc.value) == message

    @pytest.mark.parametrize("edges", [
        nx.petersen_graph().edges(),
        [(np.int32(0), np.uint8(1)), (2, 1)],
        [(0.0, 1.0), ("2", "1")],
        np.array([[0, 1], [1, 2]], dtype=np.uint16),
        iter([]),
    ], ids=["EdgeView", "numpy-scalars", "float-and-str", "uint16-array", "empty-iterator"])
    def test_any_iterable_of_pairs(self, edges):
        n = 10
        ref = from_edges_loop(n, edges)  # an EdgeView or an array iterates again; iter([]) is empty
        assert np.array_equal(Graph.from_edges(n, edges).adj, ref)


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


NETWORKX_GRAPHS = {
    "cycle301": nx.cycle_graph(301),
    "cycle8": nx.cycle_graph(8),
    "path2": nx.path_graph(2),
    "path57": nx.path_graph(57),
    "petersen": nx.petersen_graph(),
    "6-cube": nx.hypercube_graph(6),
    "K1": nx.complete_graph(1),
    "K2": nx.complete_graph(2),
    "K9": nx.complete_graph(9),
    # a clique's degree times a path's distances: Seidel's products reach 5099, past
    # float16's 2048, an eighth of the (n - 1)**2 bound
    "lollipop100": nx.lollipop_graph(100, 100),
}


def _seeded_gnp_graphs():
    """60 seeded random graphs on 2..39 vertices, between 10 and 50 of them disconnected."""
    rng = np.random.default_rng(20261017)
    for _ in range(60):
        n = int(rng.integers(2, 40))
        yield nx.gnp_random_graph(n, float(rng.uniform(0.02, 0.5)), seed=int(rng.integers(2 ** 31)))


class TestDistancesAgainstNetworkx:
    @pytest.mark.parametrize("h", list(NETWORKX_GRAPHS.values()), ids=list(NETWORKX_GRAPHS))
    def test_named_graphs(self, h):
        _assert_networkx_distances(h)

    def test_edgeless_pair_is_disconnected(self):
        with pytest.raises(Disconnected) as exc:
            distance_data(Graph.from_edges(2, []))
        assert exc.value.components == 2

    def test_seeded_random_graphs(self):
        disconnected = 0
        for h in _seeded_gnp_graphs():
            comps = nx.number_connected_components(h)
            if comps == 1:
                _assert_networkx_distances(h)
                continue
            disconnected += 1
            with pytest.raises(Disconnected) as exc:
                distance_data(_from_networkx(h))
            assert exc.value.components == comps
        assert 10 <= disconnected <= 50


def _distance_peak(g) -> float:
    """tracemalloc peak of distance_data(g), in n x n float64 arrays."""
    tracemalloc.start()
    try:
        distance_data(g)
        return tracemalloc.get_traced_memory()[1] / (8 * g.n * g.n)
    finally:
        tracemalloc.stop()


def _relation_graph(family, params):
    s = generate(FamilySpec(family, params))
    return Graph.from_edges(s.n, np.argwhere(np.triu(np.asarray(s.rel) == 1)))


@pytest.fixture(params=["float32", "float64"])
def seidel_dtype(request, monkeypatch):
    """Seidel's products in float32 (the default below 4098 vertices) or, with the bound lowered, float64."""
    if request.param == "float64":
        monkeypatch.setattr(graph_tools, "_SEIDEL_FLOAT32_MAX_N", 1)
    return request.param


class TestSeidelDtypes:
    def test_networkx_distances(self, seidel_dtype, named_drgs):
        for h in [*NETWORKX_GRAPHS.values(), *(g for _name, g, _q in named_drgs)]:
            _assert_networkx_distances(h)

    def test_component_counts(self, seidel_dtype):
        counts = []
        for h in _seeded_gnp_graphs():
            try:
                distance_data(_from_networkx(h))
                counts.append(1)
            except Disconnected as exc:
                counts.append(exc.components)
            assert counts[-1] == nx.number_connected_components(h)
        assert 10 <= sum(c > 1 for c in counts) <= 50

    def test_the_bound_selects_the_dtype(self, monkeypatch):
        g = _from_networkx(nx.hypercube_graph(6))
        small = _distance_peak(g)
        monkeypatch.setattr(graph_tools, "_SEIDEL_FLOAT32_MAX_N", g.n - 1)
        assert _distance_peak(g) > 1.5 * small

    def test_the_bound_is_exact_in_float32(self):
        # every product entry is a count <= (n - 1)**2, which float32 holds up to 2**24
        n = graph_tools._SEIDEL_FLOAT32_MAX_N
        assert (n - 1) ** 2 <= _FLOAT32_EXACT < n ** 2

    @pytest.mark.parametrize("family, params", [("hamming", (8, 2)), ("johnson", (12, 4))])
    def test_distance_data_peak(self, family, params):
        # float32 products updated in place: 5.63 and 5.50 n^2 float64s with float64 products
        assert _distance_peak(_relation_graph(family, params)) <= 3.25


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

    def test_closed_walk_count_is_checked(self, monkeypatch):
        # no graph fails sum m theta^2 = n k; a raise, not an assert, so python -O keeps it
        exact = np.linalg.eigvalsh

        def bent(a):
            w = exact(a)
            w[-1] += 0.01
            return w

        monkeypatch.setattr(np.linalg, "eigvalsh", bent)
        with pytest.raises(SpectrumSanityFailure) as exc:
            graph_spectrum(_petersen_graph())
        assert str(exc.value) == "sum m theta^2 = 30.0601 but n k = 30"


class TestSpectralExcess:
    def test_petersen_is_drg(self):
        rep = spectral_excess_report(_petersen_graph())
        assert rep.drg is True
        assert rep.witness is None
        assert (rep.diameter, rep.spectrum.d) == (2, 2)
        assert rep.pd_theta0 == pytest.approx(6.0, abs=1e-9)
        assert rep.excess_mean == pytest.approx(6.0)
        assert rep.excess_harmonic_mean == pytest.approx(6.0)

    def test_petersen_minus_edge(self):
        s = generate(FamilySpec("petersen"))
        A = adjacency(s, 1)
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


class TestSpectralExcessClosedForm:
    """p_d(theta_0) comes from the closed form, never from the predistance recurrence."""

    @pytest.mark.parametrize("k, n, seed", [(4, 60, 1), (3, 102, 2), (5, 100, 3)])
    def test_d_far_above_diameter(self, k, n, seed):
        # n / sum_h kappa_h^2 / m_h is the same value by another formula; the recurrence
        # gives only its rounding here (5.8e-35 for a true 7.0e-50 on rr(4, 60))
        rep = spectral_excess_report(_from_networkx(nx.random_regular_graph(k, n, seed=seed)))
        sp = rep.spectrum
        assert sp.d > 5 * rep.diameter
        assert rep.pd_theta0 == pytest.approx(sp.n / (sp.kappa ** 2 / sp.m).sum(), rel=1e-12, abs=0)

    def test_never_calls_the_recurrence(self, monkeypatch):
        def refuse(sp):
            raise AssertionError("spectral_excess_report ran the predistance recurrence")

        monkeypatch.setattr("schemex.graph_tools.predistance_polynomials", refuse)
        reports = [spectral_excess_report(g) for g in (
            _petersen_graph(), _from_networkx(nx.hypercube_graph(8)),
            _from_networkx(nx.random_regular_graph(4, 60, seed=1)),
        )]
        assert [r.drg for r in reports] == [True, True, False]
        assert reports[0].pd_theta0 == pytest.approx(6.0, rel=1e-12)
        assert reports[1].pd_theta0 == pytest.approx(1.0, rel=1e-12)


class TestSchemeFromDrg:
    def test_petersen_roundtrip(self):
        s = scheme_from_drg(_petersen_graph())
        fam = generate(FamilySpec("petersen"))
        assert np.array_equal(dense(s), dense(fam))
        assert detect(s).status == "yes"

    def test_cycle_roundtrip(self):
        s = scheme_from_drg(_cycle_graph(7))
        fam = generate(FamilySpec("cycle", (7,)))
        assert np.array_equal(dense(s), dense(fam))
        assert detect(s).ordering == (0, 1, 2, 3)

    def test_cube_roundtrip(self):
        s = scheme_from_drg(_cube_graph())
        fam = generate(FamilySpec("hamming", (3, 2)))
        assert np.array_equal(dense(s), dense(fam))

    def test_8_cube_roundtrip(self):
        s = scheme_from_drg(_from_networkx(nx.hypercube_graph(8)))
        fam = generate(FamilySpec("hamming", (8, 2)))
        assert np.array_equal(dense(s), dense(fam))

    def test_a_validating_partition_of_another_diameter_raises(self, monkeypatch):
        # no graph reaches this: a distance-regular graph has diameter d, so a validated
        # partition of diameter 3 beside 5 eigenvalues means the spectrum is miscounted
        wrong = Spectrum(theta=[2.0, 1.0, 0.0, -1.0, -2.0], m=[1.0, 1.0, 1.0, 2.0, 2.0], n=7)
        monkeypatch.setattr(graph_tools, "graph_spectrum", lambda g: wrong)
        with pytest.raises(SpectrumSanityFailure) as exc:
            spectral_excess_report(_cycle_graph(7))
        assert str(exc.value) == (
            "the distance partition validates, so diameter 3 needs 4 distinct eigenvalues, "
            "but 5 were found")
        assert scheme_from_drg(_cycle_graph(7)).d == 3  # validation alone reads no spectrum

    def test_a_distance_past_the_stored_index_range_is_refused_not_wrapped(self):
        # no graph reaches this: diameter 65536 needs n > 131072 vertices, whose
        # adjacency matrix cannot be allocated.  A uint16 cast before RelationMatrix's
        # range check would wrap 65536 to 0 and report a missing relation 1 instead
        g = Graph.from_edges(2, [(0, 1)])
        dist = np.array([[0, 65536], [65536, 0]], dtype=np.int32)
        counts = np.array([[1, 0], [1, 0]], dtype=np.int64)
        dd = DistanceData(dist=dist, diameter=65536, gamma_counts=counts,
                          eccentricity=np.full(2, 65536), excess=np.ones(2, dtype=np.int64))
        with pytest.raises(ValueError) as exc:
            graph_tools._drg_scheme(g, dd)
        assert type(exc.value) is ValueError
        assert str(exc.value) == "relation index 65536 exceeds 65535, the largest index stored"

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

    def test_named_drgs_are_metric_and_q_poly_follows_the_reference(self, named_drgs):
        for name, h, q_poly in named_drgs:
            s = scheme_from_drg(_from_networkx(h))
            a = analyze(s)
            assert a.report.status == "yes", name
            assert a.report.q_poly.verdict == q_poly, name
            ref = q_polynomial_route(krein_expansion(s, a.spectral)[:, 1, :], s.n)
            assert a.report.q_poly == ref, name
