"""End-to-end acceptance gate.

Each test exercises one contract of the library and prints a single
``ACCEPTANCE NN <name>: PASS/FAIL`` line (run with ``-s`` to see them).
"""

from __future__ import annotations

import itertools
import time

import networkx as nx
import numpy as np
import pytest

from schemex.detect import (
    NO,
    PRECONDITION_FAILED,
    YES,
    analyze,
    detect,
    mstar_decomposition_residual,
    nstar_sets,
)
from schemex.families import FamilySpec, corpus, generate
from schemex.graph_tools import (
    Graph,
    NotDistanceRegular,
    graph_spectrum,
    scheme_from_drg,
    spectral_excess_report,
)
from schemex.poly import (
    Spectrum,
    graph_property_residual,
    lagrange_power_identity,
    predistance_polynomials,
)
from schemex.scheme_core import reorder_relations
from schemex.spectral import spectral_data


def _report(num: int, name: str, ok: bool, detail: str = ""):
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail and not ok:
        line += f"  [{detail}]"
    print(line)
    assert ok, detail


def _graph_from_scheme_relation(s, i=1):
    A = s.adjacency(i)
    edges = [(u, v) for u in range(s.n) for v in range(u + 1, s.n) if A[u, v]]
    return Graph.from_edges(s.n, edges)


def test_01_route_equivalence_over_corpus():
    t0 = time.perf_counter()
    mismatches = []
    entries = corpus()  # fresh build, included in the timing budget
    for name, s, expected in entries:
        try:
            a = analyze(s)
        except Exception as e:  # any route disagreement or crash is a failure
            mismatches.append(f"{name}: {type(e).__name__}: {e}")
            continue
        if a.report.status != expected:
            mismatches.append(
                f"{name}: status {a.report.status} != expected {expected}"
            )
    elapsed = time.perf_counter() - t0
    ok = not mismatches and elapsed < 30.0
    _report(
        1, "four-route equivalence on the corpus", ok,
        "; ".join(mismatches) or f"runtime {elapsed:.1f}s exceeds 30s",
    )


def test_02_cube_spot_values():
    s = generate(FamilySpec("hamming", (3, 2)))
    a = analyze(s)
    sd = a.spectral
    sp = Spectrum(theta=sd.theta, m=sd.multiplicities, n=sd.n)
    from schemex.poly import kappa

    kap = np.array([kappa(sp, i) for i in (1, 2, 3)])
    target = -sd.Q[3, 1:]  # -Q_i(3) for i = 1..3
    resid = float(np.abs(kap - target).max())
    ok = (
        np.allclose(kap, [3.0, -3.0, 1.0], atol=1e-9)
        and resid < 1e-9
        and a.report.l == 3
        and a.report.ordering is not None
        and a.report.ordering[-1] == 3
    )
    _report(
        2, "cube kappa values against -Q_i(3)", ok,
        f"kappa={kap.tolist()} residual={resid:.2e} l={a.report.l}",
    )


def test_03_positive_polynomials_match_eigenmatrix():
    bad = []
    for name, s, expected in corpus():
        if expected != YES:
            continue
        a = analyze(s)
        order = a.report.ordering
        sd, ps = a.spectral, a.predistance_system
        for i in range(s.d + 1):
            for h in range(s.d + 1):
                want = sd.P[h, order[i]]
                err = abs(ps.values[i, h] - want)
                if err > 1e-8 * max(1.0, abs(want)):
                    bad.append(f"{name} i={i} h={h} err={err:.2e}")
    _report(3, "polynomial values equal eigenmatrix columns on positives",
            not bad, "; ".join(bad[:4]))


def test_04_interpolation_identity_fuzz():
    rng = np.random.default_rng(13)
    worst = 0.0
    draws = 0
    while draws < 1000:
        d = int(rng.integers(1, 11))
        betas = np.sort(rng.uniform(-5, 5, d + 1))[::-1]
        # resample near-coincident node sets: the identity is exact in exact
        # arithmetic but its float conditioning degrades as nodes collide
        if float(np.min(-np.diff(betas))) < 0.02:
            continue
        x = float(rng.uniform(-5, 5))
        h = int(rng.integers(0, d))
        got = lagrange_power_identity(betas, x, h)
        scale = max(1.0, abs(x), float(np.abs(betas).max())) ** h
        worst = max(worst, abs(got - x**h) / scale)
        draws += 1
    _report(4, "power interpolation identity, 1000 random draws",
            worst < 1e-8, f"worst scaled error {worst:.2e}")


def test_05_regular_graph_residual_fuzz():
    # the sampler keeps n <= 12 and the distinct-eigenvalue count <= 9 so the
    # spectra stay inside the monomial-basis conditioning envelope of the
    # polynomial module; the envelope gate looks only at the input spectrum,
    # never at the computed residual
    rng = np.random.default_rng(20260823)
    worst = 0.0
    built = 0
    degrees_seen = set()
    while built < 50:
        k = int(rng.integers(3, 7))
        n = int(rng.integers(k + 1, 13))
        if (n * k) % 2:
            continue
        G = nx.random_regular_graph(k, n, seed=int(rng.integers(2**31)))
        if not nx.is_connected(G):
            continue
        g = Graph.from_edges(n, list(G.edges()))
        sp = graph_spectrum(g)
        if sp.d > 8:
            continue
        ps = predistance_polynomials(sp)
        for i in range(1, sp.d + 1):
            worst = max(worst, abs(graph_property_residual(sp, ps, i)))
        degrees_seen.add(k)
        built += 1
    ok = worst < 1e-7 and degrees_seen == {3, 4, 5, 6}
    _report(5, "excess identity on 50 random regular graphs",
            ok, f"worst residual {worst:.2e}, degrees {sorted(degrees_seen)}")


def test_06_interpolation_decomposition_everywhere():
    worst = ("", 0.0)
    for name, s, _expected in corpus():
        sd = spectral_data(s.tensor)
        th = np.sort(sd.theta)[::-1]
        if np.min(th[:-1] - th[1:]) <= 1e-9 * max(1.0, np.abs(th).max()):
            continue  # tied spectrum: decomposition undefined
        for i in range(1, s.d + 1):
            r = mstar_decomposition_residual(s.tensor, sd, i)
            if r > worst[1]:
                worst = (f"{name} i={i}", r)
    names = [name for name, _, _ in corpus()]
    ok = worst[1] < 1e-8 and "cyclotomic13" in names
    _report(6, "idempotent decomposition of the interpolation product",
            ok, f"worst {worst[0]} residual {worst[1]:.2e}")


def test_07_spectral_sanity_everywhere():
    bad = []
    for name, s, _expected in corpus():
        a = analyze(s)
        sd = a.spectral
        if a.pq_residual > 1e-8 * s.n:
            bad.append(f"{name}: PQ residual {a.pq_residual:.2e}")
        if a.multiplicity_residual > 1e-6:
            bad.append(f"{name}: multiplicity residual")
        if int(np.round(sd.multiplicities).sum()) != s.n:
            bad.append(f"{name}: multiplicities do not sum to n")
        if a.krein.min_value < -1e-8 * s.n:
            bad.append(f"{name}: Krein minimum {a.krein.min_value:.2e}")
    _report(7, "eigenmatrix inversion, multiplicities, Krein floor",
            not bad, "; ".join(bad[:4]))


def test_08_negatives_and_preconditions():
    problems = []

    r = detect(generate(FamilySpec("cyclotomic13")))
    if r.consensus != NO or r.status != NO:
        problems.append(f"cyclotomic13 status {r.status}")
    for v in (r.tridiagonal, r.nstar, r.excess, r.predistance):
        if v.verdict != NO:
            problems.append(f"cyclotomic13 {v.route}={v.verdict}")

    for name, s in [
        ("disjoint_cliques", generate(FamilySpec("disjoint_cliques", (3, 3)))),
        ("antipodal-cube", generate(FamilySpec("hypercube_reordered", (0, 3, 2, 1)))),
    ]:
        r = detect(s)
        if r.status != PRECONDITION_FAILED:
            problems.append(f"{name} status {r.status}")
        if r.tridiagonal.verdict != NO:
            problems.append(f"{name} tridiagonal={r.tridiagonal.verdict}")
        for v in (r.excess, r.predistance):
            if v.verdict != PRECONDITION_FAILED:
                problems.append(f"{name} {v.route}={v.verdict}")

    _report(8, "negatives stay no, degenerate inputs stay flagged",
            not problems, "; ".join(problems[:4]))


def test_09_graph_side_round_trips():
    problems = []

    pet_scheme = generate(FamilySpec("petersen"))
    pet = _graph_from_scheme_relation(pet_scheme)
    rep = spectral_excess_report(pet)
    if not (np.all(rep.excess == 6) and abs(rep.pd_theta0 - 6.0) < 1e-9 and rep.drg):
        problems.append(
            f"petersen excess={set(rep.excess.tolist())} pd0={rep.pd_theta0}"
        )

    A = pet_scheme.adjacency(1)
    edges = [(u, v) for u in range(10) for v in range(u + 1, 10) if A[u, v]]
    try:
        scheme_from_drg(Graph.from_edges(10, edges[1:]))
        problems.append("petersen minus an edge was not flagged")
    except NotDistanceRegular:
        pass

    q3 = Graph.from_edges(
        8, [(u, u ^ (1 << b)) for u in range(8) for b in range(3)
            if u < (u ^ (1 << b))]
    )
    c7 = Graph.from_edges(7, [(i, (i + 1) % 7) for i in range(7)])
    for name, g in [("petersen", pet), ("C7", c7), ("Q3", q3)]:
        r = detect(scheme_from_drg(g))
        if r.status != YES or r.ordering != tuple(range(r.d + 1)):
            problems.append(f"{name} roundtrip status={r.status} ordering={r.ordering}")

    _report(9, "graph-side excess values and round trips",
            not problems, "; ".join(problems[:4]))


def test_10_ordering_recovery_is_unique():
    s = reorder_relations(generate(FamilySpec("cycle", (7,))), (0, 2, 1, 3))
    r = detect(s)
    chain = nstar_sets(s.tensor, spectral_data(s.tensor))

    # exhaustive check that no other relabelling of classes >= 2 works
    mat = s.tensor.p[:, 1, :]
    orders = []
    for perm in itertools.permutations(range(2, s.d + 1)):
        order = (0, 1) + perm
        ok = all(
            (mat[order[a], order[b]] > 0) == (abs(a - b) == 1)
            for a in range(s.d + 1) for b in range(s.d + 1) if a != b
        )
        if ok:
            orders.append(order)

    ok = (
        r.status == YES
        and r.ordering == (0, 1, 3, 2)
        and chain.singletons() == (0, 1, 3, 2)
        and orders == [(0, 1, 3, 2)]
    )
    _report(10, "relabelled 7-cycle ordering recovered uniquely", ok,
            f"status={r.status} ordering={r.ordering} scan={orders}")
