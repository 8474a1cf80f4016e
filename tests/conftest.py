from __future__ import annotations

import functools

import networkx as nx
import pytest

from schemex import corpus
from schemex.detect import analyze
from schemex.families import FamilySpec, generate


@pytest.fixture(scope="session")
def scheme_corpus():
    return corpus()


@pytest.fixture(scope="session")
def corpus_analyses(scheme_corpus):
    """One full analysis per corpus entry, shared across test modules."""
    return {name: analyze(s) for name, s, _expected in scheme_corpus}


@pytest.fixture(scope="session")
def cycle_scheme():
    """cycle(n) -> its validated scheme, built once per session."""
    return functools.cache(lambda n: generate(FamilySpec("cycle", (n,))))


@pytest.fixture(scope="session")
def named_drgs():
    """Ten distance-regular graphs from networkx's generators, as (name, graph, q_poly).

    All ten are metric (status yes).  q_poly is the Krein chain's verdict for
    E_1: the first five are the known inputs with status yes and q_poly no.
    """
    return [
        ("dodecahedron", nx.dodecahedral_graph(), "no"),
        ("desargues", nx.desargues_graph(), "no"),
        ("pappus", nx.pappus_graph(), "no"),
        ("foster", nx.LCF_graph(90, [17, -9, 37, -37, 9, -17], 15), "no"),
        ("tutte_coxeter", nx.LCF_graph(30, [-13, -9, 7, -7, 9, 13], 5), "no"),
        ("heawood", nx.heawood_graph(), "yes"),
        ("icosahedron", nx.icosahedral_graph(), "yes"),
        ("cube", nx.cubical_graph(), "yes"),
        ("octahedron", nx.octahedral_graph(), "yes"),
        ("hoffman_singleton", nx.hoffman_singleton_graph(), "yes"),
    ]
