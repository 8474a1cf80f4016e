from __future__ import annotations

import functools

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
    """cycle(n) -> its validated scheme, built once per session (cycle(200) takes seconds)."""
    return functools.cache(lambda n: generate(FamilySpec("cycle", (n,))))
