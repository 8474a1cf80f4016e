"""The record classes: constructor parameters, the refusal to assign or delete a field, how they
compare and hash, and that copy and pickle rebuild them with read-only arrays."""

from __future__ import annotations

import copy
import inspect
import pickle

import numpy as np
import pytest

from schemex.detect import Analysis, DetectionReport, RouteVerdict, analyze
from schemex.families import FamilySpec, generate
from schemex.graph_tools import (
    DistanceData,
    Graph,
    SpectralExcessReport,
    distance_data,
    spectral_excess_report,
)
from schemex.scheme_core import AssociationScheme, RelationMatrix
from schemex.spectral import SpectralData, Spectrum

BY_VALUE = {RouteVerdict, FamilySpec}

# class -> its constructor's parameters, in order
FIELDS = {
    RelationMatrix: ("n", "d", "rel"),
    AssociationScheme: ("rel", "y", "valencies", "slabs"),
    Spectrum: ("theta", "m", "n"),
    SpectralData: ("P", "Q", "theta", "multiplicities", "tie", "spectrum", "pq_residual",
                   "multiplicity_residual"),
    RouteVerdict: ("route", "verdict", "ordering", "l", "max_residual", "witness"),
    DetectionReport: ("n", "d", "valencies", "tridiagonal", "nstar", "excess", "predistance",
                      "q_poly", "consensus", "preconditions_ok", "ordering", "l"),
    Analysis: ("report", "spectral", "krein_q1", "predistance_values", "mstar_max",
               "pq_residual"),
    Graph: ("n", "adj"),
    DistanceData: ("dist", "diameter", "gamma_counts", "eccentricity", "excess"),
    SpectralExcessReport: ("degree", "diameter", "pd_theta0", "excess", "excess_mean",
                           "excess_harmonic_mean", "drg", "witness", "spectrum"),
    FamilySpec: ("family", "params"),
}


# the SpectralData of tied theta holds theta and the multiplicities itself, not in a Spectrum
TIED = "SpectralData-tied-theta"


@pytest.fixture
def records():
    """{class name: one instance} of each record class, from cycle(5) and the 5-cycle graph,
    and under TIED the SpectralData of disjoint_cliques(3,3).  Built for each test: a shallow
    copy's ``__setstate__`` freezes the arrays it shares with the original."""
    s = generate(FamilySpec("cycle", (5,)))
    a = analyze(s)
    g = Graph(5, s.rel == 1)  # a writeable matrix, passed in directly
    found = [RelationMatrix(n=s.n, d=s.d, rel=s.rel), s, a.spectral.spectrum,
             a.spectral, a.report.tridiagonal, a.report, a, g, distance_data(g),
             spectral_excess_report(g), FamilySpec("cycle", (5,))]
    tied = analyze(generate(FamilySpec("disjoint_cliques", (3, 3)))).spectral
    assert tied.tie is not None and tied.spectrum is None
    return {type(r).__name__: r for r in found} | {TIED: tied}


def _same(x, y):
    """Equal arrays or values, dicts of them by key; a nested record of the same class."""
    if isinstance(x, np.ndarray):
        return np.array_equal(x, y)
    if isinstance(x, dict):
        return x.keys() == y.keys() and all(_same(x[key], y[key]) for key in x)
    return type(y) is type(x) if type(x) in FIELDS else x == y


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda cls: cls.__name__)
def test_record_contract(records, cls):
    obj = records[cls.__name__]
    assert type(obj) is cls
    assert not hasattr(obj, "__dict__"), "every record keeps its fields in __slots__"
    assert tuple(inspect.signature(cls).parameters) == FIELDS[cls]
    for name in FIELDS[cls]:
        value = getattr(obj, name)
        with pytest.raises(AttributeError):
            setattr(obj, name, value)
        with pytest.raises(AttributeError):
            delattr(obj, name)
        assert getattr(obj, name) is value

    twin = copy.copy(obj)
    assert type(twin) is cls and twin is not obj
    assert all(getattr(twin, name) is getattr(obj, name) for name in FIELDS[cls])
    if cls in BY_VALUE:
        assert twin == obj and hash(twin) == hash(obj)
    else:
        assert twin != obj and obj == obj

    restored = pickle.loads(pickle.dumps(obj))
    assert type(restored) is cls
    assert all(_same(getattr(obj, name), getattr(restored, name)) for name in FIELDS[cls])


def _arrays(obj):
    """(field, array) for every array a record holds: a field's value or a dict field's values."""
    for name in type(obj).__slots__:
        value = getattr(obj, name)
        for a in value.values() if isinstance(value, dict) else (value,):
            if isinstance(a, np.ndarray):
                yield name, a


@pytest.mark.parametrize("key", sorted([*(cls.__name__ for cls in FIELDS), TIED]))
def test_frozen_records_stay_read_only_through_deepcopy_and_pickle(records, key):
    # the constructor freezes every array it is given, but pickle and deepcopy hand back
    # writeable ones; a restored scheme whose slab could be written would let analyze read
    # a stale B_1, and a Spectrum a stale kappa
    obj = records[key]
    held = [name for name, _ in _arrays(obj)]
    assert bool(held) is (type(obj) not in BY_VALUE | {DetectionReport}), held
    for twin in (obj, copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
        writeable = [name for name, a in _arrays(twin) if a.flags.writeable]
        assert not writeable, writeable
        assert [name for name, _ in _arrays(twin)] == held


def test_value_records_are_one_dict_key():
    specs = {FamilySpec("cycle", (5,)): 1, FamilySpec("cycle", (5,)): 2}
    assert specs == {FamilySpec("cycle", [np.int64(5)]): 2}
    assert FamilySpec("cycle", (5,)) != FamilySpec("cycle", (6,))
    verdicts = {RouteVerdict("excess", "yes", l=2), RouteVerdict("excess", "yes", l=2)}
    assert len(verdicts) == 1
    assert RouteVerdict("excess", "yes", l=2) != RouteVerdict("excess", "yes", l=3)
    assert RouteVerdict("excess", "yes") != ("excess", "yes")


def test_defaults():
    v = RouteVerdict("tridiagonal", "no")
    assert (v.ordering, v.l, v.max_residual, v.witness) == (None, None, 0.0, None)
    assert FamilySpec("petersen").params == ()


def test_value_record_reprs():
    # no other test prints either record, so this pins the field-by-field repr
    assert repr(RouteVerdict("excess", "yes", l=2)) == (
        "RouteVerdict(route='excess', verdict='yes', ordering=None, l=2, max_residual=0.0, "
        "witness=None)")
    assert repr(FamilySpec("cycle", (5,))) == "FamilySpec(family='cycle', params=(5,))"


def test_value_records_define_no_methods_of_their_own():
    # equality, hashing and repr come from ValueRecord, which reads the fields from __slots__
    for cls in BY_VALUE:
        assert not {"__eq__", "__hash__", "__repr__"} & set(vars(cls)), cls.__name__
