"""eigen_groups is the one owner of eigenvalue equality, spectral_data decides the spectrum once,
and every tolerance is a module constant with one reader."""

from __future__ import annotations

import ast
import importlib
import inspect
import pkgutil
from collections import Counter
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import schemex
from schemex.detect import analyze
from schemex.families import FamilySpec, generate
from schemex.spectral import EIG_GROUP_RTOL, Spectrum, eigen_groups, spectral_data

from nxn_reference import array_slabs, full_key_row_order, intersection_array

# |w| stays <= 1, so the threshold is 1e-9: gaps at 0, 0.5, 0.999999, 1,
# 1.000001 and 2 times it, mixed with clear separations
_gaps = st.one_of(
    st.sampled_from([0.0, 5e-10, 0.999999e-9, 1e-9, 1.000001e-9, 2e-9]),
    st.floats(min_value=0.0, max_value=0.02),
)


@settings(deadline=None)
@given(start=st.floats(min_value=-0.5, max_value=0.5), gaps=st.lists(_gaps, max_size=25))
@example(start=0.0, gaps=[1e-9])  # a gap exactly at the threshold stays inside the group
def test_eigen_groups_partition_at_the_threshold(start, gaps):
    w = start + np.concatenate([[0.0], np.cumsum(gaps)])
    w = np.sort(w)  # cumsum rounding must not break the ascending order
    thr = EIG_GROUP_RTOL * max(1.0, float(np.abs(w).max()))
    groups = eigen_groups(w)
    assert [i for a, b in groups for i in range(a, b)] == list(range(w.size))
    assert all(a < b for a, b in groups)
    for a, b in groups:
        assert np.all(np.diff(w[a:b]) <= thr)
    for _, b in groups[:-1]:
        assert w[b] - w[b - 1] > thr


def test_collision_iff_tied_group(scheme_corpus):
    seen = set()
    for name, s, _ in scheme_corpus:
        sd = spectral_data(s)
        simple = all(b - a == 1 for a, b in eigen_groups(np.sort(sd.theta)))
        assert (sd.tie is None) == simple, name
        assert (sd.spectrum is not None) == simple, name
        if simple:  # held once: the Spectrum's own arrays
            assert sd.theta is sd.spectrum.theta and sd.multiplicities is sd.spectrum.m, name
        else:  # arrays of their own, read off P
            assert np.array_equal(sd.theta, sd.P[:, 1]) and not np.shares_memory(sd.theta, sd.P)
        held = (sd.P, sd.Q, sd.theta, sd.multiplicities)
        assert not any(a.flags.writeable for a in held), name
        seen.add(simple)
    assert seen == {True, False}


def test_distinct_theta_rows_are_in_the_full_key_order(scheme_corpus, cycle_scheme):
    # spectral_data orders the rows by S_1's eigenvalue clusters and keys only a tied cluster's
    # rows; the full key must agree, and one grouping of P's theta must find the same tie
    tensors = [(name, s) for name, s, _ in scheme_corpus]
    tensors += [(f"{family}{params}", generate(FamilySpec(family, params)))
                for family, params in (("hamming", (6, 3)), ("johnson", (12, 4)),
                                       ("hypercube_reordered", (0, 2, 1, 3)),
                                       ("disjoint_cliques", (4, 3)),
                                       ("disjoint_cliques", (2, 5)))]
    tensors += [(f"cycle({n})", cycle_scheme(n)) for n in (44, 100, 200)]
    tensors.append(("cycle(400) array", array_slabs(*intersection_array("cycle", 400))))
    distinct = 0
    for name, t in tensors:
        sd = spectral_data(t)
        assert full_key_row_order(sd.P, sd.multiplicities) == list(range(t.d)), name
        # the tie as the sort of all d+1 theta found it: the highest tied group's top pair
        tied = [b for a, b in eigen_groups(np.sort(sd.P[:, 1])) if b - a > 1]
        assert sd.tie == ((t.d + 1 - tied[-1], t.d + 2 - tied[-1]) if tied else None), name
        distinct += sd.tie is None
    assert distinct == len(tensors) - 5


def test_tied_corpus_schemes_keep_their_eigenmatrices(scheme_corpus):
    # the two tied corpus schemes, ordered by the full key: P, Q and the tie as pinned
    want = {
        "disjoint_cliques(3,3)": ([[1, 2, 6], [1, 2, -3], [1, -1, 0]],
                                  [[1, 2, 6], [1, 2, -3], [1, -1, 0]]),
        "hamming(3,2)+A1=antipodal": (
            [[1, 1, 3, 3], [1, 1, -1, -1], [1, -1, 3, -3], [1, -1, -1, 1]],
            [[1, 3, 1, 3], [1, 3, -1, -3], [1, -1, 1, -1], [1, -1, -1, 1]]),
    }
    tied = {name: spectral_data(s) for name, s, _ in scheme_corpus}
    tied = {name: sd for name, sd in tied.items() if sd.tie is not None}
    assert set(tied) == set(want)
    for name, (P, Q) in want.items():
        sd = tied[name]
        assert sd.tie == (0, 1), name
        assert np.abs(sd.P - P).max() < 1e-9 and np.abs(sd.Q - Q).max() < 1e-9, name


def test_analyze_decides_the_spectrum_once(monkeypatch, cycle_scheme):
    s = cycle_scheme(100)
    counts = Counter()

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(Spectrum, "__init__", counted("Spectrum", Spectrum.__init__))
    groups = counted("eigen_groups", eigen_groups)
    for modname in ("schemex.spectral", "schemex.detect"):
        monkeypatch.setattr(importlib.import_module(modname), "eigen_groups", groups)
    # Krein is one call; M* is one call per i = 1..d
    detect = importlib.import_module("schemex.detect")
    for name in ("mstar_decomposition_residual", "krein_parameters"):
        monkeypatch.setattr(detect, name, counted(name, getattr(detect, name)))

    a = analyze(s)
    assert a.report.status == "yes" and s.d == 50
    # eigen_groups: split S_1, whose clusters also give the row order and the tie;
    # kappa is a field that only Spectrum.__init__ sets, so it too is computed once
    assert counts == {"Spectrum": 1, "eigen_groups": 1,
                      "mstar_decomposition_residual": 50, "krein_parameters": 1}
    assert "kappa" in Spectrum.__slots__ and not a.spectral.spectrum.kappa.flags.writeable


def test_no_tolerance_knobs():
    knobs = {"eig_rtol", "match_rtol", "base_tol", "nonzero_tol", "tol"}
    modnames = [m.name for m in pkgutil.iter_modules(schemex.__path__, "schemex.")]
    assert {"schemex.cli", "schemex.detect", "schemex.spectral"} <= set(modnames)
    for modname in modnames:
        mod = importlib.import_module(modname)
        funcs = [f for _, f in inspect.getmembers(mod, inspect.isfunction)]
        for _, cls in inspect.getmembers(mod, inspect.isclass):
            if cls.__module__ == modname:
                funcs += [f for _, f in inspect.getmembers(cls, inspect.isfunction)]
        for f in funcs:
            if f.__module__ != modname:
                continue  # imported; checked in its own module
            params = set(inspect.signature(f).parameters)
            assert not params & knobs, f"{modname}.{f.__qualname__}"


class _Uses(ast.NodeVisitor):
    """(module, enclosing function) of every node that ``hit`` accepts."""

    def __init__(self, module, hit):
        self.module, self.hit, self.stack, self.found = module, hit, ["<module>"], []

    def visit_FunctionDef(self, node):
        self.stack.append(node.name)
        self.generic_visit(node)
        self.stack.pop()

    def generic_visit(self, node):
        if self.hit(node):
            self.found.append((self.module, self.stack[-1]))
        super().generic_visit(node)


def _uses_in_src(hit):
    found = []
    for path in sorted(Path(schemex.__file__).parent.glob("*.py")):
        v = _Uses(path.stem, hit)
        v.visit(ast.parse(path.read_text(encoding="utf-8")))
        found += v.found
    return sorted(found)


def _name(node):
    """The identifier a Name or Attribute node refers to, else None."""
    if isinstance(node, ast.Name):
        return node.id
    return node.attr if isinstance(node, ast.Attribute) else None


def _readers(constant):
    def reads(node):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            return False
        return _name(node) == constant

    return _uses_in_src(reads)


def test_eig_group_rtol_has_one_reader():
    # eigen_groups decides; cli._report_json only records the value in its "tol" block
    assert _readers("EIG_GROUP_RTOL") == [("cli", "_report_json"), ("spectral", "eigen_groups")]


def test_base_tol_has_one_reader():
    # q_polynomial_route decides; cli._report_json only records the value in its "tol" block
    assert _readers("BASE_TOL") == [("cli", "_report_json"), ("detect", "q_polynomial_route")]


def test_spectrum_is_built_in_two_places():
    def builds(node):
        return isinstance(node, ast.Call) and _name(node.func) == "Spectrum"

    # a scheme's Spectrum comes from spectral_data, a graph's from graph_spectrum
    assert _uses_in_src(builds) == [
        ("graph_tools", "graph_spectrum"), ("spectral", "spectral_data"),
    ]


def test_schemes_and_tensors_are_built_only_by_build_scheme():
    def builds(cls):
        return lambda node: isinstance(node, ast.Call) and _name(node.func) == cls

    # every scheme in src/, generated, read or from a graph, passes the axiom checks
    assert _uses_in_src(builds("AssociationScheme")) == [("scheme_core", "build_scheme")]
