"""eigen_groups is the one owner of eigenvalue equality."""

from __future__ import annotations

import ast
import importlib
import inspect
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import schemex
from schemex.detect import _theta_collision
from schemex.poly import Spectrum
from schemex.spectral import EIG_GROUP_RTOL, eigen_groups, spectral_data

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
        sd = spectral_data(s.tensor)
        simple = all(b - a == 1 for a, b in eigen_groups(np.sort(sd.theta)))
        assert (_theta_collision(sd) is None) == simple, name
        if simple:  # what analyze relies on to build the predistance system
            Spectrum(theta=sd.theta, m=sd.multiplicities, n=sd.n)
        seen.add(simple)
    assert seen == {True, False}


def test_no_tolerance_knobs():
    for modname in ("schemex.detect", "schemex.spectral", "schemex.graph_tools"):
        mod = importlib.import_module(modname)
        funcs = [f for _, f in inspect.getmembers(mod, inspect.isfunction)]
        for _, cls in inspect.getmembers(mod, inspect.isclass):
            if cls.__module__ == modname:
                funcs += [f for _, f in inspect.getmembers(cls, inspect.isfunction)]
        for f in funcs:
            params = set(inspect.signature(f).parameters)
            assert not params & {"eig_rtol", "match_rtol"}, f"{modname}.{f.__qualname__}"


class _Readers(ast.NodeVisitor):
    """(module, enclosing function) of every read of EIG_GROUP_RTOL."""

    def __init__(self, module):
        self.module, self.stack, self.found = module, ["<module>"], []

    def visit_FunctionDef(self, node):
        self.stack.append(node.name)
        self.generic_visit(node)
        self.stack.pop()

    def visit_Name(self, node):
        if node.id == "EIG_GROUP_RTOL" and isinstance(node.ctx, ast.Load):
            self.found.append((self.module, self.stack[-1]))

    def visit_Attribute(self, node):
        if node.attr == "EIG_GROUP_RTOL":
            self.found.append((self.module, self.stack[-1]))
        self.generic_visit(node)


def test_eig_group_rtol_has_one_reader():
    found = []
    for path in sorted(Path(schemex.__file__).parent.glob("*.py")):
        v = _Readers(path.stem)
        v.visit(ast.parse(path.read_text(encoding="utf-8")))
        found += v.found
    # eigen_groups decides; cli._report_json only records the value in its "tol" block
    assert sorted(found) == [("cli", "_report_json"), ("spectral", "eigen_groups")]
