"""Spans recorded from the benchmark's own code, around calls into schemex layers.

The tracer replaces module-level names that callers look up at call time (for
example ``schemex.detect.krein_parameters``, or ``build_scheme`` as bound in
``schemex.cli``) with a wrapper that records a span: name, start, end, parent
span and request id.  Spans stay in memory and are written out at the end.
A target the program no longer has is reported as absent, not as an error.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from dataclasses import dataclass, field


def _validation_pairs(d, exc):
    """Products A_i A_j checked: every pair 1 <= i <= j <= d, or up to the failing one."""
    if exc is None:
        return d * (d + 1) // 2
    if not hasattr(exc, "j"):
        return 0  # rejected (or failed) before the product checks
    i, j = exc.i, exc.j
    return sum(d - a + 1 for a in range(1, i)) + (j - i) + 1


def _count_build_scheme(args, kwargs, result, exc):
    rm = args[0]
    pairs = _validation_pairs(rm.d, exc)
    rejected = exc is not None and any(
        cls.__name__ == "SchemeValidationError" for cls in type(exc).__mro__)
    return {"pairs": pairs, "madds": pairs * rm.n ** 3, "rejected": int(rejected)}


def _count_krein(args, kwargs, result, exc):
    d = args[0].d
    return {"expansions": (d + 1) * (d + 2) // 2}


def _count_mstar(args, kwargs, result, exc):
    return {"matmuls": args[0].d - 1}


# (module looked up by callers, attribute, span name, computed counts)
TARGETS = (
    ("schemex.cli", "main", "cli", None),
    ("schemex.cli", "build_scheme", "scheme_core.build_scheme", _count_build_scheme),
    ("schemex.cli", "analyze", "detect.analyze", None),
    ("schemex.cli", "spectral_excess_report", "graph_tools.spectral_excess_report", None),
    ("schemex.scheme_core", "build_scheme", "scheme_core.build_scheme", _count_build_scheme),
    ("schemex.detect", "analyze", "detect.analyze", None),
    ("schemex.detect", "spectral_data", "spectral.spectral_data", None),
    ("schemex.detect", "nstar_sets", "detect.nstar_sets", None),
    ("schemex.detect", "tridiagonal_route", "detect.routes", None),
    ("schemex.detect", "excess_route", "detect.routes", None),
    ("schemex.detect", "predistance_route", "detect.routes", None),
    ("schemex.detect", "q_polynomial_route", "detect.routes", None),
    ("schemex.detect", "predistance_polynomials", "poly.predistance_polynomials", None),
    ("schemex.detect", "primitive_idempotents", "spectral.primitive_idempotents", None),
    ("schemex.detect", "krein_parameters", "spectral.krein_parameters", _count_krein),
    ("schemex.detect", "mstar_decomposition_residual",
     "detect.mstar_decomposition_residual", _count_mstar),
    ("schemex.graph_tools", "distance_data", "graph_tools.distance_data", None),
    ("schemex.graph_tools", "graph_spectrum", "graph_tools.graph_spectrum", None),
    ("schemex.graph_tools", "predistance_polynomials", "poly.predistance_polynomials", None),
    ("schemex.graph_tools", "build_scheme", "scheme_core.build_scheme", _count_build_scheme),
)


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    request: int | None = None
    error: str | None = None
    counts: dict = field(default_factory=dict)


class Tracer:
    """Installs span-recording wrappers on TARGETS and restores the originals."""

    def __init__(self):
        self.spans: list = []
        self.request: int | None = None
        self.absent: list = []
        self._stack: list = []
        self._installed: list = []

    def _wrap(self, name, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, time.perf_counter(),
                        parent=self._stack[-1] if self._stack else None,
                        request=self.request)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                span.error = type(e).__name__
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if counter is not None:
                    span.counts = counter(args, kwargs, result, exc)
        return traced

    def install(self):
        self.absent = []
        for modname, attr, name, counter in TARGETS:
            try:
                mod = importlib.import_module(modname)
                fn = getattr(mod, attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{modname}.{attr}")
                continue
            self._installed.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(name, fn, counter))

    def uninstall(self):
        for mod, attr, fn in reversed(self._installed):
            setattr(mod, attr, fn)
        self._installed.clear()

    def absent_names(self) -> list:
        """Span names none of whose targets exist in the program."""
        present = {name for (modname, attr, name, _c) in TARGETS
                   if f"{modname}.{attr}" not in self.absent}
        return sorted({name for (_m, _a, name, _c) in TARGETS} - present)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for idx, s in enumerate(self.spans):
                fh.write(json.dumps({"id": idx, **s.__dict__}) + "\n")


def layer_totals(spans) -> dict:
    """Per span name: calls, busy (inclusive) and self seconds, failures, summed counts.

    A span nested inside a span of the same name adds nothing to busy time, so
    a name's busy time never counts one interval twice.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
    totals = {}
    for idx, s in enumerate(spans):
        t = totals.setdefault(s.name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0,
                                       "failed": 0, "counts": {}})
        t["calls"] += 1
        t["failed"] += s.error is not None
        dur = s.end - s.start
        t["self_s"] += dur - child_time[idx]
        if not _inside_same_name(spans, s):
            t["busy_s"] += dur
        for key, val in s.counts.items():
            t["counts"][key] = t["counts"].get(key, 0) + val
    return totals


def _inside_same_name(spans, s) -> bool:
    p = s.parent
    while p is not None:
        if spans[p].name == s.name:
            return True
        p = spans[p].parent
    return False
