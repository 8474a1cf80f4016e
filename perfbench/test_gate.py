"""Tests of the benchmark's own checker, so the correctness gate is known to be live.

Run from the checkout root:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import gate  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import schemex  # noqa: E402
import schemex.cli  # noqa: E402,F401
from schemex import families  # noqa: E402

# the package re-exports the function detect, which hides the submodule
DETECT = sys.modules["schemex.detect"]


def _with_rm(cases):
    for case in cases:
        case.rm = schemex.RelationMatrix(n=case.n, d=case.d, rel=case.rel)
    return cases


def _case(name, seed=5):
    return next(c for c in _with_rm(inputs.corpus_cases(seed)) if c.name == name)


def test_generators_reproduce_the_library_corpus():
    lib = families.corpus()
    assert [name for name, _s, _st in lib] == [name for name, _g, _st in inputs.CORPUS]
    for (name, s, status), (_n, gen, want_status) in zip(lib, inputs.CORPUS):
        rel, d = gen()
        assert d == s.d, name
        assert np.array_equal(rel, s.rel), name
        assert status == want_status, name


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_every_corpus_input_passes_under_relabelling(seed):
    tally = gate.Tally()
    run.Loop(_with_rm(inputs.corpus_cases(seed)), run.library_attempt, tally).one_pass()
    assert (tally.attempted, list(tally.failures)) == (29, [])


def test_relabelling_moves_the_expected_ordering():
    orderings = {_case("hamming(4,3)", seed).ordering for seed in range(8)}
    assert len(orderings) > 1
    assert all(o[:2] == (0, 1) and sorted(o) == [0, 1, 2, 3, 4] for o in orderings)


def test_wrong_expected_verdict_is_a_failure():
    case = _case("cycle(8)")
    assert gate.check(case, run.library_attempt(case)).kind == "pass"
    case.status, case.ordering, case.l = inputs.NO, None, None
    res = gate.check(case, run.library_attempt(case))
    assert res.kind == "wrong"
    assert any("status" in p for p in res.problems)


def test_wrong_ordering_and_residual_are_failures():
    case = _case("johnson(7,3)")
    rep = gate.analysis_report(schemex.analyze(schemex.build_scheme(case.rm)))
    case.ordering = case.ordering[:2] + case.ordering[:1:-1]
    assert gate.check(case, gate.Outcome(None, rep)).kind == "wrong"
    case = _case("johnson(7,3)")
    rep["residuals"]["mstar_max"] = 10 * gate.MSTAR_TOL
    assert gate.check(case, gate.Outcome(None, rep)).kind == "wrong"


def test_crashing_input_is_a_failure(monkeypatch):
    cases = [_case("petersen"), _case("cycle(5)")]

    def crash(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(DETECT, "analyze", crash)
    tally = gate.Tally()
    run.Loop(cases, run.library_attempt, tally).one_pass()
    assert tally.kinds == {"pass": 0, "crash": 2, "wrong": 0}
    assert run.report_results(tally) == (2, 2, True)


def test_crash_and_wrong_answer_in_one_pass():
    good, bad = _case("cycle(7)"), _case("complete(4)")
    bad.status = inputs.NO
    tally = gate.Tally()
    for res in [gate.check(good, run.library_attempt(good)),
                gate.check(bad, run.library_attempt(bad)),
                gate.check(good, gate.Outcome(1, None, crash="NumericalBreakdown: collapsed"))]:
        tally.add(res)
    assert run.report_results(tally) == (3, 2, False)


def test_traceback_from_a_subprocess_is_a_crash(tmp_path):
    stderr = "Traceback (most recent call last):\n  ...\nschemex.poly.NumericalBreakdown: x\n"
    out = run.process_outcome(1, stderr, tmp_path / "missing.json")
    assert out.crash == "schemex.poly.NumericalBreakdown: x"
    assert gate.check(_case("cycle(9)"), out).kind == "crash"
    # a clean non-zero exit without a traceback is a wrong answer, not a crash
    out = run.process_outcome(1, "PARSE ERROR: bad\n", tmp_path / "missing.json")
    assert gate.check(_case("cycle(9)"), out).kind == "wrong"


def test_cli_in_process_checks_exit_code_and_report(tmp_path):
    case = next(c for c in inputs.graph_cases(3) if c.name == "8-cube")
    inputs.write_input(case, tmp_path / "cube.txt")
    assert gate.check(case, run.inprocess_cli_attempt(case)).kind == "pass"
    case.drg, case.exit = False, inputs.EXIT_NO
    assert gate.check(case, run.inprocess_cli_attempt(case)).kind == "wrong"


def test_validation_pair_count_stops_at_the_failing_pair():
    class NotConstant(Exception):
        i, j = 2, 3

    assert spans._validation_pairs(3, None) == 6
    assert spans._validation_pairs(3, NotConstant()) == 5  # (1,1) (1,2) (1,3) (2,2) (2,3)
    assert spans._validation_pairs(3, ValueError()) == 0


def test_missing_target_is_absent_not_an_error(monkeypatch):
    targets = spans.TARGETS + (("schemex.detect", "no_such_function", "detect.gone", None),)
    monkeypatch.setattr(spans, "TARGETS", targets)
    tracer = spans.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["schemex.detect.no_such_function"]
    assert tracer.absent_names() == ["detect.gone"]


def test_spans_give_busy_and_self_time():
    tracer = spans.Tracer()
    tracer.install()
    try:
        case = _case("hamming(3,3)")
        tracer.request = 0
        assert gate.check(case, run.library_attempt(case)).kind == "pass"
    finally:
        tracer.uninstall()
    assert DETECT.analyze is schemex.analyze  # originals restored
    totals = spans.layer_totals(tracer.spans)
    analyze = totals["detect.analyze"]
    assert analyze["calls"] == 1 and 0 < analyze["self_s"] < analyze["busy_s"]
    assert totals["spectral.krein_parameters"]["counts"] == {"expansions": 10}
    assert totals["detect.mstar_decomposition_residual"]["counts"] == {"matmuls": 6}
    assert totals["scheme_core.build_scheme"]["counts"]["madds"] == 6 * 27 ** 3
