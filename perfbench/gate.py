"""The correctness gate: every answer is checked against the expected one.

An attempt passes only if it gives the expected verdict, status, ordering,
``l``, exit code and sizes, with residuals inside the tolerances below.  A
failure is either a *crash* (a traceback, an uncaught exception, a timeout:
no answer at all) or a *wrong* answer.  Both count in ``fail_frac``; only a
wrong answer makes the run incorrect, because schemex promises never to be
wrong, not never to fail.
"""

from __future__ import annotations

from dataclasses import dataclass

from inputs import YES, Case

#: P Q = n I residual bound, relative to n (the test suite's bound)
PQ_RTOL = 1e-8

#: bound on the max-abs M* decomposition residual.  The residual is a product
#: of d-1 factors: it stays below 1e-12 on the corpus (d <= 12) but reaches
#: about 6e-8 on cycle(44) (d = 22), so the test suite's 1e-8 would reject a
#: correct answer there.
MSTAR_TOL = 1e-6


@dataclass
class Outcome:
    """What one attempt produced.

    ``code`` is the exit code, or None when the library was called directly;
    ``report`` is the JSON report (or the same keys built from an Analysis);
    ``crash`` describes an uncaught exception or timeout, else None.
    """

    code: int | None
    report: dict | None
    crash: str | None = None


@dataclass
class Result:
    case: Case
    kind: str  # "pass", "crash" or "wrong"
    problems: list


def analysis_report(a) -> dict:
    """The keys of ``detect --json`` that the gate reads, from a library Analysis."""
    rep = a.report
    return {
        "n": rep.n,
        "d": rep.d,
        "consensus": {
            "verdict": rep.consensus,
            "status": rep.status,
            "ordering": list(rep.ordering) if rep.ordering is not None else None,
            "l": rep.l,
        },
        "residuals": {"pq_identity": a.pq_residual, "mstar_max": a.mstar_max},
    }


def _scheme_problems(case: Case, rep: dict) -> list:
    problems = []
    cons, res = rep["consensus"], rep["residuals"]
    want = {
        "n": case.n,
        "d": case.d,
        "verdict": YES if case.status == YES else "no",
        "status": case.status,
        "ordering": list(case.ordering) if case.ordering is not None else None,
        "l": case.l,
    }
    got = {"n": rep["n"], "d": rep["d"], **{key: cons[key] for key in
                                            ("verdict", "status", "ordering", "l")}}
    problems += [f"{key}={got[key]!r}, expected {want[key]!r}"
                 for key in want if got[key] != want[key]]
    pq = res["pq_identity"]
    if not pq <= PQ_RTOL * case.n:
        problems.append(f"pq_identity {pq!r} > {PQ_RTOL:g}*n")
    mstar = res["mstar_max"]
    if mstar is None:
        if case.status == YES:
            problems.append("mstar_max missing on a metric scheme")
    elif not mstar <= MSTAR_TOL:
        problems.append(f"mstar_max {mstar!r} > {MSTAR_TOL:g}")
    return problems


def _graph_problems(case: Case, rep: dict) -> list:
    want = {"n": case.n, "k": case.k, "diameter": case.d, "drg": case.drg}
    return [f"{key}={rep.get(key)!r}, expected {val!r}"
            for key, val in want.items() if rep.get(key) != val]


def check(case: Case, out: Outcome) -> Result:
    """Compare one outcome with the case's expectations."""
    if out.crash is not None:
        return Result(case, "crash", [f"crash: {out.crash}"])
    problems = []
    if out.code is not None and out.code != case.exit:
        problems.append(f"exit code {out.code}, expected {case.exit}")
    if out.report is None:
        problems.append("no report written")
    else:
        try:
            problems += (_scheme_problems if case.kind == "scheme" else _graph_problems)(
                case, out.report)
        except (KeyError, TypeError) as e:
            problems.append(f"malformed report: {type(e).__name__}: {e}")
    return Result(case, "wrong" if problems else "pass", problems)


class Tally:
    """Attempts by outcome, plus the first result of each distinct failure.

    Only counts are kept, so the benchmark's own memory does not grow with
    the number of passes a faster program fits into a run.
    """

    def __init__(self):
        self.kinds = {"pass": 0, "crash": 0, "wrong": 0}
        self.failures = {}

    def add(self, res: Result) -> None:
        self.kinds[res.kind] += 1
        if res.kind != "pass":
            self.failures.setdefault((res.case.name, res.problems[0]), res)

    @property
    def attempted(self) -> int:
        return sum(self.kinds.values())

    @property
    def failed(self) -> int:
        return self.kinds["crash"] + self.kinds["wrong"]
