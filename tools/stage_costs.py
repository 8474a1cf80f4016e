"""Cost of each stage from build_scheme to analyze on the corpus, for two trees.

    python3 tools/stage_costs.py BASE [--change DIR]

BASE is a git revision or the path of a checkout, as for tools/bench_pairs.py;
the change is the checkout given by ``--change`` (default: the current
directory).  Each of ROUNDS (4) rounds starts one fresh interpreter per tree,
the parent first in odd rounds and the change first in even ones, with the
tree's ``src`` first on ``sys.path``.  That interpreter builds the 29 corpus
schemes (``schemex.corpus()``) and then, PASSES (100) times over the corpus,
times each stage on each scheme by itself, with the stage's inputs computed
beforehand.  A stage's figure is its minimum time on each scheme, over every
pass and round, averaged over the 29 schemes, in microseconds; a stage that
does not run on a scheme (the spectral stages on tied theta) counts 0 there.
The minimum, not an average, to damp the machine's changes of speed; even so,
one run leaves a stage change below about 15% unresolved (README, "Cost of one
small scheme").  So beside each figure stands its spread: each round's mean
over the corpus of that round's minimums, max - min over the rounds.

The stages: ``build_scheme`` whole and, within it, ``slab 1``: counting slab 1
and checking it, as ``build_scheme`` does on a metric scheme;
``spectral_data`` whole and, within it, ``Spectrum``; each route
(``predistance`` as its table of predistance polynomials and its column
match); the Krein slab with the ``q_poly`` chain; every M* residual of a
scheme; and ``analyze`` whole.  The table gives both trees with their spreads
and the change of each stage; the last line is JSON with every figure and
spread.  Standard library only (schemex and numpy are imported in the child
interpreters).
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import json
import subprocess
import sys
import time
from pathlib import Path

from bench_pairs import parent_checkout

TOOLS = Path(__file__).resolve().parent
# 4 alternating rounds of 100 passes: about a minute for the two trees
ROUNDS, PASSES = 4, 100

# (label, indent): indented stages are part of the stage above them
STAGES = (
    ("build_scheme", 0), ("slab 1", 1), ("spectral_data", 0), ("Spectrum", 1),
    ("tridiagonal", 0), ("nstar", 0), ("excess", 0), ("predistance table", 0),
    ("predistance match", 0), ("Krein + q_poly", 0), ("M*", 0), ("analyze", 0),
)

CHILD = ("import json, sys; sys.path[:0] = sys.argv[1:3]; import stage_costs; "
         "print(json.dumps(stage_costs.measure(int(sys.argv[3]))))")


def _stage_calls(s):
    """{stage: a call of no arguments} for one validated scheme, in STAGES order."""
    # schemex.detect the module, not the function that the package exports under that name
    detect, scheme_core, spectral = (importlib.import_module(f"schemex.{name}")
                                     for name in ("detect", "scheme_core", "spectral"))
    sd = spectral.spectral_data(s)
    rm = scheme_core.RelationMatrix(n=s.n, d=s.d, rel=s.rel)
    sp = sd.spectrum
    values = spectral.predistance_polynomials(sp) if sp is not None else None
    two = len(inspect.signature(spectral.krein_parameters).parameters) == 2
    krein_args = (s, sd) if two else (sd,)  # an older tree's krein_parameters takes sd alone

    def slab1():
        b = scheme_core._count_slab(s.rel, s.y, 1)
        return type(s)(s.rel, s.y, s.valencies, {1: b})

    calls = {
        "build_scheme": lambda: scheme_core.build_scheme(rm),
        "slab 1": slab1,
        "spectral_data": lambda: spectral.spectral_data(s),
        "Spectrum": lambda: spectral.Spectrum(theta=sd.theta, m=sd.multiplicities, n=s.n),
        "tridiagonal": lambda: detect.tridiagonal_route(s),
        "nstar": lambda: detect._nstar_verdict(s, sd),
        "excess": lambda: detect.excess_route(sd),
        "predistance table": lambda: spectral.predistance_polynomials(sp),
        "predistance match": lambda: detect.predistance_route(sd, values),
        "Krein + q_poly": lambda: detect.q_polynomial_route(
            spectral.krein_parameters(*krein_args), s.n),
        "M*": lambda: [detect.mstar_decomposition_residual(s, sd, i) for i in range(1, s.d + 1)],
        "analyze": lambda: detect.analyze(s),
    }
    if sp is None:  # tied theta: no Spectrum, predistance table or M*
        for name in ("Spectrum", "predistance table", "M*"):
            del calls[name]
    return calls


def measure(passes: int) -> dict:
    """{"schemex": its file, "stages": {stage: [min seconds on each corpus scheme]}}."""
    import schemex

    schemes = [_stage_calls(s) for _, s, _ in schemex.corpus()]
    best = {name: [0.0 if name not in calls else float("inf") for calls in schemes]
            for name, _ in STAGES}
    clock = time.perf_counter
    for _ in range(passes):
        for idx, calls in enumerate(schemes):
            for name, call in calls.items():
                t0 = clock()
                call()
                dt = clock() - t0
                if dt < best[name][idx]:
                    best[name][idx] = dt
    return {"schemex": schemex.__file__, "stages": best}


def run_tree(tree: Path, passes: int) -> dict:
    """measure(passes) in a fresh interpreter that imports schemex from ``tree``."""
    proc = subprocess.run([sys.executable, "-c", CHILD, str(tree / "src"), str(TOOLS),
                           str(passes)], capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"timing {tree} failed with exit {proc.returncode}:\n"
                         + proc.stderr[-2000:])
    got = json.loads(proc.stdout.splitlines()[-1])
    if not Path(got["schemex"]).resolve().is_relative_to((tree / "src").resolve()):
        raise SystemExit(f"timing {tree} imported schemex from {got['schemex']}")
    return got["stages"]


def _mean_us(times: list) -> float:
    return 1e6 * sum(times) / len(times)


def stage_costs(base: Path, change: Path, rounds: int, passes: int) -> tuple:
    """({side: {stage: mean over the corpus of the per-scheme minimum}},
    {side: {stage: max - min over the rounds of the round's corpus mean}}), in microseconds."""
    best, means = {}, {}
    for r in range(1, rounds + 1):
        order = [("parent", base), ("change", change)]
        for side, tree in order if r % 2 else order[::-1]:
            got = run_tree(tree, passes)
            prev = best.setdefault(side, got)
            for name, times in got.items():
                prev[name] = [min(a, b) for a, b in zip(prev[name], times)]
                means.setdefault(side, {}).setdefault(name, []).append(_mean_us(times))
    costs = {side: {name: _mean_us(times) for name, times in stages.items()}
             for side, stages in best.items()}
    spread = {side: {name: max(m) - min(m) for name, m in stages.items()}
              for side, stages in means.items()}
    return costs, spread


def table(costs: dict, spread: dict) -> str:
    lines = [f"{'stage':<22}{'parent us':>12}{'+-':>7}{'change us':>12}{'+-':>7}{'change':>9}"]
    for name, indent in STAGES:
        b, c = costs["parent"][name], costs["change"][name]
        rel = f"{(c - b) / b:+.1%}" if b else ""
        lines.append(f"{'  ' * indent + name:<22}{b:12.1f}{spread['parent'][name]:7.1f}"
                     f"{c:12.1f}{spread['change'][name]:7.1f}{rel:>9}")
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", help="git revision or checkout directory of the parent")
    ap.add_argument("--change", type=Path, default=Path("."))
    args = ap.parse_args(argv)
    change = args.change.resolve()
    with parent_checkout(args.base, change) as base:
        costs, spread = stage_costs(base, change, ROUNDS, PASSES)
    print(f"min over {ROUNDS} rounds of {PASSES} passes, mean over the corpus "
          f"schemes, microseconds a scheme; +- is the spread of the rounds' means")
    print(table(costs, spread))
    print(json.dumps({"rounds": ROUNDS, "passes": PASSES, "us": costs, "spread_us": spread}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
