"""schemex benchmark: time per correct verdict on two workloads, with per-layer traces.

Run from the root of a schemex checkout (the package is imported from
``src/``, nothing is installed):

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 50 --trace 0

Workloads (closed loop, one client: the next input is sent only after the
previous answer has been checked):

* ``corpus``: the 29 corpus schemes through the library, build_scheme then
  analyze, in process.
* ``cli``: one subprocess per input.  First ``schemex detect FILE --json OUT``
  on the ladder schemes hamming(6,3), johnson(12,4), cycle(44) and
  cycle(100), then ``schemex graph FILE --json OUT`` on the johnson(12,4)
  graph, the 8-cube, the rook's graph K20xK25 and a random 12-regular graph
  on 729 vertices.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` the cli workload runs in process
through ``schemex.cli.main``, in alternating untraced and traced passes,
and the metrics are the per-layer ones.  Lines before it are the
human-readable report: machine facts, input sizes, failures and the timing
distribution.
See perfbench/README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gate
import inputs
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_RUNS = 7
MIN_PASSES = 2
CALL_TIMEOUT_S = 90

CLI_COMMAND = {"scheme": "detect", "graph": "graph"}

# (per-layer metric, span name, field of spans.layer_totals); fields ending
# in _s are seconds, the rest are counts, all per traced pass
LAYER_METRICS = (
    ("scheme_core.build_scheme.busy_s", "scheme_core.build_scheme", "busy_s"),
    ("scheme_core.build_scheme.calls", "scheme_core.build_scheme", "calls"),
    ("scheme_core.build_scheme.rejected", "scheme_core.build_scheme", "rejected"),
    ("scheme_core.products.pairs", "scheme_core.build_scheme", "pairs"),
    ("scheme_core.products.madds", "scheme_core.build_scheme", "madds"),
    ("spectral.spectral_data.busy_s", "spectral.spectral_data", "busy_s"),
    ("spectral.primitive_idempotents.busy_s", "spectral.primitive_idempotents", "busy_s"),
    ("spectral.krein_parameters.busy_s", "spectral.krein_parameters", "busy_s"),
    ("spectral.krein_parameters.expansions", "spectral.krein_parameters", "expansions"),
    ("detect.analyze.self_s", "detect.analyze", "self_s"),
    ("detect.nstar_sets.busy_s", "detect.nstar_sets", "busy_s"),
    ("detect.routes.busy_s", "detect.routes", "busy_s"),
    ("detect.mstar_decomposition_residual.busy_s", "detect.mstar_decomposition_residual",
     "busy_s"),
    ("detect.mstar_decomposition_residual.calls", "detect.mstar_decomposition_residual",
     "calls"),
    ("detect.mstar_decomposition_residual.matmuls", "detect.mstar_decomposition_residual",
     "matmuls"),
    ("poly.predistance_polynomials.busy_s", "poly.predistance_polynomials", "busy_s"),
    ("poly.predistance_polynomials.failed", "poly.predistance_polynomials", "failed"),
    ("graph_tools.distance_data.busy_s", "graph_tools.distance_data", "busy_s"),
    ("graph_tools.graph_spectrum.busy_s", "graph_tools.graph_spectrum", "busy_s"),
    ("graph_tools.spectral_excess_report.self_s", "graph_tools.spectral_excess_report",
     "self_s"),
    ("cli.self_s", "cli", "self_s"),
)

# counts computed from n and d by the tracer, not measured
COMPUTED = ("pairs", "madds", "expansions", "matmuls")


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if it cannot be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {parts[-1] for parts in map(str.split, fh)
                    if len(parts) >= 6 and "openblas" in parts[-1].lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        dll = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine_facts() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
    }


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH")
                                    else "")
    return env


class SetupSampler:
    """Wall time for a fresh interpreter to start and finish ``import schemex``.

    Samples are taken between attempts, about every ``seconds / SETUP_RUNS``,
    so that they spread over the run like the verdicts do instead of all
    landing in one moment of a machine whose speed drifts.
    """

    def __init__(self, seconds):
        self.every = seconds / SETUP_RUNS
        self.times = []
        self.last = time.perf_counter()

    def __call__(self):
        if time.perf_counter() - self.last >= self.every:
            self.sample()

    def sample(self):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import schemex"], env=_env(), cwd=WORK,
                       check=True, timeout=CALL_TIMEOUT_S)
        self.last = time.perf_counter()
        self.times.append(self.last - t0)

    def finish(self) -> list:
        while len(self.times) < SETUP_RUNS:
            self.sample()
        return self.times


def _read_report(path: Path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def subprocess_attempt(case):
    """One ``schemex detect|graph FILE --json OUT`` call in a fresh interpreter."""
    out = case.path.with_suffix(".json")
    out.unlink(missing_ok=True)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "schemex.cli", CLI_COMMAND[case.kind], str(case.path),
             "--json", str(out)],
            env=_env(), cwd=WORK, capture_output=True, text=True, timeout=CALL_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return gate.Outcome(None, None, crash=f"timeout after {CALL_TIMEOUT_S} s")
    return process_outcome(proc.returncode, proc.stderr, out)


def process_outcome(code, stderr, out: Path):
    """A traceback on stderr is a crash, whatever the exit code."""
    if "Traceback (most recent call last)" in stderr:
        return gate.Outcome(code, None, crash=stderr.strip().splitlines()[-1])
    return gate.Outcome(code, _read_report(out))


def inprocess_cli_attempt(case):
    """The same call through ``schemex.cli.main``, looked up at call time."""
    out = case.path.with_suffix(".json")
    out.unlink(missing_ok=True)
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = sys.modules["schemex.cli"].main(
                [CLI_COMMAND[case.kind], str(case.path), "--json", str(out)])
    except SystemExit as e:  # argparse and sys.exit
        code = 0 if e.code is None else e.code if isinstance(e.code, int) else 1
    except Exception as e:  # a traceback is a failure to report, not to stop on
        return gate.Outcome(None, None, crash=f"{type(e).__name__}: {e}")
    return gate.Outcome(code, _read_report(out))


def library_attempt(case):
    """build_scheme then analyze, looked up at call time so traced wrappers apply."""
    core, detect = sys.modules["schemex.scheme_core"], sys.modules["schemex.detect"]
    try:
        a = detect.analyze(core.build_scheme(case.rm))
    except Exception as e:  # a traceback is a failure to report, not to stop on
        return gate.Outcome(None, None, crash=f"{type(e).__name__}: {e}")
    return gate.Outcome(None, gate.analysis_report(a))


class Loop:
    """Closed loop, one client: passes over the inputs until the time is up."""

    def __init__(self, cases, attempt, tally, tracer=None, between=None):
        self.cases, self.attempt, self.tally, self.tracer = cases, attempt, tally, tracer
        self.between = between  # called after each attempt, outside the timed region
        self.pass_s, self.verdict_s, self.verdicts = [], [], 0

    def one_pass(self):
        ok, wall = 0, 0.0
        for idx, case in enumerate(self.cases):
            if self.tracer is not None:
                self.tracer.request = len(self.pass_s) * len(self.cases) + idx
            t0 = time.perf_counter()
            res = gate.check(case, self.attempt(case))
            wall += time.perf_counter() - t0
            ok += res.kind == "pass"
            self.tally.add(res)
            if self.between is not None:
                self.between()
        self.pass_s.append(wall)
        self.verdict_s.append(wall / max(ok, 1))
        self.verdicts += ok

    def fastest(self) -> float:
        """Wall time per correct verdict of the run's fastest pass.

        This, not the median pass, is the reported value.  Every pass does the
        same work, but the machine switches between speed states that last
        seconds to minutes, so the median pass jumps between states from run
        to run while the fastest pass stays put.
        """
        return min(self.verdict_s)

    def run(self, seconds):
        t0 = time.perf_counter()
        while more_time(t0, seconds, self.pass_s):
            self.one_pass()
        return self


def more_time(t0, seconds, pass_s, at_least=MIN_PASSES):
    """``at_least`` passes, then another while it would end, on average, no later
    than half a pass after the time is up."""
    if len(pass_s) < at_least:
        return True
    return time.perf_counter() - t0 + statistics.mean(pass_s) / 2 < seconds


def tail(samples):
    """(percentile, value) of the highest percentile with >= 10 samples beyond it."""
    s = sorted(samples)
    if len(s) < 11:
        return None
    return 100.0 * (len(s) - 10) / len(s), s[-11]


def report_results(tally):
    for res in tally.failures.values():
        print(f"FAIL {res.case.name} ({res.kind}): {'; '.join(res.problems)}")
    print(f"fail_frac: {tally.failed / tally.attempted:.4f} ({tally.failed} of "
          f"{tally.attempted} attempts: {tally.kinds['crash']} crashed, "
          f"{tally.kinds['wrong']} wrong)")
    return tally.attempted, tally.failed, tally.kinds["wrong"] == 0


def report_timing(label, loop):
    v = loop.verdict_s
    average = sum(loop.pass_s) / max(loop.verdicts, 1)
    line = (f"{label}: fastest pass {loop.fastest():.6g} s per correct verdict; over "
            f"{len(v)} passes: average={average:.6g} s median={statistics.median(v):.6g} s")
    if len(v) >= 2:
        q1, _q2, q3 = statistics.quantiles(v, n=4, method="inclusive")
        line += f" (min={min(v):.6g} q1={q1:.6g} q3={q3:.6g} max={max(v):.6g})"
    t = tail(v)
    if t is None:
        line += "; tail: none (fewer than 11 passes, so no percentile has 10 beyond it)"
    else:
        line += f"; p{t[0]:.2f}={t[1]:.6g} s (10 passes beyond it)"
    print(line)


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(args, cases):
    in_process = args.workload == "corpus"
    attempt = library_attempt if in_process else subprocess_attempt
    if in_process:
        Loop(cases, attempt, gate.Tally()).one_pass()  # warm-up, untimed and unreported
    sampler, tally = SetupSampler(args.seconds), gate.Tally()
    loop = Loop(cases, attempt, tally, between=sampler).run(args.seconds)
    setup = sampler.finish()
    attempted, failed, correct = report_results(tally)
    report_timing("verdict_s", loop)
    # the process that runs schemex code: this one for corpus, the CLI children otherwise
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    print(f"peak_rss_mb: {rss_mb:.1f} ({'this process' if in_process else 'largest child'})")
    print(f"setup_s: median={statistics.median(setup):.6g} s over {len(setup)} fresh "
          f"interpreters (min={min(setup):.6g} max={max(setup):.6g})")
    metrics = {
        "verdict_s": metric(loop.fastest(), "s"),
        "pass_frac": metric((attempted - failed) / attempted, "fraction"),
        "peak_rss_mb": metric(rss_mb, "MB"),
        "setup_s": metric(statistics.median(setup), "s"),
    }
    return correct, attempted, failed, metrics


def traced(args, cases):
    attempt = (library_attempt if args.workload == "corpus"
               else inprocess_cli_attempt)
    # in process, the first pass pays for first-touch allocation: warm up untimed
    Loop(cases, attempt, gate.Tally()).one_pass()
    # untraced and traced passes alternate, each first in every other pair, so
    # drift in machine speed hits both alike
    tracer, tally = spans.Tracer(), gate.Tally()
    plain, loop = Loop(cases, attempt, tally), Loop(cases, attempt, tally, tracer)

    def traced_pass():
        tracer.install()
        try:
            loop.one_pass()
        finally:
            tracer.uninstall()

    t0 = time.perf_counter()
    pair_s = []
    while more_time(t0, args.seconds, pair_s, at_least=1):  # a pair is two passes
        t1 = time.perf_counter()
        first, second = ((plain.one_pass, traced_pass) if len(loop.pass_s) % 2 == 0
                         else (traced_pass, plain.one_pass))
        first()
        second()
        pair_s.append(time.perf_counter() - t1)
    tracer.write(WORK / f"spans-{args.workload}-seed{args.seed}.jsonl")

    attempted, failed, correct = report_results(tally)
    report_timing("untraced verdict_s (in process)", plain)
    report_timing("traced verdict_s (in process)", loop)
    absent = tracer.absent_names()
    print(f"absent from the program: {', '.join(tracer.absent) or 'nothing'}")
    per_request = {}
    for s in tracer.spans:
        if s.request is not None and s.request < len(cases):  # first traced pass
            acc = per_request.setdefault(s.request, {})
            for key in COMPUTED:
                acc[key] = acc.get(key, 0) + s.counts.get(key, 0)
    for idx, case in enumerate(cases):
        counts = " ".join(f"{k}={v}" for k, v in per_request.get(idx, {}).items())
        print(f"computed counts {case.name}: {counts}")

    passes = len(loop.pass_s)
    totals = spans.layer_totals(tracer.spans)
    metrics = {}
    for name, span, field in LAYER_METRICS:
        t = totals.get(span, {})
        value = t.get(field, t.get("counts", {}).get(field, 0))
        unit = "s/pass" if field.endswith("_s") else "count/pass"
        metrics[name] = metric(value / passes, unit)
        note = "absent" if span in absent else ("computed" if field in COMPUTED else "")
        print(f"{name}: {value / passes:.6g} {unit} {note}".rstrip())
    base = plain.fastest()
    overhead = loop.fastest() - base
    print(f"tracing overhead: {overhead:.6g} s per verdict on a base of {base:.6g} s")
    metrics["trace.overhead_s"] = metric(overhead, "s")
    metrics["trace.untraced_verdict_s"] = metric(base, "s")
    return correct, attempted, failed, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated run unwinds, so subprocess.run kills the CLI child it waits on
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "schemex" / "__init__.py").is_file():
        print(f"error: {SRC / 'schemex'} not found; run from a schemex checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import schemex
    import schemex.cli  # noqa: F401  (looked up by the in-process attempts)

    WORK.mkdir(exist_ok=True)
    facts = machine_facts()
    print("machine: " + " ".join(f"{k}={v}" for k, v in facts.items()))
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} loop=closed clients=1 schemex={schemex.__file__}")
    cases = inputs.WORKLOADS[args.workload](args.seed)
    for idx, case in enumerate(cases):
        if args.workload == "corpus":
            case.rm = schemex.RelationMatrix(n=case.n, d=case.d, rel=case.rel)
        else:
            inputs.write_input(case, WORK / f"{args.workload}-{idx}.txt")
        print(f"input {case.name}: {case.sizes()} expect exit={case.exit} "
              + (f"status={case.status}" if case.kind == "scheme" else f"drg={case.drg}"))

    measure = traced if args.trace else end_to_end
    correct, attempted, failed, metrics = measure(args, cases)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
