"""Run the benchmark in pairs, parent and change alternately, and apply the pair rule.

    python3 tools/bench_pairs.py BASE --workload corpus --seed 11 --pairs 10 --seconds 50

BASE is a git revision, checked out for the run with ``git worktree`` and
removed afterwards, or the path of an existing checkout.  The change is the
checkout given by ``--change`` (default: the current directory).  Each side
runs its own copy of the command that its ``BENCHMARK.json`` declares, with
``--workload --seed --seconds --trace`` appended, and the metrics are read
from the last line of its stdout.  Pair i runs the parent first when i is
odd, the change first when i is even.  Each run starts with no bytecode cache
under the checkout's ``src`` (any ``__pycache__`` there is removed) and runs
with ``PYTHONDONTWRITEBYTECODE=1``, so both sides compile the program from
source on every call, as in a fresh checkout, while the interpreter's and
numpy's own caches are read as installed.

The report gives every pair, then for each end-to-end metric of the change's
``BENCHMARK.json``: both medians and quartiles, the change's wins (ties count
for neither side), the relative change of the median against the metric's
bound, and whether a gain may be claimed: wins in at least nine tenths of the
pairs and medians further apart than the parent's interquartile range.  A
metric is reported unresolved when the parent's spread (interquartile range
over median) is wider than its bound, unless every change run beats every
parent run: such runs cannot tell a change within the bound from one past it.
Standard library only.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path


def run_side(checkout: Path, args) -> dict:
    """One benchmark run in ``checkout``: {metric name: value}."""
    spec = json.loads((checkout / "BENCHMARK.json").read_text(encoding="utf-8"))
    cmd = [*spec["command"], "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    # valid .pyc files save a CLI call about as much time as a gain worth claiming
    for cache in list((checkout / "src").rglob("__pycache__")):
        shutil.rmtree(cache)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}:\n"
                         + proc.stderr[-2000:])
    return {name: m["value"] for name, m in json.loads(lines[-1])["metrics"].items()}


def quartiles(values) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(metric: dict, base: list, change: list) -> str:
    """One line for one end-to-end metric over the pairs."""
    sign = -1.0 if metric["better"] == "lower" else 1.0
    wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
    bq1, bmed, bq3 = quartiles(base)
    cq1, cmed, cq3 = quartiles(change)
    rel = (cmed - bmed) / abs(bmed) if bmed else 0.0
    worse = -sign * rel
    gain = wins >= 0.9 * len(base) and sign * (cmed - bmed) > bq3 - bq1
    spread = (bq3 - bq1) / abs(bmed) if bmed else 0.0
    separated = all(sign * (c - b) > 0 for b in base for c in change)
    unresolved = spread > metric["bound"] and not separated
    return (f"{metric['name']}: parent median {bmed:.6g} (q1 {bq1:.6g}, q3 {bq3:.6g}); "
            f"change median {cmed:.6g} (q1 {cq1:.6g}, q3 {cq3:.6g}); "
            f"change wins {wins}/{len(base)}; median {rel:+.2%}, bound {metric['bound']:.0%}"
            f"{' EXCEEDED' if worse > metric['bound'] else ''}; "
            f"gain {'claimable' if gain else 'not claimable'}"
            f"{f'; unresolved: parent spread {spread:.1%}' if unresolved else ''}")


def pairs(base: Path, change: Path, args) -> None:
    metrics = json.loads((change / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    runs = {"parent": [], "change": []}
    for i in range(1, args.pairs + 1):
        order = (("parent", base), ("change", change))
        if i % 2 == 0:
            order = order[::-1]
        got = {side: run_side(where, args) for side, where in order}
        for side in runs:
            runs[side].append(got[side])
        shown = " ".join(f"{m['name']} {got['parent'].get(m['name'], float('nan')):.6g} -> "
                         f"{got['change'].get(m['name'], float('nan')):.6g}" for m in metrics)
        print(f"pair {i} ({order[0][0]} first): {shown}", flush=True)
    for m in metrics:
        b = [r[m["name"]] for r in runs["parent"] if m["name"] in r]
        c = [r[m["name"]] for r in runs["change"] if m["name"] in r]
        if b and len(b) == len(c):
            print(summarize(m, b, c))


@contextlib.contextmanager
def parent_checkout(base: str, change: Path):
    """The parent as a checkout: ``base`` itself when it is a directory, else a
    ``git worktree`` of revision ``base`` of the repository at ``change``, removed on exit."""
    if Path(base).is_dir():
        yield Path(base).resolve()
        return
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        tree = Path(tmp) / "parent"
        subprocess.run(["git", "-C", str(change), "worktree", "add", "--detach", str(tree),
                        base], check=True, capture_output=True)
        try:
            yield tree
        finally:
            subprocess.run(["git", "-C", str(change), "worktree", "remove", "--force",
                            str(tree)], check=False, capture_output=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", help="git revision or checkout directory of the parent")
    ap.add_argument("--change", type=Path, default=Path("."))
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    change = args.change.resolve()
    with parent_checkout(args.base, change) as base:
        pairs(base, change, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
