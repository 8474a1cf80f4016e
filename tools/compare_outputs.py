"""Run a fixed set of schemex commands in two trees and report every output that differs.

    python3 tools/compare_outputs.py BASE [--change DIR]

BASE is a git revision, checked out for the run by
``bench_pairs.parent_checkout`` (a ``git worktree``, removed afterwards) as
tools/stage_costs.py does, or the path of a tree that holds ``src/schemex``.
The change is the tree given by ``--change`` (default: the current directory).

The inputs are made once, by BASE's own generators: the 29 corpus schemes;
hamming(6,3), johnson(12,4) and cycle(44), cycle(100) and cycle(200), and
three schemes with tied theta, hypercube_reordered(0,2,1,3),
disjoint_cliques(4,3) and disjoint_cliques(2,5); the relation-1 graphs of
hamming(8,2) and johnson(12,4), and the rook's graph K20 x K25; and
malformed scheme and edge files.  Then one child process per
tree runs every case through ``schemex.cli.main`` in that directory:
``validate``, ``detect`` and ``detect --json`` on each scheme file,
``graph --json`` on each edge file, and ``gen`` on every family and on bad
parameters.  Together the cases exit 0, 1, 2, 3 and 4.

Every difference in exit code, stdout, stderr or JSON bytes is printed, one
line each, then their count; the exit status is 1 if there is any.  A JSON
report is named by the key paths whose values differ, such as
``residuals.mstar_max`` or ``Q[3][7]``: per key, the first such path and the
count of the others.  Any other output, or a report that does not parse or
differs only in its bytes, is named by its first differing line.  The parent
process uses the standard library only.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import parent_checkout

JSON_OUT = "out.json"

# family -> parameters of one valid gen call; every family of families.FAMILIES
GEN_FAMILIES = {
    "hamming": (2, 3), "johnson": (6, 3), "cycle": (9,), "complete": (5,),
    "disjoint_cliques": (3, 2), "cyclotomic13": (), "petersen": (),
    "hypercube_reordered": (0, 2, 1, 3),
}
GEN_ERRORS = [
    ["gen", "hamming", "1", "1"],  # parameters out of range
    ["gen", "nosuch"],  # unknown family
    ["gen", "cycle"],  # too few parameters
    ["gen", "cycle", "5", "-o", "nodir/out.scheme"],  # unwritable output
]
# the last three have tied theta: their rows are ordered by the full key
LADDER = [("hamming", (6, 3)), ("johnson", (12, 4)), ("cycle", (44,)), ("cycle", (100,)),
          ("cycle", (200,)), ("hypercube_reordered", (0, 2, 1, 3)), ("disjoint_cliques", (4, 3)),
          ("disjoint_cliques", (2, 5))]
BAD_SCHEMES = {
    "empty.scheme": "",
    "token.scheme": "2 1\n0 x\n1 0\n",
    "short.scheme": "3 1\n0 1\n",
    "range.scheme": "2 1\n0 2\n2 0\n",
    "diagonal.scheme": "2 1\n1 1\n1 0\n",
    "asymmetric.scheme": "3 2\n0 1 2\n2 0 1\n1 2 0\n",
    "path3.scheme": "3 2\n0 1 2\n1 0 1\n2 1 0\n",
    "absent.scheme": "3 2\n0 1 1\n1 0 1\n1 1 0\n",
    "zero.scheme": "4 1\n0 1 0 1\n1 0 1 0\n0 1 0 1\n1 0 1 0\n",
}
BAD_GRAPHS = {
    "disconnected.edges": "4 2\n0 1\n2 3\n",
    "irregular.edges": "3 2\n0 1\n1 2\n",
    "single.edges": "1 0\n",
    "loop.edges": "2 1\n0 0\n",
    "duplicate.edges": "3 2\n0 1\n1 0\n",
    "range.edges": "2 1\n0 5\n",
}


def _write_edges(path: Path, n: int, edges) -> None:
    lines = [f"{n} {len(edges)}", *(f"{u} {v}" for u, v in edges)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def make_inputs(workdir: Path) -> list:
    """Write every input file into ``workdir``; return the cases as (name, argv, json?)."""
    import numpy as np
    from schemex.cli import write_scheme_file
    from schemex.families import FamilySpec, corpus, generate

    schemes, graphs = [], []

    def scheme(name, s):
        path = f"scheme{len(schemes):02d}.scheme"
        with open(workdir / path, "w", encoding="utf-8") as fh:
            write_scheme_file(s, fh)
        schemes.append((name, path))

    for name, s, _expected in corpus():
        scheme(name, s)
    for family, params in LADDER:
        scheme(f"{family}{params}", generate(FamilySpec(family, params)))
    for family, params in [("hamming", (8, 2)), ("johnson", (12, 4))]:
        s = generate(FamilySpec(family, params))
        path = f"{family}.edges"
        _write_edges(workdir / path, s.n, np.argwhere(np.triu(s.rel == 1)).tolist())
        graphs.append((f"{family}{params} relation 1", path))
    cells = [(r, c) for r in range(20) for c in range(25)]
    _write_edges(workdir / "rook.edges", len(cells), [
        (u, v) for u, (r, c) in enumerate(cells) for v, (r2, c2) in enumerate(cells)
        if u < v and (r == r2 or c == c2)])
    graphs.append(("rook(20x25)", "rook.edges"))
    for bad, text in [*BAD_SCHEMES.items(), *BAD_GRAPHS.items()]:
        (workdir / bad).write_text(text, encoding="utf-8")
    schemes += [(bad, bad) for bad in [*BAD_SCHEMES, "missing.scheme"]]
    graphs += [(bad, bad) for bad in [*BAD_GRAPHS, "missing.edges"]]

    cases = []
    for name, path in schemes:
        cases += [(f"{name}: validate", ["validate", path], False),
                  (f"{name}: detect", ["detect", path], False),
                  (f"{name}: detect --json", ["detect", path, "--json", JSON_OUT], True)]
    cases += [(f"{name}: graph --json", ["graph", path, "--json", JSON_OUT], True)
              for name, path in graphs]
    cases += [(f"gen {family} {' '.join(map(str, params))}".rstrip(),
               ["gen", family, *map(str, params)], False)
              for family, params in GEN_FAMILIES.items()]
    cases += [(" ".join(argv), argv, False) for argv in GEN_ERRORS]
    return cases


def run_cases(cases) -> dict:
    """{case name: {exit, stdout, stderr, json}} from cli.main, run in the working directory."""
    from schemex.cli import main

    results = {}
    for name, argv, writes_json in cases:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except Exception as e:  # an uncaught exception is an outcome to compare too
                code = f"raised {type(e).__name__}: {e}"
        report = None
        if writes_json and os.path.exists(JSON_OUT):
            report = Path(JSON_OUT).read_bytes().decode("utf-8")
            os.remove(JSON_OUT)
        results[name] = {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
                         "json": report}
    return results


def child(mode: str, workdir: Path, outfile: Path) -> None:
    """In a child process, with one tree's src on sys.path: make the inputs or run the cases."""
    os.chdir(workdir)
    if mode == "inputs":
        outfile.write_text(json.dumps(make_inputs(workdir)), encoding="utf-8")
    else:
        cases = json.loads((workdir / "cases.json").read_text(encoding="utf-8"))
        outfile.write_text(json.dumps(run_cases(cases)), encoding="utf-8")


def spawn(tree: Path, mode: str, workdir: Path, outfile: Path) -> None:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, __file__, "--child", mode, str(workdir), str(outfile)],
                          env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{mode} in {tree} exited {proc.returncode}:\n{proc.stderr[-2000:]}")


def _first_difference(a, b) -> str:
    """The first line where two outputs differ, both sides shown."""
    if not isinstance(a, str) or not isinstance(b, str):
        return f"base {a!r}, change {b!r}"
    la, lb = a.splitlines(), b.splitlines()
    i = next((i for i, (x, y) in enumerate(zip(la, lb)) if x != y), min(len(la), len(lb)))
    x = la[i] if i < len(la) else "<end>"
    y = lb[i] if i < len(lb) else "<end>"
    return f"line {i + 1}: base {x[:120]!r}, change {y[:120]!r}"


def _differing_paths(a, b, path: str) -> list:
    """The key paths, like ``residuals.mstar_max`` or ``Q[3][7]``, where two JSON values differ."""
    if isinstance(a, dict) and isinstance(b, dict):
        paths = []
        for key in sorted(a.keys() | b.keys()):
            sub = f"{path}.{key}" if path else key
            paths += _differing_paths(a[key], b[key], sub) if key in a and key in b else [sub]
        return paths
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return [p for i, (x, y) in enumerate(zip(a, b)) for p in _differing_paths(x, y, f"{path}[{i}]")]
    return [] if type(a) is type(b) and a == b else [path or "<root>"]


def _json_difference(a, b) -> str | None:
    """Where two JSON reports differ: "at " and, per key, the first differing path under it
    and how many more; None if either side does not parse or the values agree."""
    try:
        paths = _differing_paths(json.loads(a), json.loads(b), "")
    except (TypeError, ValueError):  # a side without a report, or one that does not parse
        return None
    if not paths:
        return None
    under = {}  # the path with its list indices dropped -> the paths under it
    for path in paths:
        under.setdefault(re.sub(r"\[\d+\]", "", path), []).append(path)
    return "at " + ", ".join(
        group[0] if len(group) == 1 else f"{group[0]} and {len(group) - 1} more under {key}"
        for key, group in under.items())


def compare(base: dict, change: dict) -> list:
    """One line per (case, stream) whose outputs differ."""
    lines = []
    for name in base:
        for key in ("exit", "stdout", "stderr", "json"):
            a, b = base[name][key], change[name][key]
            if a == b:
                continue
            how = _json_difference(a, b) if key == "json" else None
            lines.append(f"{name}: {key} differs {how}" if how
                         else f"{name}: {key} differs, {_first_difference(a, b)}")
    return lines


def outputs(base: Path, change: Path) -> tuple:
    """(cases run, difference lines) of the two trees."""
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as tmp:
        workdir, results = Path(tmp) / "inputs", {}
        workdir.mkdir()
        spawn(base, "inputs", workdir, workdir / "cases.json")
        for side, tree in (("base", base), ("change", change)):
            spawn(tree, "run", workdir, Path(tmp) / f"{side}.json")
            results[side] = json.loads((Path(tmp) / f"{side}.json").read_text(encoding="utf-8"))
    return len(results["base"]), compare(results["base"], results["change"])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", help="git revision or checkout directory of the reference")
    ap.add_argument("--change", type=Path, default=Path("."))
    args = ap.parse_args(argv)
    change = args.change.resolve()
    with parent_checkout(args.base, change) as base:
        count, diffs = outputs(base, change)
    for line in diffs:
        print(line)
    print(f"{len(diffs)} differences over {count} cases")
    return 1 if diffs else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        child(sys.argv[2], Path(sys.argv[3]), Path(sys.argv[4]))
    else:
        sys.exit(main())
