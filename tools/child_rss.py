"""Peak RSS and wall time of one command, run as the only child of a small parent.

    PYTHONPATH=src python3 tools/child_rss.py --runs 5 -- python3 -m schemex.cli graph FILE

The command runs ``--runs`` times, one after another, with its stdout sent
to /dev/null.  Each run's exit code, peak resident set (``ru_maxrss`` from
``os.wait4``, in MB of 2**20 bytes) and wall time are printed, then their
minimum, median and maximum, and last a JSON line with every number.

On Linux a child's ``ru_maxrss`` also counts the memory of the process it
was forked from, so a reading from a large parent (such as perfbench/run.py with
numpy loaded) is at least that parent's size.  This script imports only
the standard library, so its own size, printed as the floor, stays far
below a schemex child's.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path


def run_once(argv) -> dict:
    """One run of argv: its exit code, peak RSS in MB and wall time in s."""
    start = time.perf_counter()
    pid = os.posix_spawnp(argv[0], argv, os.environ,
                          file_actions=[(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)])
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    return {"exit": os.waitstatus_to_exitcode(status), "rss_mb": usage.ru_maxrss / 1024.0,
            "wall_s": wall}


def own_peak_mb() -> float | None:
    """This process's own high-water RSS (VmHWM), where /proc gives it."""
    status = Path("/proc/self/status")
    if not status.exists():
        return None
    for line in status.read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return None


def spread(values) -> dict:
    return {"min": min(values), "median": statistics.median(values), "max": max(values)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("command", nargs="+", help="the command and its arguments, after --")
    args = ap.parse_args(argv)
    runs = []
    for i in range(1, args.runs + 1):
        runs.append(run_once(args.command))
        print(f"run {i}: exit {runs[-1]['exit']} rss {runs[-1]['rss_mb']:.2f} MB "
              f"wall {runs[-1]['wall_s']:.3f} s", flush=True)
    rss, wall = spread([r["rss_mb"] for r in runs]), spread([r["wall_s"] for r in runs])
    floor = own_peak_mb()
    print(f"rss_mb min {rss['min']:.2f} median {rss['median']:.2f} max {rss['max']:.2f}; "
          f"wall_s min {wall['min']:.3f} median {wall['median']:.3f} max {wall['max']:.3f}"
          + (f"; floor (this process) {floor:.2f} MB" if floor is not None else ""))
    print(json.dumps({"command": args.command, "runs": runs, "rss_mb": rss, "wall_s": wall,
                      "floor_mb": floor}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
