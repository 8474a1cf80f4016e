"""tools/child_rss.py on stub children that allocate a known size."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "child_rss.py"


def _measure(code: str, runs: int = 2) -> dict:
    # the tool runs in its own small interpreter: from inside pytest, its children
    # would count the pytest process's memory too
    proc = subprocess.run([sys.executable, str(TOOL), "--runs", str(runs), "--",
                           sys.executable, "-c", code], capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    assert len(lines) == runs + 2 and all(line.startswith("run ") for line in lines[:runs])
    return json.loads(lines[-1])


def test_a_known_allocation_shows_in_the_child_peak():
    base = _measure("print('to /dev/null')")
    big = _measure("b = b'x' * (48 << 20)")
    assert [r["exit"] for r in base["runs"] + big["runs"]] == [0] * 4
    assert 46 <= big["rss_mb"]["median"] - base["rss_mb"]["median"] <= 50
    assert base["floor_mb"] is None or base["floor_mb"] < 40
    assert all(r["wall_s"] > 0 for r in big["runs"])
    assert big["rss_mb"]["min"] <= big["rss_mb"]["median"] <= big["rss_mb"]["max"]


def test_exit_codes_are_reported():
    got = _measure("import sys; sys.exit(3)", runs=1)
    assert got["runs"][0]["exit"] == 3
    assert got["command"][-1] == "import sys; sys.exit(3)"
