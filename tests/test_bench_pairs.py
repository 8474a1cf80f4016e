"""tools/bench_pairs.py against a stub benchmark command in two throwaway checkouts."""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import bench_pairs  # noqa: E402

STUB = """\
import json, sys
from pathlib import Path
log = Path(sys.argv[0]).resolve().parent.parent / "calls.log"
calls = log.read_text().splitlines() if log.exists() else []
log.write_text("\\n".join(calls + [" ".join([NAME, *sys.argv[1:]])]) + "\\n")
fast = {fast}
v = (1.0 if fast else 2.0) + 0.01 * len(calls)
print("report line")
print(json.dumps({{"metrics": {{"verdict_s": {{"value": v, "unit": "s"}},
                                "pass_frac": {{"value": 1.0, "unit": "fraction"}}}}}}))
"""


def _checkout(root: Path, name: str, fast: bool) -> Path:
    d = root / name
    d.mkdir()
    (d / "stub.py").write_text(f"NAME = {name!r}\n" + STUB.format(fast=fast))
    (d / "BENCHMARK.json").write_text(json.dumps({
        "command": [sys.executable, "stub.py"],
        "end_to_end": [{"name": "verdict_s", "better": "lower", "bound": 0.25},
                       {"name": "pass_frac", "better": "higher", "bound": 0.02}],
    }))
    return d


def test_pairs_alternate_and_the_rule_is_applied(tmp_path, capsys):
    base = _checkout(tmp_path, "parent", fast=False)
    change = _checkout(tmp_path, "change", fast=True)
    assert bench_pairs.main([str(base), "--change", str(change), "--workload", "corpus",
                             "--seed", "3", "--pairs", "4", "--seconds", "1"]) == 0
    out = capsys.readouterr().out.splitlines()
    args = " --workload corpus --seed 3 --seconds 1.0 --trace 0"
    assert (tmp_path / "calls.log").read_text().splitlines() == [
        side + args for side in
        ("parent", "change", "change", "parent", "parent", "change", "change", "parent")]
    assert [line.split(":")[0] for line in out[:4]] == [
        "pair 1 (parent first)", "pair 2 (change first)",
        "pair 3 (parent first)", "pair 4 (change first)"]
    verdict, pass_frac = out[4], out[5]
    assert verdict.startswith("verdict_s: parent median 2.0")
    assert "change wins 4/4" in verdict and "gain claimable" in verdict
    assert "EXCEEDED" not in verdict
    assert "change wins 0/4" in pass_frac and "gain not claimable" in pass_frac


def test_a_slower_change_exceeds_the_bound(tmp_path, capsys):
    base = _checkout(tmp_path, "parent", fast=True)
    change = _checkout(tmp_path, "change", fast=False)
    bench_pairs.main([str(base), "--change", str(change), "--workload", "cli",
                      "--seed", "1", "--pairs", "2", "--seconds", "1"])
    verdict = capsys.readouterr().out.splitlines()[2]
    assert "change wins 0/2" in verdict and "EXCEEDED" in verdict
