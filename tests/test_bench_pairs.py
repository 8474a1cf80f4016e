"""tools/bench_pairs.py against a stub benchmark command in two throwaway checkouts."""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import bench_pairs  # noqa: E402

STUB = """\
import json, os, sys
from pathlib import Path
log = Path(sys.argv[0]).resolve().parent.parent / "calls.log"
calls = log.read_text().splitlines() if log.exists() else []
log.write_text("\\n".join(calls + [" ".join([NAME, *sys.argv[1:]])]) + "\\n")
with open(log.with_name("env.log"), "a") as fh:
    flag = os.environ.get("PYTHONDONTWRITEBYTECODE")
    print(NAME, flag, len(list(Path("src").rglob("__pycache__"))), file=fh)
# the level, plus a drift, scaled by 1 - noise, 1 or 1 + noise in turn
v = ({level} + 0.01 * len(calls)) * (1 + {noise} * (len(calls) % 3 - 1))
print("report line")
print(json.dumps({{"metrics": {{"verdict_s": {{"value": v, "unit": "s"}},
                                "pass_frac": {{"value": 1.0, "unit": "fraction"}}}}}}))
"""


def _checkout(root: Path, name: str, level: float, noise: float = 0.0) -> Path:
    d = root / name
    (d / "src" / "pkg" / "__pycache__").mkdir(parents=True)
    (d / "src" / "pkg" / "__pycache__" / "mod.cpython-311.pyc").write_bytes(b"stale")
    (d / "stub.py").write_text(f"NAME = {name!r}\n" + STUB.format(level=level, noise=noise))
    (d / "BENCHMARK.json").write_text(json.dumps({
        "command": [sys.executable, "stub.py"],
        "end_to_end": [{"name": "verdict_s", "better": "lower", "bound": 0.25},
                       {"name": "pass_frac", "better": "higher", "bound": 0.02}],
    }))
    return d


def test_pairs_alternate_and_the_rule_is_applied(tmp_path, capsys):
    base = _checkout(tmp_path, "parent", level=2.0)
    change = _checkout(tmp_path, "change", level=1.0)
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
    assert "unresolved" not in verdict and "unresolved" not in pass_frac
    # every run compiles from source: no bytecode cache read, none written
    assert set((tmp_path / "env.log").read_text().splitlines()) == {"parent 1 0", "change 1 0"}


def test_a_slower_change_exceeds_the_bound(tmp_path, capsys):
    base = _checkout(tmp_path, "parent", level=1.0)
    change = _checkout(tmp_path, "change", level=2.0)
    bench_pairs.main([str(base), "--change", str(change), "--workload", "cli",
                      "--seed", "1", "--pairs", "2", "--seconds", "1"])
    verdict = capsys.readouterr().out.splitlines()[2]
    assert "change wins 0/2" in verdict and "EXCEEDED" in verdict


def _verdict_line(tmp_path, capsys, parent: tuple, change: tuple) -> str:
    base = _checkout(tmp_path, "parent", *parent)
    change = _checkout(tmp_path, "change", *change)
    bench_pairs.main([str(base), "--change", str(change), "--workload", "cli",
                      "--seed", "1", "--pairs", "4", "--seconds", "1"])
    return capsys.readouterr().out.splitlines()[4]


def test_a_noisy_parent_leaves_the_metric_unresolved(tmp_path, capsys):
    # parent runs 1.0, 1.015, 2.04 and 2.07: a spread of 68% against a 25% bound,
    # and its fastest run beats every change run
    verdict = _verdict_line(tmp_path, capsys, parent=(2.0, 0.5), change=(1.0,))
    assert verdict.startswith("verdict_s: parent median 1.5275")
    assert "unresolved: parent spread 67.8%" in verdict


def test_a_change_beating_every_noisy_parent_run_is_resolved(tmp_path, capsys):
    verdict = _verdict_line(tmp_path, capsys, parent=(2.0, 0.5), change=(0.5,))
    assert "change wins 4/4" in verdict and "unresolved" not in verdict
