"""tools/stage_costs.py: one real round on this checkout, and the alternation on a stub."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import stage_costs  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def test_one_round_times_every_stage_of_both_trees(monkeypatch, capsys):
    monkeypatch.setattr(stage_costs, "ROUNDS", 1)
    monkeypatch.setattr(stage_costs, "PASSES", 1)
    assert stage_costs.main([str(ROOT), "--change", str(ROOT)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines[2:-1]] == [
        name.split()[0] for name, _ in stage_costs.STAGES]
    got = json.loads(lines[-1])
    assert (got["rounds"], got["passes"]) == (1, 1)
    for side in ("parent", "change"):
        assert list(got["us"][side]) == [name for name, _ in stage_costs.STAGES]
        assert all(us > 0 for us in got["us"][side].values()), side
        # one round has one corpus mean a stage, so no spread
        assert got["spread_us"][side] == dict.fromkeys(got["us"][side], 0.0), side


def test_rounds_alternate_and_keep_each_schemes_minimum(monkeypatch, tmp_path):
    calls = []

    def run_tree(tree, passes):
        calls.append(tree.name)
        t = len(calls) * 1e-6  # later runs are slower, except one scheme of the third
        return {"M*": [t, 1e-6 if len(calls) == 3 else t]}

    monkeypatch.setattr(stage_costs, "run_tree", run_tree)
    costs, spread = stage_costs.stage_costs(tmp_path / "parent", tmp_path / "change", 3, 5)
    assert calls == ["parent", "change", "change", "parent", "parent", "change"]
    assert costs == {"parent": {"M*": pytest.approx(1.0)}, "change": {"M*": pytest.approx(1.5)}}
    # the rounds' corpus means: parent 1, 4, 5 us; change 2, (3 + 1) / 2, 6 us
    assert spread == {"parent": {"M*": pytest.approx(4.0)}, "change": {"M*": pytest.approx(4.0)}}
