"""tools/compare_outputs.py on the working tree, against itself and against copies with one
message or two JSON values changed, and its naming of differing JSON key paths."""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

import compare_outputs  # noqa: E402


def test_the_working_tree_matches_itself(capsys):
    assert compare_outputs.main([str(ROOT), "--change", str(ROOT)]) == 0
    assert capsys.readouterr().out == "0 differences over 154 cases\n"


def test_one_changed_message_is_one_difference(tmp_path, capsys):
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    families = tmp_path / "src" / "schemex" / "families.py"
    text = families.read_text(encoding="utf-8")
    assert text.count("unknown family") == 1
    families.write_text(text.replace("unknown family", "unknown Family"), encoding="utf-8")
    assert compare_outputs.main([str(tmp_path), "--change", str(ROOT)]) == 1
    diff, count = capsys.readouterr().out.splitlines()
    assert diff.startswith("gen nosuch: stderr differs, line 1: base \"ERROR: unknown Family ")
    assert "change \"ERROR: unknown family " in diff
    assert count == "1 differences over 154 cases"


def test_a_changed_json_value_is_named_by_its_key_paths(tmp_path, capsys):
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "src" / "schemex" / "cli.py"
    text = cli.read_text(encoding="utf-8")
    for old, new in [('"pd_theta0": rep.pd_theta0,', '"pd_theta0": -rep.pd_theta0,'),
                     ('"excess": rep.excess.tolist(),', '"excess": (rep.excess + 1).tolist(),')]:
        assert text.count(old) == 1
        text = text.replace(old, new)
    cli.write_text(text, encoding="utf-8")
    assert compare_outputs.main([str(tmp_path), "--change", str(ROOT)]) == 1
    *diffs, count = capsys.readouterr().out.splitlines()
    assert diffs == [
        f"{name}: graph --json: json differs at excess[0] and {n - 1} more under excess, pd_theta0"
        for name, n in [("hamming(8, 2) relation 1", 256), ("johnson(12, 4) relation 1", 495),
                        ("rook(20x25)", 500)]]
    assert count == "3 differences over 154 cases"


def test_differing_paths():
    a = {"Q": [[1.0, 2.0], [3.0, 4.0]], "residuals": {"mstar_max": 1e-15, "pq_identity": 0.0},
         "routes": {"excess": {"l": 2}}, "gone": 1}
    b = {"Q": [[1.0, 2.5], [3.0, 4.5]], "residuals": {"mstar_max": 2e-15, "pq_identity": 0.0},
         "routes": {"excess": {"l": 2.0}}, "new": None}
    assert compare_outputs._differing_paths(a, b, "") == [
        "Q[0][1]", "Q[1][1]", "gone", "new", "residuals.mstar_max", "routes.excess.l"]
    assert compare_outputs._json_difference('{"Q": [1, 2, 3]}', '{"Q": [1, 2]}') == "at Q"
    assert compare_outputs._json_difference('{"a": 1}', '{"a":1}') is None  # bytes only
    assert compare_outputs._json_difference(None, '{"a": 1}') is None
