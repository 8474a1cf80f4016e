"""tools/compare_outputs.py on the working tree, against itself and against a copy with one
message changed."""

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
