"""tools/compare_outputs.py on the working tree, against itself and against a copy with one
message and two JSON values changed, and its naming of differing JSON key paths."""

from __future__ import annotations

import contextlib
import io
import shutil
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

import compare_outputs  # noqa: E402


def test_the_working_tree_matches_itself(capsys):
    assert compare_outputs.main([str(ROOT), "--change", str(ROOT)]) == 0
    assert capsys.readouterr().out == "0 differences over 163 cases\n"


@pytest.fixture(scope="module")
def mutated_run(tmp_path_factory):
    """The tool's exit code and output lines on one copied tree that carries both edits, so
    one run of the tool serves both mutation tests."""
    tree = tmp_path_factory.mktemp("mutated")
    shutil.copytree(ROOT / "src", tree / "src", ignore=shutil.ignore_patterns("__pycache__"))
    edits = {"families.py": [("unknown family", "unknown Family")],
             "cli.py": [('"pd_theta0": rep.pd_theta0,', '"pd_theta0": -rep.pd_theta0,'),
                        ('"excess": rep.excess.tolist(),', '"excess": (rep.excess + 1).tolist(),')]}
    for module, pairs in edits.items():
        path = tree / "src" / "schemex" / module
        text = path.read_text(encoding="utf-8")
        for old, new in pairs:
            assert text.count(old) == 1
            text = text.replace(old, new)
        path.write_text(text, encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = compare_outputs.main([str(tree), "--change", str(ROOT)])
    return code, out.getvalue().splitlines()


def test_one_changed_message_is_one_difference(mutated_run):
    code, lines = mutated_run
    assert code == 1
    *_, message, count = lines
    assert message.startswith("gen nosuch: stderr differs, line 1: base \"ERROR: unknown Family ")
    assert "change \"ERROR: unknown family " in message
    assert count == "4 differences over 163 cases"


def test_a_changed_json_value_is_named_by_its_key_paths(mutated_run):
    code, lines = mutated_run
    assert code == 1
    *diffs, _, count = lines
    assert diffs == [
        f"{name}: graph --json: json differs at excess[0] and {n - 1} more under excess, pd_theta0"
        for name, n in [("hamming(8, 2) relation 1", 256), ("johnson(12, 4) relation 1", 495),
                        ("rook(20x25)", 500)]]
    assert count == "4 differences over 163 cases"


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
