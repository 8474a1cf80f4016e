"""Every module of the package uses each name it imports, or re-exports it in ``__all__``."""

from __future__ import annotations

import ast
from pathlib import Path

import schemex

PACKAGE = Path(schemex.__file__).parent

# perfbench/spans.py traces schemex.detect.primitive_idempotents, so detect keeps the binding
ALLOWED = {("detect.py", "primitive_idempotents")}


def _unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return imported - used


def test_every_import_is_used():
    unused = {(path.name, name) for path in PACKAGE.glob("*.py") for name in _unused_imports(path)}
    assert unused <= ALLOWED, sorted(unused - ALLOWED)
