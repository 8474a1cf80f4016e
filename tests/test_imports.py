"""Every module of the package uses each name it imports, or re-exports it in ``__all__``,
every public name a module defines is read in the package, exported, or traced, no
module imports another's underscore names, no module reads an attribute p and only
scheme_core reads a scheme's kept slabs, no module generates code at import or holds an ``assert`` statement, and README's Layout names
every module."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import schemex

PACKAGE = Path(schemex.__file__).parent
SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
README = Path(__file__).resolve().parents[1] / "README.md"

# perfbench/spans.py traces these bindings by module and name, so the modules keep them
ALLOWED = {("detect.py", "primitive_idempotents"), ("graph_tools.py", "predistance_polynomials")}


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


def _traced_targets():
    """(module, attribute) of every entry of TARGETS in perfbench/spans.py, read without importing it."""
    tree = ast.parse(SPANS.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["TARGETS"]:
            return {(entry.elts[0].value, entry.elts[1].value) for entry in node.value.elts}
    raise AssertionError(f"no TARGETS in {SPANS}")


def test_every_allowed_import_is_still_traced():
    # an exception outlives its reason once the benchmark stops tracing the name
    traced = _traced_targets()
    stale = {(f, name) for f, name in ALLOWED if (f"schemex.{f.removesuffix('.py')}", name) not in traced}
    assert not stale, sorted(stale)


def _public_definitions(tree):
    """Names of the module-level public functions, classes and constants."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        yield from (name for name in names if not name.startswith("_"))


def _reads(tree):
    """Every name the module loads, bare or as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_every_public_definition_is_read_exported_or_traced():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")}
    kept = {name for tree in trees.values() for name in _reads(tree)}
    kept |= set(schemex.__all__) | {attr for _module, attr in _traced_targets()}
    dead = [(f, name) for f, tree in sorted(trees.items())
            for name in _public_definitions(tree) if name not in kept]
    assert not dead, dead


def _private_imports(tree):
    """Underscore names the module imports from another module of the package."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("schemex")):
            yield from (a.name for a in node.names if a.name.startswith("_"))


def test_no_module_imports_a_private_name_of_another():
    # a constant or helper read by two modules belongs, public, to one of them
    private = [(path.name, name) for path in sorted(PACKAGE.glob("*.py"))
               for name in _private_imports(ast.parse(path.read_text(encoding="utf-8")))]
    assert not private, private


def test_only_scheme_core_reads_the_slabs():
    # every other stage reads the intersection numbers through AssociationScheme.slab(i),
    # so any slab source with d, n, valencies and slab(i) can stand in for the scheme;
    # no module holds them as a dense (d+1)^3 array p
    readers = [(path.name, node.lineno) for path in sorted(PACKAGE.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.Attribute) and (node.attr == "p" or (
                   node.attr == "slabs" and path.name != "scheme_core.py"))]
    assert not readers, readers


def _generated_code(tree):
    """Imports and calls that build classes or code at run time: dataclasses, namedtuple,
    NamedTuple, exec and eval."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (a.name for a in node.names if a.name == "dataclasses")
        elif isinstance(node, ast.ImportFrom):
            if node.module == "dataclasses":
                yield "dataclasses"
            elif node.module in ("collections", "typing"):
                yield from (f"{node.module}.{a.name}" for a in node.names
                            if a.name in ("namedtuple", "NamedTuple"))
        elif isinstance(node, ast.Attribute) and node.attr in ("namedtuple", "NamedTuple"):
            yield node.attr
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("exec", "eval"):
            yield node.func.id


def test_no_module_generates_code_at_import():
    # every record class is written out, so importing the package compiles no generated methods
    found = [(path.name, name) for path in sorted(PACKAGE.glob("*.py"))
             for name in _generated_code(ast.parse(path.read_text(encoding="utf-8")))]
    assert not found, found



def test_no_module_holds_an_assert_statement():
    # python -O strips asserts, so a check that must hold raises an exception instead
    found = [(path.name, node.lineno) for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert not found, found


def test_readme_layout_names_every_module():
    block = README.read_text(encoding="utf-8").split("## Layout", 1)[1].split("```")[1]
    listed = [line.split()[0] for line in block.splitlines() if line.startswith("  ")]
    modules = sorted(path.name for path in PACKAGE.glob("*.py") if path.name != "__init__.py")
    assert sorted(listed) == modules

def test_the_cli_imports_no_dataclasses():
    code = "import sys, schemex.cli; print('dataclasses' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(PACKAGE.parent), *filter(None, [os.environ.get("PYTHONPATH")])]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True).stdout
    assert out == "False\n"
