"""Every top-level function and class of ``src/attraos`` has a caller.

A caller is a code reference to the name (an ``ast.Name`` or the attribute of
an ``ast.Attribute``) in ``src/attraos`` outside the name's own definition,
and for a public name also in ``scripts/``, in ``perfbench/`` (not its tests)
or in the acceptance suite ``tests/test_acceptance.py``; a private name
(leading underscore) needs a caller in ``src/attraos``.  A name's own unit
tests do not count, and neither do re-exports: an import or an ``__all__``
string is not a reference.  Names are matched without their module, so a
name shared by two modules counts as called when either is.

Only top-level ``def`` and ``class`` statements are checked; methods,
dataclass fields, parameters and module constants are out of scope.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = ROOT / "src" / "attraos"

# name -> why it stays without a caller
ALLOWED = {
    "tree_schedule": "test_scan's schedule-replay oracle replays this documented "
    "composition order against blelloch_scan",
    "scan_composition_count": "test_scan's work-bound test checks blelloch_scan's "
    "composition count against it",
}


def definitions(tree, private: bool):
    return [
        node for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_") == private
    ]


def referenced_names(node):
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def library_references():
    refs = set()
    for path in LIBRARY.glob("*.py"):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            own = getattr(stmt, "name", None)
            refs |= referenced_names(stmt) - {own}
    return refs


def caller_references():
    refs = library_references()
    others = [*(ROOT / "scripts").glob("*.py"), *(ROOT / "perfbench").glob("*.py"),
              ROOT / "tests" / "test_acceptance.py"]
    for path in others:
        refs |= referenced_names(ast.parse(path.read_text(encoding="utf-8")))
    return refs


def uncalled(private: bool, refs):
    return {
        f"{path.stem}.{node.name}"
        for path in LIBRARY.glob("*.py")
        for node in definitions(ast.parse(path.read_text(encoding="utf-8")), private)
        if node.name not in refs
    }


def test_every_public_name_has_a_caller():
    assert uncalled(False, caller_references()) == {f"scan.{name}" for name in ALLOWED}


def test_every_private_name_has_a_library_caller():
    assert uncalled(True, library_references()) == set()
