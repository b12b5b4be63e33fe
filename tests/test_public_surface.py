"""Every top-level function and class of ``src/attraos`` has a caller, and
every dataclass field and property of a top-level class has a reader.

A caller is a code reference to the name (an ``ast.Name`` or the attribute of
an ``ast.Attribute``) in ``src/attraos`` outside the name's own definition,
and for a public name also in ``scripts/``, in ``perfbench/`` (not its tests)
or in the acceptance suite ``tests/test_acceptance.py``; a private name
(leading underscore) needs a caller in ``src/attraos``.  A name's own unit
tests do not count, and neither do re-exports: an import or an ``__all__``
string is not a reference.  Names are matched without their module, so a
name shared by two modules counts as called when either is.

A reader of a field or property is an attribute load of its name in
``src/attraos`` outside its own class, or anywhere in the files a public
name's caller may sit in.  Names are matched without their class, and a
constructor argument is not a reader: a value stored that nothing reads
restates what its producer already knows.

A module-level name that an assignment binds (``__all__`` aside) needs a
reader: a load of the name (an ``ast.Name`` or the attribute of an
``ast.Attribute``) in ``src/attraos``, or for a public name also in the
files a public name's caller may sit in.  A constant nobody reads states a
rule the code does not follow.

Only top-level ``def`` and ``class`` statements, dataclass fields,
properties and module-level assignments are checked; methods, parameters
and attributes that methods set on instances are out of scope.  Matched by
name alone, such an attribute would hide behind any other reader of its
name: an unread ``LegendreBasis.order`` would count as read through
``ShapeInfo.order``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = ROOT / "src" / "attraos"

# Class.member -> why it stays without a reader
UNREAD_ALLOWED = {
    "SsmParams.variant": "the acceptance suite constructs SsmParams with it, and "
    "that suite is the fixed oracle",
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


def caller_files():
    """Files outside the library whose references count as callers."""
    return [*(ROOT / "scripts").glob("*.py"), *(ROOT / "perfbench").glob("*.py"),
            ROOT / "tests" / "test_acceptance.py"]


def caller_references():
    refs = library_references()
    for path in caller_files():
        refs |= referenced_names(ast.parse(path.read_text(encoding="utf-8")))
    return refs


def uncalled(private: bool, refs):
    return {
        f"{path.stem}.{node.name}"
        for path in LIBRARY.glob("*.py")
        for node in definitions(ast.parse(path.read_text(encoding="utf-8")), private)
        if node.name not in refs
    }


def decorator_name(node):
    node = node.func if isinstance(node, ast.Call) else node
    return node.attr if isinstance(node, ast.Attribute) else node.id


def members(cls):
    """Dataclass fields and properties declared in a class statement."""
    fields = "dataclass" in map(decorator_name, cls.decorator_list)
    for stmt in cls.body:
        if fields and isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            yield stmt.target.id
        elif (isinstance(stmt, ast.FunctionDef)
              and "property" in map(decorator_name, stmt.decorator_list)):
            yield stmt.name


def attribute_loads(node):
    return {
        sub.attr for sub in ast.walk(node)
        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)
    }


def unread_members():
    outside = set()
    for path in caller_files():
        outside |= attribute_loads(ast.parse(path.read_text(encoding="utf-8")))
    library = [stmt for path in LIBRARY.glob("*.py")
               for stmt in ast.parse(path.read_text(encoding="utf-8")).body]
    loads = [attribute_loads(stmt) for stmt in library]
    unread = set()
    for cls in library:
        if isinstance(cls, ast.ClassDef):
            readers = outside.union(*(names for stmt, names in zip(library, loads)
                                      if stmt is not cls))
            unread |= {f"{cls.name}.{m}" for m in members(cls) if m not in readers}
    return unread


def module_constants(tree):
    """Names a module-level assignment binds, ``__all__`` aside."""
    targets = [t for stmt in tree.body if isinstance(stmt, ast.Assign) for t in stmt.targets]
    targets += [stmt.target for stmt in tree.body if isinstance(stmt, ast.AnnAssign)]
    names = {sub.id for t in targets for sub in ast.walk(t) if isinstance(sub, ast.Name)}
    return names - {"__all__"}


def name_loads(node):
    return attribute_loads(node) | {
        sub.id for sub in ast.walk(node)
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
    }


def unread_constants():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in LIBRARY.glob("*.py")}
    library = set().union(*map(name_loads, trees.values()))
    outside = library.union(*(name_loads(ast.parse(path.read_text(encoding="utf-8")))
                              for path in caller_files()))
    return {
        f"{stem}.{name}"
        for stem, tree in trees.items()
        for name in module_constants(tree)
        if name not in (library if name.startswith("_") else outside)
    }


def test_every_public_name_has_a_caller():
    assert uncalled(False, caller_references()) == set()


def test_every_private_name_has_a_library_caller():
    assert uncalled(True, library_references()) == set()


def test_every_field_and_property_has_a_reader():
    assert unread_members() == set(UNREAD_ALLOWED)


def test_every_module_constant_has_a_reader():
    assert unread_constants() == set()
