"""The library is what the commands call.

Starting from cli.py, the walk follows every name (``ast.Name`` ids and
``ast.Attribute`` attrs) into the bodies of the definitions of that name
across ``src/rainbow_lab``, and from those bodies on.  Every module-level
function, class and constant, private ones included, and every method but
the dunders must be reached, and so must every name ``__init__.py``
exports: a definition that only the tests call belongs in the tests.
Names are matched without their module or class, so a name that two
places define reaches both; that errs towards passing, never towards a
false failure.
"""

import ast
from pathlib import Path

PKG = Path(__file__).resolve().parent.parent / "src" / "rainbow_lab"


def _parse(name: str) -> ast.Module:
    return ast.parse((PKG / name).read_text())


def _definitions() -> dict:
    """name -> [(where, node)] for every module-level function, class and
    constant of the package outside cli.py, and for every method but the
    dunders, which Python calls itself."""
    defs = {}
    for path in sorted(PKG.glob("*.py")):
        if path.name == "cli.py":
            continue
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                found = [(node.name, path.stem, node)]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                found = [(t.id, path.stem, node) for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            if isinstance(node, ast.ClassDef):
                found += [(m.name, f"{path.stem}.{node.name}", m) for m in node.body
                          if isinstance(m, ast.FunctionDef) and not m.name.startswith("__")]
            for name, where, definition in found:
                defs.setdefault(name, []).append((where, definition))
    return defs


def _names(node) -> set:
    return ({n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)})


def _reached(defs: dict) -> set:
    """The names reached from cli.py through the definitions' bodies."""
    seen, todo = set(), _names(_parse("cli.py"))
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for _, node in defs.get(name, ()):
            todo |= _names(node) - seen
    return seen


def test_every_definition_is_reached_from_the_commands():
    defs = _definitions()
    reached = _reached(defs)
    unreached = sorted(f"{where}.{name}" for name, found in defs.items()
                       for where, _ in found if name not in reached)
    assert unreached == []


def test_every_export_is_reached_from_the_commands():
    reached = _reached(_definitions())
    exports = {alias.asname or alias.name for node in _parse("__init__.py").body
               if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert sorted(exports - reached) == []


def test_fitting_depends_on_numpy_and_scipy_alone():
    imports = set()
    for node in ast.walk(_parse("fitting.py")):
        if isinstance(node, ast.ImportFrom):
            imports.add("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            imports |= {alias.name for alias in node.names}
    assert imports <= {"__future__", "dataclasses", "numpy", "._lapack"}
