"""Every public module-level function, class and constant of the library
has a reader outside its own definition: library code, scripts, the
benchmark harness or the acceptance suite.  A name only the unit tests
call is test code living in the library, and a constant nothing reads
is a second owner of a fact.  Every private module-level function,
class and constant and every private method has a reader in the library
or the scripts: a helper nothing calls is dead code, and so is a constant
left behind by the code that read it."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src" / "murmur").glob("*.py"))
PROGRAM = LIBRARY + sorted((ROOT / "scripts").glob("*.py"))
READERS = PROGRAM + sorted((ROOT / "perfbench").glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]


def _references(path):
    """(name, line) of each identifier, attribute and imported name in the file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name, node.lineno


def _readers(paths):
    """Each identifier of the files, mapped to the (path, line) pairs where it occurs."""
    readers = {}
    for path in paths:
        for name, line in _references(path):
            readers.setdefault(name, set()).add((path, line))
    return readers


def test_every_public_library_name_has_a_reader():
    readers = _readers(READERS)
    orphans = [
        f"{path.stem}.{node.name}"
        for path in LIBRARY
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and not readers.get(node.name, set()) - {(path, node.lineno)}
    ]
    assert orphans == []


def _constants(path):
    """(name, line) of each module-level assignment target of the file."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, name.lineno


def test_every_public_library_constant_has_a_reader():
    readers = _readers(READERS)
    orphans = [
        f"{path.stem}.{name}"
        for path in LIBRARY
        for name, line in _constants(path)
        if not name.startswith("_") and not readers.get(name, set()) - {(path, line)}
    ]
    assert orphans == []


def test_every_private_library_constant_has_a_reader_in_the_program():
    readers = _readers(PROGRAM)
    orphans = [
        f"{path.stem}.{name}"
        for path in LIBRARY
        for name, line in _constants(path)
        if name.startswith("_") and not name.endswith("__") and not readers.get(name, set()) - {(path, line)}
    ]
    assert orphans == []


def _private_definitions(path):
    """Each module-level function and class and each method of the file
    whose name starts with '_' and is not a dunder."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        members = node.body if isinstance(node, ast.ClassDef) else []
        for item in [node, *members]:
            if (
                isinstance(item, (ast.FunctionDef, ast.ClassDef))
                and item.name.startswith("_")
                and not item.name.endswith("__")
            ):
                yield item


def test_every_private_helper_has_a_reader_in_the_program():
    readers = _readers(PROGRAM)
    orphans = [
        f"{path.stem}.{node.name}"
        for path in LIBRARY
        for node in _private_definitions(path)
        if not {
            (where, line) for where, line in readers.get(node.name, ())
            if where != path or not node.lineno <= line <= node.end_lineno
        }
    ]
    assert orphans == []
