"""Every definition in the package has a caller outside the tests, and every
name a module imports is read in it.

A module-level function, class or constant of src/zenon, or a function in
a class body (a method, property or classmethod; dunders are exempt),
counts as used when code (not a docstring) names it in another package
module, in its own module outside its own definition, or in one of the
program's other users: the acceptance criteria, the benchmark harness and
the scripts.  A test that alone calls a definition makes it a test oracle,
and oracles live in tests/helpers.py.  __init__.py only re-exports, so it
is not a caller, and its imports are its exports.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "zenon"
USERS = [
    ROOT / "tests" / "test_acceptance.py",
    *sorted((ROOT / "perfbench").glob("*.py")),
    *sorted((ROOT / "scripts").glob("*.py")),
]


def _modules() -> dict:
    return {
        path: ast.parse(path.read_text(), str(path))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }


def _definitions(tree: ast.Module):
    """(name, first line, last line) of each module-level def, class or
    constant, and of each non-dunder function in a module-level class body."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno, node.end_lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    member.name.startswith("__") and member.name.endswith("__")
                ):
                    yield f"{node.name}.{member.name}", member.lineno, member.end_lineno


def _references(tree: ast.Module):
    """(name, line) of each name read or attribute accessed in the code."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def unreferenced_definitions() -> list[str]:
    modules = _modules()
    outside = {name for path in USERS for name, _ in _references(ast.parse(path.read_text(), str(path)))}
    found = []
    for path, tree in modules.items():
        elsewhere = set(outside)
        for other, other_tree in modules.items():
            if other != path:
                elsewhere.update(name for name, _ in _references(other_tree))
        own = list(_references(tree))
        for qualified, first, last in _definitions(tree):
            name = qualified.rpartition(".")[2]  # a member is named by its attribute
            if name in elsewhere:
                continue
            if any(ref == name and not first <= line <= last for ref, line in own):
                continue
            found.append(f"{path.stem}.{qualified}")
    return found


def unread_imports() -> list[str]:
    """module.name of each name a package module imports and never reads."""
    found = []
    for path, tree in _modules().items():
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.partition(".")[0]
                    if bound not in read:
                        found.append(f"{path.stem}.{bound}")
    return found


def test_every_package_definition_has_a_caller_outside_the_tests():
    unused = unreferenced_definitions()
    assert not unused, f"{len(unused)} definitions with no caller outside the tests: {', '.join(unused)}"


def test_every_imported_name_is_read_in_its_module():
    unread = unread_imports()
    assert not unread, f"{len(unread)} imported names never read: {', '.join(unread)}"
