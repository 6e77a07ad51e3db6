"""Checks on the package source itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "nonarch"


def test_package_has_no_assert_statements():
    # invariants that guard exactness are explicit checks raising an error,
    # not asserts that python -O strips
    paths = sorted(SRC.glob("*.py"))
    assert paths, f"no modules found under {SRC}"
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in the package: {found}"


def test_package_imports_only_the_standard_library():
    # the runtime dependencies stay []: every absolute import is stdlib
    import sys

    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] not in sys.stdlib_module_names]
    assert not found, f"non-stdlib imports in the package: {found}"


def _private_definitions(tree):
    """(name, node) for each private name a module defines at its top level
    or in a class body: functions, classes and assigned names, dunders
    excluded."""
    bodies = [tree.body] + [node.body for node in tree.body if isinstance(node, ast.ClassDef)]
    for body in bodies:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    yield name, node


def _references(tree):
    """Every name a tree reads: loaded names, attributes and imported
    names, with the nodes they occur in."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node
        elif isinstance(node, ast.Attribute):
            yield node.attr, node
        elif isinstance(node, ast.alias):
            yield node.name, node


def test_every_private_name_in_the_package_is_used():
    # a private helper that nothing in src/ reads outside its own
    # definition is a leftover second path: each must be read somewhere
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in sorted(SRC.glob("*.py"))}
    reads = {}
    for tree in trees.values():
        for name, node in _references(tree):
            reads.setdefault(name, []).append(node)
    unused = []
    for module, tree in trees.items():
        for name, definition in _private_definitions(tree):
            own = set(map(id, ast.walk(definition)))
            if not any(id(node) not in own for node in reads.get(name, ())):
                unused.append(f"{module}: {name}")
    assert not unused, f"private names that nothing in the package reads: {unused}"
