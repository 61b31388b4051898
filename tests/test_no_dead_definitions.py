"""No module of the package defines a private top-level name (`_name`) that
nothing in the package refers to, and no class of the package has a method or
property that nothing in the package reads: one only the tests need belongs in
`tests/`."""

import ast
from pathlib import Path

import fusionkit

PACKAGE = Path(fusionkit.__file__).resolve().parent


def _private_definitions(tree):
    """(name, line) of each top-level def, class or assignment of a `_name`."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node.lineno


def _references(tree):
    """Every name the module reads, looks up as an attribute or imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def _trees():
    return {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(PACKAGE.glob("*.py"))}


def test_every_private_definition_is_referenced():
    trees = _trees()
    used = {name for tree in trees.values() for name in _references(tree)}
    dead = [f"{module}:{line} {name}" for module, tree in trees.items()
            for name, line in _private_definitions(tree) if name not in used]
    assert dead == []


def test_every_package_method_is_read():
    trees = _trees()
    methods = {f"{cls.name}.{node.name}": node.name for tree in trees.values() for cls in ast.walk(tree)
               if isinstance(cls, ast.ClassDef) for node in cls.body
               if isinstance(node, ast.FunctionDef) and not node.name.startswith("__")}
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    assert "RootSystem.root_at" in methods
    assert sorted(qualified for qualified, name in methods.items() if name not in read) == []
