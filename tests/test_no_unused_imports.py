"""No module of the package imports a name it never uses.  `__init__.py` is
left out: it imports names only to re-export them."""

import ast
from pathlib import Path

import fusionkit

PACKAGE = Path(fusionkit.__file__).resolve().parent


def _unused_imports(tree):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_every_imported_name_is_used():
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "__init__.py":
            unused = _unused_imports(ast.parse(path.read_text(), str(path)))
            if unused:
                found[path.name] = unused
    assert found == {}
