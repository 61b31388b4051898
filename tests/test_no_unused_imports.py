"""No module of the package imports a name it never uses.  `__init__.py` is
left out: it imports names only to re-export them.  And no module imports a
process, thread or environment module, at any depth: every route runs in the
calling process, and no run reads a setting from the environment."""

import ast
from pathlib import Path

import fusionkit

PACKAGE = Path(fusionkit.__file__).resolve().parent
BARRED = {"os", "concurrent", "multiprocessing", "threading", "subprocess"}


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


def _barred_imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        yield from (f"{node.lineno} {name}" for name in names if name.partition(".")[0] in BARRED)


def test_no_module_imports_process_machinery():
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        barred = list(_barred_imports(ast.parse(path.read_text(), str(path))))
        if barred:
            found[path.name] = barred
    assert found == {}
