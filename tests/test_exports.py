"""Every name the package exports resolves, and none is listed twice; every
name README's library section cites resolves too."""

import importlib
import pkgutil
import re
from pathlib import Path

import fusionkit
from fusionkit import RootSystem

README = Path(__file__).resolve().parents[1] / "README.md"
# the two fields of a `tables.TABLES` entry, which README names as words
TABLE_FIELDS = {"check", "show"}
MODULES = [fusionkit] + [importlib.import_module(f"fusionkit.{m.name}")
                         for m in pkgutil.iter_modules(fusionkit.__path__)]


def test_all_names_resolve_once():
    assert [name for name in fusionkit.__all__ if not hasattr(fusionkit, name)] == []
    assert len(set(fusionkit.__all__)) == len(fusionkit.__all__)


def _library_names():
    """The backticked identifiers of README's `## Library` section, call
    arguments dropped; spans that are paths, commands or patterns are skipped."""
    section = README.read_text().split("\n## Library", 1)[1].split("\n## ", 1)[0]
    section = re.sub(r"```.*?```", "", section, flags=re.S)
    for span in re.findall(r"`([^`]+)`", section):
        name = re.sub(r"\(.*\)$", "", span, flags=re.S)
        if re.fullmatch(r"[A-Za-z_]\w*(\.\w+)*", name):
            yield name


def _resolves(name: str) -> bool:
    head, *rest = name.split(".")
    if head == "fusionkit":
        try:
            importlib.import_module(name)
            return True
        except ModuleNotFoundError:
            module, _, attr = name.rpartition(".")
            return hasattr(importlib.import_module(module), attr)
    if head == "rs":
        obj = RootSystem
    else:
        obj = next((getattr(m, head) for m in MODULES if hasattr(m, head)), None)
    for attr in rest:
        obj = getattr(obj, attr, None)
    return obj is not None


def test_readme_library_names_resolve():
    names = set(_library_names()) - TABLE_FIELDS
    assert len(names) > 20
    assert sorted(name for name in names if not _resolves(name)) == []
