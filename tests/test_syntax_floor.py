"""Every module of the package parses as the oldest Python that
`pyproject.toml` admits, so `requires-python` is not a promise the code
breaks by using newer syntax."""

import ast
import re
from pathlib import Path

import pytest

import fusionkit

PACKAGE = Path(fusionkit.__file__).resolve().parent
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def _floor():
    major, minor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', PYPROJECT.read_text(), re.M).groups()
    return int(major), int(minor)


def test_feature_version_rejects_newer_syntax():
    # the check has teeth: 3.11's `except*` parses, but not as 3.10
    newer = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    ast.parse(newer)
    with pytest.raises(SyntaxError):
        ast.parse(newer, feature_version=(3, 10))


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_parses_at_the_python_floor(path):
    ast.parse(path.read_text(), str(path), feature_version=_floor())
