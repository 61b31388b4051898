"""A one-shot command loads only the modules it runs.  Each case runs in a
fresh interpreter with this one's -O setting and lists the modules that
`import fusionkit`, and then the command, added to `sys.modules`: the package
alone loads no submodule, `fuse` and `tadpole` load no table, no sweep, no
`dataclasses` and no `json`, and each loads no route it does not run; `fuse`
reads integers only, so it loads no `fractions` (nor its `decimal` and
`numbers`).  No module of the package imports `dataclasses` or `typing`, or
`json` at module level: that is read from the source, as a site hook may load
them before the package.  The parser's choices are literals, so they are
pinned here to the modules the parser no longer loads."""

import argparse
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fusionkit
import fusionkit.cli as cli
from fusionkit import tables, verify

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = Path(fusionkit.__file__).resolve().parent
# run in the child: the exit code of the command (None without one) and the modules loaded
PROBE = """
import sys
before = set(sys.modules)
import fusionkit
code = None
if sys.argv[1:]:
    import fusionkit.cli
    code = fusionkit.cli.main(sys.argv[1:])
print(repr((code, sorted(set(sys.modules) - before))))
"""
NEVER = {"dataclasses", "json", "fusionkit.tables", "fusionkit.verify"}


def _loaded(*argv):
    """The exit code and the modules loaded by one call in a fresh interpreter."""
    proc = subprocess.run([sys.executable, *["-O"] * sys.flags.optimize, "-c", PROBE, *argv],
                          capture_output=True, text=True, timeout=60, check=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)))
    code, modules = ast.literal_eval(proc.stdout.splitlines()[-1])
    return code, set(modules)


def test_importing_the_package_loads_no_submodule():
    _, modules = _loaded()
    assert "fusionkit" in modules
    assert sorted(m for m in modules if m.startswith("fusionkit.")) == []


@pytest.mark.parametrize("method,other", [("rules", "fusionkit.oracle"), ("oracle", "fusionkit.adjoint_rules")])
def test_fuse_loads_only_its_route(method, other):
    code, modules = _loaded("fuse", "G2", "--weight", "1,0", "--level", "3", "--method", method)
    assert code == 0
    assert modules & (NEVER | {"fusionkit.tadpole", other, "fractions", "decimal", "numbers"}) == set()


def test_tadpole_loads_no_table_no_sweep_and_no_oracle():
    code, modules = _loaded("tadpole", "E7", "--level", "9", "--method", "enum")
    assert (code, "fusionkit.tadpole" in modules) == (0, True)
    assert modules & (NEVER | {"fusionkit.oracle"}) == set()


def test_tadpole_closed_form_loads_no_fractions():
    # the E6 rows are integer literals, the classical branches binomials over small
    # integers, and only a refused remainder loads `fractions`
    for args in (("E6", "--level", "20"), ("B50", "--level", "200"), ("D30", "--level", "201", "--zero")):
        code, modules = _loaded("tadpole", *args)
        assert (code, "fusionkit.tadpole" in modules) == (0, True), args
        assert modules & {"fractions", "decimal", "numbers"} == set(), args


def _imports(nodes):
    for node in nodes:
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module.partition(".")[0]


def test_no_module_imports_dataclasses_typing_or_json():
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        barred = {m for m in _imports(ast.walk(tree)) if m in ("dataclasses", "typing")}
        barred |= {m for m in _imports(tree.body) if m == "json"}
        if barred:
            found[path.name] = sorted(barred)
    assert found == {}


def _choices(command, dest):
    parser = cli._build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    return next(a.choices for a in commands[command]._actions if a.dest == dest)


def test_parser_choices_match_the_modules():
    assert _choices("table", "name") == tuple(tables.TABLES)
    assert _choices("verify", "suite") == ("all",) + verify.ALL_SUITES
