"""README examples, executed: every `$ fusionkit ...` line under `## Command
line` is run through `cli.main` and its stdout compared with the lines printed
under it, and the `## Library` snippet is run as written."""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

import fusionkit.cli as cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _section(title):
    return re.search(rf"^## {title}\n(.*?)(?=^## |\Z)", README, re.M | re.S).group(1)


def _blocks(text):
    return re.findall(r"^```[a-z]*\n(.*?)^```", text, re.M | re.S)


def _cli_examples():
    examples = []
    for block in _blocks(_section("Command line")):
        for chunk in re.split(r"^(?=\$ )", block, flags=re.M):
            if chunk.startswith("$ fusionkit "):
                command, _, output = chunk.partition("\n")
                examples.append((shlex.split(command)[2:], output.strip("\n") + "\n"))
    return examples


EXAMPLES = _cli_examples()


def test_every_subcommand_has_an_example():
    assert {"fuse", "tadpole", "table", "verify"} <= {argv[0] for argv, _ in EXAMPLES}


@pytest.mark.parametrize("argv,expected", EXAMPLES, ids=[" ".join(argv) for argv, _ in EXAMPLES])
def test_cli_example(capsys, argv, expected):
    rc = cli.main(argv)
    assert (rc, capsys.readouterr().out) == (0, expected)


def test_library_example():
    (snippet,) = _blocks(_section("Library"))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(snippet, {})
    assert out.getvalue().splitlines()[-1] == "114"
