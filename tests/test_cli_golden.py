"""Golden CLI transcripts: (argv, exit code, stdout, stderr), byte for byte.

Every subcommand in text and `--json`, every `--method`, every table with and
without `--check`, and inputs that exit 2, 3 and 5.  `python
tests/test_cli_golden.py` (with `src` on PYTHONPATH) records the transcripts
into `cli_golden.json`; a change to them is a change to the CLI's output.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

import fusionkit.cli as cli

GOLDEN = Path(__file__).with_name("cli_golden.json")


def _matrix():
    cases = []
    for tail in (("--level", "2"), ("--tensor",)):
        for method in ("rules", "oracle"):
            for json_flag in ((), ("--json",)):
                cases.append(("fuse", "A2", "--weight", "1,1", *tail, "--method", method, *json_flag))
    cases += [
        ("fuse", "G2", "--weight", "1,0", "--level", "3"),
        ("fuse", "B3", "--weight", "1,0,1", "--tensor", "--method", "oracle", "--json"),
        ("fuse", "A2", "--weight", "1,1"),
        ("fuse", "Q9", "--weight", "1", "--level", "2"),
        ("fuse", "A2", "--weight", "1", "--level", "3"),
        ("fuse", "A2", "--weight=-1,0", "--level", "3"),
        ("fuse", "A2", "--weight", "one,two", "--level", "3", "--json"),
        ("fuse", "A2", "--weight", "2,2", "--level", "2"),
        ("fuse", "A2", "--weight", "0,0", "--level", "1", "--method", "oracle", "--json"),
        ("fuse", "A2", "--weight", "1,1", "--tensor", "--level", "1"),
    ]
    for kind in ((), ("--zero",)):
        for method in ("formula", "enum", "oracle", "all"):
            for json_flag in ((), ("--json",)):
                cases.append(("tadpole", "B4", "--level", "7", *kind, "--method", method, *json_flag))
                cases.append(("tadpole", "G2", "--level", "4", *kind, "--method", method, *json_flag))
            cases.append(("tadpole", "A2", "--level", "-1", *kind, "--method", method))
            cases.append(("tadpole", "A2", "--level", "1", *kind, "--method", method))
    cases += [
        ("tadpole", "E7", "--level", "5"),
        ("tadpole", "E7", "--level", "5", "--json"),
        ("tadpole", "A3", "--level", "4", "--zero"),
    ]
    for name in ("b-tadpoles", "g2-offdiag", "nontrivial"):
        for check in ((), ("--check",)):
            for json_flag in ((), ("--json",)):
                cases.append(("table", name, *check, *json_flag))
    for algebra in ("G2", "A3", "B5"):
        for json_flag in ((), ("--json",)):
            cases.append(("table", "nontrivial", "--algebra", algebra, *json_flag))
    cases.append(("table", "b-tadpoles", "--check", "--algebra", "Q9"))
    cases += [
        ("verify", "--max-rank", "2", "--max-level", "3"),
        ("verify", "--max-rank", "2", "--max-level", "3", "--json"),
        ("verify", "--max-rank", "1", "--max-level", "2", "--suite", "tadpole", "--json"),
        ("verify", "--max-rank", "0"),
        ("verify", "--max-rank", "1", "--max-level", "-3"),
        ("verify", "--max-rank", "1", "--max-level", "1", "--suite", "rules", "--json"),
    ]
    return [list(argv) for argv in cases]


MATRIX = _matrix()


def _key(argv):
    return " ".join(argv)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_matrix_is_recorded(golden):
    assert sorted(golden) == sorted(_key(argv) for argv in MATRIX)
    assert {record["exit"] for record in golden.values()} == {0, 2, 3, 5}


@pytest.mark.parametrize("argv", MATRIX, ids=_key)
def test_transcript(capsys, golden, argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    assert {"exit": rc, "stdout": captured.out, "stderr": captured.err} == golden[_key(argv)]


def _record():
    out = {}
    for argv in MATRIX:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = cli.main(list(argv))
        out[_key(argv)] = {"exit": rc, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}
    GOLDEN.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    _record()
