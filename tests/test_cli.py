import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import fusionkit.cli as cli
import fusionkit.tables
import fusionkit.tadpole
from fusionkit import (
    AlgebraMismatch,
    FusionError,
    InvalidRank,
    LevelMismatch,
    LevelTooSmall,
    NoClosedForm,
    NotARoot,
    run_verify,
)
from fusionkit.verify import ALL_SUITES


def run(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_fuse_a1_fusion(capsys):
    rc, out, _ = run(capsys, "fuse", "A1", "--weight", "2", "--level", "3")
    assert rc == 0
    assert out.splitlines() == ["0: 1", "2: 1"]


def test_fuse_a1_tensor(capsys):
    rc, out, _ = run(capsys, "fuse", "A1", "--weight", "2", "--tensor")
    assert rc == 0
    assert out.splitlines() == ["0: 1", "2: 1", "4: 1"]


def test_fuse_a2_fusion_json(capsys):
    rc, out, _ = run(capsys, "fuse", "A2", "--weight", "1,1", "--level", "2", "--json")
    assert rc == 0
    record = json.loads(out)
    assert record["algebra"] == "A2"
    assert record["level"] == 2
    assert record["entries"] == {"0,0": 1, "1,1": 1}


def test_fuse_oracle_method_agrees(capsys):
    rc_r, out_r, _ = run(capsys, "fuse", "G2", "--weight", "1,0", "--level", "3")
    rc_o, out_o, _ = run(capsys, "fuse", "G2", "--weight", "1,0", "--level", "3", "--method", "oracle")
    assert rc_r == rc_o == 0
    assert out_r == out_o


@pytest.mark.parametrize("argv", [
    ("fuse", "Q9", "--weight", "1", "--level", "2"),
    ("fuse", "A2", "--weight", "1", "--level", "3"),
    ("fuse", "A2", "--weight", "-1,0", "--level", "3"),
    ("fuse", "A2", "--weight", "1,1"),
    ("fuse", "A2", "--weight", "one,two", "--level", "3"),
    ("table", "nontrivial"),
    ("bogus",),
    # integers are ASCII digits with an optional leading '-', nothing else int() reads
    ("fuse", "A2", "--weight", "1_0,1", "--level", "30"),
    ("fuse", "A2", "--weight", "1,1", "--level", "1_0"),
    ("tadpole", "A1_0", "--level", "4", "--zero"),
    ("tadpole", "A+3", "--level", "4"),
    ("tadpole", "E 8", "--level", "4"),
    ("tadpole", "A\u0663", "--level", "4"),
    ("tadpole", "A3", "--level", "+4"),
    ("tadpole", "A3", "--level", "\u0664"),
    ("verify", "--max-rank", "1_0"),
    ("verify", "--max-level", "+3"),
])
def test_usage_errors(capsys, argv):
    rc, _, _ = run(capsys, *argv)
    assert rc == 2


def test_help_exits_clean(capsys):
    assert run(capsys, "--help")[0] == 0


def test_level_errors(capsys):
    rc, _, err = run(capsys, "fuse", "A2", "--weight", "2,2", "--level", "2")
    assert rc == 3 and "error:" in err
    rc, _, err = run(capsys, "tadpole", "A2", "--level", "1")
    assert rc == 3
    # G2 has no closed form: the level guard still comes first, whatever the method
    for algebra in ("A2", "G2"):
        for kind, noun in (((), f"adjoint tadpole[{algebra}] needs level >= 2"),
                           (("--zero",), f"vacuum tadpole[{algebra}] needs level >= 0")):
            for method in ("formula", "enum", "oracle", "all"):
                rc, out, err = run(capsys, "tadpole", algebra, "--level", "-1", *kind, "--method", method)
                assert (rc, out) == (3, ""), (algebra, method)
                assert err == f"error: {noun}, got -1\n", (algebra, method)


@pytest.mark.parametrize("argv", [
    ("fuse", "A2", "--weight", "1,1", "--tensor", "--level", "1"),
    ("fuse", "A2", "--weight", "1,1", "--tensor", "--level", "4", "--method", "oracle"),
    ("table", "b-tadpoles", "--check", "--algebra", "Q9"),
    ("table", "g2-offdiag", "--algebra", "G2"),
    ("table", "nontrivial", "--check", "--algebra", "A3", "--json"),
])
def test_unused_options_refused(capsys, argv):
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_tadpole_value(capsys):
    rc, out, _ = run(capsys, "tadpole", "B4", "--level", "7")
    assert rc == 0
    assert out.strip() == "220"


def test_tadpole_all_methods(capsys):
    rc, out, _ = run(capsys, "tadpole", "B4", "--level", "7", "--method", "all")
    assert rc == 0
    assert out.splitlines() == ["formula: 220", "enumeration: 220"]


def test_tadpole_zero(capsys):
    rc, out, _ = run(capsys, "tadpole", "A3", "--level", "4", "--zero")
    assert rc == 0
    assert out.strip() == "35"


def test_tadpole_no_closed_form(capsys):
    rc, _, err = run(capsys, "tadpole", "E7", "--level", "5")
    assert rc == 5 and "error:" in err


def test_tadpole_all_without_closed_form(capsys):
    rc, out, _ = run(capsys, "tadpole", "G2", "--level", "4", "--method", "all")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "formula: unavailable (no closed form)"
    assert lines[1].startswith("enumeration: ")


def test_tadpole_oracle_method(capsys):
    rc, out, _ = run(capsys, "tadpole", "A2", "--level", "3", "--method", "oracle")
    assert rc == 0
    rc2, out2, _ = run(capsys, "tadpole", "A2", "--level", "3", "--method", "enum")
    assert rc2 == 0 and out == out2


def test_zero_tadpole_oracle_counts_the_weights(capsys, monkeypatch):
    # Tr N_0 = |P_k|: the oracle lists the weights and never reads the counting array
    monkeypatch.setattr(fusionkit.tadpole, "_vacuum_counts", lambda rs, level: [7] * (level + 1))
    assert run(capsys, "tadpole", "A3", "--level", "4", "--zero", "--method", "enum")[:2] == (0, "7\n")
    assert run(capsys, "tadpole", "A3", "--level", "4", "--zero", "--method", "oracle")[:2] == (0, "35\n")


def test_tadpole_json(capsys):
    rc, out, _ = run(capsys, "tadpole", "B3", "--level", "5", "--json")
    record = json.loads(out)
    assert rc == 0
    assert record == {"command": "tadpole", "algebra": "B3", "level": 5,
                      "kind": "adjoint", "method": "formula", "value": 45}


def _refuse_build(algebra):
    raise RuntimeError(f"build({algebra}) called")


def test_tadpole_formula_builds_no_root_system(capsys, monkeypatch):
    # the closed form reads only the algebra name; building B50 alone takes most of a second
    monkeypatch.setattr(fusionkit.tadpole, "build", _refuse_build)
    assert run(capsys, "tadpole", "B3", "--level", "5") == (0, "45\n", "")
    assert run(capsys, "tadpole", "B3", "--level", "5", "--zero") == (0, "34\n", "")
    with pytest.raises(RuntimeError, match="build"):
        run(capsys, "tadpole", "B3", "--level", "5", "--method", "enum")


@pytest.mark.parametrize("method", ("formula", "enum", "oracle", "all"))
@pytest.mark.parametrize("argv,message", [
    (("--level", "1"), "adjoint tadpole[A2] needs level >= 2, got 1"),
    (("--zero", "--level", "-1"), "vacuum tadpole[A2] needs level >= 0, got -1"),
], ids=("adjoint", "vacuum"))
def test_tadpole_below_the_floor_builds_no_root_system(capsys, monkeypatch, method, argv, message):
    # every method refuses the level before it builds anything to count with
    monkeypatch.setattr(fusionkit.tadpole, "build", _refuse_build)
    assert run(capsys, "tadpole", "A2", *argv, "--method", method) == (3, "", f"error: {message}\n")


@pytest.mark.parametrize("argv,message", [
    (("A120", "--weight", "1,1"), "--level is required unless --tensor is given"),
    (("B60", "--weight", "1", "--tensor", "--level", "2"), "--tensor takes no --level"),
    (("A300", "--weight", "1", "--tensor"), "A300 needs 300 labels, got 1"),
    (("B60", "--weight", "1", "--level", "2"), "B60 needs 60 labels, got 1"),
])
def test_fuse_usage_errors_build_no_root_system(capsys, monkeypatch, argv, message):
    # the usage checks read argv alone; building A120 alone takes about a second
    monkeypatch.setattr(cli, "build", _refuse_build)
    assert run(capsys, "fuse", *argv) == (2, "", f"error: {message}\n")


def test_table_b_check(capsys):
    rc, out, _ = run(capsys, "table", "b-tadpoles", "--check")
    assert rc == 0
    assert out.strip() == "48/48 cells match"


def test_table_b_print(capsys):
    rc, out, _ = run(capsys, "table", "b-tadpoles")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0].split() == ["level", "B3", "B4", "B5", "B6"]
    assert len(lines) == 13


def test_table_g2_check(capsys):
    rc, out, _ = run(capsys, "table", "g2-offdiag", "--check")
    assert rc == 0
    assert out.strip() == "12/12 rows match (4 starred)"


def test_table_g2_print(capsys):
    rc, out, _ = run(capsys, "table", "g2-offdiag")
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 12
    assert sum("pinned at node 2" in line for line in lines) == 4


def test_table_conditions_check(capsys):
    rc, out, _ = run(capsys, "table", "nontrivial", "--check")
    assert rc == 0
    lines = out.splitlines()
    assert "C4: 3 conditions match" in lines
    assert "B5: 4 conditions match" in lines
    assert "G2: 2 conditions match" in lines
    assert "E8: 0 conditions match" in lines


def test_table_conditions_check_json_is_one_record(capsys):
    rc, out, _ = run(capsys, "table", "nontrivial", "--check", "--json")
    record = json.loads(out)
    assert rc == 0
    assert record["ok"] is True


def test_table_conditions_for_algebra(capsys):
    rc, out, _ = run(capsys, "table", "nontrivial", "--algebra", "A3")
    assert rc == 0
    assert "every condition follows from dominance" in out
    rc, out, _ = run(capsys, "table", "nontrivial", "--algebra", "G2")
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 2
    assert all("node 2" in line for line in lines)


def test_verify_small(capsys):
    rc, out, _ = run(capsys, "verify", "--max-rank", "2", "--max-level", "3", "--suite", "rules")
    assert rc == 0
    assert out.strip().endswith("tasks, ok")


def test_verify_json(capsys):
    rc, out, _ = run(capsys, "verify", "--max-rank", "1", "--max-level", "2", "--suite", "tadpole", "--json")
    record = json.loads(out)
    assert rc == 0
    assert record["ok"] is True
    assert record["mismatches"] == []


def test_import_leaves_process_pool_unloaded():
    # nothing in the package starts a process, so importing the CLI loads no pool machinery
    src = Path(cli.__file__).resolve().parents[1]
    code = "import sys, fusionkit.cli; print('concurrent.futures.process' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("suites", [(), ("rule",), ("rules", "bogus")], ids=repr)
def test_verify_refuses_unknown_or_no_suites(suites):
    with pytest.raises(ValueError, match=re.escape(str(ALL_SUITES))):
        run_verify(2, 3, suites)


@pytest.mark.parametrize("argv,code", [
    (("--max-rank", "0"), 2),
    (("--max-rank", "1", "--max-level", "-3"), 3),
    (("--max-rank", "1", "--max-level", "1", "--suite", "rules"), 3),
])
def test_verify_refuses_empty_suites(capsys, argv, code):
    rc, out, err = run(capsys, "verify", *argv)
    assert (rc, out) == (code, "")
    assert "error:" in err


def test_verify_detects_bad_formula(capsys, monkeypatch):
    monkeypatch.setattr(fusionkit.tadpole, "adjoint_tadpole_formula",
                        lambda algebra, level: 10 ** 9)
    rc, _, err = run(capsys, "verify", "--max-rank", "1", "--max-level", "3", "--suite", "tadpole")
    assert rc == 4
    assert "adjoint tadpole (k=J)" in err


def _plant_b_cell(monkeypatch):
    monkeypatch.setitem(fusionkit.tables.B_TADPOLE_TABLE, (4, 7), 221)


def _plant_g2_row(monkeypatch):
    rows = fusionkit.tables.G2_OFFDIAG_TABLE
    monkeypatch.setattr(fusionkit.tables, "G2_OFFDIAG_TABLE", (((1, 0), (1, 0, 2), None, (-1, 2, -3)),) + rows[1:])


def _plant_f4_string(monkeypatch):
    # a wrong string end, with the root and node the F4 conditions read kept
    rows = fusionkit.tables.F4_STRING_TABLE
    monkeypatch.setattr(fusionkit.tables, "F4_STRING_TABLE",
                        (((0, 1, 1, 0), 2, (-1, 2, -2, 1), (-1, 0, 2, -2)),) + rows[1:])


@pytest.mark.parametrize("name,plant,line", [
    ("b-tadpoles", _plant_b_cell, "B4 level 7 (k=2J+1): table 221, formula 220, enumeration 220"),
    ("g2-offdiag", _plant_g2_row, "G2 row (1, 0): tabulated ((1, 0, 2), None, (-1, 2, -3)), "
                                  "regenerated ((1, 0, 3), None, (-1, 2, -3))"),
    ("nontrivial", _plant_f4_string, "F4 string (0, 1, 1, 0) node 3: tabulated ((-1, 2, -2, 1), (-1, 0, 2, -2)), "
                                     "regenerated ((-1, 2, -2, 0), (-1, 0, 2, -2))"),
])
def test_planted_table_error_fails_table_check_and_verify_alike(capsys, monkeypatch, name, plant, line):
    plant(monkeypatch)
    rc, _, err = run(capsys, "table", name, "--check")
    assert (rc, err) == (4, line + "\n")
    rc, out, err = run(capsys, "verify", "--suite", "tables")
    assert (rc, out, err) == (4, "verify: 1 tasks, 1 mismatches\n", line + "\n")


def test_planted_f4_string_marks_the_f4_summary_line(capsys, monkeypatch):
    # the wrong string is reported on F4's line, in text and JSON alike
    _plant_f4_string(monkeypatch)
    _, out, _ = run(capsys, "table", "nontrivial", "--check")
    lines = out.splitlines()
    assert [line for line in lines if not line.endswith(" conditions match")] == ["F4: MISMATCH"]
    _, out, _ = run(capsys, "table", "nontrivial", "--check", "--json")
    assert json.loads(out)["check"] == lines


def test_tadpole_all_detects_disagreement(capsys, monkeypatch):
    monkeypatch.setattr(fusionkit.tadpole, "adjoint_tadpole_formula", lambda algebra, level: 999)
    rc, out, err = run(capsys, "tadpole", "A2", "--level", "3", "--method", "all")
    assert rc == 4
    assert "methods disagree" in err
    assert out.splitlines()[0] == "formula: 999"


def test_tadpole_all_detects_vacuum_disagreement(capsys, monkeypatch):
    monkeypatch.setattr(fusionkit.tadpole, "zero_tadpole_formula", lambda algebra, level: 999)
    rc, out, err = run(capsys, "tadpole", "A2", "--level", "3", "--zero", "--method", "all")
    assert rc == 4
    assert "methods disagree" in err
    assert out.splitlines() == ["formula: 999", "enumeration: 10"]


EXIT_CODES = {
    InvalidRank: 2,
    AlgebraMismatch: 2,
    NotARoot: 2,
    LevelTooSmall: 3,
    LevelMismatch: 3,
    NoClosedForm: 5,
    FusionError: 2,
    ValueError: 2,
}


def test_exit_codes_name_every_fusion_error():
    assert set(FusionError.__subclasses__()) | {FusionError, ValueError} == set(EXIT_CODES)


def _raise(exc):
    def command(args):
        raise exc("boom")
    return command


@pytest.mark.parametrize("exc,code", EXIT_CODES.items(), ids=lambda v: getattr(v, "__name__", str(v)))
def test_every_error_exits_through_the_table(capsys, monkeypatch, exc, code):
    monkeypatch.setattr(cli, "_cmd_fuse", _raise(exc))
    rc, out, err = run(capsys, "fuse", "A2", "--weight", "1,1", "--level", "2")
    assert (rc, out, err) == (code, "", "error: boom\n")


def test_error_exit_under_optimize():
    src = Path(cli.__file__).resolve().parents[1]
    code = (
        "import fusionkit.cli as cli\n"
        "from fusionkit import NotARoot\n"
        "def command(args):\n"
        "    raise NotARoot('boom')\n"
        "cli._cmd_fuse = command\n"
        "raise SystemExit(cli.main(['fuse', 'A2', '--weight', '1,1', '--level', '2']))\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", "error: boom\n")
