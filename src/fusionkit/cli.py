"""Command-line interface.

Exit codes: 0 success, 2 bad input (names, weights, dominance) and every other
FusionError, 3 level out of range or mismatched, 4 verification found a
mismatch, 5 no closed form.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import partial

from .adjoint_rules import (
    G2_OFFDIAG_TABLE,
    decompose,
    nontrivial_conditions,
    reference_nontrivial_conditions,
)
from .algebra import build, integer, parse_algebra
from .errors import FusionError, LevelMismatch, LevelTooSmall, NoClosedForm
from .oracle import kac_walton_fusion
from .tadpole import (
    B_TADPOLE_TABLE,
    adjoint_tadpole_enum,
    adjoint_tadpole_formula,
    adjoint_tadpole_oracle,
    b_table_check,
    zero_tadpole_enum,
    zero_tadpole_formula,
    zero_tadpole_oracle,
)
from .verify import ALL_SUITES, check_conditions, check_g2_table, condition_algebras, run_verify
from .weights import affinize, format_weight, parse_weight, stable_level

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_LEVEL = 3
EXIT_MISMATCH = 4
EXIT_NO_CLOSED_FORM = 5

# exception class -> exit code; the first class the error is an instance of wins
EXIT_CODES = (
    (LevelTooSmall, EXIT_LEVEL),
    (LevelMismatch, EXIT_LEVEL),
    (NoClosedForm, EXIT_NO_CLOSED_FORM),
    (FusionError, EXIT_USAGE),
    (ValueError, EXIT_USAGE),
)

def _emit(args: argparse.Namespace, record: dict, lines: list[str]) -> None:
    """The JSON record with --json, else the text lines."""
    if args.json:
        print(json.dumps(record, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _parse_weight_for(rs, text: str):
    lam = parse_weight(text)
    if len(lam) != rs.rank:
        raise ValueError(f"{rs.algebra} needs {rs.rank} labels, got {len(lam)}")
    return lam


def _cmd_fuse(args: argparse.Namespace) -> int:
    rs = build(parse_algebra(args.algebra))
    mu = _parse_weight_for(rs, args.weight)
    if args.tensor and args.level is not None:
        raise ValueError("--tensor takes no --level")
    if not args.tensor and args.level is None:
        raise ValueError("--level is required unless --tensor is given")
    # the tensor product is fusion at the stable level
    aff = affinize(rs, mu, stable_level(rs, mu) if args.tensor else args.level)
    entries = kac_walton_fusion(rs, aff) if args.method == "oracle" else decompose(rs, aff).entries
    lines = {format_weight(nu): mult for nu, mult in sorted(entries.items())}
    _emit(args, {
        "command": "fuse",
        "algebra": str(rs.algebra),
        "level": args.level,
        "weight": list(mu),
        "method": args.method,
        "entries": lines,
    }, [f"{text}: {mult}" for text, mult in lines.items()])
    return EXIT_OK


def _cmd_tadpole(args: argparse.Namespace) -> int:
    algebra = parse_algebra(args.algebra)
    # method -> (adjoint, vacuum); built per call so that a rebound module
    # attribute (a test double, a tracing wrapper) is the one called.  Only
    # the counting routes read the root system, so formula alone builds none.
    methods = {"formula": (partial(adjoint_tadpole_formula, algebra), partial(zero_tadpole_formula, algebra))}
    if args.method != "formula":
        rs = build(algebra)
        methods["enum"] = (partial(adjoint_tadpole_enum, rs), partial(zero_tadpole_enum, rs))
        methods["oracle"] = (partial(adjoint_tadpole_oracle, rs), partial(zero_tadpole_oracle, rs))
    record = {"command": "tadpole", "algebra": str(algebra), "level": args.level,
              "kind": "zero" if args.zero else "adjoint"}
    if args.method == "all":
        try:
            formula = methods["formula"][args.zero](args.level)
        except NoClosedForm:
            formula = None
        enumeration = methods["enum"][args.zero](args.level)
        record.update(formula=formula, enumeration=enumeration)
        text = "unavailable (no closed form)" if formula is None else formula
        _emit(args, record, [f"formula: {text}", f"enumeration: {enumeration}"])
        if formula not in (None, enumeration):
            print(f"error: methods disagree for {algebra} at level {args.level}", file=sys.stderr)
            return EXIT_MISMATCH
        return EXIT_OK
    value = methods[args.method][args.zero](args.level)
    record.update(method=args.method, value=value)
    _emit(args, record, [str(value)])
    return EXIT_OK


def _check_b_table() -> tuple[list[str], str]:
    bad = b_table_check()
    total = len(B_TADPOLE_TABLE)
    return bad, f"{total - len(bad)}/{total} cells match"


def _check_g2_table() -> tuple[list[str], str]:
    bad = check_g2_table()
    starred = sum(1 for row in G2_OFFDIAG_TABLE if row[2] is not None)
    return bad, f"{len(G2_OFFDIAG_TABLE) - len(bad)}/{len(G2_OFFDIAG_TABLE)} rows match ({starred} starred)"


def _check_condition_tables() -> tuple[list[str], list[str]]:
    bad = []
    lines = []
    for algebra in condition_algebras():
        problems = check_conditions(algebra)
        bad += problems
        n = len(reference_nontrivial_conditions(algebra))
        lines.append(f"{algebra}: {n} conditions match" if not problems else f"{algebra}: MISMATCH")
    return bad, lines


# table name -> recheck returning (mismatches, summary: one line or a list of lines)
TABLE_CHECKS = {
    "b-tadpoles": _check_b_table,
    "g2-offdiag": _check_g2_table,
    "nontrivial": _check_condition_tables,
}


def _b_table_lines() -> list[str]:
    ranks = sorted({r for r, _ in B_TADPOLE_TABLE})
    levels = sorted({k for _, k in B_TADPOLE_TABLE})
    lines = ["level " + " ".join(f"B{r}".rjust(6) for r in ranks)]
    for k in levels:
        row = " ".join(str(B_TADPOLE_TABLE[(r, k)]).rjust(6) for r in ranks)
        lines.append(f"{str(k).rjust(5)} {row}")
    return lines


def _cmd_table(args: argparse.Namespace) -> int:
    if args.algebra is not None and (args.check or args.name != "nontrivial"):
        raise ValueError("--algebra applies only to table nontrivial without --check")
    if args.check:
        bad, summary = TABLE_CHECKS[args.name]()
        for line in bad:
            print(line, file=sys.stderr)
        lines = summary if isinstance(summary, list) else [summary]
        _emit(args, {"command": "table", "name": args.name, "check": summary, "ok": not bad}, lines)
        return EXIT_OK if not bad else EXIT_MISMATCH

    if args.name == "b-tadpoles":
        cells = {f"B{r},{k}": v for (r, k), v in sorted(B_TADPOLE_TABLE.items())}
        _emit(args, {"command": "table", "name": args.name, "cells": cells}, _b_table_lines())
        return EXIT_OK

    if args.name == "g2-offdiag":
        rows = []
        lines = []
        for coords, thresholds, star, delta in G2_OFFDIAG_TABLE:
            mark = f" pinned at node {star + 1}" if star is not None else ""
            rows.append({"root": list(coords), "thresholds": list(thresholds), "shift": list(delta),
                         "pinned_node": None if star is None else star + 1})
            t0, t1, t2 = thresholds
            lines.append(f"beta={coords} needs ({t0}; {t1},{t2}) shift {delta}{mark}")
        _emit(args, {"command": "table", "name": args.name, "rows": rows}, lines)
        return EXIT_OK

    if not args.algebra:
        raise ValueError("table nontrivial needs --algebra or --check")
    rs = build(parse_algebra(args.algebra))
    rows = []
    lines = []
    for cond in nontrivial_conditions(rs):
        rows.append({
            "root": list(cond.root),
            "node": cond.index + 1,
            "plus": cond.threshold_plus,
            "minus": cond.threshold_minus,
        })
        lines.append(
            f"beta={cond.root} node {cond.index + 1}: "
            f"mu_{cond.index + 1} >= {cond.threshold_plus} (+beta), "
            f">= {cond.threshold_minus} (-beta)"
        )
    if not rows:
        lines.append(f"{rs.algebra}: every condition follows from dominance")
    _emit(args, {"command": "table", "name": args.name, "algebra": str(rs.algebra), "rows": rows}, lines)
    return EXIT_OK


def _threads_from_env() -> int:
    """FUSIONKIT_THREADS as a worker count: an integer >= 1, capped at the CPU count."""
    text = os.environ.get("FUSIONKIT_THREADS", "1")
    try:
        threads = integer(text.strip())
    except ValueError:
        threads = 0
    if threads < 1:
        raise ValueError(f"FUSIONKIT_THREADS must be an integer >= 1, got {text!r}")
    return min(threads, os.cpu_count() or 1)


def _cmd_verify(args: argparse.Namespace) -> int:
    suites = ALL_SUITES if args.suite == "all" else (args.suite,)
    report = run_verify(args.max_rank, args.max_level, suites, _threads_from_env())
    if not args.json:
        for line in report.messages:
            print(line, file=sys.stderr)
    state = "ok" if report.ok else f"{len(report.messages)} mismatches"
    _emit(args, {
        "command": "verify",
        "tasks": report.tasks,
        "mismatches": report.messages,
        "ok": report.ok,
    }, [f"verify: {report.tasks} tasks, {state}"])
    return EXIT_OK if report.ok else EXIT_MISMATCH


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fusionkit",
        description="Adjoint fusion rules and fusion tadpoles for the simple Lie algebras.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    fuse = sub.add_parser("fuse", help="decompose theta (x) mu")
    fuse.add_argument("algebra", help="algebra name, e.g. A3 or g2")
    fuse.add_argument("--weight", required=True,
                      help="comma-separated Dynkin labels; a negative first label needs --weight=-1,0")
    fuse.add_argument("--level", type=integer, help="fusion level (omit with --tensor)")
    fuse.add_argument("--tensor", action="store_true", help="plain tensor product instead of fusion")
    fuse.add_argument("--method", choices=("rules", "oracle"), default="rules")
    fuse.add_argument("--json", action="store_true")
    fuse.set_defaults(func=_cmd_fuse)

    tad = sub.add_parser("tadpole", help="tadpole sums at a level")
    tad.add_argument("algebra")
    tad.add_argument("--level", type=integer, required=True)
    tad.add_argument("--zero", action="store_true", help="vacuum tadpole instead of adjoint")
    tad.add_argument("--method", choices=("formula", "enum", "oracle", "all"), default="formula")
    tad.add_argument("--json", action="store_true")
    tad.set_defaults(func=_cmd_tadpole)

    table = sub.add_parser("table", help="reference tables, optionally rechecked")
    table.add_argument("name", choices=tuple(TABLE_CHECKS))
    table.add_argument("--check", action="store_true", help="recompute and compare")
    table.add_argument("--algebra", help="for: nontrivial")
    table.add_argument("--json", action="store_true")
    table.set_defaults(func=_cmd_table)

    ver = sub.add_parser("verify", help="run consistency sweeps")
    ver.add_argument("--max-rank", type=integer, default=4)
    ver.add_argument("--max-level", type=integer, default=6)
    ver.add_argument("--suite", choices=("all",) + ALL_SUITES, default="all")
    ver.add_argument("--json", action="store_true")
    ver.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return args.func(args)
    except tuple(cls for cls, _ in EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in EXIT_CODES if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
