"""Command-line interface.

Exit codes: 0 success, 2 bad input (names, weights, dominance), 3 level out of
range or mismatched, 4 verification found a mismatch, 5 no closed form.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .adjoint_rules import (
    G2_OFFDIAG_TABLE,
    decompose,
    decompose_tensor,
    nontrivial_conditions,
    reference_nontrivial_conditions,
)
from .algebra import build, parse_algebra
from .errors import InvalidRank, LevelMismatch, LevelTooSmall, NoClosedForm
from .oracle import kac_walton_fusion, racah_speiser_tensor
from .tadpole import (
    B_TADPOLE_TABLE,
    adjoint_tadpole_enum,
    adjoint_tadpole_formula,
    adjoint_tadpole_oracle,
    b_table_check,
    branch_label,
    zero_tadpole_enum,
    zero_tadpole_formula,
)
from .verify import ALL_SUITES, check_g2_table, run_verify
from .weights import affinize, format_weight, parse_weight

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_LEVEL = 3
EXIT_MISMATCH = 4
EXIT_NO_CLOSED_FORM = 5

TABLE_NAMES = ("b-tadpoles", "g2-offdiag", "nontrivial")


def _emit(args: argparse.Namespace, record: dict) -> None:
    if args.json:
        print(json.dumps(record, sort_keys=True))


def _parse_weight_for(rs, text: str):
    lam = parse_weight(text)
    if len(lam) != rs.rank:
        raise ValueError(f"{rs.algebra} needs {rs.rank} labels, got {len(lam)}")
    return lam


def _cmd_fuse(args: argparse.Namespace) -> int:
    rs = build(parse_algebra(args.algebra))
    mu = _parse_weight_for(rs, args.weight)
    if args.tensor:
        if args.method == "oracle":
            entries = racah_speiser_tensor(rs, mu)
        else:
            entries = decompose_tensor(rs, mu).entries
        level = None
    else:
        if args.level is None:
            print("error: --level is required unless --tensor is given", file=sys.stderr)
            return EXIT_USAGE
        aff = affinize(rs, mu, args.level)
        if args.method == "oracle":
            entries = kac_walton_fusion(rs, aff)
        else:
            entries = decompose(rs, aff).entries
        level = args.level
    lines = {format_weight(nu): mult for nu, mult in sorted(entries.items())}
    if args.json:
        _emit(args, {
            "command": "fuse",
            "algebra": str(rs.algebra),
            "level": level,
            "weight": list(mu),
            "method": args.method,
            "entries": lines,
        })
    else:
        for text, mult in lines.items():
            print(f"{text}: {mult}")
    return EXIT_OK


def _cmd_tadpole(args: argparse.Namespace) -> int:
    algebra = parse_algebra(args.algebra)
    rs = build(algebra)
    kind = "zero" if args.zero else "adjoint"

    def formula():
        if args.zero:
            return zero_tadpole_formula(algebra, args.level)
        return adjoint_tadpole_formula(algebra, args.level)

    def enumeration():
        if args.zero:
            return zero_tadpole_enum(rs, args.level)
        return adjoint_tadpole_enum(rs, args.level)

    if args.method == "all":
        values = {}
        try:
            values["formula"] = formula()
        except NoClosedForm:
            values["formula"] = None
        values["enumeration"] = enumeration()
        if args.json:
            record = {"command": "tadpole", "algebra": str(algebra), "level": args.level, "kind": kind}
            record.update(values)
            _emit(args, record)
        else:
            text = "unavailable (no closed form)" if values["formula"] is None else values["formula"]
            print(f"formula: {text}")
            print(f"enumeration: {values['enumeration']}")
        if values["formula"] is not None and values["formula"] != values["enumeration"]:
            print(f"error: methods disagree for {algebra} at level {args.level}", file=sys.stderr)
            return EXIT_MISMATCH
        return EXIT_OK

    if args.method == "formula":
        value = formula()
    elif args.method == "enum":
        value = enumeration()
    else:
        if args.zero:
            value = zero_tadpole_enum(rs, args.level)
        else:
            value = adjoint_tadpole_oracle(rs, args.level)
    if args.json:
        _emit(args, {
            "command": "tadpole",
            "algebra": str(algebra),
            "level": args.level,
            "kind": kind,
            "method": args.method,
            "value": value,
        })
    else:
        print(value)
    return EXIT_OK


def _print_b_table() -> None:
    ranks = sorted({r for r, _ in B_TADPOLE_TABLE})
    levels = sorted({k for _, k in B_TADPOLE_TABLE})
    print("level " + " ".join(f"B{r}".rjust(6) for r in ranks))
    for k in levels:
        row = " ".join(str(B_TADPOLE_TABLE[(r, k)]).rjust(6) for r in ranks)
        print(f"{str(k).rjust(5)} {row}")


def _cmd_table(args: argparse.Namespace) -> int:
    if args.name == "b-tadpoles":
        if args.check:
            bad = b_table_check()
            for line in bad:
                print(line, file=sys.stderr)
            total = len(B_TADPOLE_TABLE)
            summary = f"{total - len(bad)}/{total} cells match"
            _emit(args, {"command": "table", "name": args.name, "check": summary, "ok": not bad})
            if not args.json:
                print(summary)
            return EXIT_OK if not bad else EXIT_MISMATCH
        if args.json:
            cells = {f"B{r},{k}": v for (r, k), v in sorted(B_TADPOLE_TABLE.items())}
            _emit(args, {"command": "table", "name": args.name, "cells": cells})
        else:
            _print_b_table()
        return EXIT_OK

    if args.name == "g2-offdiag":
        if args.check:
            bad = check_g2_table()
            for line in bad:
                print(line, file=sys.stderr)
            starred = sum(1 for row in G2_OFFDIAG_TABLE if row[2] is not None)
            summary = f"{len(G2_OFFDIAG_TABLE) - len(bad)}/{len(G2_OFFDIAG_TABLE)} rows match ({starred} starred)"
            _emit(args, {"command": "table", "name": args.name, "check": summary, "ok": not bad})
            if not args.json:
                print(summary)
            return EXIT_OK if not bad else EXIT_MISMATCH
        rows = []
        for coords, thresholds, star, delta in G2_OFFDIAG_TABLE:
            mark = f" pinned at node {star + 1}" if star is not None else ""
            rows.append({"root": list(coords), "thresholds": list(thresholds), "shift": list(delta),
                         "pinned_node": None if star is None else star + 1})
            if not args.json:
                t0, t1, t2 = thresholds
                print(f"beta={coords} needs ({t0}; {t1},{t2}) shift {delta}{mark}")
        _emit(args, {"command": "table", "name": args.name, "rows": rows})
        return EXIT_OK

    # nontrivial conditions
    if args.check:
        from .verify import _condition_algebras, check_conditions

        bad = []
        lines = []
        for algebra in _condition_algebras():
            problems = check_conditions(algebra)
            bad += problems
            n = len(reference_nontrivial_conditions(algebra))
            lines.append(f"{algebra}: {n} conditions match" if not problems else f"{algebra}: MISMATCH")
        for line in lines:
            print(line)
        for line in bad:
            print(line, file=sys.stderr)
        _emit(args, {"command": "table", "name": args.name, "check": lines, "ok": not bad})
        return EXIT_OK if not bad else EXIT_MISMATCH
    if not args.algebra:
        print("error: table nontrivial needs --algebra or --check", file=sys.stderr)
        return EXIT_USAGE
    rs = build(parse_algebra(args.algebra))
    rows = []
    for cond in nontrivial_conditions(rs):
        rows.append({
            "root": list(cond.root),
            "node": cond.index + 1,
            "plus": cond.threshold_plus,
            "minus": cond.threshold_minus,
        })
        if not args.json:
            print(
                f"beta={cond.root} node {cond.index + 1}: "
                f"mu_{cond.index + 1} >= {cond.threshold_plus} (+beta), "
                f">= {cond.threshold_minus} (-beta)"
            )
    if not args.json and not rows:
        print(f"{rs.algebra}: every condition follows from dominance")
    _emit(args, {"command": "table", "name": args.name, "algebra": str(rs.algebra), "rows": rows})
    return EXIT_OK


def _threads_from_env() -> int:
    """FUSIONKIT_THREADS as a worker count: an integer >= 1, capped at the CPU count."""
    text = os.environ.get("FUSIONKIT_THREADS", "1")
    if not text.strip().isdecimal() or int(text) < 1:
        raise ValueError(f"FUSIONKIT_THREADS must be an integer >= 1, got {text!r}")
    return min(int(text), os.cpu_count() or 1)


def _cmd_verify(args: argparse.Namespace) -> int:
    suites = ALL_SUITES if args.suite == "all" else (args.suite,)
    report = run_verify(args.max_rank, args.max_level, suites, _threads_from_env())
    if args.json:
        _emit(args, {
            "command": "verify",
            "tasks": report.tasks,
            "mismatches": report.messages,
            "ok": report.ok,
        })
    else:
        for line in report.messages:
            print(line, file=sys.stderr)
        state = "ok" if report.ok else f"{len(report.messages)} mismatches"
        print(f"verify: {report.tasks} tasks, {state}")
    return EXIT_OK if report.ok else EXIT_MISMATCH


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fusionkit",
        description="Adjoint fusion rules and fusion tadpoles for the simple Lie algebras.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    fuse = sub.add_parser("fuse", help="decompose theta (x) mu")
    fuse.add_argument("algebra", help="algebra name, e.g. A3 or g2")
    fuse.add_argument("--weight", required=True, help="comma-separated Dynkin labels")
    fuse.add_argument("--level", type=int, help="fusion level (omit with --tensor)")
    fuse.add_argument("--tensor", action="store_true", help="plain tensor product instead of fusion")
    fuse.add_argument("--method", choices=("rules", "oracle"), default="rules")
    fuse.add_argument("--json", action="store_true")
    fuse.set_defaults(func=_cmd_fuse)

    tad = sub.add_parser("tadpole", help="tadpole sums at a level")
    tad.add_argument("algebra")
    tad.add_argument("--level", type=int, required=True)
    tad.add_argument("--zero", action="store_true", help="vacuum tadpole instead of adjoint")
    tad.add_argument("--method", choices=("formula", "enum", "oracle", "all"), default="formula")
    tad.add_argument("--json", action="store_true")
    tad.set_defaults(func=_cmd_tadpole)

    table = sub.add_parser("table", help="reference tables, optionally rechecked")
    table.add_argument("name", choices=TABLE_NAMES)
    table.add_argument("--check", action="store_true", help="recompute and compare")
    table.add_argument("--algebra", help="for: nontrivial")
    table.add_argument("--json", action="store_true")
    table.set_defaults(func=_cmd_table)

    ver = sub.add_parser("verify", help="run consistency sweeps")
    ver.add_argument("--max-rank", type=int, default=4)
    ver.add_argument("--max-level", type=int, default=6)
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
    except (LevelTooSmall, LevelMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LEVEL
    except NoClosedForm as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CLOSED_FORM
    except (InvalidRank, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
