"""Command-line interface.

`table` is one dispatch over `tables.TABLES`: `--check` runs the check that
`verify --suite tables` runs, so both print the same mismatch lines.  Each
`tadpole --method` is a route of `tadpole.TADPOLES`, run by `tadpole_by`.

Exit codes: 0 success, 2 bad input (names, weights, dominance) and every other
FusionError, 3 level out of range or mismatched, 4 verification found a
mismatch, 5 no closed form.
"""

from __future__ import annotations

import argparse
import json
import sys

from .adjoint_rules import decompose
from .algebra import build, integer, parse_algebra
from .errors import FusionError, LevelMismatch, LevelTooSmall, NoClosedForm
from .oracle import kac_walton_fusion
from .tables import TABLES
from .tadpole import tadpole_by
from .verify import ALL_SUITES, run_verify
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


def _cmd_fuse(args: argparse.Namespace) -> int:
    rs = build(parse_algebra(args.algebra))
    mu = parse_weight(args.weight)
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
    kind = "vacuum" if args.zero else "adjoint"
    record = {"command": "tadpole", "algebra": str(algebra), "level": args.level,
              "kind": "zero" if args.zero else "adjoint"}
    if args.method == "all":
        try:
            formula = tadpole_by(kind, "formula", algebra, args.level)
        except NoClosedForm:
            formula = None
        enumeration = tadpole_by(kind, "enum", algebra, args.level)
        record.update(formula=formula, enumeration=enumeration)
        text = "unavailable (no closed form)" if formula is None else formula
        _emit(args, record, [f"formula: {text}", f"enumeration: {enumeration}"])
        if formula not in (None, enumeration):
            print(f"error: methods disagree for {algebra} at level {args.level}", file=sys.stderr)
            return EXIT_MISMATCH
        return EXIT_OK
    value = tadpole_by(kind, args.method, algebra, args.level)
    record.update(method=args.method, value=value)
    _emit(args, record, [str(value)])
    return EXIT_OK


def _cmd_table(args: argparse.Namespace) -> int:
    if args.algebra is not None and (args.check or args.name != "nontrivial"):
        raise ValueError("--algebra applies only to table nontrivial without --check")
    if args.name == "nontrivial" and not (args.check or args.algebra):
        raise ValueError("table nontrivial needs --algebra or --check")
    check, show = TABLES[args.name]
    record = {"command": "table", "name": args.name}
    if args.check:
        bad, summary = check()
        for line in bad:
            print(line, file=sys.stderr)
        record.update(check=summary, ok=not bad)
        _emit(args, record, summary if isinstance(summary, list) else [summary])
        return EXIT_OK if not bad else EXIT_MISMATCH
    fields, lines = show(args.algebra and parse_algebra(args.algebra))
    record.update(fields)
    _emit(args, record, lines)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    suites = ALL_SUITES if args.suite == "all" else (args.suite,)
    report = run_verify(args.max_rank, args.max_level, suites)
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
    table.add_argument("name", choices=tuple(TABLES))
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
