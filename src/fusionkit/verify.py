"""Consistency sweeps: closed-form rules against the folding oracle, tadpole
formulas against enumeration, and the hand-tabulated reference tables against
regenerated ones.  Used by the CLI `verify` command and the test suite."""

from __future__ import annotations

from dataclasses import dataclass, field

from . import tadpole
from .adjoint_rules import (
    F4_STRING_TABLE,
    G2_OFFDIAG_TABLE,
    decompose,
    f4_string_row,
    g2_offdiag_row,
    nontrivial_conditions,
    reference_nontrivial_conditions,
)
from .algebra import RANK_BOUNDS, AlgebraId, build
from .errors import LevelTooSmall, NoClosedForm
from .oracle import kac_walton_fusion
from .weights import enumerate_level

ALL_SUITES = ("rules", "tadpole", "tables")


def algebras_up_to(max_rank: int) -> list[AlgebraId]:
    """Every simple algebra with rank <= max_rank, family order A..G."""
    out = []
    for family in "ABCDEFG":
        lo, hi = RANK_BOUNDS[family]
        top = max_rank if hi is None else min(hi, max_rank)
        out.extend(AlgebraId(family, r) for r in range(lo, top + 1))
    return out


def check_rules_vs_oracle(algebra: AlgebraId, level: int) -> list[str]:
    """Full adjoint fusion at one level, rules vs folding, every weight."""
    rs = build(algebra)
    bad = []
    for mu in enumerate_level(rs, level):
        got = decompose(rs, mu).entries
        want = kac_walton_fusion(rs, mu)
        if got != want:
            bad.append(
                f"{algebra} level {level}: theta x {mu} gives {got} by rules, {want} by folding"
            )
    return bad


def check_tadpole_methods(algebra: AlgebraId, level: int) -> list[str]:
    """Tadpole formulas against enumeration at one level (skipped if no form)."""
    rs = build(algebra)
    kinds = [("zero", "vacuum", tadpole.zero_tadpole_enum, tadpole.zero_tadpole_formula)]
    if level >= 2:
        kinds.append(("adjoint", "adjoint", tadpole.adjoint_tadpole_enum, tadpole.adjoint_tadpole_formula))
    bad = []
    for kind, noun, enum, formula in kinds:
        try:
            closed = formula(algebra, level)
        except NoClosedForm:
            continue
        counted = enum(rs, level)
        if closed != counted:
            label = tadpole.branch_label(algebra, level, kind)
            bad.append(f"{algebra} level {level} {noun} tadpole ({label}): formula {closed}, enumeration {counted}")
    return bad


def check_g2_table() -> list[str]:
    rs = build(AlgebraId("G", 2))
    bad = []
    for coords, thresholds, star, delta in G2_OFFDIAG_TABLE:
        got = g2_offdiag_row(rs, coords)
        if got != (thresholds, star, delta):
            bad.append(f"G2 row {coords}: tabulated {(thresholds, star, delta)}, regenerated {got}")
    return bad


def check_f4_table() -> list[str]:
    rs = build(AlgebraId("F", 4))
    bad = []
    for coords, i, below, above in F4_STRING_TABLE:
        got = f4_string_row(rs, coords, i)
        if got != (below, above):
            bad.append(f"F4 string {coords} node {i + 1}: tabulated {(below, above)}, regenerated {got}")
    return bad


def condition_algebras() -> list[AlgebraId]:
    """The algebras whose condition tables are checked: rank <= 7, plus E8."""
    return algebras_up_to(7) + [AlgebraId("E", 8)]


def check_conditions(algebra: AlgebraId) -> list[str]:
    got = nontrivial_conditions(build(algebra))
    want = reference_nontrivial_conditions(algebra)
    if got != want:
        return [f"{algebra}: generated conditions {got} differ from tabulated {want}"]
    return []


def check_reference_tables() -> list[str]:
    bad = tadpole.b_table_check()
    bad += check_g2_table()
    bad += check_f4_table()
    for algebra in condition_algebras():
        bad += check_conditions(algebra)
    return bad


@dataclass
class VerifyReport:
    tasks: int
    messages: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.messages


def _run_task(spec: tuple) -> list[str]:
    kind = spec[0]
    if kind == "rules":
        return check_rules_vs_oracle(AlgebraId(spec[1], spec[2]), spec[3])
    if kind == "tadpole":
        return check_tadpole_methods(AlgebraId(spec[1], spec[2]), spec[3])
    return check_reference_tables()


def run_verify(
    max_rank: int = 4,
    max_level: int = 6,
    suites: tuple[str, ...] = ALL_SUITES,
    threads: int = 1,
) -> VerifyReport:
    """Run the selected suites; mismatch messages come back in task order.

    A selected suite that would compare nothing raises instead of passing.
    """
    if max_rank < 1:
        raise ValueError(f"verify needs max_rank >= 1, got {max_rank}")
    if "rules" in suites and max_level < 2:
        raise LevelTooSmall(f"the rules suite needs max_level >= 2, got {max_level}")
    if "tadpole" in suites and max_level < 0:
        raise LevelTooSmall(f"the tadpole suite needs max_level >= 0, got {max_level}")
    algebras = algebras_up_to(max_rank)
    specs: list[tuple] = []
    if "rules" in suites:
        specs += [("rules", a.family, a.rank, k) for a in algebras for k in range(2, max_level + 1)]
    if "tadpole" in suites:
        specs += [("tadpole", a.family, a.rank, k) for a in algebras for k in range(max_level + 1)]
    if "tables" in suites:
        specs.append(("tables",))
    if threads > 1:
        # imported here: multiprocessing costs every CLI call start-up time
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(_run_task, specs))
    else:
        results = [_run_task(spec) for spec in specs]
    return VerifyReport(len(specs), [m for chunk in results for m in chunk])
