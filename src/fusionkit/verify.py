"""Consistency sweeps: closed-form rules against the folding oracle, tadpole
formulas against enumeration, and the reference tables of `tables` against
the data the rules and the tadpole sums read.  Used by the CLI `verify`
command and the test suite.  A task is a check and its arguments, such as
``(check_tadpole_methods, algebra, level)``; the tasks run in process, in order."""

from __future__ import annotations

from dataclasses import dataclass, field

from . import tadpole
from .adjoint_rules import decompose
from .algebra import AlgebraId, algebras_up_to, build
from .errors import LevelTooSmall, NoClosedForm
from .oracle import kac_walton_fusion
from .tables import TABLES
from .weights import enumerate_level

ALL_SUITES = ("rules", "tadpole", "tables")


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
    kinds = [(tadpole.zero_tadpole_polynomial, "vacuum", tadpole.zero_tadpole_enum,
              tadpole.zero_tadpole_formula)]
    if level >= tadpole.LEVEL_FLOORS["adjoint"]:
        kinds.append((tadpole.adjoint_tadpole_polynomial, "adjoint", tadpole.adjoint_tadpole_enum,
                      tadpole.adjoint_tadpole_formula))
    bad = []
    for polynomial, noun, enum, formula in kinds:
        try:
            closed = formula(algebra, level)
        except NoClosedForm:
            continue
        counted = enum(rs, level)
        if closed != counted:
            label = polynomial(algebra).branch_label(level)
            bad.append(f"{algebra} level {level} {noun} tadpole ({label}): formula {closed}, enumeration {counted}")
    return bad


def check_reference_tables() -> list[str]:
    """Every table of `tables.TABLES`."""
    return [line for check, _ in TABLES.values() for line in check()[0]]


@dataclass
class VerifyReport:
    tasks: int
    messages: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.messages


def run_verify(
    max_rank: int = 4,
    max_level: int = 6,
    suites: tuple[str, ...] = ALL_SUITES,
) -> VerifyReport:
    """Run the selected suites; mismatch messages come back in task order.

    A sweep that would compare nothing raises instead of passing: no suite,
    an unknown suite, or a selected suite with nothing in its range.
    """
    if not suites or not set(suites) <= set(ALL_SUITES):
        raise ValueError(f"verify needs suites from {ALL_SUITES}, got {tuple(suites)}")
    if max_rank < 1:
        raise ValueError(f"verify needs max_rank >= 1, got {max_rank}")
    floors = {"rules": tadpole.LEVEL_FLOORS["adjoint"], "tadpole": tadpole.LEVEL_FLOORS["vacuum"]}
    for suite, floor in floors.items():
        if suite in suites and max_level < floor:
            raise LevelTooSmall(f"the {suite} suite needs max_level >= {floor}, got {max_level}")
    algebras = algebras_up_to(max_rank)
    # the checks are read from the module here, so a rebound attribute is the one run
    tasks: list[tuple] = []
    if "rules" in suites:
        tasks += [(check_rules_vs_oracle, a, k) for a in algebras for k in range(floors["rules"], max_level + 1)]
    if "tadpole" in suites:
        tasks += [(check_tadpole_methods, a, k) for a in algebras for k in range(floors["tadpole"], max_level + 1)]
    if "tables" in suites:
        tasks.append((check_reference_tables,))
    results = [check(*args) for check, *args in tasks]
    return VerifyReport(len(tasks), [m for chunk in results for m in chunk])
