"""The paper's worked tables, each rechecked against the data the rules and
the tadpole sums read.

Four tables: the B-series adjoint tadpoles, the G2 off-diagonal thresholds,
the F4 root strings and the nontrivial root-string conditions.  `TABLES` maps
the name of each table the CLI shows to (check, show): ``check()`` returns the
mismatch lines and a summary (one line, or a list of lines), and
``show(algebra)`` returns the JSON fields and the text lines of the table (the
algebra is read by the conditions table alone).  The F4 strings are not shown;
the conditions check runs `check_f4_table` under its F4 line, as its F4 rows
come from them.
"""

from __future__ import annotations

from collections import namedtuple
from operator import add, sub

from . import tadpole
from .adjoint_rules import rule_table
from .algebra import AlgebraId, RootSystem, algebras_up_to, build

# Published adjoint tadpoles for the first B ranks, levels 2..13; columns are
# r = 3..6.  Used as a fixed cross-check of both the formulas and the
# enumeration.
_B_ROWS = {
    2: (3, 3, 3, 3),
    3: (11, 14, 17, 20),
    4: (24, 34, 45, 57),
    5: (45, 72, 105, 144),
    6: (74, 130, 205, 301),
    7: (114, 220, 375, 588),
    8: (165, 345, 630, 1050),
    9: (230, 520, 1015, 1792),
    10: (309, 749, 1554, 2898),
    11: (405, 1050, 2310, 4536),
    12: (518, 1428, 3318, 6846),
    13: (651, 1904, 4662, 10080),
}

B_TADPOLE_TABLE: dict[tuple[int, int], int] = {
    (r, k): row[r - 3] for k, row in _B_ROWS.items() for r in (3, 4, 5, 6)
}


def check_b_table() -> tuple[list[str], str]:
    """Each published B-series cell against the closed form and the enumeration."""
    bad = []
    for (r, k), want in sorted(B_TADPOLE_TABLE.items()):
        algebra = AlgebraId("B", r)
        got_formula = tadpole.tadpole_by("adjoint", "formula", algebra, k)
        got_enum = tadpole.tadpole_by("adjoint", "enum", algebra, k)
        if got_formula != want or got_enum != want:
            label = getattr(tadpole, tadpole.TADPOLES["adjoint"]["polynomial"])(algebra).branch_label(k)
            bad.append(
                f"B{r} level {k} ({label}): table {want}, formula {got_formula}, enumeration {got_enum}"
            )
    total = len(B_TADPOLE_TABLE)
    return bad, f"{total - len(bad)}/{total} cells match"


def _show_b_table(algebra: AlgebraId | None) -> tuple[dict, list[str]]:
    ranks = sorted({r for r, _ in B_TADPOLE_TABLE})
    levels = sorted({k for _, k in B_TADPOLE_TABLE})
    lines = ["level " + " ".join(f"B{r}".rjust(6) for r in ranks)]
    for k in levels:
        row = " ".join(str(B_TADPOLE_TABLE[(r, k)]).rjust(6) for r in ranks)
        lines.append(f"{str(k).rjust(5)} {row}")
    cells = {f"B{r},{k}": v for (r, k), v in sorted(B_TADPOLE_TABLE.items())}
    return {"cells": cells}, lines


# One row per root beta of G2: simple-root coordinates, the minimal affine
# weight (t0; t1, t2) whose orbit theta (x) mu reaches mu + beta, which finite
# node (if any) carries a condition beyond dominance, and the label shift
# from mu-hat to nu-hat.
G2_OFFDIAG_TABLE: tuple[tuple[tuple[int, int], tuple[int, int, int], int | None, tuple[int, int, int]], ...] = (
    ((1, 0), (1, 0, 3), None, (-1, 2, -3)),
    ((1, 1), (1, 0, 2), 1, (-1, 1, -1)),
    ((2, 3), (2, 0, 0), None, (-2, 1, 0)),
    ((1, 2), (1, 0, 1), 1, (-1, 0, 1)),
    ((1, 3), (1, 1, 0), None, (-1, -1, 3)),
    ((0, 1), (0, 1, 0), None, (0, -1, 2)),
    ((-1, 0), (0, 2, 0), None, (1, -2, 3)),
    ((-1, -1), (0, 1, 1), 1, (1, -1, 1)),
    ((-2, -3), (0, 1, 0), None, (2, -1, 0)),
    ((-1, -2), (0, 0, 2), 1, (1, 0, -1)),
    ((-1, -3), (0, 0, 3), None, (1, 1, -3)),
    ((0, -1), (0, 0, 2), None, (0, 1, -2)),
)


def g2_offdiag_row(
    rs: RootSystem, coords: tuple[int, int]
) -> tuple[tuple[int, int, int], int | None, tuple[int, int, int]]:
    """Recompute one G2 table row from `rule_table` and `nontrivial_conditions`."""
    beta = rs.root_at(coords)
    floor = dict(rule_table(rs))[beta.labels]
    star = next((c.index for c in nontrivial_conditions(rs) if c.root == tuple(map(abs, coords))), None)
    delta = (-rs.theta_pairing(beta.labels),) + beta.labels
    return floor, star, delta


def check_g2_table() -> tuple[list[str], str]:
    """Each tabulated G2 row against the row regenerated from the rule table."""
    rs = build(AlgebraId("G", 2))
    bad = []
    for coords, thresholds, star, delta in G2_OFFDIAG_TABLE:
        got = g2_offdiag_row(rs, coords)
        if got != (thresholds, star, delta):
            bad.append(f"G2 row {coords}: tabulated {(thresholds, star, delta)}, regenerated {got}")
    total = len(G2_OFFDIAG_TABLE)
    starred = sum(1 for row in G2_OFFDIAG_TABLE if row[2] is not None)
    return bad, f"{total - len(bad)}/{total} rows match ({starred} starred)"


def _show_g2_table(algebra: AlgebraId | None) -> tuple[dict, list[str]]:
    rows = []
    lines = []
    for coords, thresholds, star, delta in G2_OFFDIAG_TABLE:
        mark = f" pinned at node {star + 1}" if star is not None else ""
        rows.append({"root": list(coords), "thresholds": list(thresholds), "shift": list(delta),
                     "pinned_node": None if star is None else star + 1})
        t0, t1, t2 = thresholds
        lines.append(f"beta={coords} needs ({t0}; {t1},{t2}) shift {delta}{mark}")
    return {"rows": rows}, lines


# The six F4 roots with a condition beyond dominance, shown with both ends of
# the alpha_i string through beta (as Dynkin labels of beta -/+ alpha_i).
F4_STRING_TABLE: tuple[tuple[tuple[int, int, int, int], int, tuple[int, ...], tuple[int, ...]], ...] = (
    ((0, 1, 1, 0), 2, (-1, 2, -2, 0), (-1, 0, 2, -2)),
    ((1, 1, 1, 0), 2, (1, 1, -2, 0), (1, -1, 2, -2)),
    ((1, 2, 3, 2), 2, (0, 1, -2, 2), (0, -1, 2, 0)),
    ((0, 1, 2, 1), 3, (-1, 0, 2, -2), (-1, 0, 0, 2)),
    ((1, 1, 2, 1), 3, (1, -1, 2, -2), (1, -1, 0, 2)),
    ((1, 2, 2, 1), 3, (0, 1, 0, -2), (0, 1, -2, 2)),
)


def f4_string_row(
    rs: RootSystem, coords: tuple[int, int, int, int], i: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Dynkin labels of beta -/+ alpha_i: those of beta -/+ row i of the Cartan matrix."""
    labels, row = rs.root_at(coords).labels, rs.cartan[i]
    return tuple(map(sub, labels, row)), tuple(map(add, labels, row))


def check_f4_table() -> list[str]:
    """Each tabulated F4 string against the labels the Cartan matrix gives."""
    rs = build(AlgebraId("F", 4))
    bad = []
    for coords, i, below, above in F4_STRING_TABLE:
        got = f4_string_row(rs, coords, i)
        if got != (below, above):
            bad.append(f"F4 string {coords} node {i + 1}: tabulated {(below, above)}, regenerated {got}")
    return bad


class NontrivialCondition(namedtuple("NontrivialCondition", "root index threshold_plus threshold_minus")):
    """A root-string condition not implied by dominance.

    For nu = mu + beta the coefficient needs mu[index] >= threshold_plus, and
    for nu = mu - beta it needs mu[index] >= threshold_minus.  `root` holds
    the simple-root coordinates of the positive root beta.
    """

    __slots__ = ()


def nontrivial_conditions(rs: RootSystem) -> tuple[NontrivialCondition, ...]:
    """All root-string conditions that dominance does not already imply, read
    off the `rule_table` rows that `decompose` reads.

    Row beta pins finite node i - 1 when its threshold t_i exceeds the
    dominance bound max(0, -beta_{i-1}).  Nontriviality is sign-symmetric
    (d_i(-beta) = d_i(beta) + beta_i), so each condition is recorded once on
    the positive root, with the thresholds of rows beta and -beta.  ``rs.roots``
    lists the n positive roots, then their negatives in the same order, so the
    row of -beta_j is row n + j.
    """
    rows = rule_table(rs)
    out = []
    for beta, (_, floor), (_, minus) in zip(rs.positive_roots, rows, rows[len(rs.positive_roots):]):
        out += (NontrivialCondition(beta.coords, i - 1, t, minus[i])
                for i, t in enumerate(floor) if i and t > max(0, -beta.labels[i - 1]))
    return tuple(sorted(out, key=lambda c: (c.root, c.index)))


def reference_nontrivial_conditions(algebra: AlgebraId) -> tuple[NontrivialCondition, ...]:
    """Hand-tabulated nontrivial conditions, for checking the generated ones."""
    f, r = algebra.family, algebra.rank
    out: list[NontrivialCondition] = []
    if f == "B":
        # short roots e_m = a_m + ... + a_{r-1}, pinched at the short node
        for m in range(r - 1):
            coords = tuple(0 if j < m else 1 for j in range(r))
            out.append(NontrivialCondition(coords, r - 1, 1, 1))
    elif f == "C":
        # e_m + e_{m+1}, pinched at node m
        for m in range(r - 1):
            coords = [0] * r
            coords[m] = 1
            for j in range(m + 1, r - 1):
                coords[j] = 2
            coords[r - 1] = 1
            out.append(NontrivialCondition(tuple(coords), m, 1, 1))
    elif f == "F":
        # the six roots of the F4 string table, pinched at the string's node
        out += (NontrivialCondition(coords, i, 1, 1) for coords, i, _, _ in F4_STRING_TABLE)
    elif f == "G":
        out.append(NontrivialCondition((1, 1), 1, 2, 1))
        out.append(NontrivialCondition((1, 2), 1, 1, 2))
    # A, D, E: every condition follows from dominance
    return tuple(sorted(out, key=lambda c: (c.root, c.index)))


def condition_algebras() -> list[AlgebraId]:
    """The algebras whose condition tables are checked: rank <= 7, plus E8."""
    return algebras_up_to(7) + [AlgebraId("E", 8)]


def check_condition_tables() -> tuple[list[str], list[str]]:
    """Generated conditions against the tabulated ones, one summary line per
    algebra; F4's line covers the F4 strings too, whose roots and nodes the F4
    rows list."""
    bad = []
    lines = []
    for algebra in condition_algebras():
        got = nontrivial_conditions(build(algebra))
        want = reference_nontrivial_conditions(algebra)
        wrong = [] if got == want else [f"{algebra}: generated conditions {got} differ from tabulated {want}"]
        if algebra.family == "F":
            wrong += check_f4_table()
        bad += wrong
        lines.append(f"{algebra}: MISMATCH" if wrong else f"{algebra}: {len(want)} conditions match")
    return bad, lines


def _show_conditions(algebra: AlgebraId | None) -> tuple[dict, list[str]]:
    rs = build(algebra)
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
    return {"algebra": str(rs.algebra), "rows": rows}, lines


# table name -> (check, show)
TABLES = {
    "b-tadpoles": (check_b_table, _show_b_table),
    "g2-offdiag": (check_g2_table, _show_g2_table),
    "nontrivial": (check_condition_tables, _show_conditions),
}
