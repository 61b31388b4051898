import ast
import gc
from fractions import Fraction
from functools import partial
from math import comb
from pathlib import Path

import pytest

from fusionkit import tadpole
from fusionkit import (
    AlgebraId,
    B_TADPOLE_TABLE,
    LevelTooSmall,
    NoClosedForm,
    adjoint_tadpole_enum,
    adjoint_tadpole_formula,
    adjoint_tadpole_oracle,
    adjoint_tadpole_polynomial,
    build,
    enumerate_level,
    falling_power,
    zero_tadpole_enum,
    zero_tadpole_formula,
    zero_tadpole_polynomial,
)
from fusionkit.algebra import algebras_up_to
from fusionkit.tables import check_b_table
from fusionkit.tadpole import _vacuum_counts

# Frozen reference sequences for E6 (levels 0..19), from direct enumeration.
E6_ZERO = (1, 3, 9, 20, 42, 78, 139, 231, 372, 573, 861, 1254, 1791, 2499,
           3432, 4629, 6162, 8085, 10492, 13455)
E6_ADJOINT = (-1, 0, 3, 17, 48, 117, 241, 462, 816, 1375, 2205, 3420, 5127,
              7497, 10692, 14955, 20520, 27720, 36878, 48438)


def test_falling_power():
    assert falling_power(5, 3) == 60
    assert falling_power(5, 0) == 1
    assert falling_power(2, 4) == 0
    assert falling_power(Fraction(1, 2), 2) == Fraction(-1, 4)


@pytest.mark.parametrize("x", (3, 0, -2, Fraction(1, 2)))
def test_falling_power_refuses_a_negative_exponent(x):
    # as math.perm does; extending (x)_m to m < 0 would give (3)_{-1} = 1/4, not 1
    with pytest.raises(ValueError, match="m >= 0"):
        falling_power(x, -1)


def test_falling_power_int_path_matches_the_product():
    # an int x goes through math.perm, a negative one by (x)_m = (-1)^m (m-1-x)_m
    for x in range(-30, 81):
        for m in range(16):
            product = 1
            for j in range(m):
                product *= x - j
            got = falling_power(x, m)
            assert got == product and type(got) is int, (x, m)


def _published_e6_rows():
    """The E6 coefficient rows as `tadpole.py` writes them: the string argument
    of each `_NAME = _rows(...)` assignment, read from the source."""
    tree = ast.parse(Path(tadpole.__file__).read_text())
    return {node.targets[0].id: ast.literal_eval(node.value.args[0]) for node in tree.body
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
            and getattr(node.value.func, "id", None) == "_rows"}


def _fraction_horner(row, x):
    """Horner's rule in Fraction on a row in ascending powers of x: the
    evaluation the integer rows replaced, kept as their cross-check."""
    total = Fraction(0)
    for a in reversed(row):
        total = total * x + Fraction(a)
    return total


def _row_mismatches(branches, rows):
    return [(t, j) for t, (branch, row) in enumerate(zip(branches, rows))
            for j in range(-20, 201) if branch(j) != _fraction_horner(row, j)]


E6_TABLES = {"_E6_ADJOINT": tadpole._E6_ADJOINT, "_E6_ZERO": tadpole._E6_ZERO}


def test_e6_integer_rows_match_fraction_horner():
    rows = _published_e6_rows()
    assert sorted(rows) == sorted(E6_TABLES)
    for name, branches in E6_TABLES.items():
        assert len(branches) == len(rows[name]) == 6
        assert _row_mismatches(branches, rows[name]) == [], name


@pytest.mark.parametrize("name", sorted(E6_TABLES))
def test_planted_coefficient_fault_fails_the_row_comparison(name):
    # each power in turn, in a different row each time, one integer coefficient off by 1
    rows = _published_e6_rows()[name]
    for power in range(7):
        t = power % 6
        branch = E6_TABLES[name][t]
        coefficients, denominator = branch.args
        planted = list(coefficients)
        planted[-1 - power] += 1
        assert _row_mismatches([branch], [rows[t]]) == []
        assert _row_mismatches([partial(branch.func, tuple(planted), denominator)], [rows[t]]), (t, power)


def test_a_series_vacuum_is_binomial():
    for r in range(1, 7):
        a = AlgebraId("A", r)
        for k in range(13):
            assert zero_tadpole_formula(a, k) == comb(k + r, r)


def test_b3_adjoint_values():
    a = AlgebraId("B", 3)
    got = [adjoint_tadpole_formula(a, k) for k in range(2, 8)]
    assert got == [3, 11, 24, 45, 74, 114]


def test_domain_floor_and_raw_evaluation():
    a2 = AlgebraId("A", 2)
    poly = adjoint_tadpole_polynomial(a2)
    # the floor is the formula's guard; the polynomial evaluates below it
    assert poly.evaluate(1) == 0
    with pytest.raises(LevelTooSmall):
        adjoint_tadpole_formula(a2, 0)
    # below the floor the branch values are still exact integers
    assert poly.evaluate_raw(0) == -1
    assert poly.evaluate_raw(1) == 0
    assert adjoint_tadpole_polynomial(AlgebraId("E", 6)).evaluate_raw(0) == -1


def test_branch_labels():
    assert adjoint_tadpole_polynomial(AlgebraId("A", 3)).branch_label(5) == "k=J"
    assert adjoint_tadpole_polynomial(AlgebraId("B", 3)).branch_label(4) == "k=2J"
    assert adjoint_tadpole_polynomial(AlgebraId("B", 3)).branch_label(5) == "k=2J+1"
    assert adjoint_tadpole_polynomial(AlgebraId("E", 6)).branch_label(12) == "k=6J"
    assert zero_tadpole_polynomial(AlgebraId("E", 6)).branch_label(13) == "k=6J+1"


@pytest.mark.parametrize("name", ("E7", "E8", "F4", "G2"))
def test_no_closed_form(name):
    algebra = build(name).algebra
    with pytest.raises(NoClosedForm):
        adjoint_tadpole_formula(algebra, 4)
    with pytest.raises(NoClosedForm):
        zero_tadpole_formula(algebra, 4)
    # enumeration still works
    assert adjoint_tadpole_enum(build(name), 4) >= 0


def test_e6_frozen_sequences():
    a = AlgebraId("E", 6)
    rs = build("E6")
    adj = adjoint_tadpole_polynomial(a)
    for k in range(20):
        assert zero_tadpole_formula(a, k) == E6_ZERO[k]
        assert zero_tadpole_enum(rs, k) == E6_ZERO[k]
        assert adj.evaluate_raw(k) == E6_ADJOINT[k]
        if k >= 2:
            assert adjoint_tadpole_enum(rs, k) == E6_ADJOINT[k]


def test_e6_literal_rows_against_enumeration():
    # seven points fix a degree-6 branch; J = 1..8 pins each row and checks it once more
    a = AlgebraId("E", 6)
    rs = build("E6")
    adjoint, zero = adjoint_tadpole_polynomial(a), zero_tadpole_polynomial(a)
    for t in range(6):
        for j in range(1, 9):
            k = 6 * j + t
            assert adjoint.evaluate_raw(k) == adjoint_tadpole_enum(rs, k), k
            assert zero.evaluate_raw(k) == zero_tadpole_enum(rs, k), k


def test_b_reference_table():
    assert len(B_TADPOLE_TABLE) == 48
    assert B_TADPOLE_TABLE[(4, 7)] == 220
    assert B_TADPOLE_TABLE[(6, 13)] == 10080
    assert check_b_table() == ([], "48/48 cells match")


@pytest.mark.parametrize("name,max_level", [("A3", 10), ("B4", 9), ("C4", 9), ("D5", 8), ("E6", 8)])
def test_formula_matches_enumeration(name, max_level):
    rs = build(name)
    for k in range(max_level + 1):
        assert zero_tadpole_formula(rs.algebra, k) == zero_tadpole_enum(rs, k)
        if k >= 2:
            assert adjoint_tadpole_formula(rs.algebra, k) == adjoint_tadpole_enum(rs, k)


@pytest.mark.parametrize("name", [str(a) for a in algebras_up_to(4)] + ["E6", "E8"])
def test_counts_match_direct_enumeration(name):
    rs = build(name)
    for k in range(11):
        weights = list(enumerate_level(rs, k))
        assert zero_tadpole_enum(rs, k) == len(weights)
        if k >= 2:
            assert adjoint_tadpole_enum(rs, k) == sum(sum(1 for x in mu.labels if x) - 1 for mu in weights)


IDENTITY_CASES = [
    AlgebraId(family, r) for family, lo in (("A", 1), ("B", 3), ("C", 2), ("D", 4)) for r in range(lo, 10)
] + [AlgebraId("E", 6)]


@pytest.mark.parametrize("algebra", IDENTITY_CASES, ids=str)
def test_closed_forms_satisfy_shifted_sum_identity(algebra):
    # T_theta(k) = sum_i T_0(k - a_i) - T_0(k), closed form against closed form,
    # at enough levels per branch to make it an identity of polynomials
    adjoint = adjoint_tadpole_polynomial(algebra)
    zero = zero_tadpole_polynomial(algebra)
    comarks = build(algebra).affine_comarks
    for k in range(adjoint.period * (algebra.rank + 2) + max(comarks) + 1):
        shifted = sum(zero.evaluate_raw(k - m) for m in comarks)
        assert adjoint.evaluate_raw(k) == shifted - zero.evaluate_raw(k), k


def test_tadpole_sums_leave_no_garbage():
    rs = build("B3")
    gc.collect()
    gc.disable()
    try:
        zero_tadpole_enum(rs, 9)
        adjoint_tadpole_enum(rs, 9)
        for algebra in (AlgebraId("E", 6), AlgebraId("B", 50)):
            for k in range(2, 40):
                adjoint_tadpole_formula(algebra, k)
                zero_tadpole_formula(algebra, k)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("name,levels", [("A1", (2, 3, 4, 5)), ("A2", (2, 3, 4)), ("G2", (2, 3, 4)), ("B3", (2, 3))])
def test_oracle_route_agrees(name, levels):
    rs = build(name)
    for k in levels:
        assert adjoint_tadpole_oracle(rs, k) == adjoint_tadpole_enum(rs, k)


def test_level_gates():
    rs = build("A2")
    with pytest.raises(LevelTooSmall):
        adjoint_tadpole_enum(rs, 1)
    with pytest.raises(LevelTooSmall):
        adjoint_tadpole_oracle(rs, -1)
    with pytest.raises(LevelTooSmall):
        zero_tadpole_enum(rs, -1)
    assert zero_tadpole_enum(rs, 0) == 1


def test_zero_polynomial_period_matches_comark_lcm():
    assert zero_tadpole_polynomial(AlgebraId("A", 4)).period == 1
    assert zero_tadpole_polynomial(AlgebraId("C", 4)).period == 1
    assert zero_tadpole_polynomial(AlgebraId("B", 4)).period == 2
    assert zero_tadpole_polynomial(AlgebraId("D", 5)).period == 2
    assert zero_tadpole_polynomial(AlgebraId("E", 6)).period == 6


@pytest.mark.parametrize("algebra", IDENTITY_CASES, ids=str)
def test_closed_forms_satisfy_reciprocity(algebra):
    # Ehrhart-Macdonald reciprocity for the denumerant of the r + 1 affine comarks,
    # T_0(-k - h) = (-1)^r T_0(k), and through the shifted sum
    # T_theta(-k - h) = (-1)^r [sum_i T_0(k + a_i) - T_0(k)]; the branches run at negative J
    adjoint = adjoint_tadpole_polynomial(algebra)
    zero = zero_tadpole_polynomial(algebra)
    rs = build(algebra)
    h, sign = rs.dual_coxeter, (-1) ** algebra.rank
    for k in range(40):
        assert zero.evaluate_raw(-k - h) == sign * zero.evaluate_raw(k), k
        shifted = sum(zero.evaluate_raw(k + m) for m in rs.affine_comarks)
        assert adjoint.evaluate_raw(-k - h) == sign * (shifted - zero.evaluate_raw(k)), k


@pytest.mark.parametrize("name", [f"{family}{r}" for r in (20, 30, 40, 50) for family in "ABCD"])
def test_high_rank_closed_forms_match_the_counting_array(name):
    # one array of T_0 up to level 300; T_theta comes from the same array by the
    # shifted sum T_theta(k) = sum_i T_0(k - a_i) - T_0(k)
    rs = build(name)
    counts = _vacuum_counts(rs, 300)
    for k in range(301):
        assert zero_tadpole_formula(rs.algebra, k) == counts[k], k
        if k >= 2:
            shifted = sum(counts[k - m] for m in rs.affine_comarks if m <= k)
            assert adjoint_tadpole_formula(rs.algebra, k) == shifted - counts[k], k


# what the two compared routes of a kind may share: the level guard and what it reads
_LEVEL_GUARD = {"_check_level", "TADPOLES", "_FUSION_FLOOR", "LevelTooSmall", "AlgebraId"}


def _module_names():
    """{top-level name of tadpole.py: the node that binds it}, an imported name bound to None."""
    tree = ast.parse(Path(tadpole.__file__).read_text())
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names[node.name] = node
        elif isinstance(node, ast.Assign):
            names.update((target.id, node) for target in node.targets)
        elif isinstance(node, ast.ImportFrom):
            names.update((alias.asname or alias.name, None) for alias in node.names)
    return names


def _reachable(name, names):
    """The top-level names of tadpole.py that the definition of `name` reaches."""
    seen, todo = set(), [name]
    while todo:
        current = todo.pop()
        if current not in seen:
            seen.add(current)
            if names[current] is not None:
                todo += [n.id for n in ast.walk(names[current]) if isinstance(n, ast.Name) and n.id in names]
    return seen


@pytest.mark.parametrize("kind", sorted(tadpole.TADPOLES))
def test_formula_and_enumeration_share_only_the_level_guard(kind):
    # the two routes verify compares must not share a computation, or one
    # fault would show in both and pass the comparison
    names = _module_names()
    routes = tadpole.TADPOLES[kind]
    formula, enum = _reachable(routes["formula"], names), _reachable(routes["enum"], names)
    assert {routes["polynomial"], "falling_power", "_check_level"} <= formula
    assert {"_vacuum_counts", "_check_level"} <= enum
    assert formula & enum <= _LEVEL_GUARD


def test_every_route_name_is_a_function_of_the_module():
    names = _module_names()
    for kind, routes in tadpole.TADPOLES.items():
        for method, name in routes.items():
            if method != "floor":
                assert isinstance(names.get(name), ast.FunctionDef), (kind, method, name)
                assert callable(getattr(tadpole, name)), (kind, method, name)
