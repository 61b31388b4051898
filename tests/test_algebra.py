from collections import Counter
from fractions import Fraction
from operator import ge

import pytest

from fusionkit import (
    AlgebraId,
    AlgebraMismatch,
    InvalidRank,
    NotARoot,
    RootSystem,
    build,
    parse_algebra,
)
from fusionkit.adjoint_rules import rule_table
from fusionkit.algebra import _POSITIVE_COUNTS, algebras_up_to

from root_reference import (
    cartan_matrix,
    inner_product,
    killing_quadratic_form,
    labels_of,
    quadratic_form,
    reflect,
    root_from_labels,
    roots_by_closure,
    shifted_reflect,
    string_depth,
    string_height,
    symmetrizer,
)


def test_parse_algebra():
    assert parse_algebra("B4") == AlgebraId("B", 4)
    assert parse_algebra("g2") == AlgebraId("G", 2)
    assert parse_algebra(" e8 ") == AlgebraId("E", 8)


@pytest.mark.parametrize("bad", ["", "B", "H3", "B2", "C1", "D3", "E5", "E9", "F5", "G3", "A0", "Bx", "42",
                                 "A+3", "A1_0", "E 8", "A\u0663"])
def test_invalid_names_rejected(bad):
    with pytest.raises(InvalidRank):
        parse_algebra(bad)


def test_cartan_matrices():
    assert build("G2").cartan == ((2, -3), (-1, 2))
    assert build("F4").cartan == (
        (2, -1, 0, 0),
        (-1, 2, -2, 0),
        (0, -1, 2, -1),
        (0, 0, -1, 2),
    )
    assert build("B3").cartan == ((2, -1, 0), (-1, 2, -2), (0, -1, 2))
    assert build("C3").cartan == ((2, -1, 0), (-1, 2, -1), (0, -2, 2))
    assert build("D4").cartan == (
        (2, -1, 0, 0),
        (-1, 2, -1, -1),
        (0, -1, 2, 0),
        (0, -1, 0, 2),
    )
    # E-series branch node hangs off the third chain node
    e6 = build("E6").cartan
    assert e6[1][3] == e6[3][1] == -1
    assert e6[0][2] == e6[2][0] == -1
    assert e6[0][1] == e6[1][0] == 0


def test_symmetrizer_long_roots_normalised_to_one():
    # the reference's walk over its bond list; the package keeps no symmetrizer
    assert symmetrizer(parse_algebra("G2")) == (Fraction(1), Fraction(1, 3))
    assert symmetrizer(parse_algebra("F4")) == (1, 1, Fraction(1, 2), Fraction(1, 2))
    assert symmetrizer(parse_algebra("B4")) == (1, 1, 1, Fraction(1, 2))
    assert symmetrizer(parse_algebra("C4")) == (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), 1)
    for name in ("A5", "D5", "E6"):
        assert all(d == 1 for d in symmetrizer(parse_algebra(name)))


@pytest.mark.parametrize("algebra", algebras_up_to(40), ids=str)
def test_diagram_record_matches_bond_list(algebra):
    # the one diagram record against the bond list, and its integer comarks
    # against theta's coordinates times the walk's symmetrizer; built uncached,
    # so the rank-40 roots are not kept
    rs = RootSystem(algebra)
    a, d = rs.cartan, symmetrizer(algebra)
    assert a == cartan_matrix(algebra)
    r = algebra.rank
    assert all(a[i][j] * d[j] == a[j][i] * d[i] for i in range(r) for j in range(r))
    assert max(d) == 1
    assert rs.comarks == tuple(d[i] * rs.highest_root.coords[i] for i in range(r))
    assert all(type(c) is int for c in rs.comarks + rs.affine_comarks + (rs.dual_coxeter,))


def test_quadratic_form_values():
    assert killing_quadratic_form(build("A1")) == ((Fraction(1, 2),),)
    assert killing_quadratic_form(build("A2")) == (
        (Fraction(2, 3), Fraction(1, 3)),
        (Fraction(1, 3), Fraction(2, 3)),
    )
    assert killing_quadratic_form(build("G2")) == (
        (Fraction(2), Fraction(1)),
        (Fraction(1), Fraction(2, 3)),
    )


@pytest.mark.parametrize(
    "name,count",
    [
        ("A1", 1), ("A4", 10), ("B3", 9), ("B5", 25), ("C2", 4), ("C4", 16),
        ("D4", 12), ("D6", 30), ("E6", 36), ("E7", 63), ("E8", 120),
        ("F4", 24), ("G2", 6),
    ],
)
def test_positive_root_counts(name, count):
    assert len(build(name).positive_roots) == count


@pytest.mark.parametrize("name", [str(a) for a in algebras_up_to(8)] + ["A12", "B12", "C12", "D12"])
def test_roots_match_closure_reference(name):
    # coordinates, labels and depth vectors of both signs, against reflection
    # closure and a window scan of each alpha_i-string; the Killing-identity
    # quadratic form against the inverse Cartan matrix
    rs = build(name)
    assert killing_quadratic_form(rs) == quadratic_form(rs.cartan, symmetrizer(rs.algebra))
    closure = roots_by_closure(rs.cartan)
    assert [b.coords for b in rs.positive_roots] == sorted(c for c in closure if min(c) >= 0)
    assert {b.coords for b in rs.roots} == closure
    for beta in rs.roots:
        assert beta.labels == labels_of(rs.cartan, beta.coords)
        depths = tuple(string_depth(closure, beta.coords, i) for i in range(rs.rank))
        assert beta.depth == depths, beta.coords


# exponents of the exceptional algebras (Humphreys, Reflection groups and
# Coxeter groups, 3.7); the classical ones follow a pattern in the rank
EXCEPTIONAL_EXPONENTS = {
    "E6": (1, 4, 5, 7, 8, 11),
    "E7": (1, 5, 7, 9, 11, 13, 17),
    "E8": (1, 7, 11, 13, 17, 19, 23, 29),
    "F4": (1, 5, 7, 11),
    "G2": (1, 5),
}


def _exponents(algebra):
    f, r = algebra.family, algebra.rank
    if f == "A":
        return tuple(range(1, r + 1))
    if f in "BC":
        return tuple(range(1, 2 * r, 2))
    if f == "D":
        return tuple(range(1, 2 * r - 2, 2)) + (r - 1,)
    return EXCEPTIONAL_EXPONENTS[str(algebra)]


@pytest.mark.parametrize("algebra", algebras_up_to(8), ids=str)
def test_roots_are_the_positive_roots_then_their_negatives_in_order(algebra):
    # `tables.nontrivial_conditions` reads the rule row of -beta_j at n + j
    rs = build(algebra)
    n = len(rs.positive_roots)
    assert len(rs.roots) == 2 * n and rs.roots[:n] == rs.positive_roots
    for beta, minus in zip(rs.positive_roots, rs.roots[n:]):
        assert min(beta.coords) >= 0 and max(beta.coords) > 0, beta
        assert minus.coords == tuple(-c for c in beta.coords) and minus.labels == tuple(-x for x in beta.labels)
    assert [labels for labels, _ in rule_table(rs)] == [beta.labels for beta in rs.roots]


@pytest.mark.parametrize("algebra", algebras_up_to(20) + [AlgebraId(f, r) for r in (30, 40) for f in "ABCD"],
                         ids=str)
def test_root_heights_are_dual_to_the_exponents(algebra):
    # Kostant: the number of positive roots of height j is the number of
    # exponents >= j, for every j >= 1
    heights = Counter(beta.height for beta in build(algebra).positive_roots)
    exponents = _exponents(algebra)
    js = range(1, max(exponents) + 2)
    assert [heights[j] for j in js] == [sum(e >= j for e in exponents) for j in js]
    assert sum(heights.values()) == sum(exponents)


@pytest.mark.parametrize(
    "name,theta_labels",
    [
        ("A1", (2,)),
        ("A3", (1, 0, 1)),
        ("B4", (0, 1, 0, 0)),
        ("C3", (2, 0, 0)),
        ("D5", (0, 1, 0, 0, 0)),
        ("G2", (1, 0)),
        ("F4", (1, 0, 0, 0)),
        ("E6", (0, 1, 0, 0, 0, 0)),
        ("E7", (1, 0, 0, 0, 0, 0, 0)),
        ("E8", (0, 0, 0, 0, 0, 0, 0, 1)),
    ],
)
def test_highest_root_labels(name, theta_labels):
    rs = build(name)
    assert rs.highest_root.labels == theta_labels
    assert inner_product(rs, theta_labels, theta_labels) == 2


def _typed_comarks(algebra):
    """(name, dual Kac labels, h^v) of a classical algebra, typed from its family."""
    r = algebra.rank
    comarks, hvee = {
        "A": ((1,) * r, r + 1),
        "B": ((1,) + (2,) * (r - 2) + (1,), 2 * r - 1),
        "C": ((1,) * r, r + 1),
        "D": ((1,) + (2,) * (r - 3) + (1, 1), 2 * r - 2),
    }[algebra.family]
    return pytest.param(str(algebra), comarks, hvee, id=str(algebra))


CLASSICAL = [a for a in algebras_up_to(20) if a.family in "ABCD"] + [
    AlgebraId(family, rank) for family in "ABCD" for rank in (30, 40)
]


@pytest.mark.parametrize(
    "name,comarks,hvee",
    [
        ("A4", (1, 1, 1, 1), 5),
        ("B5", (1, 2, 2, 2, 1), 9),
        ("C5", (1, 1, 1, 1, 1), 6),
        ("D6", (1, 2, 2, 2, 1, 1), 10),
        ("E6", (1, 2, 2, 3, 2, 1), 12),
        ("E7", (2, 2, 3, 4, 3, 2, 1), 18),
        ("E8", (2, 3, 4, 6, 5, 4, 3, 2), 30),
        ("F4", (2, 3, 2, 1), 9),
        ("G2", (2, 1), 4),
    ] + [_typed_comarks(algebra) for algebra in CLASSICAL],
)
def test_comarks_and_dual_coxeter(name, comarks, hvee):
    rs = build(name)
    assert rs.comarks == comarks
    assert rs.dual_coxeter == hvee == 1 + sum(comarks)
    assert rs.affine_comarks == (1,) + comarks


def test_theta_pairing_agrees_with_inner_product():
    for name in ("A3", "B3", "C3", "D4", "G2", "F4"):
        rs = build(name)
        theta = rs.highest_root.labels
        for lam in [(0,) * rs.rank, (1,) * rs.rank, tuple(range(rs.rank))]:
            assert rs.theta_pairing(lam) == inner_product(rs, lam, theta)


def test_string_depth_height_relation():
    # h - d must equal the Dynkin label in every direction
    for name in ("A2", "B3", "C3", "D4", "G2", "F4"):
        rs = build(name)
        for beta in rs.roots:
            for i in range(rs.rank):
                d = beta.depth[i]
                h = string_height(rs, beta, i)
                assert h - d == beta.labels[i]
                assert 0 <= d <= 3 and 0 <= h <= 3


def test_string_through_own_direction_skips_zero():
    rs = build("A1")
    alpha = rs.root_at((1,))
    assert alpha.depth == (0,)
    assert string_height(rs, alpha, 0) == 2
    minus = rs.root_at((-1,))
    assert minus.depth == (2,)


def test_g2_longest_string():
    rs = build("G2")
    assert rs.root_at((1, 0)).depth == (0, 3)


def test_depth_carries_the_dominance_bound():
    # the alpha_i-string through beta runs p >= 0 steps below and d >= 0 above,
    # p - d = beta_i, so d_i(beta) >= max(0, -beta_i): the rule rows lean on it
    for algebra in algebras_up_to(8):
        for beta in build(algebra).roots:
            assert all(map(ge, beta.depth, (max(0, -label) for label in beta.labels))), (algebra, beta)


def test_depth_weight_vanishes_only_at_theta():
    for name in ("A3", "B3", "C3", "D4", "G2", "F4"):
        rs = build(name)
        zeros = [b for b in rs.roots if b.depth == (0,) * rs.rank]
        assert zeros == [rs.highest_root]


def test_reflections():
    rs = build("A2")
    assert reflect(rs, (1, 0), 0) == (-1, 1)
    assert reflect(rs, (1, 0), 1) == (1, 0)
    assert shifted_reflect(rs, (0, 0), 0) == (-2, 1)
    # involution
    for lam in [(2, 1), (0, 3), (-1, 4)]:
        assert reflect(rs, reflect(rs, lam, 0), 0) == lam


def test_root_lookup_errors():
    rs = build("B3")
    with pytest.raises(NotARoot):
        rs.root_at((1, 1, 3))
    assert root_from_labels(rs, (9, 9, 9)) is None
    with pytest.raises(AlgebraMismatch, match=r"^B3 needs 3 labels, got 2$"):
        rs.theta_pairing((1, 0))
    with pytest.raises(AlgebraMismatch, match=r"^A2 needs 2 labels, got 1$"):
        build("A2").theta_pairing((1,))


def test_every_construction_checks_the_positive_root_count(monkeypatch):
    # uncached, as the bond-list test builds: the count is checked all the same
    monkeypatch.setitem(_POSITIVE_COUNTS, "G", lambda r: 7)
    with pytest.raises(RuntimeError, match=r"^G2: wrong number of positive roots$"):
        RootSystem(AlgebraId("G", 2))


def test_root_label_roundtrip():
    rs = build("F4")
    for beta in rs.roots:
        assert labels_of(rs.cartan, beta.coords) == beta.labels
        assert root_from_labels(rs, beta.labels).coords == beta.coords


def test_build_is_cached_and_accepts_both_spellings():
    assert build("D4") is build(AlgebraId("D", 4))


@pytest.mark.parametrize("make,message", [
    (lambda: AlgebraId("A", 2)._replace(rank=0), "A0: rank must be >= 1"),
    (lambda: AlgebraId("A", 2)._replace(family="H"), "unknown family 'H'"),
    (lambda: AlgebraId._make(("E", 9)), "E9: rank must be 6..8"),
], ids=("replace-rank", "replace-family", "make"))
def test_algebra_ids_are_checked_however_they_are_made(make, message):
    # a named tuple's _replace and _make skip __new__, so _make is the checking constructor
    with pytest.raises(InvalidRank) as info:
        make()
    assert str(info.value) == message
    assert AlgebraId("A", 2)._replace(rank=3) == AlgebraId("A", 3) == ("A", 3)
