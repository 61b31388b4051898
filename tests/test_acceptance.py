"""Release gate: one test per acceptance criterion.

Each test prints a single `PASS criterion N: ...` line with its runtime; run
with `pytest -s tests/test_acceptance.py` to see them.  A failing criterion
shows up as an ordinary pytest failure instead of its PASS line.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction
from math import factorial

from fusionkit import (
    AlgebraId,
    G2_OFFDIAG_TABLE,
    F4_STRING_TABLE,
    adjoint_tadpole_enum,
    adjoint_tadpole_formula,
    adjoint_tadpole_polynomial,
    build,
    enumerate_level,
    falling_power,
    kac_walton_fusion,
    nontrivial_conditions,
    racah_speiser_tensor,
    reference_nontrivial_conditions,
    zero_tadpole_enum,
    zero_tadpole_formula,
    zero_tadpole_polynomial,
)
from fusionkit.algebra import algebras_up_to
from fusionkit.tables import check_b_table, check_f4_table, condition_algebras
from fusionkit.verify import check_rules_vs_oracle
from root_reference import simple_root, string_height


@contextmanager
def criterion(num: int, description: str, budget: float | None = None):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    if budget is not None:
        assert elapsed < budget, f"criterion {num} took {elapsed:.2f}s, budget {budget}s"
    print(f"PASS criterion {num}: {description} ({elapsed:.2f}s)")


def test_criterion_1_b_series_reference_table():
    with criterion(1, "B-series tadpole table reproduced by formula and enumeration", budget=5.0):
        assert check_b_table() == ([], "48/48 cells match")


def test_criterion_2_formulas_match_enumeration():
    with criterion(2, "closed forms equal enumeration through level 18", budget=120.0):
        algebras = [a for a in algebras_up_to(7) if a.family in "ABCD"]
        algebras.append(AlgebraId("E", 6))
        for algebra in algebras:
            rs = build(algebra)
            for k in range(19):
                assert zero_tadpole_formula(algebra, k) == zero_tadpole_enum(rs, k), (algebra, k)
                if k >= 2:
                    assert adjoint_tadpole_formula(algebra, k) == adjoint_tadpole_enum(rs, k), (algebra, k)


def test_criterion_3_rules_equal_folding_oracle():
    with criterion(3, "closed-form fusion equals Weyl folding on every weight", budget=300.0):
        for algebra in algebras_up_to(4):
            for level in range(2, 7):
                assert check_rules_vs_oracle(algebra, level) == []


def test_criterion_4_g2_scan_recovers_table():
    with criterion(4, "exhaustive G2 scan recovers the off-diagonal table"):
        rs = build("G2")
        assert {row[0] for row in G2_OFFDIAG_TABLE} == {rt.coords for rt in rs.roots}

        records = {row[0]: [] for row in G2_OFFDIAG_TABLE}
        betas = {rt.coords: rt for rt in rs.roots}
        for k in range(2, 9):
            for mu_hat in enumerate_level(rs, k):
                fused = kac_walton_fusion(rs, mu_hat)
                for coords in records:
                    beta = betas[coords]
                    nu = tuple(m + b for m, b in zip(mu_hat.finite, beta.labels))
                    if any(x < 0 for x in nu) or rs.theta_pairing(nu) > k:
                        continue
                    coeff = fused.get(nu, 0)
                    assert coeff in (0, 1)
                    nu_hat = (k - rs.theta_pairing(nu),) + nu
                    records[coords].append((mu_hat.labels, nu_hat, coeff))

        starred = 0
        for coords, thresholds, star, delta in G2_OFFDIAG_TABLE:
            hits = [labels for labels, _, coeff in records[coords] if coeff == 1]
            assert hits, coords
            recovered = tuple(min(col) for col in zip(*hits))
            assert recovered == thresholds, (coords, recovered, thresholds)
            # the admissible set is exactly the box above the thresholds
            for labels, nu_hat, coeff in records[coords]:
                inside = all(x >= t for x, t in zip(labels, thresholds))
                assert coeff == (1 if inside else 0), (coords, labels)
                if coeff:
                    assert tuple(n - m for n, m in zip(nu_hat, labels)) == delta
            beta = betas[coords]
            forced = [i for i in range(2) if thresholds[1 + i] > max(0, -beta.labels[i])]
            assert (forced[0] if forced else None) == star, coords
            starred += len(forced)
        assert starred == 4


def test_criterion_5_condition_tables_match():
    with criterion(5, "generated nontriviality conditions match the tabulated ones"):
        for algebra in condition_algebras():
            got = nontrivial_conditions(build(algebra))
            assert got == reference_nontrivial_conditions(algebra), algebra
            if algebra.family in "ADE":
                assert got == ()
        assert check_f4_table() == []
        for coords, i, below, above in F4_STRING_TABLE:
            assert below[i] == -2 and above[i] == 2


def _tz(family: str, rank: int, level: int) -> int:
    return zero_tadpole_polynomial(AlgebraId(family, rank)).evaluate_raw(level)


def _tth(family: str, rank: int, level: int) -> int:
    return adjoint_tadpole_polynomial(AlgebraId(family, rank)).evaluate_raw(level)


def _tz_a(rank: int, level: int) -> int:
    # rank 0 closes the A-series recursion: a single point at every level
    return 1 if rank == 0 else _tz("A", rank, level)


def _tthz_a(rank: int, level: int) -> int:
    if rank == 0:
        return 1 if level >= 1 else 0
    return _tth("A", rank, level) + _tz("A", rank, level)


def test_criterion_6_recurrences():
    with criterion(6, "tadpole recurrences across rank hold exactly"):
        for r in range(2, 7):
            for k in range(7):
                assert _tz("A", r, k) == sum(_tz("A", r - 1, s) for s in range(k + 1))
                assert _tth("A", r, k) == (
                    sum(_tth("A", r - 1, s) for s in range(k + 1))
                    + Fraction(falling_power(k + r - 1, r), factorial(r))
                )
            for k in range(6):
                assert _tz("A", r, k + 1) - _tz("A", r, k) == _tz("A", r - 1, k + 1)
                assert _tth("A", r, k + 1) - _tth("A", r, k) == (
                    _tth("A", r - 1, k + 1)
                    + Fraction(falling_power(k + r - 1, r - 1), factorial(r - 1))
                )

        for r in range(4, 7):
            for J in range(7):
                assert _tz("B", r, 2 * J + 1) == sum(_tz("B", r - 1, 2 * s + 1) for s in range(J + 1))
                assert _tth("B", r, 2 * J + 1) == (
                    sum(_tth("B", r - 1, 2 * s + 1) for s in range(J + 1))
                    + sum(_tz("B", r - 1, 2 * s + 1) for s in range(J))
                )
            for J in range(6):
                assert (
                    _tz("B", r, 2 * (J + 1) + 1) - _tz("B", r, 2 * J + 1)
                    == _tz("B", r - 1, 2 * (J + 1) + 1)
                )
                assert (
                    _tth("B", r, 2 * (J + 1) + 1) - _tth("B", r, 2 * J + 1)
                    == _tth("B", r - 1, 2 * (J + 1) + 1) + _tz("B", r - 1, 2 * J + 1)
                )

        for r in range(3, 7):
            for J in range(7):
                assert _tz("B", r, 2 * J + 1) == sum(
                    _tz("A", 2, 2 * (J - s) + 1) * _tz_a(r - 3, s) for s in range(J + 1)
                )
                assert _tth("B", r, 2 * J + 1) + _tz("B", r, 2 * J + 1) == sum(
                    _tthz_a(2, 2 * (J - s) + 1) * _tz_a(r - 3, s)
                    + _tz_a(2, 2 * (J - s) + 1) * _tthz_a(r - 3, s)
                    for s in range(J + 1)
                )


def test_criterion_7_structural_invariants():
    with criterion(7, "root strings, condition counts, integrality, nonnegativity"):
        for algebra in algebras_up_to(8):
            rs = build(algebra)
            coords_set = {rt.coords for rt in rs.roots}
            for beta in rs.roots:
                forced = 0
                for i in range(rs.rank):
                    alpha = simple_root(rs, i)
                    up = [u for u in range(5)
                          if tuple(c + u * a for c, a in zip(beta.coords, alpha.coords)) in coords_set]
                    down = [u for u in range(5)
                            if tuple(c - u * a for c, a in zip(beta.coords, alpha.coords)) in coords_set]
                    depth, height = max(up), max(down)
                    assert depth == beta.depth[i]
                    assert height == string_height(rs, beta, i)
                    assert height - depth == beta.labels[i]
                    assert len(up) + len(down) - 1 <= 4  # u = 0 counted twice
                    if depth > max(0, -beta.labels[i]):
                        forced += 1
                assert forced <= 1, (algebra, beta.coords)

        closed_form = [a for a in algebras_up_to(7) if a.family in "ABCD"]
        closed_form.append(AlgebraId("E", 6))
        for algebra in closed_form:
            for k in range(25):
                assert isinstance(zero_tadpole_polynomial(algebra).evaluate_raw(k), int)
                assert isinstance(adjoint_tadpole_polynomial(algebra).evaluate_raw(k), int)

        rng = random.Random("acceptance-nonneg")
        for algebra in algebras_up_to(3):
            rs = build(algebra)
            for _ in range(5):
                mu = tuple(rng.randrange(3) for _ in range(rs.rank))
                assert all(c >= 1 for c in racah_speiser_tensor(rs, mu).values())
            for mu_hat in enumerate_level(rs, 3):
                assert all(c >= 1 for c in kac_walton_fusion(rs, mu_hat).values())


def test_criterion_8_falling_power_identities():
    with criterion(8, "falling-power sum and difference identities on random rationals"):
        rng = random.Random("acceptance-falling")
        for _ in range(200):
            m = rng.randrange(9)
            c = Fraction(rng.randrange(-50, 51), rng.randrange(1, 13))
            lo = rng.randrange(-50, 51)
            hi = lo + rng.randrange(51)
            lhs = sum(falling_power(ell + c, m) for ell in range(lo, hi + 1))
            rhs = Fraction(
                falling_power(hi + 1 + c, m + 1) - falling_power(lo + c, m + 1), m + 1
            )
            assert lhs == rhs, (m, c, lo, hi)
            x = c + rng.randrange(-10, 11)
            if m >= 1:
                assert falling_power(x + 1, m) - falling_power(x, m) == m * falling_power(x, m - 1)
