"""Tadpole sums over a level: closed forms, counting over the level polytope,
and the slow oracle route.

Two quantities per algebra and level k: the vacuum tadpole (the number of
dominant affine weights at level k) and the adjoint tadpole (the sum of the
diagonal coefficients of theta (x) mu over those weights).  Both are
quasi-polynomials in k whose period is the lcm of the comarks; closed forms
exist for the classical families and E6, branch by branch in J = k // period.
The classical forms are the paper's sums of falling factorials in J, by
`math.perm`, each one fraction over a factorial; the E6 forms are literal rows
of rational coefficients, each run by integer Horner over its common
denominator.  Every value takes one exact division; `tables` holds the B table.
`TADPOLES` names each kind's level floor and routes once, and `tadpole_by` runs
a route by its name; the CLI, `verify` and `tables` read both.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from math import factorial, lcm, perm
from typing import Callable

from .algebra import AlgebraId, RootSystem, build
from .errors import LevelTooSmall, NoClosedForm
from .oracle import kac_walton_fusion
from .weights import _FUSION_FLOOR, enumerate_level


def falling_power(x, m: int):
    """x (x-1) ... (x-m+1), 1 for m = 0, ValueError for m < 0; for an int x `math.perm`."""
    if m < 0:
        raise ValueError(f"falling_power needs m >= 0, got {m}")
    if isinstance(x, int):
        return perm(x, m) if x >= 0 else (-1) ** m * perm(m - 1 - x, m)
    out = 1
    for j in range(m):
        out = out * (x - j)
    return out


# kind -> its level floor and the names of its routes in this module.  A route is
# looked up by name when it runs, so a rebound attribute (a tracer) is the one called.
TADPOLES = {
    "vacuum": {"floor": 0, "formula": "zero_tadpole_formula", "enum": "zero_tadpole_enum",
               "oracle": "zero_tadpole_oracle", "polynomial": "zero_tadpole_polynomial"},
    "adjoint": {"floor": _FUSION_FLOOR, "formula": "adjoint_tadpole_formula", "enum": "adjoint_tadpole_enum",
                "oracle": "adjoint_tadpole_oracle", "polynomial": "adjoint_tadpole_polynomial"},
}


def tadpole_by(kind: str, method: str, algebra: AlgebraId, level: int) -> int:
    """The `kind` tadpole by one route; the level is refused before a counting route builds its root system."""
    _check_level(kind, algebra, level)
    return globals()[TADPOLES[kind][method]](algebra if method == "formula" else build(algebra), level)


def _check_level(kind: str, algebra: AlgebraId, level: int) -> None:
    """The level guard of every tadpole route; the formula routes run it before any closed form."""
    if level < TADPOLES[kind]["floor"]:
        raise LevelTooSmall(f"{kind} tadpole[{algebra}] needs level >= {TADPOLES[kind]['floor']}, got {level}")


@dataclass(frozen=True)
class PiecewisePolynomial:
    """Quasi-polynomial in the level: one branch per residue of k mod period.

    Branch t is a callable of J, where k = period * J + t, returning the exact value of a
    polynomial in J: a Fraction over a factorial for A-D, integer Horner over one denominator
    per row for E6.  Both evaluations enforce integrality and `evaluate` refuses negatives;
    the level floors are in `TADPOLES` (recurrence identities legitimately read values below them).
    """

    name: str
    period: int
    branches: tuple[Callable[[int], Fraction], ...]

    def branch_label(self, level: int) -> str:
        if self.period == 1:
            return "k=J"
        t = level % self.period
        return f"k={self.period}J+{t}" if t else f"k={self.period}J"

    def evaluate_raw(self, level: int) -> int:
        j, t = divmod(level, self.period)
        value = self.branches[t](j)
        if value.denominator != 1:
            raise RuntimeError(f"{self.name} at level {level} is {value}, not an integer")
        return int(value)

    def evaluate(self, level: int) -> int:
        value = self.evaluate_raw(level)
        if value < 0:
            raise RuntimeError(f"{self.name} at level {level} is negative: {value}")
        return value


def _horner(coefficients, denominator, x):
    """Horner's rule on integer coefficients, highest power first, over one denominator."""
    total = 0
    for a in coefficients:
        total = total * x + a
    return Fraction(total, denominator)


def _rows(rows):
    """One branch per literal coefficient row, as integers over the row's lcm denominator."""
    rows = [[Fraction(c) for c in row] for row in rows]
    denominators = [lcm(*(c.denominator for c in row)) for row in rows]
    return tuple(partial(_horner, tuple(int(c * d) for c in reversed(row)), d) for row, d in zip(rows, denominators))


# E6 branch coefficients (k = 6J + t, rows t = 0..5, ascending powers of J),
# frozen after matching direct enumeration for k = 0..19.
_E6_ADJOINT = _rows((
    ("-1", "-14/5", "54/5", "117/2", "189/2", "324/5", "81/5"),
    ("0", "9", "1191/20", "141", "621/4", "81", "81/5"),
    ("3", "423/10", "1593/10", "537/2", "459/2", "486/5", "81/5"),
    ("17", "1241/10", "6741/20", "450", "1269/4", "567/5", "81/5"),
    ("48", "1392/5", "3099/5", "1389/2", "837/2", "648/5", "81/5"),
    ("117", "2766/5", "20871/20", "1011", "2133/4", "729/5", "81/5"),
))

_E6_ZERO = _rows((
    ("1", "83/10", "551/20", "45", "153/4", "81/5", "27/10"),
    ("3", "427/20", "2277/40", "301/4", "423/8", "189/10", "27/10"),
    ("9", "242/5", "2091/20", "116", "279/4", "108/5", "27/10"),
    ("20", "1869/20", "6997/40", "675/4", "711/8", "243/10", "27/10"),
    ("42", "337/2", "5511/20", "235", "441/4", "27", "27/10"),
    ("78", "5621/20", "16497/40", "1265/4", "1071/8", "297/10", "27/10"),
))


# The classical forms are written as in the paper, with (x)_m =
# falling_power(x, m) and J the branch variable j; terms over different
# factorials are brought over the largest one.


@lru_cache(maxsize=None)
def adjoint_tadpole_polynomial(algebra: AlgebraId) -> PiecewisePolynomial:
    f, r = algebra.family, algebra.rank
    name = f"adjoint tadpole[{algebra}]"
    if f in ("A", "C"):
        return PiecewisePolynomial(name, 1, (
            lambda j: Fraction((j - 1) * falling_power(j + r - 1, r - 1), factorial(r - 1)),
        ))
    if f == "B":
        return PiecewisePolynomial(name, 2, (
            lambda j: Fraction(4 * falling_power(j + r - 1, r) - 3 * (r - 1) * falling_power(j + r - 2, r - 1)
                               - falling_power(j + r - 1, r - 1), factorial(r - 1)),
            lambda j: Fraction(4 * falling_power(j + r - 1, r) - (r - 2) * falling_power(j + r - 2, r - 1),
                               factorial(r - 1)),
        ))
    if f == "D":
        # even: 8J (J+r-2)_{r-1} / (r-1)! + (r-4) (J+r-3)_{r-2} / (r-2)! - (J+r-3)_{r-3} / (r-3)!
        return PiecewisePolynomial(name, 2, (
            lambda j: Fraction(8 * j * falling_power(j + r - 2, r - 1) + (r - 1) * (
                (r - 4) * falling_power(j + r - 3, r - 2) - (r - 2) * falling_power(j + r - 3, r - 3)
            ), factorial(r - 1)),
            lambda j: Fraction(8 * falling_power(j + r - 2, r) + 4 * (r + 2) * falling_power(j + r - 2, r - 1),
                               factorial(r - 1)),
        ))
    if f == "E" and r == 6:
        return PiecewisePolynomial(name, 6, _E6_ADJOINT)
    raise NoClosedForm(f"no closed-form adjoint tadpole for {algebra}")


@lru_cache(maxsize=None)
def zero_tadpole_polynomial(algebra: AlgebraId) -> PiecewisePolynomial:
    f, r = algebra.family, algebra.rank
    name = f"vacuum tadpole[{algebra}]"
    if f in ("A", "C"):
        return PiecewisePolynomial(name, 1, (lambda j: Fraction(falling_power(j + r, r), factorial(r)),))
    if f == "B":
        return PiecewisePolynomial(name, 2, (
            lambda j: Fraction(falling_power(j + r, r) + 3 * falling_power(j + r - 1, r), factorial(r)),
            lambda j: Fraction(3 * falling_power(j + r, r) + falling_power(j + r - 1, r), factorial(r)),
        ))
    if f == "D":
        # even: 8 (J+r-1)_r / r! + (J+r-2)_{r-2} / (r-2)!;  odd: 8 (J+r-1)_r / r! + 4 (J+r-1)_{r-1} / (r-1)!
        return PiecewisePolynomial(name, 2, (
            lambda j: Fraction(8 * falling_power(j + r - 1, r) + r * (r - 1) * falling_power(j + r - 2, r - 2),
                               factorial(r)),
            lambda j: Fraction(8 * falling_power(j + r - 1, r) + 4 * r * falling_power(j + r - 1, r - 1),
                               factorial(r)),
        ))
    if f == "E" and r == 6:
        return PiecewisePolynomial(name, 6, _E6_ZERO)
    raise NoClosedForm(f"no closed-form vacuum tadpole for {algebra}")


def adjoint_tadpole_formula(algebra: AlgebraId, level: int) -> int:
    _check_level("adjoint", algebra, level)
    return adjoint_tadpole_polynomial(algebra).evaluate(level)


def zero_tadpole_formula(algebra: AlgebraId, level: int) -> int:
    _check_level("vacuum", algebra, level)
    return zero_tadpole_polynomial(algebra).evaluate(level)


# --- enumeration ---------------------------------------------------------


def _vacuum_counts(rs: RootSystem, level: int) -> list[int]:
    """counts[b] = number of dominant affine weights at level b, for b = 0..level.

    Sylvester's denumerant of the affine comarks, filled in place coin-change
    style: once comark a_i is taken in, counts[b] counts the solutions of
    sum_i a_i x_i = b over the comarks taken so far.
    """
    counts = [1] + [0] * level
    for m in rs.affine_comarks:
        for b in range(m, level + 1):
            counts[b] += counts[b - m]
    return counts


def zero_tadpole_enum(rs: RootSystem, level: int) -> int:
    """Vacuum tadpole = number of dominant affine weights at the level."""
    _check_level("vacuum", rs.algebra, level)
    return _vacuum_counts(rs, level)[level]


def adjoint_tadpole_enum(rs: RootSystem, level: int) -> int:
    """Adjoint tadpole: nonzero labels minus one, summed over the level polytope.

    A weight at level k with label x_i >= 1 is, with x_i lowered by one, a
    weight at level k - a_i, so T_theta(k) = sum_i T_0(k - a_i) - T_0(k).
    """
    _check_level("adjoint", rs.algebra, level)
    counts = _vacuum_counts(rs, level)
    return sum(counts[level - m] for m in rs.affine_comarks if m <= level) - counts[level]


def zero_tadpole_oracle(rs: RootSystem, level: int) -> int:
    """Vacuum tadpole Tr N_0 = |P_k|, by listing the weights at the level."""
    _check_level("vacuum", rs.algebra, level)
    return sum(1 for _ in enumerate_level(rs, level))


def adjoint_tadpole_oracle(rs: RootSystem, level: int) -> int:
    """Adjoint tadpole with every diagonal coefficient from the folding oracle."""
    _check_level("adjoint", rs.algebra, level)
    total = 0
    for mu in enumerate_level(rs, level):
        total += kac_walton_fusion(rs, mu).get(mu.finite, 0)
    return total
