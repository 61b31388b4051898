"""Tadpole sums over a level: closed forms, counting over the level polytope,
and the slow oracle route.

Two quantities per algebra and level k: the vacuum tadpole (the number of
dominant affine weights at level k) and the adjoint tadpole (the sum of the
diagonal coefficients of theta (x) mu over those weights).  Both are
quasi-polynomials in k whose period is the lcm of the comarks; closed forms
exist for the classical families and E6, branch by branch in J = k // period.
The classical forms are the paper's sums of falling factorials in J, by
`math.perm`, each one integer over a factorial fixed once per algebra; the E6
forms are literal rows of integer numerators over one denominator each, run by
integer Horner.  Every value takes one `divmod`, in `_exact`; `tables` holds
the B table.  The counting route keeps one array of vacuum counts per root
system, at most twice the highest level asked and freed with it.
`TADPOLES` names each kind's level floor and routes once, and `tadpole_by` runs
a route by its name; the CLI, `verify` and `tables` read both.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache, partial
from math import factorial, perm

from .algebra import AlgebraId, RootSystem, build
from .errors import LevelTooSmall, NoClosedForm
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
    """The `kind` tadpole by one route; an unknown route, then the level, is refused before any build."""
    if method not in ("formula", "enum", "oracle"):
        raise ValueError(f"tadpole_by: no route {method!r}; the routes are formula, enum and oracle")
    _check_level(kind, algebra, level)
    return globals()[TADPOLES[kind][method]](algebra if method == "formula" else build(algebra), level)


def _check_level(kind: str, algebra: AlgebraId, level: int) -> None:
    """The level guard of every tadpole route; the formula routes run it before any closed form."""
    if level < TADPOLES[kind]["floor"]:
        raise LevelTooSmall(f"{kind} tadpole[{algebra}] needs level >= {TADPOLES[kind]['floor']}, got {level}")


class PiecewisePolynomial(namedtuple("PiecewisePolynomial", "name period branches")):
    """Quasi-polynomial in the level: one branch per residue of k mod period.

    Branch t is a callable of J, where k = period * J + t, returning the value of a polynomial
    in J as an exact value (an int or a Fraction): an integer over a factorial for A-D, integer
    Horner over one denominator per row for E6, each divided by `_exact`.  `evaluate_raw`
    refuses a value that is not an integer and `evaluate` refuses negatives;
    the level floors are in `TADPOLES` (recurrence identities legitimately read values below them).
    """

    __slots__ = ()

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


def _exact(numerator: int, denominator: int):
    """numerator / denominator exactly: the int quotient when it divides, else the Fraction,
    which `evaluate_raw` refuses."""
    q, rest = divmod(numerator, denominator)
    if rest:
        from fractions import Fraction  # only a refused remainder loads it
        return Fraction(numerator, denominator)
    return q


def _horner(coefficients, denominator, x):
    """Horner's rule on integer coefficients, highest power first, over one denominator."""
    total = 0
    for a in coefficients:
        total = total * x + a
    return _exact(total, denominator)


def _rows(rows):
    """One branch per literal row: its denominator and its integer numerators, ascending powers of J."""
    return tuple(partial(_horner, numerators[::-1], denominator) for denominator, numerators in rows)


# E6 branch coefficients (k = 6J + t, rows t = 0..5): the paper's rational coefficients
# of J^0..J^6 as integer numerators over each row's lcm denominator, frozen after
# matching direct enumeration for k = 0..19.
_E6_ADJOINT = _rows((
    (10, (-10, -28, 108, 585, 945, 648, 162)),
    (20, (0, 180, 1191, 2820, 3105, 1620, 324)),
    (10, (30, 423, 1593, 2685, 2295, 972, 162)),
    (20, (340, 2482, 6741, 9000, 6345, 2268, 324)),
    (10, (480, 2784, 6198, 6945, 4185, 1296, 162)),
    (20, (2340, 11064, 20871, 20220, 10665, 2916, 324)),
))

_E6_ZERO = _rows((
    (20, (20, 166, 551, 900, 765, 324, 54)),
    (40, (120, 854, 2277, 3010, 2115, 756, 108)),
    (20, (180, 968, 2091, 2320, 1395, 432, 54)),
    (40, (800, 3738, 6997, 6750, 3555, 972, 108)),
    (20, (840, 3370, 5511, 4700, 2205, 540, 54)),
    (40, (3120, 11242, 16497, 12650, 5355, 1188, 108)),
))


# The classical forms are written as in the paper, with (x)_m =
# falling_power(x, m) and J the branch variable j; terms over different
# factorials are brought over the largest one.


@lru_cache(maxsize=None)
def adjoint_tadpole_polynomial(algebra: AlgebraId) -> PiecewisePolynomial:
    f, r = algebra.family, algebra.rank
    name, d = f"adjoint tadpole[{algebra}]", factorial(r - 1)
    if f in ("A", "C"):
        return PiecewisePolynomial(name, 1, (
            lambda j: _exact((j - 1) * falling_power(j + r - 1, r - 1), d),
        ))
    if f == "B":
        return PiecewisePolynomial(name, 2, (
            lambda j: _exact(4 * falling_power(j + r - 1, r) - 3 * (r - 1) * falling_power(j + r - 2, r - 1)
                             - falling_power(j + r - 1, r - 1), d),
            lambda j: _exact(4 * falling_power(j + r - 1, r) - (r - 2) * falling_power(j + r - 2, r - 1), d),
        ))
    if f == "D":
        # even: 8J (J+r-2)_{r-1} / (r-1)! + (r-4) (J+r-3)_{r-2} / (r-2)! - (J+r-3)_{r-3} / (r-3)!
        return PiecewisePolynomial(name, 2, (
            lambda j: _exact(8 * j * falling_power(j + r - 2, r - 1) + (r - 1) * (
                (r - 4) * falling_power(j + r - 3, r - 2) - (r - 2) * falling_power(j + r - 3, r - 3)
            ), d),
            lambda j: _exact(8 * falling_power(j + r - 2, r) + 4 * (r + 2) * falling_power(j + r - 2, r - 1), d),
        ))
    if f == "E" and r == 6:
        return PiecewisePolynomial(name, 6, _E6_ADJOINT)
    raise NoClosedForm(f"no closed-form adjoint tadpole for {algebra}")


@lru_cache(maxsize=None)
def zero_tadpole_polynomial(algebra: AlgebraId) -> PiecewisePolynomial:
    f, r = algebra.family, algebra.rank
    name, d = f"vacuum tadpole[{algebra}]", factorial(r)
    if f in ("A", "C"):
        return PiecewisePolynomial(name, 1, (lambda j: _exact(falling_power(j + r, r), d),))
    if f == "B":
        return PiecewisePolynomial(name, 2, (
            lambda j: _exact(falling_power(j + r, r) + 3 * falling_power(j + r - 1, r), d),
            lambda j: _exact(3 * falling_power(j + r, r) + falling_power(j + r - 1, r), d),
        ))
    if f == "D":
        # even: 8 (J+r-1)_r / r! + (J+r-2)_{r-2} / (r-2)!;  odd: 8 (J+r-1)_r / r! + 4 (J+r-1)_{r-1} / (r-1)!
        return PiecewisePolynomial(name, 2, (
            lambda j: _exact(8 * falling_power(j + r - 1, r) + r * (r - 1) * falling_power(j + r - 2, r - 2), d),
            lambda j: _exact(8 * falling_power(j + r - 1, r) + 4 * r * falling_power(j + r - 1, r - 1), d),
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
    """counts[b] = number of dominant affine weights at level b, for b = 0..top, top >= level.

    Sylvester's denumerant of the affine comarks, filled in place coin-change
    style: once comark a_i is taken in, counts[b] counts the solutions of
    sum_i a_i x_i = b over the comarks taken so far.  The array is kept in the
    root system's `derived` slot and read, not copied: it is rebuilt only for a
    level above its top, to max(level, 2 top), so a sweep up to K rebuilds it
    O(log K) times and it never holds more than twice the highest level asked.
    """
    counts = rs.derived.get("vacuum_counts", [1])
    if len(counts) <= level:
        top = max(level, 2 * len(counts) - 2)
        counts = [1] + [0] * top
        for m in rs.affine_comarks:
            for b in range(m, top + 1):
                counts[b] += counts[b - m]
        rs.derived["vacuum_counts"] = counts
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
    from .oracle import kac_walton_fusion  # here, so the other routes load no oracle
    _check_level("adjoint", rs.algebra, level)
    total = 0
    for mu in enumerate_level(rs, level):
        total += kac_walton_fusion(rs, mu).get(mu.finite, 0)
    return total
