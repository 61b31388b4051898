"""Closed-form rules for tensoring and fusing with the adjoint representation.

The product of the adjoint weight theta with a dominant weight mu decomposes
with multiplicities that never exceed the rank:

* diagonal (nu = mu): the multiplicity counts nonzero Dynkin labels, dropping
  one for the affine zeroth label in the fusion case;
* off-diagonal (nu = mu + beta for a root beta): the multiplicity is 0 or 1,
  and it is 1 exactly when mu-hat lies label by label above the minimal affine
  weight of beta, one row per root in `rule_table`.  Dominance of mu and nu
  already forces mu_i >= max(0, -beta_i), so only the few (beta, i) with
  root-string depth exceeding that bound ever decide anything; those are the
  "nontrivial conditions" tabulated per family below.

The tensor product is fusion at the stable level (theta, mu) + 2: there the
zeroth label is >= 2, so it drops no weight and counts as a nonzero label,
which the "minus one" of the diagonal fusion count takes back.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import add, ge
from types import MappingProxyType
from typing import Mapping

from .algebra import AlgebraId, RootSystem, build
from .errors import LevelMismatch
from .weights import (
    AffineWeight,
    Weight,
    _check_affine,
    _check_dominant,
    affinize,
    nonzero_affine_labels,
    stable_level,
)


@dataclass
class FusionDecomposition:
    """Multiset of dominant weights with multiplicities; level None = tensor."""

    algebra: AlgebraId
    level: int | None
    entries: dict[Weight, int]

    def multiplicity(self, nu: Weight) -> int:
        return self.entries.get(tuple(nu), 0)

    def total(self) -> int:
        return sum(self.entries.values())


@dataclass(frozen=True)
class NontrivialCondition:
    """A root-string condition not implied by dominance.

    For nu = mu + beta the coefficient needs mu[index] >= threshold_plus, and
    for nu = mu - beta it needs mu[index] >= threshold_minus.  `root` holds
    the simple-root coordinates of the positive root beta.
    """

    root: tuple[int, ...]
    index: int
    threshold_plus: int
    threshold_minus: int


@lru_cache(maxsize=None)
def rule_table(algebra: AlgebraId) -> Mapping[Weight, tuple[int, ...]]:
    """The off-diagonal rule: Dynkin labels of each root beta -> its minimal
    affine weight (t_0; t_1, ..., t_r).

    theta (x) mu contains mu + beta, once, exactly when mu-hat >= (t_0; t_1..t_r)
    label by label, with t_0 = max(0, (theta, beta)) and
    t_i = max(0, -beta_i, d_i(beta)).  The t_i >= -beta_i part is dominance of
    mu + beta, t_0 <= 2 is its zeroth label staying >= 0.  Rows follow the
    order of ``rs.roots``.
    """
    rs = build(algebra)
    table: dict[Weight, tuple[int, ...]] = {}
    for beta in rs.roots:
        t0 = max(0, rs.theta_pairing(beta.labels))
        table[beta.labels] = (t0,) + tuple(
            max(0, -label, depth) for label, depth in zip(beta.labels, rs.depth_weight(beta))
        )
    return MappingProxyType(table)


def diag_tensor(rs: RootSystem, mu: Weight) -> int:
    """Multiplicity of mu itself inside theta (x) mu."""
    _check_dominant(mu, rs.rank, "weight")
    return diag_fusion(rs, affinize(rs, mu, stable_level(rs, mu)))


def diag_fusion(rs: RootSystem, mu: AffineWeight) -> int:
    """Multiplicity of mu in the level-k fusion theta (x) mu; needs k >= 2."""
    _check_affine(rs, mu, "affine weight")
    return nonzero_affine_labels(mu) - 1


def offdiag_tensor(rs: RootSystem, mu: Weight, nu: Weight) -> int:
    """Multiplicity of nu != mu inside theta (x) mu (0 or 1)."""
    _check_dominant(mu, rs.rank, "weight")
    _check_dominant(nu, rs.rank, "target")
    level = stable_level(rs, mu, nu)
    return offdiag_fusion(rs, affinize(rs, mu, level), affinize(rs, nu, level))


def offdiag_fusion(rs: RootSystem, mu: AffineWeight, nu: AffineWeight) -> int:
    """Multiplicity of nu != mu in the level-k fusion theta (x) mu (0 or 1)."""
    if mu.level != nu.level:
        raise LevelMismatch(f"levels differ: {mu.level} != {nu.level}")
    _check_affine(rs, mu, "affine weight")
    _check_affine(rs, nu, "affine target")
    floor = rule_table(rs.algebra).get(tuple(a - b for a, b in zip(nu.finite, mu.finite)))
    if floor is None:
        return 0
    return int(all(map(ge, mu.labels, floor)))


def decompose_tensor(rs: RootSystem, mu: Weight) -> FusionDecomposition:
    """Full decomposition of theta (x) mu as a tensor product."""
    _check_dominant(mu, rs.rank, "weight")
    entries = decompose(rs, affinize(rs, mu, stable_level(rs, mu))).entries
    return FusionDecomposition(rs.algebra, None, entries)


def decompose(rs: RootSystem, mu: AffineWeight) -> FusionDecomposition:
    """Full decomposition of theta (x) mu in the level-k fusion ring."""
    entries: dict[Weight, int] = {}
    d = diag_fusion(rs, mu)
    if d:
        entries[mu.finite] = d
    labels, finite = mu.labels, mu.finite
    for beta, floor in rule_table(rs.algebra).items():
        if all(map(ge, labels, floor)):
            entries[tuple(map(add, finite, beta))] = 1
    return FusionDecomposition(rs.algebra, mu.level, entries)


# --- nontrivial conditions ---------------------------------------------


def nontrivial_conditions(rs: RootSystem) -> tuple[NontrivialCondition, ...]:
    """All root-string conditions that dominance does not already imply, read
    off the `rule_table` rows that `decompose` reads.

    Row beta pins node i when t_i exceeds the dominance bound max(0, -beta_i).
    Nontriviality is sign-symmetric (d_i(-beta) = d_i(beta) + beta_i), so each
    condition is recorded once on the positive root, with the thresholds of
    rows beta and -beta.
    """
    table = rule_table(rs.algebra)
    out = []
    for beta in rs.positive_roots:
        plus, minus = table[beta.labels], table[(-beta).labels]
        out += (NontrivialCondition(beta.coords, i, plus[1 + i], minus[1 + i])
                for i in range(rs.rank) if plus[1 + i] > max(0, -beta.labels[i]))
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
        for coords, i in (
            ((0, 1, 1, 0), 2),
            ((1, 1, 1, 0), 2),
            ((1, 2, 3, 2), 2),
            ((0, 1, 2, 1), 3),
            ((1, 1, 2, 1), 3),
            ((1, 2, 2, 1), 3),
        ):
            out.append(NontrivialCondition(coords, i, 1, 1))
    elif f == "G":
        out.append(NontrivialCondition((1, 1), 1, 2, 1))
        out.append(NontrivialCondition((1, 2), 1, 1, 2))
    # A, D, E: every condition follows from dominance
    return tuple(sorted(out, key=lambda c: (c.root, c.index)))


# --- worked tables for the rank-2 and rank-4 exceptional algebras --------

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
    """Recompute one G2 table row from the rule table that `decompose` reads."""
    beta = rs.root_at(coords)
    floor = rule_table(rs.algebra)[beta.labels]
    star = None
    for i in range(2):
        if floor[1 + i] > max(0, -beta.labels[i]):
            star = i
    delta = (-rs.theta_pairing(beta.labels),) + beta.labels
    return floor, star, delta


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
    """Dynkin labels of beta - alpha_i and beta + alpha_i."""
    below = list(coords)
    below[i] -= 1
    above = list(coords)
    above[i] += 1
    return rs.labels_of(tuple(below)), rs.labels_of(tuple(above))
