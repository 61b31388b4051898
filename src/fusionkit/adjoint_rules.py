"""Closed-form rules for tensoring and fusing with the adjoint representation.

The product of the adjoint weight theta with a dominant weight mu decomposes
with multiplicities that never exceed the rank:

* diagonal (nu = mu): the multiplicity counts nonzero Dynkin labels, dropping
  one for the affine zeroth label in the fusion case;
* off-diagonal (nu = mu + beta for a root beta): the multiplicity is 0 or 1,
  and it is 1 exactly when mu-hat lies label by label above the minimal affine
  weight of beta: one row per root in `rule_table`, read off the roots of the
  root system handed in and stored in its `derived` slot, like the oracle's.
  A row keeps only the nonzero thresholds (1.4 to 2.1 of r + 1), as a zero
  threshold never fails.  `decompose` ANDs per label, clipped at c (the largest
  threshold), the bitset of the rows it passes; the set bits are the passing
  rows, in root order.  The finite thresholds are the root-string depths
  d_i(beta), never below the bound max(0, -beta_i) that dominance of mu and nu
  already forces, so only the few (beta, i) with depth exceeding that bound
  decide anything beyond dominance; those are the "nontrivial conditions" that
  `tables` reads off the same rows, with the paper's other worked tables.

The tensor product, `decompose_tensor`, is `decompose` at the stable level
(theta, mu) + 2: there the zeroth label is >= 2, so it drops no weight and
counts as a nonzero label, which the "minus one" of the diagonal fusion count
takes back; its weight is checked by `affinize`, as in the oracle's tensor
form.  `FusionDecomposition` holds the coefficients alone, in `entries`; a
single coefficient is read as ``entries.get(nu, 0)``, as on the oracle's dict.
"""

from __future__ import annotations

from collections import namedtuple
from operator import add

from .algebra import RootSystem
from .weights import AffineWeight, Weight, _check_affine, affinize, stable_level


class FusionDecomposition(namedtuple("FusionDecomposition", "entries")):
    """Multiset of dominant weights: `entries` maps each weight to its multiplicity."""

    __slots__ = ()


def rule_table(rs: RootSystem) -> tuple[tuple[Weight, tuple[tuple[int, int], ...]], ...]:
    """The off-diagonal rule of this root system, stored on it: one row
    (beta, ((i, t_i), ...)) per root in ``rs.roots`` order, with the labels of
    beta and the nonzero labels t_i of its minimal affine weight (t_0; ..., t_r).

    theta (x) mu contains mu + beta, once, exactly when mu-hat >= (t_0; t_1..t_r)
    label by label, with t_0 = max(0, (theta, beta)) and t_i = d_i(beta), the
    depth of beta on node i.  The alpha_i-string through beta runs p >= 0 steps
    below it and d_i(beta) >= 0 above, with p - d_i(beta) = beta_i, so
    t_i >= max(0, -beta_i): the row implies dominance of mu + beta, and
    t_0 >= (theta, beta) keeps its zeroth label >= 0.
    """
    if "rule_table" not in rs.derived:
        rows = []
        for beta in rs.roots:
            floor = (max(0, rs.theta_pairing(beta.labels)),) + beta.depth
            rows.append((beta.labels, tuple((i, t) for i, t in enumerate(floor) if t)))
        rs.derived["rule_table"] = tuple(rows)
    return rs.derived["rule_table"]


def diag_fusion(rs: RootSystem, mu: AffineWeight) -> int:
    """Multiplicity of mu in the level-k fusion theta (x) mu; needs k >= 2."""
    _check_affine(rs, mu)
    return sum(1 for x in mu.labels if x) - 1


def decompose_tensor(rs: RootSystem, mu: Weight) -> FusionDecomposition:
    """Full decomposition of theta (x) mu as a tensor product."""
    return decompose(rs, affinize(rs, mu, stable_level(rs, mu)))


def _rule_bits(rs: RootSystem) -> tuple:
    """(rows, c, passes): bit n of passes[i][x], x = 0..c, is set when row n's threshold at label i is <= x.
    Kept in the derived slot next to the rows, and rebuilt whenever `rule_table` hands back other rows."""
    rows = rule_table(rs)
    if rs.derived.get("rule_bits", (None,))[0] is not rows:
        clip = max((t for _, floor in rows for _, t in floor), default=0)
        passes = [[(1 << len(rows)) - 1] * (clip + 1) for _ in range(rs.rank + 1)]
        for n, (_, floor) in enumerate(rows):
            for i, t in floor:
                for x in range(t):
                    passes[i][x] &= ~(1 << n)
        rs.derived["rule_bits"] = rows, clip, passes
    return rs.derived["rule_bits"]


def decompose(rs: RootSystem, mu: AffineWeight) -> FusionDecomposition:
    """Full decomposition of theta (x) mu in the level-k fusion ring."""
    entries: dict[Weight, int] = {}
    d = diag_fusion(rs, mu)
    finite = mu.finite
    if d:
        entries[finite] = d
    rows, clip, passes = _rule_bits(rs)
    bits = -1
    for x, label in zip(mu.labels, passes):
        bits &= label[x if x < clip else clip]
    while bits:  # the set bits from low to high: the passing rows in `rs.roots` order
        low = bits & -bits
        entries[tuple(map(add, finite, rows[low.bit_length() - 1][0]))] = 1
        bits ^= low
    return FusionDecomposition(entries)
