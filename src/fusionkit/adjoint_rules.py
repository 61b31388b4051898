"""Closed-form rules for tensoring and fusing with the adjoint representation.

The product of the adjoint weight theta with a dominant weight mu decomposes
with multiplicities that never exceed the rank:

* diagonal (nu = mu): the multiplicity counts nonzero Dynkin labels, dropping
  one for the affine zeroth label in the fusion case;
* off-diagonal (nu = mu + beta for a root beta): the multiplicity is 0 or 1,
  and it is 1 exactly when mu-hat lies label by label above the minimal affine
  weight of beta: one row per root in `rule_table`, read off the roots of the
  root system handed in.  `rule_table` is the one builder of the rule: the
  tables read its rows, and `decompose` reads a record built from them on
  first use and stored in the root system's `derived` slot, like the oracle's.
  Every threshold is <= c, the largest, so mu-hat passes a row exactly when
  mu-hat clipped at c does: the record stores, per clipped mu-hat, the label
  tuples of the passing roots in root order, and `decompose` adds mu to each.
  A class is settled on its first weight, by ANDing for each clipped label the
  bitset of the rows it passes, and kept while the store holds fewer than
  `_CLASS_CAP` classes (E8's whole box).  The finite thresholds are the
  root-string depths d_i(beta), never below the bound max(0, -beta_i) that
  dominance of mu and nu already forces, so only the few (beta, i) with depth
  exceeding that bound decide anything beyond dominance; those are the
  "nontrivial conditions" that `tables` reads off the same rows, with the
  paper's other worked tables.

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

_CLASS_CAP = 3 ** 9  # E8's whole box {0..2}^9, as the oracle's cap, but the rules' own


class FusionDecomposition(namedtuple("FusionDecomposition", "entries")):
    """Multiset of dominant weights: `entries` maps each weight to its multiplicity."""

    __slots__ = ()


def rule_table(rs: RootSystem) -> tuple[tuple[Weight, tuple[int, ...]], ...]:
    """The off-diagonal rule of this root system: one row (beta, (t_0, t_1, ..., t_r))
    per root in ``rs.roots`` order, with the labels of beta and its whole minimal
    affine weight, zeros included.

    theta (x) mu contains mu + beta, once, exactly when mu-hat >= (t_0; t_1..t_r)
    label by label, with t_0 = max(0, (theta, beta)) and t_i = d_i(beta), the
    depth of beta on node i.  The alpha_i-string through beta runs p >= 0 steps
    below it and d_i(beta) >= 0 above, with p - d_i(beta) = beta_i, so
    t_i >= max(0, -beta_i): the row implies dominance of mu + beta, and
    t_0 >= (theta, beta) keeps its zeroth label >= 0.
    """
    return tuple((beta.labels, (max(0, rs.theta_pairing(beta.labels)),) + beta.depth) for beta in rs.roots)


def diag_fusion(rs: RootSystem, mu: AffineWeight) -> int:
    """Multiplicity of mu in the level-k fusion theta (x) mu; needs k >= 2."""
    _check_affine(rs, mu)
    return len(mu.labels) - mu.labels.count(0) - 1


def decompose_tensor(rs: RootSystem, mu: Weight) -> FusionDecomposition:
    """Full decomposition of theta (x) mu as a tensor product."""
    return decompose(rs, affinize(rs, mu, stable_level(rs, mu)))


def decompose(rs: RootSystem, mu: AffineWeight) -> FusionDecomposition:
    """Full decomposition of theta (x) mu in the level-k fusion ring."""
    entries: dict[Weight, int] = {}
    d = diag_fusion(rs, mu)
    finite = mu.finite
    if d:
        entries[finite] = d
    record = rs.derived.get("off_diagonal")
    if record is None:
        # bit n of passes[i][x], x = 0..c, is set when row n's threshold at label i is <= x
        rows = rule_table(rs)
        clip = max(max(floor) for _, floor in rows)
        passes = [[(1 << len(rows)) - 1] * (clip + 1) for _ in range(rs.rank + 1)]
        for n, (_, floor) in enumerate(rows):
            for i, t in enumerate(floor):
                for x in range(t):
                    passes[i][x] &= ~(1 << n)
        record = rs.derived["off_diagonal"] = rows, clip, passes, {}
    rows, clip, passes, classes = record
    clipped = tuple([x if x < clip else clip for x in mu.labels])
    betas = classes.get(clipped)
    if betas is None:
        bits = -1
        for x, label in zip(clipped, passes):
            bits &= label[x]
        found = []
        while bits:  # the set bits from low to high: the passing rows in `rs.roots` order
            low = bits & -bits
            found.append(rows[low.bit_length() - 1][0])
            bits ^= low
        betas = tuple(found)
        if len(classes) < _CLASS_CAP:
            classes[clipped] = betas
    for beta in betas:
        entries[tuple(map(add, finite, beta))] = 1
    return FusionDecomposition(entries)
