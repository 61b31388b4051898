"""Independent cross-check for the closed-form rules.

theta (x) mu at level k is recomputed by Kac-Walton folding: each adjoint
weight beta (the roots, and zero r times) is added to mu + rho and reflected
into the shifted alcove, with the reflection signs summed.  The fold works in
affine labels, on x^ = mu^ + 1 + beta^ with beta^ = (-(theta, beta); beta): each
step reflects in the most negative label i, x^ - x^_i alpha^_i, where alpha^_0 =
(2; -theta) and alpha^_i = (-(theta, alpha_i); row i of the Cartan matrix), so
the affine wall is label 0 and no wall is special.  Every alpha^_i and beta^ has
level 0 under the affine comarks (1; a^v), checked once per root system where
the table is built, so a fold keeps sum a^v_i x^_i = k + h^v: a point with every
label >= 1 is nu^ + 1 with nu dominant at level k.  A point lies on a wall if
some x^_i = 0: a reflection fixes it, so its fold ends on a wall and it is
dropped.  It lies inside if every x^_i >= 1, and adds its multiplicity at mu +
beta unfolded.  Otherwise it lies outside.  Every x^_i >= 1 where mu^_i >= c =
max(0, -min beta^_i), 2 (3 for G2), so the class and an outside point's first
reflection y^ = x^ - 1 - worst alpha^_i depend only on mu^ clipped at c.  A y^
with a label below -1 (a second reflection) or a negative label at a clipped
position (an outcome beyond the clip) refuses the class with a RuntimeError,
where it is built; `tests/test_every_level.py` certifies, adjoint record by
record, that no class of any algebra of rank <= 40 is refused.  Every other
outcome is that of every mu^ of the class: kept at sign -1 and offset nu - mu =
y - mu if min y^ >= 0, dropped on a wall if it is -1.  The root system stores
per clipped mu^ the net signed offsets of the inside and kept points, zeros
dropped.  The tensor product is the same sum at the stable level (theta, mu) +
2, where no shifted weight reaches the affine wall.  Nothing here shares logic
with the rule modules beyond the root-system data and the input checks of
`weights`.
"""

from __future__ import annotations

from operator import add, mul, sub

from .algebra import RootSystem
from .weights import AffineWeight, Weight, _check_affine, affinize, stable_level

_CLASS_CAP = 3 ** 9  # E8's whole box {0..2}^9: no algebra of rank <= 8 fills it; A20's holds 3^21


def racah_speiser_tensor(rs: RootSystem, mu: Weight) -> dict[Weight, int]:
    """theta (x) mu as a tensor product: folding at the stable level."""
    return kac_walton_fusion(rs, affinize(rs, mu, stable_level(rs, mu)))


def _adjoint_weights(rs: RootSystem) -> tuple[tuple[tuple[tuple[int, ...], Weight, int], ...], int, dict, tuple]:
    """Each adjoint weight once as (beta^, beta, multiplicity), the clip c, the classes by clipped mu^,
    and the affine simple roots alpha^_0, ..., alpha^_r in affine labels."""
    if "adjoint_weights" not in rs.derived:
        zero = ((0,) * (rs.rank + 1), (0,) * rs.rank, rs.rank)
        weights = tuple(((-rs.theta_pairing(b.labels),) + b.labels, b.labels, 1) for b in rs.roots) + (zero,)
        walls = ((2, *(-t for t in rs.highest_root.labels)),) + tuple((-rs.theta_pairing(row), *row) for row in rs.cartan)
        # a fold keeps the level of x^ only if every step it adds has level 0
        if any(sum(map(mul, rs.affine_comarks, hat)) for hat in walls + tuple(hat for hat, _, _ in weights)):
            raise RuntimeError(f"{rs.algebra}: an affine simple root or adjoint weight has nonzero level")
        rs.derived["adjoint_weights"] = weights, max(0, -min(min(hat) for hat, _, _ in weights)), {}, walls
    return rs.derived["adjoint_weights"]


def _sorted_weights(rs: RootSystem, labels: tuple[int, ...]) -> tuple[tuple, tuple]:
    """By mu^ clipped at c: the net signed offsets nu - mu that every mu^ of the class shares, as the root
    system's own label tuples, and their multiplicities; stored under `_CLASS_CAP`.  A class with a point
    that one reflection does not settle for every mu^ of the class is refused where it is built."""
    weights, clip, classes, walls = _adjoint_weights(rs)
    clipped = tuple([m if m < clip else clip for m in labels])
    found = classes.get(clipped)
    if found is None:
        inside, kept = [], []
        for hat, beta, times in weights:
            x = [m + 1 + b for m, b in zip(clipped, hat)]
            if 0 not in x:
                worst = min(x)
                if worst > 0:
                    inside.append((beta, times))
                    continue
                y = [a - 1 - worst * w for a, w in zip(x, walls[x.index(worst)])]  # at sign -1
                low = min(y)
                if low < -1 or any(v < 0 for v, m in zip(y, clipped) if m == clip):
                    raise RuntimeError(f"{rs.algebra}: labels clipped to {clipped} leave {hat} unsettled "
                                       "by one reflection")
                if low >= 0:  # else on a wall for every mu^ of the class
                    kept.append((tuple(map(sub, y[1:], clipped[1:])), times))
        net = dict(inside)
        for off, times in kept:  # lands on an inside beta, whose tuple stays the key, or nets < 0 below
            net[off] = net.get(off, 0) - times
        found = tuple([beta for beta, m in net.items() if m]), tuple([m for m in net.values() if m])
        if min(found[1], default=0) < 0:
            raise RuntimeError(f"{rs.algebra}: labels clipped to {clipped} fold to multiplicity {min(found[1])}")
        if len(classes) < _CLASS_CAP:
            classes[clipped] = found
    return found


def kac_walton_fusion(rs: RootSystem, mu: AffineWeight) -> dict[Weight, int]:
    """theta (x) mu in the level-k fusion ring, by folding into the alcove."""
    _check_affine(rs, mu)
    offsets, times = _sorted_weights(rs, mu.labels)
    finite = mu.finite
    return {tuple(map(add, finite, off)): m for off, m in zip(offsets, times)}  # distinct offsets and weights
