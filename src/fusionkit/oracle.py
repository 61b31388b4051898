"""Independent cross-check for the closed-form rules.

theta (x) mu at level k is recomputed by Kac-Walton folding: each adjoint
weight beta (the roots, and zero r times) is added to mu + rho and reflected
into the shifted alcove, bounded by the finite walls and the affine wall
(x, theta) = k + h^v, with the reflection signs summed.  In affine labels the
shifted point is x^ = mu^ + 1 + beta^, with beta^ = (-(theta, beta); beta).  It
lies on a wall if some x^_i = 0: a reflection of the shifted affine Weyl group
fixes it, so its fold ends on a wall and it is dropped.  It lies inside if
every x^_i >= 1, and adds its multiplicity at mu + beta unfolded.  Otherwise it
lies outside, and `affine_fold` folds it.  Every x^_i >= 1 where mu^_i >= c =
max(0, -min beta^_i), 2 (3 for G2), so the class depends only on mu^ clipped
at c: the root system stores the adjoint weights sorted once per clipped mu^.
The tensor product is the same sum at the stable level (theta, mu) + 2, where
no shifted weight reaches the affine wall.  Nothing here shares logic with the
rule modules beyond the root-system data and the input checks of `weights`.
"""

from __future__ import annotations

from operator import add, mul

from .algebra import RootSystem
from .weights import AffineWeight, Weight, _check_affine, affinize, stable_level


def affine_fold(rs: RootSystem, x: list[int], level: int) -> tuple[int, list[int] | None]:
    """Fold x into the shifted affine alcove at the given level: (sign, folded) or (0, None)."""
    cartan, comarks, theta = rs.cartan, rs.comarks, rs.highest_root.labels
    wall = level + rs.dual_coxeter
    sign = 1
    for _ in range(10 * len(rs.positive_roots) * wall):
        worst = min(x)
        if worst < 0:
            x = [a - worst * c for a, c in zip(x, cartan[x.index(worst)])]
            sign = -sign
            continue
        if worst == 0:
            return 0, None
        over = sum(map(mul, comarks, x)) - wall
        if over == 0:
            return 0, None
        if over > 0:
            x = [a - over * t for a, t in zip(x, theta)]
            sign = -sign
            continue
        return sign, x
    raise RuntimeError(f"affine folding did not terminate for {x}")


def racah_speiser_tensor(rs: RootSystem, mu: Weight) -> dict[Weight, int]:
    """theta (x) mu as a tensor product: folding at the stable level."""
    return kac_walton_fusion(rs, affinize(rs, mu, stable_level(rs, mu)))


def _adjoint_weights(rs: RootSystem) -> tuple[tuple[tuple[tuple[int, ...], Weight, int], ...], int, dict]:
    """Each adjoint weight once as (beta^, beta, multiplicity), the clip c, and the classes by clipped mu^."""
    if "adjoint_weights" not in rs.derived:
        zero = ((0,) * (rs.rank + 1), (0,) * rs.rank, rs.rank)
        weights = tuple(((-rs.theta_pairing(b.labels),) + b.labels, b.labels, 1) for b in rs.roots) + (zero,)
        rs.derived["adjoint_weights"] = weights, max(0, -min(min(hat) for hat, _, _ in weights)), {}
    return rs.derived["adjoint_weights"]


def _sorted_weights(rs: RootSystem, labels: tuple[int, ...]) -> tuple[tuple, tuple]:
    """The adjoint weights that shift mu^ inside the alcove, and those outside it, by mu^ clipped at c."""
    weights, clip, classes = _adjoint_weights(rs)
    clipped = tuple([m if m < clip else clip for m in labels])
    if clipped not in classes:
        inside, outside = [], []
        for weight in weights:
            x = [m + 1 + b for m, b in zip(clipped, weight[0])]
            if 0 not in x:
                (inside if min(x) > 0 else outside).append(weight)
        classes[clipped] = tuple(inside), tuple(outside)
    return classes[clipped]


def kac_walton_fusion(rs: RootSystem, mu: AffineWeight) -> dict[Weight, int]:
    """theta (x) mu in the level-k fusion ring, by folding into the alcove."""
    _check_affine(rs, mu)
    k = mu.level
    inside, outside = _sorted_weights(rs, mu.labels)
    # distinct weights, each added unfolded at mu + beta
    acc = {tuple(map(add, mu.finite, beta)): times for _, beta, times in inside}
    shifted = [m + 1 for m in mu.finite]
    for _, beta, times in outside:
        sign, folded = affine_fold(rs, list(map(add, shifted, beta)), k)
        if sign:
            nu = tuple(f - 1 for f in folded)
            acc[nu] = acc.get(nu, 0) + sign * times
    for nu, c in acc.items():
        if c < 0 or rs.theta_pairing(nu) > k:
            raise RuntimeError(f"theta x {mu} folded to {nu} with multiplicity {c} at level {k}")
    return {nu: c for nu, c in acc.items() if c != 0}
