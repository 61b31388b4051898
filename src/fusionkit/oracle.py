"""Independent cross-check for the closed-form rules.

theta (x) mu at level k is recomputed by Kac-Walton folding: each weight of the
adjoint weight system is added to mu + rho and reflected into the shifted
alcove, bounded by the finite walls and the affine wall (x, theta) = k + h^v,
with the reflection signs summed.  The r zero weights all shift to mu + rho, so
that point is folded once and its sign counted r times.  The tensor product is
the same sum at the stable level (theta, mu) + 2, where no shifted weight
reaches the affine wall.  Nothing here shares logic with the rule modules
beyond the root-system data and the input checks of `weights`.
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


def kac_walton_fusion(rs: RootSystem, mu: AffineWeight) -> dict[Weight, int]:
    """theta (x) mu in the level-k fusion ring, by folding into the alcove."""
    _check_affine(rs, mu)
    k = mu.level
    shifted = [m + 1 for m in mu.finite]
    # (point, how many adjoint weights shift to it): the roots, then the r zeros
    points = [(list(map(add, shifted, beta.labels)), 1) for beta in rs.roots]
    points.append((shifted, rs.rank))
    acc: dict[Weight, int] = {}
    for x, times in points:
        sign, folded = affine_fold(rs, x, k)
        if sign == 0:
            continue
        nu = tuple(f - 1 for f in folded)
        acc[nu] = acc.get(nu, 0) + sign * times
    for nu, c in acc.items():
        if c < 0 or rs.theta_pairing(nu) > k:
            raise RuntimeError(f"theta x {mu} folded to {nu} with multiplicity {c} at level {k}")
    return {nu: c for nu, c in acc.items() if c != 0}
