"""Independent cross-check for the closed-form rules.

theta (x) mu at level k is recomputed by Kac-Walton folding: each weight of the
adjoint weight system is added to mu + rho and reflected into the shifted
alcove, bounded by the finite walls and the affine wall (x, theta) = k + h^v,
with the reflection signs summed.  The tensor product is the same sum at the
stable level (theta, mu) + 2, where no shifted weight reaches the affine wall.
Nothing here shares logic with the rule modules beyond the root-system data
and the input checks of `weights`.
"""

from __future__ import annotations

from .algebra import RootSystem
from .weights import AffineWeight, Weight, _check_affine, affinize, stable_level


def adjoint_weight_system(rs: RootSystem) -> list[Weight]:
    """Weights of the adjoint representation, with multiplicity (zero r times)."""
    out = [beta.labels for beta in rs.roots]
    out.extend([(0,) * rs.rank] * rs.rank)
    return out


def affine_fold(rs: RootSystem, x: Weight, level: int) -> tuple[int, Weight | None]:
    """Fold x into the shifted affine alcove at the given level."""
    wall = level + rs.dual_coxeter
    sign = 1
    limit = 10 * len(rs.positive_roots) * (level + rs.dual_coxeter)
    for _ in range(limit):
        worst = min(range(rs.rank), key=lambda i: x[i])
        if x[worst] < 0:
            x = rs.reflect(x, worst)
            sign = -sign
            continue
        if x[worst] == 0:
            return 0, None
        s = rs.theta_pairing(x)
        if s == wall:
            return 0, None
        if s > wall:
            theta = rs.highest_root.labels
            x = tuple(a - (s - wall) * t for a, t in zip(x, theta))
            sign = -sign
            continue
        return sign, x
    raise RuntimeError(f"affine folding did not terminate for {x}")


def racah_speiser_tensor(rs: RootSystem, mu: Weight) -> dict[Weight, int]:
    """theta (x) mu as a tensor product: folding at the stable level."""
    return kac_walton_fusion(rs, affinize(rs, mu, stable_level(rs, mu)))


def kac_walton_fusion(rs: RootSystem, mu: AffineWeight) -> dict[Weight, int]:
    """theta (x) mu in the level-k fusion ring, by folding into the alcove."""
    _check_affine(rs, mu, "affine weight")
    k = mu.level
    acc: dict[Weight, int] = {}
    for w in adjoint_weight_system(rs):
        x = tuple(m + wi + 1 for m, wi in zip(mu.finite, w))
        sign, folded = affine_fold(rs, x, k)
        if sign == 0:
            continue
        nu = tuple(f - 1 for f in folded)
        acc[nu] = acc.get(nu, 0) + sign
    for nu, c in acc.items():
        if c < 0 or rs.theta_pairing(nu) > k:
            raise RuntimeError(f"theta x {mu} folded to {nu} with multiplicity {c} at level {k}")
    return {nu: c for nu, c in acc.items() if c != 0}
