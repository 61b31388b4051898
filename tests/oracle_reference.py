"""Reference folds, kept as cross-checks of the oracle in `fusionkit.oracle`.

`racah_speiser_finite` is the finite Racah-Speiser sum: the shifted weights
mu + w + rho are reflected into the open dominant chamber by the finite Weyl
group alone, with no affine wall and no level.  `affine_fold` and
`kac_walton_fusion` are the affine fold as the oracle first wrote it: on
tuples, one fold per weight of the adjoint weight system (the zero weight r
times), and the theta pairing through `RootSystem.theta_pairing`.
"""

from fusionkit.weights import _check_affine

from root_reference import reflect


def adjoint_weight_system(rs):
    """Weights of the adjoint representation, with multiplicity (zero r times)."""
    out = [beta.labels for beta in rs.roots]
    out.extend([(0,) * rs.rank] * rs.rank)
    return out


def finite_fold(rs, x):
    """Reflect the strictly-shifted weight x into the open chamber.

    Returns (sign, folded) with sign in {+1, -1}, or (0, None) when x lands on
    a wall and the orbit contributes nothing.
    """
    sign = 1
    limit = 10 * len(rs.positive_roots)
    for _ in range(limit):
        worst = min(range(rs.rank), key=lambda i: x[i])
        if x[worst] > 0:
            return sign, x
        if x[worst] == 0:
            return 0, None
        x = reflect(rs, x, worst)
        sign = -sign
    raise RuntimeError(f"folding did not terminate for {x}")


def racah_speiser_finite(rs, mu):
    """theta (x) mu as a tensor product, summed over the adjoint weight system."""
    if any(v < 0 for v in mu):
        raise ValueError(f"{mu} is not dominant")
    acc = {}
    for w in adjoint_weight_system(rs):
        x = tuple(m + wi + 1 for m, wi in zip(mu, w))
        sign, folded = finite_fold(rs, x)
        if sign == 0:
            continue
        nu = tuple(f - 1 for f in folded)
        acc[nu] = acc.get(nu, 0) + sign
    if any(c < 0 for c in acc.values()):
        raise RuntimeError(f"negative multiplicity in theta x {mu}: {acc}")
    return {nu: c for nu, c in acc.items() if c != 0}


def affine_fold(rs, x, level):
    """Fold x into the shifted affine alcove at the given level."""
    wall = level + rs.dual_coxeter
    sign = 1
    limit = 10 * len(rs.positive_roots) * (level + rs.dual_coxeter)
    for _ in range(limit):
        worst = min(range(rs.rank), key=lambda i: x[i])
        if x[worst] < 0:
            x = reflect(rs, x, worst)
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


def kac_walton_fusion(rs, mu):
    """theta (x) mu in the level-k fusion ring, by folding into the alcove."""
    _check_affine(rs, mu)
    k = mu.level
    acc = {}
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
