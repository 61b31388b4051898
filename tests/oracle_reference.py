"""The finite Racah-Speiser sum, kept as a cross-check of the oracle in
`fusionkit.oracle`, which computes the tensor product as fusion at the stable
level.

Here the shifted weights mu + w + rho are reflected into the open dominant
chamber by the finite Weyl group alone, with no affine wall and no level.
"""

from fusionkit.oracle import adjoint_weight_system


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
        x = rs.reflect(x, worst)
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
