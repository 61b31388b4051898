"""Independent references for the benchmark's correctness checks.

Nothing here reads fusionkit's root-system data.  The dual Kac labels
(comarks) are typed from the standard tables (Kac, *Infinite-dimensional Lie
algebras*, Table Aff 1), and the tadpoles come from Sylvester's denumerant:

* the vacuum tadpole T0(k) counts the solutions of sum_i a_i^vee x_i = k over
  the affine nodes i = 0..r, i.e. the dominant affine weights at level k;
* the adjoint tadpole sums (nonzero affine labels - 1) over those weights,
  and each node i is nonzero on exactly T0(k - a_i^vee) of them, so
  T_theta(k) = sum_i T0(k - a_i^vee) - T0(k).
"""

from __future__ import annotations


def parse_name(name: str) -> tuple[str, int]:
    return name[0].upper(), int(name[1:])


def dual_kac_labels(name: str) -> tuple[int, ...]:
    """(a_0^vee, a_1^vee, ..., a_r^vee) in fusionkit's node order.

    That order is Bourbaki's, with the E-series branch node second, except
    for G2, whose first node is the long root.
    """
    family, r = parse_name(name)
    if family in "AC":
        finite = (1,) * r
    elif family == "B":
        finite = (1,) + (2,) * (r - 2) + (1,)
    elif family == "D":
        finite = (1,) + (2,) * (r - 3) + (1, 1)
    else:
        finite = {
            "E6": (1, 2, 2, 3, 2, 1),
            "E7": (2, 2, 3, 4, 3, 2, 1),
            "E8": (2, 3, 4, 6, 5, 4, 3, 2),
            "F4": (2, 3, 2, 1),
            "G2": (2, 1),
        }[f"{family}{r}"]
    return (1,) + finite


def vacuum_tadpoles(name: str, top: int) -> tuple[int, ...]:
    """T0(0), ..., T0(top): coefficients of prod_i 1 / (1 - q^(a_i^vee))."""
    counts = [1] + [0] * top
    for a in dual_kac_labels(name):
        for k in range(a, top + 1):
            counts[k] += counts[k - a]
    return tuple(counts)


def adjoint_tadpoles(name: str, top: int) -> tuple[int, ...]:
    """T_theta(0), ..., T_theta(top); only levels >= 2 are meaningful."""
    t0 = vacuum_tadpoles(name, top)
    labels = dual_kac_labels(name)
    return tuple(
        sum(t0[k - a] for a in labels if k >= a) - t0[k] for k in range(top + 1)
    )


def tadpoles(name: str, kind: str, top: int) -> tuple[int, ...]:
    """Tadpoles of one kind ("adjoint" or "zero") at levels 0..top."""
    return (adjoint_tadpoles if kind == "adjoint" else vacuum_tadpoles)(name, top)


def tadpole(name: str, kind: str, level: int) -> int:
    return tadpoles(name, kind, level)[level]


def check_tadpoles(values: dict[tuple[str, str, int], int]) -> list[str]:
    """Compare {(algebra, kind, level): value} against the denumerant."""
    tables = {}
    for name, kind, level in values:
        tables[name, kind] = max(level, tables.get((name, kind), 0))
    tables = {key: tadpoles(*key, top) for key, top in tables.items()}
    bad = []
    for (name, kind, level), got in sorted(values.items()):
        want = tables[name, kind][level]
        if got != want:
            bad.append(f"{name} {kind} tadpole at level {level}: got {got}, denumerant {want}")
    return bad


def check_fusion_grid(
    name: str, level: int, results: dict[tuple[int, ...], dict[tuple[int, ...], int]]
) -> list[str]:
    """Properties the level-k fusion ring must have, over a whole level grid.

    `results` maps the affine labels of every dominant weight mu at the level
    to the decomposition {nu: N_theta,mu^nu} of theta (x) mu.
    """
    labels = dual_kac_labels(name)
    rank = len(labels) - 1
    bad = []
    if len(results) != vacuum_tadpoles(name, level)[level]:
        bad.append(f"{name} level {level}: {len(results)} weights, denumerant counts "
                   f"{vacuum_tadpoles(name, level)[level]}")
    by_finite = {mu[1:]: entries for mu, entries in results.items()}
    diagonal = 0
    for mu, entries in by_finite.items():
        diagonal += entries.get(mu, 0)
        for nu, mult in entries.items():
            at = sum(a * x for a, x in zip(labels[1:], nu))
            if len(nu) != rank or min(nu) < 0 or at > level:
                bad.append(f"{name} level {level}: theta x {mu} gives {nu}, not dominant at the level")
                continue
            if not 1 <= mult <= rank:
                bad.append(f"{name} level {level}: theta x {mu} gives {nu} with multiplicity {mult}")
            back = by_finite.get(nu, {}).get(mu, 0)
            if back != mult:
                bad.append(f"{name} level {level}: N(theta,{mu})^{nu} = {mult} "
                           f"but N(theta,{nu})^{mu} = {back}")
    want = adjoint_tadpoles(name, level)[level]
    if diagonal != want:
        bad.append(f"{name} level {level}: diagonal sum {diagonal}, denumerant adjoint tadpole {want}")
    return bad
