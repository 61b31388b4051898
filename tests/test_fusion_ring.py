"""The level-k fusion matrix N_theta, checked whole over level grids.

Properties the fusion ring must have, read only from `decompose`,
`enumerate_level` and the enumerated tadpoles, so this route does not use the
folding oracle:

* N_theta,mu^nu = N_theta,nu^mu (theta is self-conjugate);
* every nu lies in the grid, with 1 <= N_theta,mu^nu <= rank;
* the grid has T_0(k) weights and the diagonal sums to T_theta(k);
* a simple current J, a symmetry of the affine Dynkin diagram acting on the
  affine labels (l_0, ..., l_r), keeps the coefficients:
  N_theta,J mu^J nu = N_theta,mu^nu;
* charge conjugation mu -> mu*, the symmetry of the finite Dynkin diagram
  that maps mu to its dual, keeps them too: N_theta,mu*^nu* = N_theta,mu^nu.
"""

import pytest

from fusionkit import AlgebraId, adjoint_tadpole_enum, build, decompose, enumerate_level, zero_tadpole_enum
from fusionkit.algebra import algebras_up_to

GRIDS = (
    [(a, k) for a in algebras_up_to(4) if a.family != "G" for k in range(2, 7)]
    + [(AlgebraId("D", r), k) for r in (5, 6) for k in range(2, 7)]
    + [(AlgebraId("E", r), k) for r in (6, 7) for k in range(2, 5)]
    + [(AlgebraId("E", 8), k) for k in range(2, 6)]
    + [(AlgebraId("G", 2), k) for k in range(2, 11)]
)


def _current(algebra):
    """One simple current as a map of affine labels (l_0, ..., l_r), or None.

    Label l_j, j >= 1, is that of Bourbaki node j (0-based node j - 1).  The
    affine node 0 hangs off node 2 in E6 and off node 1 in E7.
    """
    f, r = algebra.family, algebra.rank
    if f == "A":
        return lambda l: (l[r],) + l[:r]
    if f == "B":
        return lambda l: (l[1], l[0]) + l[2:]
    if f == "C":
        return lambda l: l[::-1]
    if f == "D":
        return lambda l: (l[1], l[0]) + l[2:r - 1] + (l[r], l[r - 1])
    if str(algebra) == "E6":
        # Z_3 turning the three legs (3, 1), (5, 6), (2, 0) about node 4
        return lambda l: (l[6], l[0], l[5], l[2], l[4], l[3], l[1])
    if str(algebra) == "E7":
        # Z_2 exchanging the ends of the long chain 0-1-3-4-5-6-7
        return lambda l: (l[7], l[6], l[2], l[5], l[4], l[3], l[1], l[0])
    return None


def _conjugation(algebra):
    """Charge conjugation as a map of finite labels (0-based nodes), or None
    where every weight is self-conjugate."""
    f, r = algebra.family, algebra.rank
    if f == "A" and r > 1:
        return lambda m: m[::-1]
    if f == "D" and r % 2:
        return lambda m: m[:r - 2] + (m[r - 1], m[r - 2])
    if str(algebra) == "E6":
        # nodes 0 <-> 5 and 2 <-> 4; node 1 hangs off node 3
        return lambda m: (m[5], m[1], m[4], m[3], m[2], m[0])
    return None


def _grid(algebra, level):
    """{affine labels of mu: {nu: N_theta,mu^nu}} over every mu at the level."""
    rs = build(algebra)
    return {mu.labels: decompose(rs, mu).entries for mu in enumerate_level(rs, level)}


@pytest.mark.parametrize("algebra, level", GRIDS, ids=str)
def test_theta_fusion_matrix_is_a_ring_matrix(algebra, level):
    rs = build(algebra)
    grid = _grid(algebra, level)
    by_finite = {labels[1:]: entries for labels, entries in grid.items()}
    assert len(grid) == zero_tadpole_enum(rs, level)
    for mu, entries in by_finite.items():
        for nu, n in entries.items():
            assert nu in by_finite, (mu, nu)
            assert 1 <= n <= rs.rank, (mu, nu, n)
            assert by_finite[nu].get(mu, 0) == n, (mu, nu)
    assert sum(entries.get(mu, 0) for mu, entries in by_finite.items()) == adjoint_tadpole_enum(rs, level)


@pytest.mark.parametrize("algebra, level", [(a, k) for a, k in GRIDS if _current(a)], ids=str)
def test_simple_current_keeps_theta_fusion(algebra, level):
    current = _current(algebra)
    grid = _grid(algebra, level)
    affine = {labels[1:]: labels for labels in grid}
    for labels, entries in grid.items():
        image = grid[current(labels)]
        assert len(image) == len(entries), labels
        for nu, n in entries.items():
            assert image.get(current(affine[nu])[1:], 0) == n, (labels, nu)


@pytest.mark.parametrize("algebra, level", [(a, k) for a, k in GRIDS if _conjugation(a)], ids=str)
def test_charge_conjugation_keeps_theta_fusion(algebra, level):
    star = _conjugation(algebra)
    by_finite = {labels[1:]: entries for labels, entries in _grid(algebra, level).items()}
    # the identity map would pass vacuously
    assert any(star(mu) != mu for mu in by_finite)
    for mu, entries in by_finite.items():
        assert by_finite[star(mu)] == {star(nu): n for nu, n in entries.items()}, mu
