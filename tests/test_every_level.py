"""The rules equal folding at every level: a finite certificate per algebra.

Both routes read mu^ = (mu_0; mu) only through mu^ clipped at the oracle's
clip c = max(0, -min beta^_i), 2 (3 for G2), and both put their terms at
offsets nu - mu that the clipped mu^ alone fixes:

- `decompose` keeps mu + beta when mu^ passes beta's row of `rule_table`,
  label by label mu^_i >= t_i.  If every threshold t_i is <= c, then mu^_i
  >= t_i exactly when min(mu^_i, c) >= t_i.  Its diagonal term at mu counts
  the nonzero labels, less one, and clipping at c >= 1 keeps a label nonzero.
- `kac_walton_fusion` adds, to mu, the net offsets its class stores per
  clipped mu^, and folds the class's `rest` from mu^ itself.  The oracle's
  clip lemma (see `fusionkit.oracle`) makes each stored offset the outcome of
  every mu^ of the class, so with an empty rest its result reads the clipped
  mu^ alone.

Every mu^ of level >= 2 clips to a v in the box {0..c}^{r+1} of level >= 2:
either no label is clipped and v = mu^, or some label becomes c >= 2.  So if
every threshold is <= c, and at every v of the box of level >= 2 the class
has an empty rest and `decompose` equals `kac_walton_fusion`, then the two
routes agree at every mu^ of every level >= 2, each being mu plus the same
offsets as at v.  That covers the stable-level tensor product too, which is
the fusion product at level (theta, mu) + 2.  `certify` runs the three checks
on one root system and returns what fails.  The tests run it on every algebra
of rank <= 6 (15,332 box weights, about 2.5 s); a CI step runs it on A7, B7,
C7, D7, E7 and E8 (about 17 s) under python and python -O.
"""

from itertools import product
from operator import mul

import pytest

from fusionkit import AffineWeight, RootSystem, adjoint_rules, build, decompose, kac_walton_fusion, oracle
from fusionkit.algebra import algebras_up_to


def certify(rs: RootSystem) -> list[str]:
    """The certificate's failures for one root system: rule thresholds above the clip, box classes with a
    rest, and box weights where the two routes differ.  Empty when the rules equal folding at every level."""
    clip = oracle._adjoint_weights(rs)[1]
    failures = [f"{rs.algebra}: threshold {t} of {beta} exceeds the clip {clip}"
                for beta, floor in adjoint_rules.rule_table(rs) for t in floor if t > clip]
    for v in product(range(clip + 1), repeat=rs.rank + 1):
        mu = AffineWeight(sum(map(mul, rs.affine_comarks, v)), v)
        if mu.level >= 2:
            if oracle._sorted_weights(rs, v)[2]:
                failures.append(f"{rs.algebra}: the class of {v} needs the labels beyond the clip")
            if decompose(rs, mu).entries != kac_walton_fusion(rs, mu):
                failures.append(f"{rs.algebra}: the rules and folding differ at {v}")
    return failures


@pytest.mark.parametrize("algebra", algebras_up_to(6), ids=str)
def test_the_rules_equal_folding_at_every_level(algebra):
    assert certify(build(algebra)) == []


def test_a_lowered_threshold_fails_the_certificate(monkeypatch):
    # theta's zeroth threshold 2 lowered to 1: decompose then adds mu + theta,
    # past the level, wherever mu^_0 = 1
    rs = RootSystem(build("A2").algebra)
    rows = adjoint_rules.rule_table(rs)
    n = next(n for n, (beta, _) in enumerate(rows) if beta == rs.highest_root.labels)
    beta, floor = rows[n]
    assert floor[0] == 2
    planted = rows[:n] + ((beta, (1,) + floor[1:]),) + rows[n + 1:]
    monkeypatch.setattr(adjoint_rules, "rule_table", lambda _: planted)
    failures = certify(rs)
    assert failures and all(f.startswith("A2: the rules and folding differ at (1, ") for f in failures), failures


def test_a_threshold_above_the_clip_fails_the_certificate(monkeypatch):
    rs = RootSystem(build("B3").algebra)
    rows = adjoint_rules.rule_table(rs)
    beta, floor = rows[0]
    monkeypatch.setattr(adjoint_rules, "rule_table", lambda _: ((beta, floor[:-1] + (3,)),) + rows[1:])
    assert f"B3: threshold 3 of {beta} exceeds the clip 2" in certify(rs)


def test_a_changed_class_term_fails_the_certificate():
    rs = RootSystem(build("C3").algebra)
    v = (1, 0, 2, 1)
    offsets, times, rest = oracle._sorted_weights(rs, v)
    oracle._adjoint_weights(rs)[2][v] = offsets, times[:-1] + (times[-1] + 1,), rest
    assert certify(rs) == ["C3: the rules and folding differ at (1, 0, 2, 1)"]


def test_a_class_with_a_rest_fails_the_certificate():
    # a planted rest record on a wall folds to nothing: the fusion still
    # agrees, but the class no longer reads the clipped labels alone
    rs = RootSystem(build("G2").algebra)
    v = (0, 3, 1)
    offsets, times, _ = oracle._sorted_weights(rs, v)
    wall = (-1,) + (0,) * rs.rank, None, 1  # x^ = v^ + 1 + beta^ has x^_0 = 0
    oracle._adjoint_weights(rs)[2][v] = offsets, times, (wall,)
    assert certify(rs) == ["G2: the class of (0, 3, 1) needs the labels beyond the clip"]
