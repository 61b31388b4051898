import ast
import random
import tracemalloc
from fractions import Fraction
from itertools import islice, product
from operator import mul
from pathlib import Path

import pytest

from fusionkit import (
    AffineWeight,
    AlgebraMismatch,
    LevelMismatch,
    LevelTooSmall,
    RootSystem,
    affinize,
    build,
    decompose,
    decompose_tensor,
    enumerate_level,
    kac_walton_fusion,
    racah_speiser_tensor,
)
from fusionkit import oracle
from fusionkit.algebra import algebras_up_to, parse_algebra
from fusionkit.verify import run_verify
from fusionkit.weights import stable_level
from oracle_reference import adjoint_weight_system, finite_fold, racah_speiser_finite
from oracle_reference import affine_fold as reference_fold
from oracle_reference import kac_walton_fusion as reference_fusion
from root_reference import symmetrizer


def weyl_dimension(rs, lam):
    """Product over positive roots of (lam + rho, beta) / (rho, beta)."""
    d, total = symmetrizer(rs.algebra), Fraction(1)
    for beta in rs.positive_roots:
        num = sum((lam[j] + 1) * beta.coords[j] * d[j] for j in range(rs.rank))
        den = sum(beta.coords[j] * d[j] for j in range(rs.rank))
        total *= Fraction(num) / Fraction(den)
    assert total.denominator == 1
    return int(total)


def test_weyl_dimension_helper():
    assert weyl_dimension(build("A2"), (1, 1)) == 8
    assert weyl_dimension(build("A1"), (2,)) == 3
    assert weyl_dimension(build("G2"), (1, 0)) == 14
    assert weyl_dimension(build("B3"), (0, 1, 0)) == 21


def test_adjoint_weight_system_size():
    for name in ("A3", "B3", "G2", "F4"):
        rs = build(name)
        ws = adjoint_weight_system(rs)
        assert len(ws) == len(rs.roots) + rs.rank
        assert ws.count((0,) * rs.rank) == rs.rank
        # and its size is the adjoint dimension
        assert len(ws) == weyl_dimension(rs, rs.highest_root.labels)


def test_finite_fold():
    rs = build("A2")
    assert finite_fold(rs, (1, 2)) == (1, (1, 2))
    assert finite_fold(rs, (0, 2)) == (0, None)
    sign, folded = finite_fold(rs, (-1, 2))
    assert sign == -1 and all(x > 0 for x in folded)


def test_racah_speiser_frozen_values():
    assert racah_speiser_tensor(build("A2"), (1, 1)) == {
        (0, 0): 1, (1, 1): 2, (3, 0): 1, (0, 3): 1, (2, 2): 1,
    }
    assert racah_speiser_tensor(build("A1"), (2,)) == {(0,): 1, (2,): 1, (4,): 1}
    assert racah_speiser_tensor(build("G2"), (1, 0)) == {
        (0, 0): 1, (1, 0): 1, (0, 2): 1, (2, 0): 1, (0, 3): 1,
    }


@pytest.mark.parametrize("name", ("A2", "A3", "B3", "C3", "D4", "G2", "F4"))
def test_tensor_dimensions_balance(name):
    # sum of multiplicity-weighted dimensions must equal dim(adjoint) * dim(mu)
    rs = build(name)
    dim_adjoint = len(rs.roots) + rs.rank
    rng = random.Random(f"dims:{name}")
    for _ in range(6):
        mu = tuple(rng.randint(0, 2) for _ in range(rs.rank))
        product = racah_speiser_tensor(rs, mu)
        assert decompose_tensor(rs, mu).entries == product
        got = sum(c * weyl_dimension(rs, nu) for nu, c in product.items())
        assert got == dim_adjoint * weyl_dimension(rs, mu)


def test_kac_walton_frozen_values():
    a1 = build("A1")
    assert kac_walton_fusion(a1, affinize(a1, (2,), 2)) == {(0,): 1}
    assert kac_walton_fusion(a1, affinize(a1, (2,), 3)) == {(0,): 1, (2,): 1}
    assert kac_walton_fusion(a1, affinize(a1, (1,), 3)) == {(1,): 1, (3,): 1}
    a2 = build("A2")
    assert kac_walton_fusion(a2, affinize(a2, (1, 1), 2)) == {(0, 0): 1, (1, 1): 1}
    g2 = build("G2")
    assert kac_walton_fusion(g2, affinize(g2, (1, 0), 3)) == {
        (0, 0): 1, (0, 2): 1, (0, 3): 1, (1, 0): 1,
    }


def test_kac_walton_needs_level_two():
    a1 = build("A1")
    with pytest.raises(LevelTooSmall, match=r"^adjoint fusion needs level >= 2, got 1$"):
        kac_walton_fusion(a1, affinize(a1, (1,), 1))
    with pytest.raises(ValueError, match=r"^affine weight \(3, -1\) is not dominant$"):
        kac_walton_fusion(a1, type(affinize(a1, (1,), 3))(3, (3, -1)))
    a2 = build("A2")
    with pytest.raises(AlgebraMismatch, match=r"^affine weight \(1, 1, 1, 0\) needs 3 labels$"):
        kac_walton_fusion(a2, AffineWeight(3, (1, 1, 1, 0)))
    with pytest.raises(LevelMismatch, match=r"^affine weight \(5, 0, 0\) does not lie at level 2$"):
        kac_walton_fusion(a2, AffineWeight(2, (5, 0, 0)))
    with pytest.raises(LevelMismatch, match=r"^affine weight \(0, 2, 2\) does not lie at level 3$"):
        kac_walton_fusion(a2, AffineWeight(3, (0, 2, 2)))
    for malformed in ((1, 0, 0), (1,)):
        with pytest.raises(AlgebraMismatch):
            racah_speiser_tensor(a2, malformed)
    with pytest.raises(ValueError, match=r"^\(0, -1\) is not dominant$"):
        racah_speiser_tensor(a2, (0, -1))


@pytest.mark.parametrize("algebra", algebras_up_to(4), ids=str)
def test_stable_level_tensor_matches_finite_sum(algebra):
    # at level (theta, mu) + 2 the affine wall is out of reach, so folding
    # there is the finite Racah-Speiser sum
    rs = build(algebra)
    for mu in enumerate_level(rs, 4):
        assert racah_speiser_tensor(rs, mu.finite) == racah_speiser_finite(rs, mu.finite)


def test_stable_level_is_tight():
    # one level lower, A2 (1,0) already loses (2,1): (theta, (2,1)) = 3
    a2 = build("A2")
    assert stable_level(a2, (1, 0)) == 3
    tensor = racah_speiser_finite(a2, (1, 0))
    assert tensor[(2, 1)] == 1
    assert racah_speiser_tensor(a2, (1, 0)) == tensor
    assert decompose_tensor(a2, (1, 0)).entries == tensor
    assert (2, 1) not in kac_walton_fusion(a2, affinize(a2, (1, 0), 2))


@pytest.mark.parametrize("name,level", [("A2", 4), ("B3", 3), ("C2", 5), ("G2", 4)])
def test_fusion_truncates_tensor(name, level):
    # every fusion coefficient is bounded by the tensor one, and the support
    # stays inside the level
    rs = build(name)
    for mu in enumerate_level(rs, level):
        fus = kac_walton_fusion(rs, mu)
        ten = racah_speiser_tensor(rs, mu.finite)
        for nu, c in fus.items():
            assert 0 < c <= ten[nu]
            assert rs.theta_pairing(nu) <= level


@pytest.mark.parametrize("name,level", [("A1", 8), ("A3", 3), ("B4", 3), ("F4", 4), ("D4", 4)])
def test_rules_equal_oracle_spot(name, level):
    rs = build(name)
    for mu in enumerate_level(rs, level):
        assert decompose(rs, mu).entries == kac_walton_fusion(rs, mu)


@pytest.mark.parametrize("x,want", [
    ([0, 5], (0, None)),   # on the affine wall: (x, theta) = k + h^v = 5
    ([-1, 6], (-1, [4])),  # beyond it: reflected back across the affine wall
    ([6, -1], (-1, [1])),  # beyond a finite wall: the simple reflection
    ([5, 0], (0, None)),   # on a finite wall
    ([2, 3], (1, [3])),    # inside the shifted alcove
])
def test_affine_fold_branches(x, want):
    # the reference fold, in finite coordinates with the affine wall apart, at
    # the points x^ of A1 at k = 3, whose affine labels sum to k + h^v = 5
    sign, folded = reference_fold(build("A1"), tuple(x[1:]), 3)
    assert (sign, None if folded is None else list(folded)) == want


def _identity_grid():
    for algebra in algebras_up_to(4):
        for level in range(2, 7):
            yield build(algebra), level
    for name in ("E6", "E7", "E8"):
        for level in (2, 3):
            yield build(name), level
    yield build("F4"), 8
    yield build("G2"), 20


def test_oracle_equals_reference_fold():
    # the list fold, with mu + rho folded once for the r zero weights, returns
    # exactly what one tuple fold per adjoint weight returns
    checked = 0
    for rs, level in _identity_grid():
        for mu in enumerate_level(rs, level):
            assert kac_walton_fusion(rs, mu) == reference_fusion(rs, mu), (rs.algebra, mu)
            checked += 1
    assert checked == 2505
    for algebra in algebras_up_to(4):
        rs = build(algebra)
        rng = random.Random(f"tensor:{algebra}")
        for _ in range(20):
            mu = tuple(rng.randint(0, 3) for _ in range(rs.rank))
            want = reference_fusion(rs, affinize(rs, mu, stable_level(rs, mu)))
            assert racah_speiser_tensor(rs, mu) == want, (algebra, mu)


def _sorting_grid():
    # the identity grid, the stable-level tensor inputs, and labels far above the clip
    for rs, level in _identity_grid():
        yield from ((rs, mu) for mu in enumerate_level(rs, level))
    for algebra in algebras_up_to(4):
        rs = build(algebra)
        rng = random.Random(f"tensor:{algebra}")
        for _ in range(20):
            mu = tuple(rng.randint(0, 3) for _ in range(rs.rank))
            yield rs, affinize(rs, mu, stable_level(rs, mu))
    yield from ((build("A1"), mu) for mu in enumerate_level(build("A1"), 30))


def _outside_records(rs, mu):
    """The adjoint records whose point x^ = mu^ + 1 + beta^ lies outside, in record order, each with x^."""
    weights = oracle._adjoint_weights(rs)[0]
    points = ([m + 1 + b for m, b in zip(mu.labels, weight[0])] for weight in weights)
    return [(weight, x) for weight, x in zip(weights, points) if min(x) < 0 and 0 not in x]


def _shared_offsets(rs):
    """The ids of the root system's own label tuples: one per root, and the zero weight's record."""
    return {id(b.labels) for b in rs.roots} | {id(oracle._adjoint_weights(rs)[0][-1][1])}


def test_sorting_classes_fold_as_claimed():
    # each class's net terms are the tuple fold of every adjoint weight,
    # summed at nu - mu with the reflection signs, zeros dropped: on labels far
    # above the clip too, so the settled outcomes hold across the class; a
    # point inside folds to itself and one on a wall to nothing; every offset
    # is one of the root system's own beta tuples, every multiplicity a
    # positive int at most the rank
    checked, systems = 0, set()
    for rs, mu in _sorting_grid():
        weights, clip, _, _ = oracle._adjoint_weights(rs)
        offsets, times = oracle._sorted_weights(rs, tuple(min(m, clip) for m in mu.labels))
        if rs not in systems:
            assert sorted(beta for _, beta, times in weights for _ in range(times)) == sorted(adjoint_weight_system(rs))
            systems.add(rs)
        want = {}
        for _, beta, multiplicity in weights:
            x = tuple(m + 1 + b for m, b in zip(mu.finite, beta))
            hat = [mu.level + rs.dual_coxeter - rs.theta_pairing(x), *x]
            sign, folded = reference_fold(rs, x, mu.level)
            if min(hat) >= 1:
                assert (sign, folded) == (1, x), (rs.algebra, mu, beta)
            elif 0 in hat:
                assert sign == 0, (rs.algebra, mu, beta)
            if sign:
                offset = tuple(f - 1 - m for f, m in zip(folded, mu.finite))
                want[offset] = want.get(offset, 0) + sign * multiplicity
        assert dict(zip(offsets, times)) == {nu: c for nu, c in want.items() if c}, (rs.algebra, mu)
        assert len(offsets) == len(times), (rs.algebra, mu)
        assert {id(off) for off in offsets} <= _shared_offsets(rs), (rs.algebra, mu)
        assert all(type(m) is int and 0 < m <= rs.rank for m in times), (rs.algebra, mu)
        checked += 1
    assert checked == 2505 + 20 * len(algebras_up_to(4)) + 31


def test_affine_fold_matches_the_reference_point_by_point():
    # every outside point's first reflection, at the first least label i,
    # flips label i, keeps the level sum k + h^v and settles the point: the
    # reflected labels are all >= 0, and the reference fold of x gives the
    # reflected point at sign -1 when they are all >= 1, nothing when one is 0
    e8 = build("E8")
    checked = kept = 0
    for rs, mu in [*_sorting_grid(), *((e8, mu) for mu in enumerate_level(e8, 4))]:
        walls = oracle._adjoint_weights(rs)[3]
        for (_, beta, _), x_hat in _outside_records(rs, mu):
            want = reference_fold(rs, tuple(m + 1 + b for m, b in zip(mu.finite, beta)), mu.level)
            worst = min(x_hat)
            i = x_hat.index(worst)
            step = [a - worst * w for a, w in zip(x_hat, walls[i])]
            assert step[i] == -worst
            assert sum(map(mul, rs.affine_comarks, step)) == mu.level + rs.dual_coxeter
            assert min(step) >= 0, (rs.algebra, mu, beta)
            assert want == ((-1, tuple(step[1:])) if min(step) else (0, None)), (rs.algebra, mu, beta)
            kept += bool(want[0])
            checked += 1
    assert (checked, kept) == (8329, 7414)


def test_sorting_cache_is_bounded_and_shares_the_records():
    # one entry per root system and clipped mu^, at most (c + 1)^(r + 1) of
    # them, each a pair: the net offsets, drawn from the root system's own
    # beta tuples, and their multiplicities; equal outcomes
    # merge, so the classes hold fewer terms than their non-wall points; the
    # root system keeps no other oracle slot.  For A, D and E the outside
    # points (theta at mu^_0 = 0, -alpha_i at mu^_i = 0) reflect once back to
    # mu^ + 1: each settles, kept at offset 0
    systems = [build(algebra) for algebra in algebras_up_to(4)]
    for rs in systems:
        rs.derived.clear()
    assert run_verify(4, 7).ok
    for rs in systems:
        weights, clip, classes, walls = oracle._adjoint_weights(rs)
        assert set(rs.derived) - {"off_diagonal", "vacuum_counts"} == {"adjoint_weights"}, rs.algebra
        keys = {tuple(min(m, clip) for m in mu.labels) for k in range(2, 8) for mu in enumerate_level(rs, k)}
        assert len(keys) <= (clip + 1) ** (rs.rank + 1)
        assert set(classes) == keys, rs.algebra
        shared, stored, points = _shared_offsets(rs), 0, 0
        for key in keys:
            offsets, times = sorted_class = oracle._sorted_weights(rs, key)
            assert sorted_class is classes[key]
            assert {id(off) for off in offsets} <= shared and len(times) == len(offsets)
            stored += len(offsets)
            hats = [[m + 1 + b for m, b in zip(key, hat)] for hat, _, _ in weights]
            points += sum(1 for x in hats if 0 not in x)
            if rs.algebra.family in "ADE":
                for x in hats:
                    if 0 not in x and min(x) < 0:
                        worst = min(x)
                        step = [a - worst * w for a, w in zip(x, walls[x.index(worst)])]
                        assert step == [m + 1 for m in key], (rs.algebra, key, x)
        assert stored < points, rs.algebra


@pytest.mark.parametrize("algebra", [*algebras_up_to(6), parse_algebra("E7"), parse_algebra("E8")], ids=str)
def test_oracle_reads_labels_only_through_the_clip(algebra):
    # labels from c to 1000 change neither an adjoint weight's class nor an
    # outside point's first reflection, so the stored reflections fuse such a
    # weight, and its stable-level tensor product, as the tuple fold does
    rs = build(algebra)
    clip = max(max(rs.theta_pairing(beta.labels), -min(beta.labels)) for beta in rs.roots)
    rng = random.Random(f"oracle clip:{algebra}")

    def labels(n):
        drawn = [rng.randint(clip, 1000) if rng.random() < 0.5 else rng.randint(0, clip - 1) for _ in range(n)]
        drawn[rng.randrange(n)] = rng.randint(clip + 1, 1000)
        return tuple(drawn)

    high = 0
    for _ in range(60):
        hat = labels(rs.rank + 1)
        mu = AffineWeight(sum(map(mul, rs.affine_comarks, hat)), hat)
        assert kac_walton_fusion(rs, mu) == reference_fusion(rs, mu), hat
        high += sum(m > clip for m in hat)
    for _ in range(20):
        finite = labels(rs.rank)
        want = reference_fusion(rs, affinize(rs, finite, stable_level(rs, finite)))
        assert racah_speiser_tensor(rs, finite) == want, finite
        high += sum(m > clip for m in finite)
    assert high > 80


def test_a_class_that_nets_below_zero_is_refused():
    # a hand-built A2 whose zero weight counts once, not r = 2 times: mu = 0
    # nets -1 at offset 0, as the two outside points -alpha_i reflect back to
    # mu^ + 1, and the class is refused where it is built
    rs = RootSystem(build("A2").algebra)
    weights, clip, classes, walls = oracle._adjoint_weights(rs)
    hat, zero, times = weights[-1]
    assert (zero, times) == ((0, 0), 2)
    rs.derived["adjoint_weights"] = weights[:-1] + ((hat, zero, 1),), clip, classes, walls
    with pytest.raises(RuntimeError, match=r"^A2: labels clipped to \(2, 0, 0\) fold to multiplicity -1$"):
        kac_walton_fusion(rs, affinize(rs, (0, 0), 3))
    assert classes == {}


def test_class_store_stops_at_its_cap(monkeypatch):
    # past the cap a class is sorted and returned unstored: a hand-built
    # instance with the cap at 5 fuses as the shared one and stores 5 classes
    for name, top in (("A3", 7), ("F4", 5)):
        shared = build(name)
        grid = [mu for level in range(2, top + 1) for mu in enumerate_level(shared, level)]
        want = [kac_walton_fusion(shared, mu) for mu in grid]
        with monkeypatch.context() as patched:
            patched.setattr(oracle, "_CLASS_CAP", 5)
            rs = RootSystem(shared.algebra)
            assert [kac_walton_fusion(rs, mu) for mu in grid] == want
            _, clip, classes, _ = oracle._adjoint_weights(rs)
        assert len(classes) == 5
        assert len({tuple(min(m, clip) for m in mu.labels) for mu in grid}) > 5


def test_the_real_cap_leaves_a_class_unstored():
    # A9's box {0..2}^10 holds 3^10 classes: fill the real cap, 3^9, with the
    # box classes of level >= 2, tracing the last 3^6 of them, which the store
    # takes without a resize; the next class fuses as the tuple fold does and
    # is not stored
    rs = RootSystem(parse_algebra("A9"))
    _, clip, classes, _ = oracle._adjoint_weights(rs)
    box = (v for v in product(range(clip + 1), repeat=rs.rank + 1) if sum(map(mul, rs.affine_comarks, v)) >= 2)
    for v in islice(box, oracle._CLASS_CAP - 3 ** 6):
        oracle._sorted_weights(rs, v)
    tracemalloc.start()
    try:
        for v in islice(box, 3 ** 6):
            oracle._sorted_weights(rs, v)
        traced = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    size = f"{traced} B by tracemalloc for the last 3^6 classes, {traced // 3 ** 6} B a class"
    assert len(classes) == oracle._CLASS_CAP == 3 ** 9, size
    assert traced // 3 ** 6 <= 1500, size
    v = next(box)
    mu = AffineWeight(sum(map(mul, rs.affine_comarks, v)), v)
    assert kac_walton_fusion(rs, mu) == reference_fusion(rs, mu), size
    assert len(classes) == 3 ** 9 and v not in classes, size


_RULE_NAMES = {"rule_table", "sparse_rule_rows", "string_depth", "depth_weight", "_depths", "depth", "nontrivial_conditions",
               "decompose"}


def _package_imports(tree):
    """Modules of fusionkit that a module imports, relative ones by their bare name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                yield from [node.module] if node.module else [alias.name for alias in node.names]
            elif node.module.partition(".")[0] == "fusionkit":
                yield node.module
        elif isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names if alias.name.partition(".")[0] == "fusionkit")


def test_oracle_shares_nothing_with_the_rules():
    # the oracle checks the rules, so it may read the root-system data and
    # the input checks, but none of the rule machinery
    tree = ast.parse(Path(oracle.__file__).read_text())
    assert set(_package_imports(tree)) == {"algebra", "weights"}
    named = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, ast.alias):
            named.add(node.name)
    assert named & _RULE_NAMES == set()


@pytest.mark.parametrize("module,barred", [
    *[(name, {"tables", "verify", "cli"}) for name in ("algebra", "weights", "adjoint_rules", "oracle", "tadpole")],
    ("tables", {"verify", "cli"}),
])
def test_layers_import_only_downwards(module, barred):
    # the reference tables sit above the rules and the tadpole sums, and below
    # the sweeps and the command line that read them
    tree = ast.parse((Path(oracle.__file__).with_name(f"{module}.py")).read_text())
    imported = {name.rpartition(".")[2] for name in _package_imports(tree)}
    assert imported & barred == set()
