import itertools
import random
import tracemalloc
from functools import lru_cache
from operator import add, ge, mul, ne, sub

import pytest

from fusionkit import (
    AffineWeight,
    AlgebraId,
    AlgebraMismatch,
    F4_STRING_TABLE,
    G2_OFFDIAG_TABLE,
    LevelMismatch,
    LevelTooSmall,
    RootSystem,
    affinize,
    build,
    decompose,
    decompose_tensor,
    diag_fusion,
    enumerate_level,
    kac_walton_fusion,
    nontrivial_conditions,
    racah_speiser_tensor,
    reference_nontrivial_conditions,
)
from fusionkit import adjoint_rules
from fusionkit.adjoint_rules import rule_table
from fusionkit.algebra import algebras_up_to, parse_algebra
from fusionkit.tables import f4_string_row, g2_offdiag_row
from offdiag_reference import offdiag_affine_reflection, offdiag_conditions, offdiag_endpoint


def test_diag_tensor_counts_nonzero_labels():
    rs = build("B3")
    for mu, count in (((0, 0, 0), 0), ((1, 0, 2), 2), ((1, 1, 1), 3)):
        assert decompose_tensor(rs, mu).entries.get(mu, 0) == count


def test_diag_fusion_drops_one_for_the_affine_label():
    rs = build("A1")
    assert diag_fusion(rs, affinize(rs, (1,), 2)) == 1
    assert diag_fusion(rs, affinize(rs, (2,), 2)) == 0
    assert diag_fusion(rs, affinize(rs, (0,), 2)) == 0
    with pytest.raises(LevelTooSmall):
        diag_fusion(rs, affinize(rs, (1,), 1))


def test_tensor_with_vacuum_gives_theta_back():
    for name in ("A2", "B3", "C3", "D4", "G2", "F4"):
        rs = build(name)
        zero = (0,) * rs.rank
        assert decompose_tensor(rs, zero).entries == {rs.highest_root.labels: 1}


@pytest.mark.parametrize("name,level", [("A2", 2), ("B3", 2), ("C3", 3), ("G2", 2), ("F4", 3), ("D4", 2)])
def test_fusion_with_vacuum_gives_theta_back(name, level):
    rs = build(name)
    zero = (0,) * rs.rank
    got = decompose(rs, affinize(rs, zero, level)).entries
    assert got == {rs.highest_root.labels: 1}


def test_a2_adjoint_square_tensor():
    rs = build("A2")
    got = decompose_tensor(rs, (1, 1)).entries
    assert got == {(0, 0): 1, (1, 1): 2, (3, 0): 1, (0, 3): 1, (2, 2): 1}


def test_g2_adjoint_square_tensor():
    rs = build("G2")
    got = decompose_tensor(rs, (1, 0)).entries
    assert got == {(0, 0): 1, (1, 0): 1, (0, 2): 1, (2, 0): 1, (0, 3): 1}


def test_fusion_levels_truncate_a1():
    rs = build("A1")
    assert decompose(rs, affinize(rs, (1,), 3)).entries == {(1,): 1, (3,): 1}
    assert decompose(rs, affinize(rs, (2,), 2)).entries == {(0,): 1}
    assert decompose(rs, affinize(rs, (2,), 3)).entries == {(0,): 1, (2,): 1}


def test_fusion_a2_level2():
    rs = build("A2")
    got = decompose(rs, affinize(rs, (1, 1), 2)).entries
    assert got == {(0, 0): 1, (1, 1): 1}


def test_fusion_g2_level3():
    rs = build("G2")
    got = decompose(rs, affinize(rs, (1, 0), 3)).entries
    assert got == {(0, 0): 1, (0, 2): 1, (0, 3): 1, (1, 0): 1}


def test_offdiag_errors():
    rs = build("A2")
    with pytest.raises(LevelTooSmall, match=r"^adjoint fusion needs level >= 2, got 1$"):
        decompose(rs, AffineWeight(1, (1, 0, 0)))
    with pytest.raises(LevelTooSmall):
        decompose(rs, AffineWeight(1, (0, 1, 0)))
    with pytest.raises(ValueError):
        decompose_tensor(rs, (-1, 0))
    with pytest.raises(ValueError):
        decompose_tensor(rs, (0, -2))
    with pytest.raises(AlgebraMismatch):
        decompose_tensor(rs, (1,))
    with pytest.raises(AlgebraMismatch, match=r"^affine weight \(1, 1, 1, 0\) needs 3 labels$"):
        decompose(rs, AffineWeight(3, (1, 1, 1, 0)))
    with pytest.raises(LevelMismatch, match=r"^affine weight \(5, 0, 0\) does not lie at level 2$"):
        decompose(rs, AffineWeight(2, (5, 0, 0)))
    with pytest.raises(LevelMismatch, match=r"^affine weight \(0, 2, 2\) does not lie at level 3$"):
        decompose(rs, AffineWeight(3, (0, 2, 2)))
    with pytest.raises(AlgebraMismatch):
        decompose_tensor(rs, (1, 0, 0))
    with pytest.raises(AlgebraMismatch, match=r"^affine weight \(1, 1\) needs 3 labels$"):
        decompose(rs, AffineWeight(2, (1, 1)))


@pytest.mark.parametrize("mu,error,message", [
    (AffineWeight(1, (1, 0, 0)), LevelTooSmall, "adjoint fusion needs level >= 2, got 1"),
    (AffineWeight(3, (1, 1)), AlgebraMismatch, "affine weight (1, 1) needs 3 labels"),
    (AffineWeight(2, (1, -1, 2)), ValueError, "affine weight (1, -1, 2) is not dominant"),
    (AffineWeight(3, (0, 2, 2)), LevelMismatch, "affine weight (0, 2, 2) does not lie at level 3"),
], ids=["level-1", "short", "negative-label", "off-level"])
def test_affine_weight_errors_alike(mu, error, message):
    # the rules, the diagonal rule and the oracle share one check and its words
    rs = build("A2")
    for entry in (decompose, diag_fusion, kac_walton_fusion):
        with pytest.raises(error) as caught:
            entry(rs, mu)
        assert (type(caught.value), str(caught.value)) == (error, message), entry.__name__


SAMPLED = ("A3", "B3", "B4", "C3", "C4", "D4", "G2", "F4")


@pytest.mark.parametrize("name", SAMPLED)
def test_offdiag_fast_path_agrees(name):
    # decompose_tensor reads the rule table; the condition map consults only
    # the tabulated nontrivial conditions.  They must agree on dominant pairs.
    rs = build(name)
    rng = random.Random(f"fast:{name}")
    weights = [tuple(rng.randint(0, 3) for _ in range(rs.rank)) for _ in range(40)]
    checked = 0
    for mu in weights:
        tensored = decompose_tensor(rs, mu).entries
        for beta in rs.roots:
            nu = tuple(a + b for a, b in zip(mu, beta.labels))
            if any(x < 0 for x in nu):
                continue
            assert offdiag_conditions(rs, mu, nu) == tensored.get(nu, 0)
            checked += 1
    assert checked > 100


@pytest.mark.parametrize("name", ("A2", "B3", "C2", "G2"))
def test_offdiag_tensor_agrees_with_folding(name):
    rs = build(name)
    rng = random.Random(f"folding:{name}")
    for _ in range(25):
        mu = tuple(rng.randint(0, 4) for _ in range(rs.rank))
        assert decompose_tensor(rs, mu).entries == racah_speiser_tensor(rs, mu), mu


@pytest.mark.parametrize("name,max_level", [("A2", 5), ("B3", 5), ("C2", 6), ("G2", 5), ("A1", 6)])
def test_offdiag_fusion_equals_tensor_on_dominant_pairs(name, max_level):
    # the paper's statement: off-diagonal fusion at level k is the tensor
    # product with the weights that are not dominant at level k dropped
    rs = build(name)
    for level in range(2, max_level + 1):
        for mu in enumerate_level(rs, level):
            fused = decompose(rs, mu).entries
            tensored = decompose_tensor(rs, mu.finite).entries
            want = {nu: m for nu, m in tensored.items()
                    if nu != mu.finite and rs.theta_pairing(nu) <= level}
            assert {nu: m for nu, m in fused.items() if nu != mu.finite} == want, mu


@pytest.mark.parametrize("algebra", algebras_up_to(4), ids=str)
def test_reference_encodings_agree_with_rule_table(algebra):
    # every weight of every level grid, every root: the rule table behind
    # decompose / decompose_tensor against the three test-side encodings
    rs = build(algebra)
    compared = 0
    for level in range(2, 7):
        for mu in enumerate_level(rs, level):
            fused = decompose(rs, mu).entries
            tensored = decompose_tensor(rs, mu.finite).entries
            for beta in rs.roots:
                nu = tuple(a + b for a, b in zip(mu.finite, beta.labels))
                if any(x < 0 for x in nu):
                    assert nu not in fused and nu not in tensored
                    continue
                want = offdiag_endpoint(rs, mu.finite, nu)
                assert offdiag_conditions(rs, mu.finite, nu) == want, (mu, nu)
                assert tensored.get(nu, 0) == want, (mu, nu)
                if rs.theta_pairing(nu) > level:
                    assert nu not in fused
                    continue
                assert offdiag_affine_reflection(rs, mu, affinize(rs, nu, level)) == want, (mu, nu)
                assert fused.get(nu, 0) == want, (mu, nu)
                compared += 1
    assert compared > 0


@lru_cache(maxsize=None)
def _full_rows(rs):
    """The full off-diagonal rule, one row per root in `rs.roots` order: the
    Dynkin labels of beta and its whole minimal affine weight (t_0; t_1..t_r),
    t_0 = max(0, (theta, beta)), t_i = max(0, -beta_i, d_i(beta)).  `rule_table`
    reads t_i = d_i(beta) alone; the dominance bound is kept here, so the
    cross-check also compares the two encodings."""
    return tuple((beta.labels, (max(0, rs.theta_pairing(beta.labels)),)
                  + tuple(max(0, -label, depth) for label, depth in zip(beta.labels, beta.depth)))
                 for beta in rs.roots)


def _full_row_entries(rs, mu):
    """decompose as it was before the bitsets: every full row compared on all
    r + 1 labels, in row order."""
    entries = {}
    d = diag_fusion(rs, mu)
    if d:
        entries[mu.finite] = d
    for beta, floor in _full_rows(rs):
        if all(map(ge, mu.labels, floor)):
            entries[tuple(map(add, mu.finite, beta))] = 1
    return list(entries.items())


def _row_mismatches(rs, levels):
    """The weights on which `decompose` on rs and the full rows of the shared
    instance of `build` disagree, in entries or in their order."""
    shared = build(rs.algebra)
    return [mu for level in levels for mu in enumerate_level(rs, level)
            if list(decompose(rs, mu).entries.items()) != _full_row_entries(shared, mu)]


FULL_ROW_GRIDS = [(algebra, range(2, 7)) for algebra in algebras_up_to(4)] + [
    (AlgebraId("E", 6), range(2, 5)), (AlgebraId("E", 7), range(2, 4)), (AlgebraId("E", 8), range(2, 4))] + [
    # rows that span several 64-bit words: 72 to 800 roots
    (AlgebraId(series, 8), range(2, 5)) for series in "ABD"] + [
    (AlgebraId("B", 20), range(3, 4)), (AlgebraId("D", 16), range(3, 4))]


@pytest.mark.parametrize("algebra,levels", FULL_ROW_GRIDS, ids=[str(algebra) for algebra, _ in FULL_ROW_GRIDS])
def test_sparse_rows_decompose_as_full_rows(algebra, levels):
    # same entries in the same insertion order as the full-row loop
    assert _row_mismatches(build(algebra), levels) == []


def _store(rs):
    """The clip c and the per-class store of `decompose` on rs: clipped mu^ -> passing roots' label tuples."""
    _, clip, _, classes = rs.derived["off_diagonal"]
    return clip, classes


STORE_GRIDS = [("G2", range(2, 8)), ("F4", range(2, 7)), ("E6", range(2, 6)), ("B4", range(2, 7))]


@pytest.mark.parametrize("name,levels", STORE_GRIDS, ids=[name for name, _ in STORE_GRIDS])
def test_the_store_holds_each_swept_class_as_root_labels(name, levels):
    # after a sweep the store holds exactly the clipped classes swept, each as
    # the label tuples of `rs.roots` themselves, in root order
    rs = RootSystem(parse_algebra(name))
    grid = [mu for level in levels for mu in enumerate_level(rs, level)]
    for mu in grid:
        decompose(rs, mu)
    clip, classes = _store(rs)
    assert set(classes) == {tuple(min(x, clip) for x in mu.labels) for mu in grid}
    position = {id(beta.labels): n for n, beta in enumerate(rs.roots)}
    for betas in classes.values():
        order = [position[id(beta)] for beta in betas]
        assert order == sorted(set(order))
    assert len(classes) < len(grid)


@pytest.mark.parametrize("name,levels", STORE_GRIDS, ids=[name for name, _ in STORE_GRIDS])
def test_an_unstored_class_decomposes_as_a_stored_one(name, levels, monkeypatch):
    # with the cap at 5 the store stops at 5 classes; every other class, read
    # twice, gives the entries, in order, of the stored path and the full rows
    shared = build(name)
    grid = [mu for level in levels for mu in enumerate_level(shared, level)]
    reference = RootSystem(shared.algebra)
    for mu in grid:
        decompose(reference, mu)
    stored = [list(decompose(reference, mu).entries.items()) for mu in grid]  # each read from the store
    monkeypatch.setattr(adjoint_rules, "_CLASS_CAP", 5)
    rs = RootSystem(shared.algebra)
    for mu in grid:
        decompose(rs, mu)
    clip, classes = _store(rs)
    assert len(classes) == 5
    unstored = [(mu, want) for mu, want in zip(grid, stored) if tuple(min(x, clip) for x in mu.labels) not in classes]
    assert len(unstored) > len(grid) // 2
    for mu, want in unstored:
        assert list(decompose(rs, mu).entries.items()) == want == _full_row_entries(shared, mu), mu
    assert len(classes) == 5


def test_a_planted_stored_class_fails_the_full_row_cross_check():
    # drop one root from one stored class: the cross-check must report the
    # weights of that class, and only those, so the store is what is read
    rs = RootSystem(parse_algebra("F4"))
    mu = next(mu for mu in enumerate_level(rs, 4) if len(decompose(rs, mu).entries) > 2)
    clip, classes = _store(rs)
    key = tuple(min(x, clip) for x in mu.labels)
    classes[key] = classes[key][1:]
    mismatches = _row_mismatches(rs, range(2, 7))
    assert mu in mismatches
    assert {tuple(min(x, clip) for x in nu.labels) for nu in mismatches} == {key}


def test_a_stored_e8_class_costs_at_most_1500_bytes():
    # a seeded sample of E8's box classes {0..2}^9 of level >= 2, traced after the
    # record is built: the store grows by at most 1,500 B a class
    rs = RootSystem(parse_algebra("E8"))
    decompose(rs, AffineWeight(2, (2,) + (0,) * 8))
    clip, classes = _store(rs)
    rng = random.Random("store:E8")
    box = [v for v in itertools.product(range(clip + 1), repeat=9) if sum(map(mul, rs.affine_comarks, v)) >= 2]
    sample = [AffineWeight(sum(map(mul, rs.affine_comarks, v)), v) for v in rng.sample(box, 400)]
    before = len(classes)
    tracemalloc.start()
    try:
        for mu in sample:
            decompose(rs, mu)
        traced = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    added = len(classes) - before
    size = f"{traced} B by tracemalloc for {added} classes, {traced // added} B a class"
    assert added == 400, size
    assert traced // added <= 1500, size


def _theta_level(rs, beta, i, t):
    return beta == rs.highest_root.labels and i == 0


def _root_string(rs, beta, i, t):
    return i > 0 and t > max(0, -beta[i - 1])


@pytest.mark.parametrize("name,lost", [("A2", _theta_level), ("G2", _root_string), ("F4", _root_string)])
def test_full_row_cross_check_catches_a_dropped_condition(name, lost, monkeypatch):
    # plant one lost threshold (theta's zeroth label, or the first nontrivial
    # root-string condition) in the rows a hand-built instance reads on first
    # use: the cross-check against the shared instance must see it
    shared = build(name)
    rows = list(rule_table(shared))
    n = next(n for n, (beta, floor) in enumerate(rows) if any(lost(shared, beta, i, t) for i, t in enumerate(floor)))
    beta, floor = rows[n]
    rows[n] = (beta, tuple(0 if lost(shared, beta, i, t) else t for i, t in enumerate(floor)))
    assert sum(map(ne, rows[n][1], floor)) == 1
    monkeypatch.setattr(adjoint_rules, "rule_table", lambda rs: tuple(rows))
    assert _row_mismatches(RootSystem(shared.algebra), range(2, 7)) != []


@pytest.mark.parametrize("algebra", algebras_up_to(8), ids=str)
def test_sparse_rows_are_the_nonzero_thresholds(algebra):
    # `rule_table` holds the full rows, zeros included, and no threshold
    # exceeds 3 (the name predates the full rows; it is kept so the test ids
    # stay stable)
    rs = build(algebra)
    rows = rule_table(rs)
    assert rows == _full_rows(rs)
    assert max(max(floor) for _, floor in rows) <= 3


@pytest.mark.parametrize("name", ["A1", "G2", "F4", "E6"])
def test_decompose_builds_the_rule_once(name, monkeypatch):
    # decompose reads one record built from `rule_table` on first use: a
    # whole level grid on a fresh instance, tensor form included, calls it once
    calls = []

    def counted(rs):
        calls.append(rs)
        return rule_table(rs)

    monkeypatch.setattr(adjoint_rules, "rule_table", counted)
    rs = RootSystem(parse_algebra(name))
    for level in range(2, 6):
        for mu in enumerate_level(rs, level):
            decompose(rs, mu)
            decompose_tensor(rs, mu.finite)
    assert calls == [rs]


def _clipped_reading(rs, mu):
    """The diagonal value of theta (x) mu and its off-diagonal shifts nu - mu."""
    shifts = {tuple(map(sub, nu, mu.finite)) for nu in decompose(rs, mu).entries if nu != mu.finite}
    return diag_fusion(rs, mu), shifts


@pytest.mark.parametrize("algebra", algebras_up_to(6) + [AlgebraId("E", 7), AlgebraId("E", 8)], ids=str)
def test_decompose_reads_labels_only_through_the_clip(algebra):
    # c = max(0, -min beta^_i), the oracle's clip, read off the roots and not
    # off the rules: a weight with labels from c to 1000 decomposes as the
    # weight clipped at c, each taken at its own level
    rs = build(algebra)
    clip = max(max(rs.theta_pairing(beta.labels), -min(beta.labels)) for beta in rs.roots)
    rng = random.Random(f"clip:{algebra}")
    high = 0
    for _ in range(80):
        labels = [rng.randint(clip, 1000) if rng.random() < 0.5 else rng.randint(0, clip - 1)
                  for _ in range(rs.rank + 1)]
        labels[rng.randrange(rs.rank + 1)] = rng.randint(clip + 1, 1000)
        clipped = [min(x, clip) for x in labels]
        mu, v = (AffineWeight(sum(map(mul, rs.affine_comarks, x)), tuple(x)) for x in (labels, clipped))
        assert _clipped_reading(rs, mu) == _clipped_reading(rs, v), labels
        high += sum(x > clip for x in labels)
    assert high > 80


def _rules_on_grid(rs, level):
    return [decompose(rs, mu).entries for mu in enumerate_level(rs, level)], nontrivial_conditions(rs)


def test_rules_read_the_root_system_they_are_handed():
    # plant a fault in one hand-built B3: raise every nonzero depth of its
    # first root by one.  The rules must read it there and only there, and
    # the oracle, which reads no depth, must then disagree with them
    shared = build("B3")
    before = _rules_on_grid(shared, 5)
    rs = RootSystem(AlgebraId("B", 3))
    n, beta = next((n, beta) for n, beta in enumerate(rs.roots) if any(beta.depth))
    rs.roots = rs.roots[:n] + (beta._replace(depth=tuple(d + 1 if d else 0 for d in beta.depth)),) + rs.roots[n + 1:]
    planted = _rules_on_grid(rs, 5)
    assert planted[0] != before[0]
    assert planted[1] != before[1]
    assert _rules_on_grid(shared, 5) == before
    assert any(decompose(rs, mu).entries != kac_walton_fusion(rs, mu) for mu in enumerate_level(rs, 5))


def test_nontrivial_conditions_match_reference_everywhere():
    for algebra in algebras_up_to(7) + [AlgebraId("E", 8)]:
        got = nontrivial_conditions(build(algebra))
        assert got == reference_nontrivial_conditions(algebra), str(algebra)


def test_simply_laced_have_no_nontrivial_conditions():
    for name in ("A5", "D5", "E6", "E7", "E8"):
        assert nontrivial_conditions(build(name)) == ()


def test_condition_counts():
    assert len(nontrivial_conditions(build("B5"))) == 4
    assert len(nontrivial_conditions(build("C5"))) == 4
    assert len(nontrivial_conditions(build("F4"))) == 6
    assert len(nontrivial_conditions(build("G2"))) == 2


def test_at_most_one_nontrivial_index_per_root():
    for algebra in algebras_up_to(8):
        rs = build(algebra)
        seen = [cond.root for cond in nontrivial_conditions(rs)]
        assert len(seen) == len(set(seen)), str(algebra)


def test_g2_table_rows_regenerate():
    rs = build("G2")
    assert len(G2_OFFDIAG_TABLE) == 12
    starred = 0
    for coords, thresholds, star, delta in G2_OFFDIAG_TABLE:
        assert g2_offdiag_row(rs, coords) == (thresholds, star, delta)
        starred += star is not None
    assert starred == 4
    # every root appears exactly once
    assert {row[0] for row in G2_OFFDIAG_TABLE} == {b.coords for b in rs.roots}


def test_f4_string_rows_regenerate():
    rs = build("F4")
    assert len(F4_STRING_TABLE) == 6
    for coords, i, below, above in F4_STRING_TABLE:
        assert f4_string_row(rs, coords, i) == (below, above)
        # the string pinches exactly these roots: label 0 at i but depth 1
        beta = rs.root_at(coords)
        assert beta.labels[i] == 0
        assert beta.depth[i] == 1


def test_f4_table_lists_exactly_the_nontrivial_roots():
    rs = build("F4")
    table = {(coords, i) for coords, i, _, _ in F4_STRING_TABLE}
    generated = {(c.root, c.index) for c in nontrivial_conditions(rs)}
    assert table == generated


def test_decomposition_container():
    rs = build("A2")
    dec = decompose_tensor(rs, (1, 1))
    assert dec.entries.get((1, 1), 0) == 2
    assert dec.entries.get((9, 9), 0) == 0
    assert sum(dec.entries.values()) == 6
    assert min(dec.entries) == (0, 0)


@pytest.mark.parametrize("mu", [(1,), (1, 0, 0, 0), (-1, 0, 0), (0, -2, 1)], ids=str)
def test_tensor_entries_reject_a_bad_weight_alike(mu):
    rs = build("B3")
    errors = []
    for tensor in (decompose_tensor, racah_speiser_tensor):
        with pytest.raises((AlgebraMismatch, ValueError)) as info:
            tensor(rs, mu)
        errors.append((type(info.value), str(info.value)))
    assert errors[0] == errors[1]
