"""Every level at once: finite certificates that the rules equal folding,
that folding needs one reflection, and that each tadpole closed form equals
counting, at every level.

There are four, each with its argument: the box certificate `certify`,
below; the per-root certificate `certify_per_root` for A, D and E at every
rank; the per-record certificate `certify_per_record`, that the oracle settles
every outside point with one reflection and so refuses no class, for every
algebra of rank <= 40; and `pin_closed_forms` for the tadpole closed forms of
rank <= 50.

The box.  Both routes read mu^ = (mu_0; mu) only through mu^ clipped at the oracle's
clip c = max(0, -min beta^_i), 2 (3 for G2), and both put their terms at
offsets nu - mu that the clipped mu^ alone fixes:

- `decompose` keeps mu + beta when mu^ passes beta's row of `rule_table`,
  label by label mu^_i >= t_i.  If every threshold t_i is <= c, then mu^_i
  >= t_i exactly when min(mu^_i, c) >= t_i.  It reads the passing roots from
  the class it stores per mu^ clipped at c, settled from the clipped labels
  on the class's first weight, and adds them to mu.  Its diagonal term at mu
  counts the nonzero labels, less one, and clipping at c >= 1 keeps a label
  nonzero.
- `kac_walton_fusion` adds, to mu, the net offsets its class stores per
  clipped mu^.  The oracle's clip lemma (see `fusionkit.oracle`) makes each
  stored offset the outcome of every mu^ of the class, and a class that
  would need the labels beyond the clip, or a second reflection, is refused
  where it is built; so its result reads the clipped mu^ alone.

Every mu^ of level >= 2 clips to a v in the box {0..c}^{r+1} of level >= 2:
either no label is clipped and v = mu^, or some label becomes c >= 2.  So if
every threshold is <= c, and at every v of the box of level >= 2 the class
is built and `decompose` equals `kac_walton_fusion`, then the two routes
agree at every mu^ of every level >= 2, each being mu plus the same offsets
as at v.  That covers the stable-level tensor product too, which is the
fusion product at level (theta, mu) + 2.  `certify` runs the three checks on
one root system and returns what fails.  The tests run it on every algebra
of rank <= 6 (15,332 box weights, about 2.5 s); a CI step runs it on A7, B7,
C7, D7, E7 and E8 (about 17 s) under python and python -O.
"""

from functools import partial
from itertools import product
from math import lcm
from operator import mul

import pytest

from fusionkit import AffineWeight, AlgebraId, RootSystem, adjoint_rules, build, decompose, kac_walton_fusion, oracle
from fusionkit import tadpole
from fusionkit.algebra import algebras_up_to, parse_algebra


def certify(rs: RootSystem) -> list[str]:
    """The certificate's failures for one root system: rule thresholds above the clip, box classes the
    oracle refuses, and box weights where the two routes differ.  Empty when the rules equal folding at
    every level."""
    clip = oracle._adjoint_weights(rs)[1]
    failures = [f"{rs.algebra}: threshold {t} of {beta} exceeds the clip {clip}"
                for beta, floor in adjoint_rules.rule_table(rs) for t in floor if t > clip]
    for v in product(range(clip + 1), repeat=rs.rank + 1):
        mu = AffineWeight(sum(map(mul, rs.affine_comarks, v)), v)
        if mu.level >= 2:
            try:
                folded = kac_walton_fusion(rs, mu)
            except RuntimeError as exc:
                failures.append(f"{rs.algebra}: the class of {v} is refused: {exc}")
                continue
            if decompose(rs, mu).entries != folded:
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
    offsets, times = oracle._sorted_weights(rs, v)
    oracle._adjoint_weights(rs)[2][v] = offsets, times[:-1] + (times[-1] + 1,)
    assert certify(rs) == ["C3: the rules and folding differ at (1, 0, 2, 1)"]


def test_a_class_with_a_rest_fails_the_certificate():
    # a planted record beta^ = (-4; 4, -4) that one reflection does not settle:
    # at v = (0, 3, 1), x^ = (-3, 8, -2) reflects in label 0 to y^ - 1 = (2, 4, -3),
    # which needs a second reflection; the oracle refuses such a class where it
    # is built, and the certificate reports it.  At every other box weight the
    # record is refused too, or lies on a wall, so the two routes still agree
    rs = RootSystem(build("G2").algebra)
    weights, clip, classes, walls = oracle._adjoint_weights(rs)
    planted = (-4, 4, -4), (4, -4), 1
    rs.derived["adjoint_weights"] = weights + (planted,), clip, classes, walls
    failures = certify(rs)
    assert ("G2: the class of (0, 3, 1) is refused: G2: labels clipped to (0, 3, 1) leave (-4, 4, -4) "
            "unsettled by one reflection") in failures
    assert all(f.startswith("G2: the class of ") and " is refused: " in f for f in failures), failures


def certify_per_root(rs: RootSystem) -> list[str]:
    """The per-root certificate's failures for one root system; empty when the rules equal folding at
    every level.  It reads the oracle's adjoint records beta^ = (-(theta, beta); beta), one per root, and
    its walls alpha^_0, ..., alpha^_r, and checks four facts over single roots:

    - every label of every record is >= -2;
    - the records with a -2 label are exactly -alpha^_0, ..., -alpha^_r, one per affine node, and their
      other labels are >= 0;
    - every row f_beta of `rule_table` is max(0, -beta^), label by label: no condition beyond dominance;
    - the roots are distinct and nonzero, and the zero weight is the one other record, r times.

    The argument.  Fold theta (x) mu at a dominant mu^ of any level >= 2.  A record with labels >= -1
    gives mu^ + beta^ + rho^ labels >= 0: inside, at mu + beta with sign +1, exactly when mu^ >= -beta^
    label by label, that is mu^ >= f_beta; on a wall, and nothing, otherwise.  The record -alpha^_i is
    inside when mu_i >= 2, which is again mu^ >= f_beta, as f_beta is 2 at node i and 0 elsewhere; on a
    wall when mu_i = 1; and when mu_i = 0 its shifted label mu_i - 2 + 1 is -1, so the one reflection in
    wall i adds alpha^_i back and lands on mu^ + rho^ at sign -1.  The zero weight gives r at mu.
    Distinct nonzero roots put the inside records at distinct weights other than mu.  So folding gives 1
    at mu + beta when mu^ >= f_beta, and r - #{i : mu_i = 0} = (nonzero labels of mu^) - 1 at mu:
    `decompose`'s rules, at every level, with no box.  A, D and E satisfy all four at every rank tested
    (A1-A40, D4-D40, E6-E8); B, C, F4 and G2 do not (a second negative label beside a -2, conditions
    beyond dominance, labels -3), which is why the box certificate covers them instead.
    """
    name = rs.algebra
    weights, _, _, walls = oracle._adjoint_weights(rs)
    records = [hat for hat, _, _ in weights[:-1]]
    failures = [f"{name}: the record {hat} has a label below -2" for hat in records if min(hat) < -2]
    minus_walls = [tuple(-x for x in wall) for wall in walls]
    if sorted(hat for hat in records if -2 in hat) != sorted(minus_walls):
        failures.append(f"{name}: the records with a -2 label are not -alpha^_0, ..., -alpha^_{rs.rank}")
    failures += [f"{name}: -alpha^_{i} = {hat} has another label below 0"
                 for i, hat in enumerate(minus_walls) if hat[i] != -2 or min(hat[:i] + hat[i + 1:]) < 0]
    for (labels, floor), hat in zip(adjoint_rules.rule_table(rs), records):
        if floor != tuple(max(0, -x) for x in hat):
            failures.append(f"{name}: the rule row {floor} of {labels} is not max(0, -{hat})")
    labels = [beta for _, beta, _ in weights[:-1]]
    if (len(set(labels)) != len(labels) or not all(map(any, labels))
            or [m for _, _, m in weights] != [1] * len(labels) + [rs.rank] or any(weights[-1][0])):
        failures.append(f"{name}: the roots are not distinct and nonzero, or the zero weight is not r times")
    return failures


SIMPLY_LACED = [AlgebraId(f, r) for f, lo in (("A", 1), ("D", 4)) for r in range(lo, 41)] + [
    AlgebraId("E", r) for r in (6, 7, 8)]


@pytest.mark.parametrize("algebra", SIMPLY_LACED, ids=str)
def test_the_rules_equal_folding_at_every_rank_and_level(algebra):
    # built uncached, so the rank-40 roots are not kept
    assert certify_per_root(RootSystem(algebra)) == []


@pytest.mark.parametrize("name", ("B3", "C3", "F4", "G2"))
def test_the_per_root_certificate_refuses_the_non_simply_laced(name):
    assert certify_per_root(RootSystem(build(name).algebra)) != []


def test_a_raised_rule_row_fails_the_per_root_certificate(monkeypatch):
    rs = RootSystem(AlgebraId("D", 5))
    rows = adjoint_rules.rule_table(rs)
    beta, floor = rows[7]
    raised = floor[:2] + (floor[2] + 1,) + floor[3:]
    monkeypatch.setattr(adjoint_rules, "rule_table", lambda _: rows[:7] + ((beta, raised),) + rows[8:])
    hat = oracle._adjoint_weights(rs)[0][7][0]
    assert certify_per_root(rs) == [f"D5: the rule row {raised} of {beta} is not max(0, -{hat})"]


def test_a_changed_record_label_fails_the_per_root_certificate():
    # the record (0; 2, 0, -1, 0, 0, 0) of alpha_1 in E6, its label 3 raised from -1 to 0: folding would
    # then keep mu + alpha_1 where mu_3 = 0, and the rule does not
    rs = RootSystem(AlgebraId("E", 6))
    weights, clip, classes, walls = oracle._adjoint_weights(rs)
    n = rs.roots.index(rs.root_at((1, 0, 0, 0, 0, 0)))
    hat, beta, m = weights[n]
    planted = hat[:3] + (0,) + hat[4:]
    rs.derived["adjoint_weights"] = weights[:n] + ((planted, beta, m),) + weights[n + 1:], clip, classes, walls
    assert certify_per_root(rs) == [f"E6: the rule row {adjoint_rules.rule_table(rs)[n][1]} of {beta} "
                                    f"is not max(0, -{planted})"]


def certify_per_record(rs: RootSystem) -> list[str]:
    """The per-record certificate's failures for one root system; empty when one reflection settles every
    outside point of every clipped class, at every level, so the oracle refuses no class.

    The argument.  Fix an adjoint record beta^ = (-(theta, beta); beta) and a clipped mu^ in
    {0..c}^{r+1}, of any level, and let S be the labels where beta^ is negative.  Off S every label of
    x^ = mu^ + 1 + beta^ is >= 1, so the labels of mu^ on S alone decide whether the point lies on a wall,
    inside or outside, and, outside, its least label worst and the first node i that holds it, which is
    in S.  One reflection gives y^ - 1 = mu^ + beta^ - worst alpha^_i, whose label j is mu^_j + beta^_j
    - worst alpha^_i[j]: fixed by the labels on S for j in S, and mu^_j + beta^_j >= 0 off S unless j is
    an affine neighbour of i.  Such a neighbour's label mu^_j is free in {0..c} and the label of y^ - 1
    rises with it, so it is least at mu^_j = 0 and clipped at mu^_j = c: >= -1 at 0 and >= 0 at c make
    it >= -1 everywhere and >= 0 where clipped.  The oracle refuses a class exactly when one of its
    points has a label of y^ - 1 below -1 (a second reflection) or below 0 where mu^ is clipped (an
    outcome beyond the clip).  So every record, every labelling of S from {0..c}, and each neighbour at
    0 and at c decide every class of every level: the checks below.
    """
    weights, clip, _, walls = oracle._adjoint_weights(rs)
    failures = []
    for hat, _, _ in weights:
        support = [i for i, b in enumerate(hat) if b < 0]
        for labels in product(range(clip + 1), repeat=len(support)):
            x = [m + 1 + hat[i] for m, i in zip(labels, support)]
            worst = min(x, default=1)
            if worst > 0 or 0 in x:
                continue
            node, fixed = support[x.index(worst)], dict(zip(support, labels))
            for j, w in enumerate(walls[node]):
                for m in (fixed[j],) if j in fixed else (0, clip) if w else ():
                    y = m + hat[j] - worst * w
                    if y < -1 or y < 0 and m == clip:
                        failures.append(f"{rs.algebra}: the record {hat}, labelled {labels} at {tuple(support)}, "
                                        f"reflects in node {node} to {y} at node {j}, label {m}")
    return failures


def test_one_reflection_settles_every_outside_point():
    # built uncached, so the rank-20 roots are not kept
    assert [f for algebra in algebras_up_to(20) for f in certify_per_record(RootSystem(algebra))] == []


def _refused_classes(rs: RootSystem) -> list[tuple[int, ...]]:
    """The clipped classes of the box {0..c}^{r+1}, at every level, that the oracle refuses as unsettled."""
    refused = []
    for v in product(range(oracle._adjoint_weights(rs)[1] + 1), repeat=rs.rank + 1):
        try:
            oracle._sorted_weights(rs, v)
        except RuntimeError as exc:
            if "unsettled by one reflection" in str(exc):
                refused.append(v)
    return refused


def _plant(rs: RootSystem, weights=None, clip=None, walls=None) -> RootSystem:
    """The root system with its oracle records, clip or walls replaced and its class store emptied."""
    old_weights, old_clip, _, old_walls = oracle._adjoint_weights(rs)
    rs.derived["adjoint_weights"] = (old_weights if weights is None else weights, old_clip if clip is None else clip,
                                     {}, old_walls if walls is None else walls)
    return rs


def test_two_minus_two_labels_on_non_adjacent_nodes_fail_the_per_record_certificate():
    # A3's affine nodes 0 and 2 are not adjacent: reflecting the record (-2; 2, -2, 2) at mu^_0 = mu^_2 = 0
    # in node 0 leaves the -2 at node 2, which needs a second reflection: the classes the oracle refuses
    rs = _plant(RootSystem(AlgebraId("A", 3)), weights=oracle._adjoint_weights(build("A3"))[0] + (
        ((-2, 2, -2, 2), (2, -2, 2), 1),))
    assert certify_per_record(rs) == ["A3: the record (-2, 2, -2, 2), labelled (0, 0) at (0, 2), reflects in node 0 "
                                      "to -2 at node 2, label 0"]
    assert _refused_classes(rs) == [v for v in product(range(3), repeat=4) if v[0] == v[2] == 0]


def test_a_changed_wall_row_fails_the_per_record_certificate():
    # B3's alpha^_3 = (0; 0, -1, 2) with its label 2 lowered to -2: reflecting the record (1; 1, 0, -2)
    # at mu^_3 = 0 in node 3 then leaves -2 at node 2 where mu^_2 = 0: the classes the oracle refuses
    walls = oracle._adjoint_weights(build("B3"))[3]
    assert walls[3] == (0, 0, -1, 2)
    rs = _plant(RootSystem(AlgebraId("B", 3)), walls=walls[:3] + ((0, 0, -2, 2),))
    assert certify_per_record(rs) == ["B3: the record (1, 1, 0, -2), labelled (0,) at (3,), reflects in node 3 "
                                      "to -2 at node 2, label 0"]
    assert _refused_classes(rs) == [v for v in product(range(3), repeat=4) if v[2] == v[3] == 0]


@pytest.mark.parametrize("name", ("B3", "C3", "F4", "G2"))
def test_a_clip_of_zero_fails_the_per_record_certificate(name):
    # with every label clipped at 0, a point of B, C, F4 or G2 that one reflection settles only above the
    # clip is refused, and the per-record certificate and the oracle's classes agree on it
    rs = _plant(RootSystem(parse_algebra(name)), clip=0)
    assert certify_per_record(rs) != [] and _refused_classes(rs) == [(0,) * (rs.rank + 1)]


def affine_comarks(algebra: AlgebraId) -> tuple[int, ...]:
    """(a_0; a_1, ..., a_r) of an algebra with a closed form, typed from Kac's Table Aff 1."""
    f, r = algebra.family, algebra.rank
    if f in "AC":
        return (1,) * (r + 1)
    if f == "B":
        return (1, 1) + (2,) * (r - 2) + (1,)
    if f == "D":
        return (1, 1) + (2,) * (r - 3) + (1, 1)
    return {6: (1, 1, 2, 2, 3, 2, 1)}[r]


def tadpole_counts(comarks: tuple[int, ...], top: int) -> dict[str, list[int]]:
    """Both tadpoles at levels 0..top, by coin change over the affine comarks.

    n[b] counts the solutions of sum_i a_i x_i = b in x >= 0, the dominant affine weights at level b,
    and s[b] totals their nonzero labels.  Taking in comark a, a solution with x_a >= 1 is one of
    b - a with x_a raised by one, which adds a nonzero label exactly when x_a was 0: so
    s[b] += s[b - a] + (n[b - a] before a).  The diagonal coefficient at mu is its nonzero labels less
    one, so the adjoint tadpole is s - n.
    """
    n, s = [1] + [0] * top, [0] * (top + 1)
    for a in comarks:
        before = n[:]
        for b in range(a, top + 1):
            n[b] += n[b - a]
            s[b] += s[b - a] + before[b - a]
    return {"vacuum": n, "adjoint": [x - y for x, y in zip(s, n)]}


def pinning_levels(period: int, floor: int, rank: int) -> list[int]:
    """Per branch t of a form with this period, the levels period * J + t for the r + 1 values of J
    from the first whose level is at or above the floor."""
    firsts = [-((t - floor) // period) for t in range(period)]
    return [period * j + t for t, first in enumerate(firsts) for j in range(first, first + rank + 1)]


def pin_closed_forms(algebra: AlgebraId) -> list[str]:
    """Where the two closed forms of one algebra differ from counting; empty when each equals the count
    at every level at or above its floor.

    The Ehrhart argument.  The vacuum count T_0(k) is the number of x >= 0 with sum_i a_i x_i = k, over
    the r + 1 affine comarks: Sylvester's denumerant, the coefficient of q^k in 1 / prod_i (1 - q^a_i).
    Partial fractions make it, for every k >= 0, a quasi-polynomial of degree r whose period divides
    L = lcm(a_i).  The fraction is proper by h^v = sum_i a_i degrees, so the same quasi-polynomial reads
    T_0(-m) = 0 for 0 < m < h^v (Ehrhart-Macdonald reciprocity), and every a_i < h^v.  So the adjoint
    count T_theta(k) = sum_i T_0(k - a_i) - T_0(k), which `tadpole_counts` gives another way, is a
    quasi-polynomial of degree <= r and the same period at every k >= 0, even where k - a_i < 0.  On
    the residue class k = pJ + t of a period p that L divides, each count is therefore a polynomial in
    J of degree <= r.  Each branch of each closed form is one too: falling powers of degree <= r for
    A-D, rows of r + 1 coefficients for E6.  Two polynomials of degree <= r that agree at r + 1 values
    of J agree at every J, so the checks below, at the levels of `pinning_levels`, prove each form at
    every level at or above its floor.  The vacuum form's zeros at -m are checked too.
    """
    comarks = affine_comarks(algebra)
    forms = {kind: getattr(tadpole, route["polynomial"])(algebra) for kind, route in tadpole.TADPOLES.items()}
    levels = {kind: pinning_levels(form.period, tadpole.TADPOLES[kind]["floor"], algebra.rank)
              for kind, form in forms.items()}
    counts = tadpole_counts(comarks, max(max(ks) for ks in levels.values()))
    failures = [f"{form.name}: period {form.period} is not a multiple of {lcm(*comarks)}"
                for form in forms.values() if form.period % lcm(*comarks)]
    for kind, form in forms.items():
        failures += [f"{form.name} at level {k}: {form.evaluate(k)}, not {counts[kind][k]}"
                     for k in levels[kind] if form.evaluate(k) != counts[kind][k]]
    failures += [f"{forms['vacuum'].name} at level {-m}: {forms['vacuum'].evaluate_raw(-m)}, not 0"
                 for m in range(1, sum(comarks)) if forms["vacuum"].evaluate_raw(-m)]
    return failures


CLOSED_FORMS = [a for a in algebras_up_to(50) if a.family in "ABCD"] + [AlgebraId("E", 6)]


def test_every_closed_form_equals_the_count_at_every_level():
    assert [f for algebra in CLOSED_FORMS for f in pin_closed_forms(algebra)] == []


def test_the_typed_comarks_match_the_root_systems():
    assert all(affine_comarks(a) == build(a).affine_comarks for a in CLOSED_FORMS if a.rank <= 12)


@pytest.mark.parametrize("name,top", [("E6", 43), ("B8", 19), ("D8", 19), ("B4", 11), ("A8", 10)])
def test_the_pinning_levels_reach(name, top):
    # the highest level each pin reads: the tadpole sweep to level 48 covers every form of rank <= 8
    algebra = parse_algebra(name)
    assert max(k for route in tadpole.TADPOLES.values()
               for k in pinning_levels(getattr(tadpole, route["polynomial"])(algebra).period, route["floor"],
                                       algebra.rank)) == top


def test_a_changed_e6_coefficient_fails_the_pin(monkeypatch):
    # the J^6 coefficient of the vacuum branch k = 6J, 27/10, raised by 1: the value moves by J^6, so it
    # still agrees at J = 0 and fails at the six other levels, and at -6
    e6 = AlgebraId("E", 6)
    form = tadpole.zero_tadpole_polynomial(e6)
    branch = form.branches[0]
    coefficients, denominator = branch.args
    planted = partial(branch.func, (coefficients[0] + denominator,) + coefficients[1:], denominator)
    monkeypatch.setattr(tadpole, "zero_tadpole_polynomial",
                        lambda _: form._replace(branches=(planted,) + form.branches[1:]))
    failures = pin_closed_forms(e6)
    assert [f.partition(":")[0] for f in failures] == [f"vacuum tadpole[E6] at level {k}"
                                                       for k in (6, 12, 18, 24, 30, 36, -6)], failures
