import pytest

from fusionkit import AffineWeight, LevelTooSmall, affinize, build, diag_fusion, enumerate_level
from fusionkit.tadpole import zero_tadpole_enum
from fusionkit.weights import format_weight, parse_weight


def test_affinize_zeroth_label():
    rs = build("B3")
    aff = affinize(rs, (1, 0, 1), 4)
    # zeroth label is level minus comark-weighted sum
    assert aff.labels == (2, 1, 0, 1)
    assert aff.finite == (1, 0, 1)
    assert aff.level == 4


def test_affinize_rejects_too_small_level():
    rs = build("A1")
    with pytest.raises(LevelTooSmall):
        affinize(rs, (3,), 2)
    with pytest.raises(ValueError):
        affinize(rs, (-1,), 2)


def test_enumerate_level_order_and_count():
    rs = build("A1")
    got = list(enumerate_level(rs, 2))
    assert got == [
        AffineWeight(2, (2, 0)),
        AffineWeight(2, (1, 1)),
        AffineWeight(2, (0, 2)),
    ]


@pytest.mark.parametrize("name,level", [("A2", 5), ("B3", 4), ("C3", 6), ("G2", 7), ("F4", 4), ("D4", 3)])
def test_enumerate_level_matches_polytope_count(name, level):
    rs = build(name)
    weights = list(enumerate_level(rs, level))
    assert len(weights) == zero_tadpole_enum(rs, level)
    assert len(set(weights)) == len(weights)
    for aff in weights:
        assert aff.labels[0] == level - rs.theta_pairing(aff.finite)
        assert all(x >= 0 for x in aff.labels)


def test_nonzero_affine_labels():
    rs = build("A2")
    assert diag_fusion(rs, AffineWeight(3, (1, 0, 2))) == 1
    assert diag_fusion(rs, AffineWeight(3, (3, 0, 0))) == 0


def test_parse_and_format():
    assert parse_weight("1,0,2") == (1, 0, 2)
    assert parse_weight(" 3 , 4 ") == (3, 4)
    assert format_weight((1, 0, 2)) == "1,0,2"
    assert parse_weight("-1,0") == (-1, 0)
    with pytest.raises(ValueError):
        parse_weight("1,x")


@pytest.mark.parametrize("bad", ["1_0,1", "+1,0", "1,\u0663", "1,", "-,1", "--1,0"])
def test_parse_weight_takes_ascii_digits_only(bad):
    with pytest.raises(ValueError, match="cannot parse weight"):
        parse_weight(bad)


def test_affine_str():
    assert str(AffineWeight(5, (5, 0, 0))) == "(5; 0,0)"
