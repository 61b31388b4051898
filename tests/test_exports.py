"""Every name the package exports resolves, and none is listed twice."""

import fusionkit


def test_all_names_resolve_once():
    assert [name for name in fusionkit.__all__ if not hasattr(fusionkit, name)] == []
    assert len(set(fusionkit.__all__)) == len(fusionkit.__all__)
