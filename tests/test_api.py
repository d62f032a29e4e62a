import barw


def test_public_names_resolve_sorted_and_unique():
    names = barw.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(barw, name)] == []
