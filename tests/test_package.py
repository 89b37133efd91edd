import indexsim


def test_all_is_sorted_unique_and_resolves():
    names = indexsim.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    for name in names:
        assert hasattr(indexsim, name), name
