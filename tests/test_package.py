"""The package's public names."""

import blockgp


def test_every_exported_name_resolves_and_the_list_is_sorted_and_unique():
    names = blockgp.__all__
    missing = [name for name in names if not hasattr(blockgp, name)]
    assert missing == []
    assert names == sorted(names)
    assert len(set(names)) == len(names)
