"""The package's public name list."""

import godelnet


def test_public_names_resolve_and_are_listed_once_in_order():
    names = godelnet.__all__
    assert [name for name in names if not hasattr(godelnet, name)] == []
    assert names == sorted(set(names))
