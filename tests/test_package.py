"""The package surface: ``normconst.__all__`` is exactly what it exports."""

import normconst as nc


def test_all_has_no_duplicates_and_every_name_resolves():
    assert len(nc.__all__) == len(set(nc.__all__))
    missing = [name for name in nc.__all__ if not hasattr(nc, name)]
    assert missing == []


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from normconst import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(nc.__all__)
