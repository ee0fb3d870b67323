"""The package's public names: everything ``__all__`` lists is importable."""

import regimemm


def test_every_name_in_all_resolves():
    missing = [name for name in regimemm.__all__ if not hasattr(regimemm, name)]
    assert missing == []
    assert len(set(regimemm.__all__)) == len(regimemm.__all__)


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from regimemm import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(regimemm.__all__)
