"""The package exports: ``__all__`` names exactly the public names it binds."""

import types

import itemlens


def test_every_name_in_all_resolves():
    assert [name for name in itemlens.__all__ if not hasattr(itemlens, name)] == []
    namespace: dict = {}
    exec("from itemlens import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(itemlens.__all__)


def test_every_public_name_is_in_all():
    public = {
        name
        for name, value in vars(itemlens).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(public - set(itemlens.__all__)) == []
