"""The package's public names: each module's ``__all__`` and nothing else."""

import importlib
import pkgutil
import types

import pytest

import qcsync

# Every submodule's public names; the command line module has none.
PUBLIC = {
    info.name: getattr(importlib.import_module(f"qcsync.{info.name}"), "__all__", [])
    for info in pkgutil.iter_modules(qcsync.__path__)
}


@pytest.mark.parametrize("module", sorted(PUBLIC))
def test_every_module_name_is_exported(module):
    assert [name for name in PUBLIC[module] if not hasattr(qcsync, name)] == []


def test_every_export_is_some_module_name():
    exported = {
        name
        for name, value in vars(qcsync).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported - {name for names in PUBLIC.values() for name in names} == set()
