"""Every public name the package and its submodules list resolves."""

import importlib
import pkgutil

import pytest

import mmsenet

SUBMODULES = [
    importlib.import_module(f"mmsenet.{info.name}")
    for info in pkgutil.iter_modules(mmsenet.__path__)
]
EXPORTING = [module for module in SUBMODULES if hasattr(module, "__all__")]


@pytest.mark.parametrize("module", [mmsenet, *EXPORTING], ids=lambda m: m.__name__)
def test_all_entries_resolve(module):
    assert len(set(module.__all__)) == len(module.__all__)
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_package_reexports_only_submodule_exports():
    owners = {name: module for module in EXPORTING for name in module.__all__}
    for name in mmsenet.__all__:
        if name == "__version__":
            continue
        assert name in owners, f"{name} is in no submodule's __all__"
        assert getattr(mmsenet, name) is getattr(owners[name], name)
