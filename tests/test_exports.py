"""Every name in the ``__all__`` of a ``bms`` module resolves on that module,
so an export whose definition was deleted or renamed fails here."""

import importlib
import pkgutil

import pytest

import bms

MODULES = [bms] + [
    importlib.import_module(f"bms.{m.name}") for m in pkgutil.iter_modules(bms.__path__)
]
EXPORTING = [m for m in MODULES if hasattr(m, "__all__")]


def test_the_exporting_modules_are_found():
    assert {m.__name__ for m in EXPORTING} >= {"bms", "bms.mspace", "bms.sgroup", "bms.duality"}


@pytest.mark.parametrize("module", EXPORTING, ids=lambda m: m.__name__)
def test_every_export_resolves(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
