"""Every exported name resolves, in the package and in each submodule."""

import importlib
import pkgutil

import pytest

import infovalue

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(infovalue.__path__))


def test_package_exports_resolve():
    missing = [n for n in infovalue.__all__ if not hasattr(infovalue, n)]
    assert not missing


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_exports_resolve(name):
    module = importlib.import_module(f"infovalue.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing
