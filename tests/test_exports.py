"""Every exported name resolves, in the package and in each submodule."""

import importlib
import pkgutil

import pytest

import infovalue
from infovalue import errors

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(infovalue.__path__))


def test_package_exports_resolve():
    missing = [n for n in infovalue.__all__ if not hasattr(infovalue, n)]
    assert not missing


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_exports_resolve(name):
    module = importlib.import_module(f"infovalue.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing


def test_package_exports_are_its_modules_exports():
    """A public name is declared once, in its module; the package adds only
    ``__version__``."""
    declared = ["__version__"]
    for name in SUBMODULES:
        declared += getattr(importlib.import_module(f"infovalue.{name}"), "__all__", [])
    assert len(set(infovalue.__all__)) == len(infovalue.__all__)
    assert len(set(declared)) == len(declared)
    assert set(infovalue.__all__) == set(declared)


def test_every_error_class_is_exported():
    defined = {
        name
        for name, value in vars(errors).items()
        if isinstance(value, type)
        and issubclass(value, errors.InfoValueError)
        and value.__module__ == errors.__name__
    }
    assert defined <= set(errors.__all__)
