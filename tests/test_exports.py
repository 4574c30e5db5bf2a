"""Every exported name resolves.

A stale entry in an ``__all__`` breaks ``from hyperrect import *`` and is
skipped silently by anything that walks the exports.
"""

import importlib
import pkgutil

import pytest

import hyperrect

MODULES = sorted(info.name for info in pkgutil.iter_modules(hyperrect.__path__))


def test_package_exports_resolve():
    missing = [name for name in hyperrect.__all__ if not hasattr(hyperrect, name)]
    assert missing == []


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"hyperrect.{name}")
    exports = getattr(module, "__all__", ())
    missing = [export for export in exports if not hasattr(module, export)]
    assert missing == []


def test_star_import():
    namespace: dict = {}
    exec("from hyperrect import *", namespace)
    assert set(hyperrect.__all__) <= set(namespace)
