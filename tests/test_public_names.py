"""Every name a module lists in `__all__` exists.

The bench tracer wraps functions by `__all__` and reports a missing name
only as absent, so a stale entry would otherwise go unnoticed.
"""

import importlib
import pkgutil

import pytest

import citechain

SUBMODULES = sorted(
    name for _, name, _ in pkgutil.iter_modules(citechain.__path__) if not name.startswith("_")
)


def test_package_all_resolves():
    assert [name for name in citechain.__all__ if not hasattr(citechain, name)] == []


@pytest.mark.parametrize("modname", SUBMODULES)
def test_submodule_all_resolves(modname):
    mod = importlib.import_module(f"citechain.{modname}")
    assert [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)] == []
