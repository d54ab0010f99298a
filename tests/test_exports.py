"""Every name a cascadefund module exports in `__all__` exists."""

import importlib
import pkgutil

import pytest

import cascadefund

MODULES = ["cascadefund"] + sorted(
    f"cascadefund.{m.name}" for m in pkgutil.iter_modules(cascadefund.__path__)
)


def test_every_module_listed():
    assert len(MODULES) == 8


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
