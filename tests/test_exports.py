"""Every name a module exports exists: a stale `__all__` entry breaks star
imports and any tool that walks the public names, such as a tracer."""

import importlib
import pkgutil

import pytest

import hlip

MODULES = ["hlip"] + [f"hlip.{m.name}" for m in pkgutil.iter_modules(hlip.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
