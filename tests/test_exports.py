"""Every name a module exports exists: a stale `__all__` entry breaks star
imports and any tool that walks the public names, such as a tracer.

Every exported name also has a caller outside the tests that pin its
behaviour: source code outside its own definition, the acceptance tests or
the benchmark.  A name that only unit tests reach is dead weight."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import hlip

MODULES = ["hlip"] + [f"hlip.{m.name}" for m in pkgutil.iter_modules(hlip.__path__)]

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "hlip"
# public without such a caller on purpose: approx.sup_excess is the exact
# excess that the selection tests compare select_m0 against
REFERENCE_ONLY = {"sup_excess"}


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def _defines(stmt: ast.stmt) -> set[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    return {t.id for t in targets if isinstance(t, ast.Name)}


def _reads(stmt: ast.stmt) -> set[str]:
    out = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def _references(paths) -> set[str]:
    """Names read anywhere in the files, except inside the top-level
    statement that defines them."""
    out = set()
    for path in paths:
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            out |= _reads(stmt) - _defines(stmt)
    return out


def _public_names(name: str) -> list[str]:
    module = importlib.import_module(name)
    if hasattr(module, "__all__"):
        return list(module.__all__)
    # approx keeps no __all__ (the benchmark tracer walks its names), so
    # take the public top-level definitions of such a module
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    return sorted(n for stmt in tree.body for n in _defines(stmt) if not n.startswith("_"))


@pytest.fixture(scope="module")
def callers():
    paths = [*SRC.glob("*.py"), ROOT / "tests" / "test_acceptance.py", *ROOT.glob("perfbench/*.py")]
    return _references(paths)


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_have_callers(name, callers):
    assert [n for n in _public_names(name) if n not in callers | REFERENCE_ONLY] == []
