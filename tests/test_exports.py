"""Every name a module exports exists: a stale `__all__` entry breaks star
imports and any tool that walks the public names, such as a tracer.

Every exported name also has a caller outside the tests that pin its
behaviour: source code outside its own definition, the acceptance tests or
the benchmark.  A name that only unit tests reach is dead weight, and so is
a defaulted parameter of a public function that no such caller passes, or
a dataclass field that no such caller reads."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import hlip

MODULES = ["hlip"] + [f"hlip.{m.name}" for m in pkgutil.iter_modules(hlip.__path__)]

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "hlip"


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


def _caller_files() -> list[Path]:
    return [*SRC.glob("*.py"), ROOT / "tests" / "test_acceptance.py", *ROOT.glob("perfbench/*.py")]


@pytest.fixture(scope="module")
def callers():
    return _references(_caller_files())


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_have_callers(name, callers):
    assert [n for n in _public_names(name) if n not in callers] == []


# defaulted parameters kept without such a caller on purpose
IN_META = "recorded in the cloud's meta, so in goldens and report hashes"
SWEPT = "its reference test sweeps it"
UNCALLED_DEFAULTS = {
    "corollary_report.config": "the default PipelineConfig, as truncate takes it",
    "estimate_ball_constants.samples": SWEPT,
    "estimate_ball_constants.seed": SWEPT,
    "estimate_ball_constants.r_bounds": SWEPT + "; whether its default fits small grids is open",
    "gradient_check.step": "the step that shows the check degrading at a crude difference",
    "height_bound_ratio.orientation": "the orientation every excess function takes",
    "solver_cloud.tol": IN_META,
    "solver_cloud.max_iter": IN_META,
    "corrupted_cluster_cloud.flip_normals": IN_META,
    "deleted_patch_cloud.center": IN_META,
}


def _calls(paths) -> dict[str, list[ast.Call]]:
    """Calls by the called name, except those inside the top-level
    statement that defines that name."""
    out: dict[str, list[ast.Call]] = {}
    for path in paths:
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            own = _defines(stmt)
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                    if name is not None and name not in own:
                        out.setdefault(name, []).append(node)
    return out


def _passes(call: ast.Call, param: inspect.Parameter, position: int | None) -> bool:
    if any(kw.arg in (param.name, None) for kw in call.keywords):  # None: a **mapping
        return True
    if position is None:
        return False
    return len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args)


def test_defaulted_parameters_have_callers():
    calls = _calls(_caller_files())
    functions = {}
    for name in MODULES:
        module = importlib.import_module(name)
        for public in _public_names(name):
            obj = getattr(module, public)
            if inspect.isfunction(obj) or hasattr(obj, "__wrapped__"):
                functions[public] = obj
    uncalled = []
    for fname, fn in sorted(functions.items()):
        params = list(inspect.signature(fn).parameters.values())
        positional = [p for p in params if p.kind is p.POSITIONAL_OR_KEYWORD]
        for p in params:
            if p.default is p.empty or p.kind in (p.VAR_POSITIONAL, p.VAR_KEYWORD):
                continue
            position = positional.index(p) if p in positional else None
            if not any(_passes(c, p, position) for c in calls.get(fname, ())):
                uncalled.append(f"{fname}.{p.name}")
    assert sorted(set(uncalled) - UNCALLED_DEFAULTS.keys()) == []
    # an allow-list entry whose parameter found a caller, or went, goes too
    assert sorted(UNCALLED_DEFAULTS.keys() - set(uncalled)) == []


# dataclass fields kept without a reader outside the unit tests on purpose
TEST_READ_FIELDS = {
    "ExtensionReport.residual": "the record of how far the fixed point got; its tests compare runs",
    "DiscreteMeasure.masses": "read through flat and total",
    "ApproxResult.fit_inputs": "read through symdiff, l2_gradient and m0_matched, on first read",
    "IntrinsicGradient.dt": "the descent reads it through its plane",
    "SolveReport.gradient_trace": "the per-step record next to energy_trace; its test compares it",
}


def _dataclass_fields() -> dict[str, list[str]]:
    """Annotated field names of each dataclass in src, by class name."""
    out = {}
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ClassDef):
                continue
            decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
            if any(getattr(d, "id", getattr(d, "attr", None)) == "dataclass" for d in decorators):
                out[node.name] = [
                    st.target.id for st in node.body
                    if isinstance(st, ast.AnnAssign) and isinstance(st.target, ast.Name)
                ]
    return out


def _attribute_readers(paths) -> dict[str, set[str | None]]:
    """Each attribute name read in the files, with the top-level classes
    that read it (None for a read outside any class).  A read of a parsed
    command line flag (`args.center`) reads no record field."""
    out: dict[str, set[str | None]] = {}
    for path in paths:
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = stmt.name if isinstance(stmt, ast.ClassDef) else None
            for node in ast.walk(stmt):
                if not (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)):
                    continue
                if isinstance(node.value, ast.Name) and node.value.id == "args":
                    continue
                out.setdefault(node.attr, set()).add(owner)
    return out


def test_record_fields_have_readers():
    readers = _attribute_readers(_caller_files())
    unread = [
        f"{cls}.{name}"
        for cls, names in _dataclass_fields().items()
        for name in names
        if not readers.get(name, set()) - {cls}
    ]
    assert sorted(set(unread) - TEST_READ_FIELDS.keys()) == []
    # an allow-list entry whose field found a reader, or went, goes too
    assert sorted(TEST_READ_FIELDS.keys() - set(unread)) == []
