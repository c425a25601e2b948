"""The exact core takes no tolerance and imports no numpy: a float arriving
there is taken at its exact binary value. No module of the package imports
scipy."""

import ast
import importlib
import inspect
import pkgutil

import pytest

import flatconic

EXACT = ("linalg", "quadform", "subconic", "surface", "cellcomplex", "veech",
         "cli")


def _top_level_imports(name: str) -> set:
    module = importlib.import_module(f"flatconic.{name}")
    imported = set()
    for node in ast.walk(ast.parse(inspect.getsource(module))):
        if isinstance(node, ast.Import):
            imported |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.add(node.module.split(".")[0])
    return imported


@pytest.mark.parametrize("name", EXACT)
def test_exact_arithmetic_modules_import_no_numpy(name):
    assert not _top_level_imports(name) & {"numpy", "scipy"}


def test_no_module_imports_scipy():
    names = [m.name for m in pkgutil.iter_modules(flatconic.__path__)]
    assert set(EXACT) < set(names)
    assert [n for n in names if "scipy" in _top_level_imports(n)] == []


@pytest.mark.parametrize("name", EXACT)
def test_exact_modules_take_no_tolerance(name):
    module = importlib.import_module(f"flatconic.{name}")
    public = []
    for attr, obj in vars(module).items():
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            public.append((attr, obj))
        elif inspect.isclass(obj):
            public += [(f"{attr}.{m}", f) for m, f in vars(obj).items()
                       if inspect.isfunction(f) and not m.startswith("_")]
    assert public
    assert [n for n, f in public if "tol" in inspect.signature(f).parameters] == []
