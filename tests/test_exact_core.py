"""The exact core takes no tolerance and imports no numpy: a float arriving
there is taken at its exact binary value. No module of the package imports
scipy, and the package and its command line run with numpy unavailable."""

import ast
import importlib
import inspect
import json
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import flatconic

EXACT = ("linalg", "quadform", "subconic", "geom", "surface", "cellcomplex",
         "delaunay", "veech", "cli")


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


MODULES = sorted(m.name for m in pkgutil.iter_modules(flatconic.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_modules_use_every_top_level_import(name):
    # the package `__init__` is not a module here: its imports are re-exports
    tree = ast.parse(inspect.getsource(importlib.import_module(f"flatconic.{name}")))
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound.update({(a.asname or a.name.split(".")[0]): node.lineno
                          for a in node.names})
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update({(a.asname or a.name): node.lineno for a in node.names})
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert sorted(n for n in bound if n not in used) == []


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


SURFACES = Path(__file__).resolve().parent.parent / "surfaces"
STOCK = {p.stem for p in SURFACES.glob("*.tsurf")}

# every subcommand with its exit code; on the two-marked torus the complex
# and the tessellation have ellipse vertices
RUNS = (
    (["develop", "torus", "--radius", "2"], 0),
    (["complex", "two_marked_torus", "--radius", "3", "--budget", "4"], 0),
    (["complex", "torus", "--seed", "0,0;1,0;2,0"], 3),
    (["veech-check", "torus", "--matrix", "1,1,0,1", "--radius", "3"], 0),
    (["veech-check", "torus", "--matrix", "2,0,0,1"], 2),
    (["rebuild", "torus", "sheared_torus", "--radius", "3", "--budget", "4",
      "--target-budget", "6"], 0),
    (["tessellate", "two_marked_torus", "--radius", "3", "--budget", "4",
      "--svg", "tess.svg", "--model", "disc"], 0),
)

BLOCKED = """\
import json, sys
sys.modules["numpy"] = None
sys.path.insert(0, sys.argv[1])
import flatconic
from flatconic.cli import main
print(json.dumps([main(argv) for argv in json.loads(sys.argv[2])]))
"""


def test_package_and_subcommands_run_without_numpy(tmp_path):
    argvs = [[str(SURFACES / f"{a}.tsurf") if a in STOCK else a for a in argv]
             for argv, _ in RUNS]
    src = str(Path(flatconic.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", BLOCKED, src, json.dumps(argvs)],
                         capture_output=True, text=True, timeout=300,
                         cwd=tmp_path)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout.splitlines()[-1]) == [rc for _, rc in RUNS]
    assert (tmp_path / "tess.svg").read_text().startswith("<svg")
