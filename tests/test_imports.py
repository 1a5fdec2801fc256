"""Every name that a module of the package or of its tests imports is used
in that module, and every public name resolves lazily to its home module.

Deleting a function can leave its import behind. Each module is parsed
with the standard library's ``ast``; a name counts as used when it is
read anywhere in the module, in an annotation written as a string, or in
the module's ``__all__``. The package ``__init__`` imports no public name
itself: it maps each to its home module and imports that on first access.
"""
import ast
import importlib
import types
from pathlib import Path

import pytest

import lcplab

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "lcplab"
MODULES = ([pytest.param(p, id=p.name) for p in sorted(SRC.glob("*.py"))]
           + [pytest.param(p, id=f"tests/{p.name}") for p in sorted(TESTS.glob("*.py"))])


def _annotation_names(node: ast.AST) -> set[str]:
    """Names read in a string annotation, such as ``"Subspace"``."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return {n.id for n in ast.walk(ast.parse(node.value, mode="eval"))
                if isinstance(n, ast.Name)}
    return set()


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            used |= _annotation_names(node.returns)
        if (isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__"
                                                 for t in node.targets)):
            used |= {e.value for e in ast.walk(node.value)
                     if isinstance(e, ast.Constant) and isinstance(e.value, str)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


def test_the_scan_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import math\nimport os.path\nfrom typing import Optional, Sequence\n"
              "def f(x: 'Optional[int]') -> float:\n    return math.pi\n")
    assert unused_imports(source) == ["line 3: os", "line 4: Sequence"]


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_name_it_imports(module):
    assert unused_imports(module.read_text()) == []


# ---------------------------------------------------------------------------
# the lazy package namespace


def test_every_public_name_has_one_home():
    assert sorted(lcplab._HOMES) == sorted(lcplab.__all__)
    assert len(set(lcplab.__all__)) == len(lcplab.__all__)


@pytest.mark.parametrize("name", lcplab.__all__)
def test_public_name_is_its_home_modules_object(name):
    home = importlib.import_module(f"lcplab.{lcplab._HOMES[name]}")
    obj = getattr(lcplab, name)
    assert obj is getattr(home, name)
    # a function or class is defined there, not only re-exported
    if getattr(obj, "__module__", "").startswith("lcplab."):
        assert obj.__module__ == home.__name__


def test_star_import_gives_the_same_objects():
    namespace: dict = {}
    exec("from lcplab import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(lcplab.__all__)
    assert all(namespace[name] is getattr(lcplab, name) for name in namespace)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        lcplab.no_such_name  # noqa: B018
    assert not hasattr(lcplab, "exact_det")  # public in linalg, not in the package


def test_dir_lists_the_public_names_and_submodules_stay_modules():
    from lcplab import holonomy, lattice
    assert set(lcplab.__all__) <= set(dir(lcplab))
    assert "__version__" in dir(lcplab)
    assert isinstance(holonomy, types.ModuleType) and holonomy.__name__ == "lcplab.holonomy"
    assert isinstance(lattice, types.ModuleType) and lattice.__name__ == "lcplab.lattice"
