"""Every name that a module of the package or of its tests imports is used
in that module, every private module-level name of the package is read
in the package, and every public name resolves lazily to its home module.

Deleting a function can leave its import behind, and deleting a route can
leave behind a helper that only tests call. Each module is parsed with the
standard library's ``ast``; a name counts as used when it is read anywhere
in the module, in an annotation written as a string, or in the module's
``__all__``. The package ``__init__`` imports no public name itself: it
maps each to its home module and imports that on first access.
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


def _defined_names(stmt: ast.stmt) -> set[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    targets = (stmt.targets if isinstance(stmt, ast.Assign)
               else [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
    return {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}


def _read_names(node: ast.AST) -> set[str]:
    """Names read in a node: loaded, taken as an attribute, imported, or in
    a string annotation."""
    out: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            out |= {alias.name for alias in sub.names}
        elif isinstance(sub, (ast.arg, ast.AnnAssign)) and sub.annotation is not None:
            out |= _annotation_names(sub.annotation)
        elif isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)) and sub.returns:
            out |= _annotation_names(sub.returns)
    return out


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level names that start with one underscore and are read in no
    module of ``sources`` outside the statement that defines them."""
    defined: list[tuple[str, str]] = []
    read: set[str] = set()
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            names = _defined_names(stmt)
            defined += [(module, name) for name in sorted(names)
                        if name.startswith("_") and not name.startswith("__")]
            read |= _read_names(stmt) - names
    return [f"{module}: {name}" for module, name in defined if name not in read]


def test_the_scan_finds_an_unread_private_name():
    sources = {"a": "_USED = 1\n_ALONE = 2\ndef _rec(n):\n    return _rec(n - 1)\n",
               "b": "from a import _USED\nclass _Kept:\n    x = _USED\ny: '_Kept'\n"}
    assert unread_private_names(sources) == ["a: _ALONE", "a: _rec"]


def test_every_private_name_is_read_in_the_package():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unread_private_names(sources) == []


def bracket_readers(sources: dict[str, str]) -> list[str]:
    """Where a module reads an attribute ``bracket``, the Fraction view of an
    algebra's bracket tensor, outside ``liealg``: the stored form is
    liealg's to know, and the file writer formats the scaled form."""
    out = []
    for module, source in sources.items():
        if module == "liealg.py":
            continue
        out += [f"{module}:{node.lineno}" for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.Attribute) and node.attr == "bracket"]
    return out


def test_the_scan_finds_a_bracket_reader():
    reader = "def f(g):\n    return g.bracket\n"
    sources = {"liealg.py": reader, "lcp.py": "x = 1\n" + reader,
               "fileio.py": reader.replace("def f", "def algebra_to_dict")}
    assert bracket_readers(sources) == ["lcp.py:3", "fileio.py:2"]


def test_only_liealg_reads_the_fraction_bracket():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert bracket_readers(sources) == []


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
    # _HOMES, a dict, would keep one home of a name listed under two
    listed = [name for names in lcplab._EXPORTS.values() for name in names]
    assert sorted(listed) == lcplab.__all__ == sorted(lcplab._HOMES)


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
