"""The package's export lists agree with what its modules define."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import pschrod

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(pschrod.__path__) if info.name != "__main__"
)


def _package_imports() -> list[tuple[str, str]]:
    """(module, name) for every ``from .module import name`` in ``pschrod/__init__.py``."""
    tree = ast.parse(Path(pschrod.__file__).read_text())
    return [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]


@pytest.mark.parametrize("module, name", _package_imports(), ids="{0[0]}.{0[1]}".format)
def test_package_imports_are_exported_by_their_module(module, name):
    assert name in importlib.import_module(f"pschrod.{module}").__all__


@pytest.mark.parametrize("module", MODULES)
def test_every_export_resolves(module):
    mod = importlib.import_module(f"pschrod.{module}")
    exported = getattr(mod, "__all__", ())
    assert len(set(exported)) == len(exported)
    assert [name for name in exported if not hasattr(mod, name)] == []
    namespace = {}
    exec(f"from pschrod.{module} import *", namespace)
    assert set(exported) <= namespace.keys()


def _unused_imports(source: str) -> list[str]:
    """The names a module's top-level imports bind but the module never reads."""
    tree = ast.parse(source)
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {alias.asname or alias.name for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = {
        elt.value
        for node in tree.body
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        for elt in getattr(node.value, "elts", ())
        if isinstance(elt, ast.Constant)
    }
    return sorted(bound - read - exported)


def test_unused_import_check_catches_a_leftover_import():
    source = "import numpy as np\nimport scipy.sparse as sp\n\nx = np.zeros(3)\n"
    assert _unused_imports(source) == ["sp"]


@pytest.mark.parametrize(
    "path",
    sorted(p for p in Path(pschrod.__file__).parent.glob("*.py") if p.name != "__init__.py"),
    ids=lambda p: p.name,
)
def test_module_uses_every_top_level_import(path):
    # __init__.py is skipped: its imports are the package's re-exports
    assert _unused_imports(path.read_text()) == []
