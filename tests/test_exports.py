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
