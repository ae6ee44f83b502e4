"""Exports stay in step with definitions: a deleted name leaves no stale
``__all__`` entry, and the package imports only what its modules export."""

import ast
import importlib
import pkgutil
from pathlib import Path

import capsketch


def test_exports_resolve_and_package_imports_are_exported():
    for info in pkgutil.iter_modules(capsketch.__path__):
        module = importlib.import_module(f"capsketch.{info.name}")
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, (info.name, missing)
    tree = ast.parse(Path(capsketch.__file__).read_text())
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            exported = importlib.import_module(f"capsketch.{node.module}").__all__
            unlisted = [alias.name for alias in node.names if alias.name not in exported]
            assert not unlisted, (node.module, unlisted)
