"""No dead code in the package: every name a module imports is used in that
module, and every private top-level function, class or constant is used
somewhere in the package besides its own definition.  Only the stdlib
``ast`` module reads the sources; nothing is imported or run."""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parent.parent / "src" / "pcnsim"
_TREES = {path.name: ast.parse(path.read_text(encoding="utf-8"), str(path))
          for path in sorted(_SRC.glob("*.py"))}


def _reads(tree: ast.AST) -> Counter:
    """How often each name is read under ``tree``: as a plain name, or as an
    attribute (``module.name``) by its last part."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree)
                   if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                   or isinstance(node, ast.Attribute))


def unused_imports(tree: ast.Module) -> list[str]:
    """The names the module imports and never reads as a plain name."""
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for name in ((alias.asname or alias.name.split(".")[0]) for alias in node.names)
            if name not in read]


def _private_definitions(tree: ast.Module):
    """(name, node) for each private top-level function, class or constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [leaf.id for target in targets for leaf in ast.walk(target)
                     if isinstance(leaf, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def orphaned_privates(trees: dict[str, ast.Module]) -> list[str]:
    """``module:name`` for each private top-level definition that nothing in
    ``trees`` reads besides the definition itself."""
    reads = sum((_reads(tree) for tree in trees.values()), Counter())
    return [f"{module}:{name}" for module, tree in trees.items()
            for name, node in _private_definitions(tree)
            if reads[name] == _reads(node)[name]]


@pytest.mark.parametrize("module", [name for name in _TREES if name != "__init__.py"])
def test_every_import_is_used(module):
    assert unused_imports(_TREES[module]) == []


def test_every_private_definition_is_used():
    assert orphaned_privates(_TREES) == []


def test_the_checks_catch_an_unused_import_and_an_orphaned_helper():
    tree = ast.parse("import os\nfrom math import pi, tau as turn\n\n"
                     "_LIMIT = 3\n\n\ndef _helper(x):\n    return _helper(x - 1)\n\n\n"
                     "def public():\n    return pi + _LIMIT\n")
    assert unused_imports(tree) == ["os", "turn"]
    assert orphaned_privates({"m.py": tree}) == ["m.py:_helper"]
