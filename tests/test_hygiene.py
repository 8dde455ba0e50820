"""Source hygiene: no unused import and no uncalled private helper in ``src/``.

A prune that removes the last use of an imported name, or the last caller
of a private helper, leaves dead code that no behavioural test notices.
These checks read the package's modules with ``ast``, so they need no
linter.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "inflectionary"
TREES = {path.name: ast.parse(path.read_text(), filename=str(path))
         for path in sorted(SRC.glob("*.py"))}


def _imported(tree):
    """Names bound by the module's imports, ``from __future__`` aside."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def _referenced(node):
    """Names a piece of code reads, as bare names, attributes or imports."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names.update(a.name for a in sub.names)
    return names


def _private_definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
                and node.name.startswith("_") and not node.name.endswith("__"):
            yield node


@pytest.mark.parametrize("module", sorted(TREES))
def test_every_import_is_used(module):
    tree = TREES[module]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(_imported(tree) - used) == []


@pytest.mark.parametrize("module", sorted(TREES))
def test_every_private_helper_is_referenced(module):
    # references from a helper's own body (recursion) do not count
    unreferenced = []
    for definition in _private_definitions(TREES[module]):
        if not any(definition.name in _referenced(node)
                   for tree in TREES.values() for node in tree.body
                   if node is not definition):
            unreferenced.append(definition.name)
    assert unreferenced == []


def test_the_checks_see_the_package():
    assert {"poly.py", "inflection.py", "cli.py"} <= set(TREES)
    assert any(_private_definitions(TREES["poly.py"]))
