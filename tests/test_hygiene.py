"""Source hygiene: no unused import, no uncalled private helper, no unread
public name, method or property, no member named like a builtin method, no
parameter coerced again and no read of the ``Fraction`` view ``terms`` in
``src/``; and one ``hypothesis`` profile for every property.

A prune that removes the last use of an imported name, or the last caller
of a helper, leaves dead code that no behavioural test notices.  Code that
only tests read belongs in the tests.  The one reader outside ``src/`` that
counts is the benchmark's tracer, which binds and reads names from outside
the package: a public name also counts as read when it is one of the
tracer's ``TARGETS``, and a public method or property when the tracer reads
it.  The CLI parser types every integer input, so a library function that
calls ``int()`` on its own parameter again would only hide a wrong type by
truncating it.  These checks read the modules with ``ast``, so they need no
linter.
"""

import ast
from pathlib import Path

import pytest
from hypothesis import settings
from test_poly import PACKED

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


def _referenced(node, skip=None):
    """Names a piece of code outside the subtree ``skip`` reads, as bare
    names, attributes or imports."""
    names = set()
    stack = [node]
    while stack:
        sub = stack.pop()
        if sub is skip:
            continue
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names.update(a.name for a in sub.names)
        stack.extend(ast.iter_child_nodes(sub))
    return names


def _private_definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
                and node.name.startswith("_") and not node.name.endswith("__"):
            yield node


def _public_definitions(tree):
    """``(name, node)`` for each public function, class and constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        yield from ((name, node) for name in names if not name.startswith("_"))


def _public_members(tree):
    """``(name, node)`` for each public method and property of a class."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            yield from ((member.name, member) for member in node.body
                        if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not member.name.startswith("_"))


# attribute names that ``_referenced`` meets on builtin values all over src/
_BUILTIN_ATTRIBUTES = set().union(*map(dir, (dict, list, set, tuple, str, bytes, int)))


def _coerced_parameters(tree):
    """``(function, parameter)`` for each ``parameter = int(...)`` in a function."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        params = {a.arg for a in node.args.posonlyargs + node.args.args + node.args.kwonlyargs}
        for sub in ast.walk(node):
            if isinstance(sub, ast.Assign) and isinstance(sub.value, ast.Call) \
                    and isinstance(sub.value.func, ast.Name) and sub.value.func.id == "int":
                yield from ((node.name, t.id) for t in sub.targets
                            if isinstance(t, ast.Name) and t.id in params)


def _read_elsewhere(name, definition):
    return any(name in _referenced(node, definition) for tree in TREES.values()
               for node in tree.body)


@pytest.mark.parametrize("module", sorted(TREES))
def test_every_import_is_used(module):
    tree = TREES[module]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(_imported(tree) - used) == []


@pytest.mark.parametrize("module", sorted(TREES))
def test_every_private_helper_is_referenced(module):
    # references from a helper's own body (recursion) do not count
    unreferenced = [definition.name for definition in _private_definitions(TREES[module])
                    if not _read_elsewhere(definition.name, definition)]
    assert unreferenced == []


@pytest.mark.parametrize("module", sorted(TREES))
def test_every_public_name_is_read(module, tracing):
    # read in src/ outside its own definition, or bound by the tracer as one
    # of its TARGETS; a method or property may also be read by the tracer
    stem = module.removesuffix(".py")
    targets = {attr for module_name, attr, _span in tracing.TARGETS if module_name == stem}
    traced = _referenced(ast.parse(Path(tracing.__file__).read_text()))
    unread = [name for name, definition in _public_definitions(TREES[module])
              if not _read_elsewhere(name, definition) and name not in targets]
    unread += [name for name, definition in _public_members(TREES[module])
               if not _read_elsewhere(name, definition) and name not in traced]
    assert unread == []


@pytest.mark.parametrize("module", sorted(TREES))
def test_no_member_is_named_like_a_builtin_method(module):
    # such a name would always count as read above: src/ calls dict.values(),
    # str.join() and the like, and _referenced pools every attribute name
    clashes = [name for name, _definition in _public_members(TREES[module])
               if name in _BUILTIN_ATTRIBUTES]
    assert clashes == []


@pytest.mark.parametrize("module", sorted(TREES))
def test_no_parameter_is_coerced_again(module):
    assert list(_coerced_parameters(TREES[module])) == []


@pytest.mark.parametrize("module", sorted(TREES))
def test_no_module_reads_the_fraction_view(module):
    # computed polynomials are compared, filtered and rebuilt on ``nums`` and
    # ``den``; ``terms`` builds a Fraction per term and is left to readers
    # outside the package
    reads = [node.lineno for node in ast.walk(TREES[module])
             if isinstance(node, ast.Attribute) and node.attr == "terms"]
    assert reads == []


def test_the_checks_see_the_package():
    assert {"poly.py", "inflection.py", "cli.py"} <= set(TREES)
    assert any(_private_definitions(TREES["poly.py"]))
    assert "MAX_DENOMINATOR" in dict(_public_definitions(TREES["roots.py"]))


def test_every_property_runs_under_the_one_profile():
    # conftest.py loads the profile before any test module is imported, so a
    # settings object made at import time inherits it
    for profile in (settings.default, settings(max_examples=5), PACKED):
        assert (profile.deadline, profile.derandomize, profile.database) == (None, True, None)
