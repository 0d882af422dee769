"""No module of the package imports a name it never uses, and every name the
package exports resolves.

A deleted function can leave its import behind in another module, and a
deleted export its entry in ``chernlab.__all__``; neither fails at import
time, so both are caught here.  ``__init__.py`` imports in order to export,
so its imports are checked through ``__all__`` instead.
"""

import ast
from pathlib import Path

import pytest

import chernlab

SRC = Path(chernlab.__file__).resolve().parent
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported(tree):
    """The names an import statement binds, each with its line."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _used(tree):
    """Every name the module reads, quoted annotations included."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # a forward reference such as -> "Poly"; other strings that do
            # not parse as an expression name nothing
            try:
                quoted = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return used


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_import(module):
    tree = ast.parse((SRC / module).read_text(), module)
    used = _used(tree)
    unused = [f"{name} (line {line})" for name, line in _imported(tree) if name not in used]
    assert not unused, f"{module} imports names it never uses: {unused}"


def test_exports_are_unique_and_resolve():
    names = chernlab.__all__
    assert len(names) == len(set(names)), sorted(n for n in set(names) if names.count(n) > 1)
    missing = [n for n in names if not hasattr(chernlab, n)]
    assert not missing, f"chernlab.__all__ names what the package lacks: {missing}"
