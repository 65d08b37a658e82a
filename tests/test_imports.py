"""Every module uses what it imports, and the package exports what it imports.

No linter ships with the project, so these two checks stand in for the
unused-import rule: a helper deleted from one module must not stay behind
as an import elsewhere or as a name in ``sphere_zeros.__all__``.  No
``noqa`` comment exempts an import: a name the benchmark's traced run
wraps must also be called by its module, or its span reads 0.
"""

import ast
from pathlib import Path

import pytest

import sphere_zeros

PACKAGE = Path(sphere_zeros.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Names bound by module-level imports, with their line numbers."""
    names = {}
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            names[alias.asname or alias.name.split(".")[0]] = alias.lineno
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_imports(path):
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {
        name: line
        for name, line in imported_names(tree).items()
        if name not in used
    }
    assert not unused, f"{path.name}: unused imports {unused}"


def test_all_lists_exactly_the_imported_names():
    names = imported_names(ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8")))
    assert sorted(sphere_zeros.__all__) == sorted(names)
