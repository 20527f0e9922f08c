"""Every module of src/tropilink/ reads every name it imports.

No linter ships with the project, so this stdlib AST scan stands in for
one.  `__init__.py` is exempt, since its imports are the package namespace
and not uses; so are `from __future__` imports.  A name counts as read
when it appears anywhere in the module as a loaded name, annotations
included; `import a.b` binds `a`.
"""

import ast
import pathlib

import pytest

import tropilink

PACKAGE = pathlib.Path(tropilink.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names the module imports but never reads, sorted."""
    tree = ast.parse(source)
    imported, read = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0]
                            for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names
                            if alias.name != "*")
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
    return sorted(imported - read)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_read(path):
    assert unused_imports(path.read_text()) == []


def test_the_scan_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "from .certificates import StrongLinkStep, strong_link_check\n"
              "def move(g) -> os.PathLike:\n"
              "    return strong_link_check(g)\n")
    assert unused_imports(source) == ["StrongLinkStep"]
