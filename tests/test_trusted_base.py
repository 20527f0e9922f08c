"""The verifier's trusted base, pinned by the imports of certificates.py.

`verify_certificate` lives in certificates.py; everything that module can
reach inside the package is code a certificate's auditor has to trust.  The
imports are read statically, function-level ones included, so no producer
module (hamiltonize, normal_form, linkage, ...) can slip into the base.
"""

import ast
import pathlib

import tropilink

PACKAGE = pathlib.Path(tropilink.__file__).parent


def package_imports(module: str) -> set[str]:
    """The tropilink modules that `module` imports anywhere in its source."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:
                found.add(node.module.split(".")[0])
            elif node.level == 1 or node.module == "tropilink":
                found.update(alias.name for alias in node.names)
            elif node.level == 0 and node.module.startswith("tropilink."):
                found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("tropilink."))
    return found


def import_closure(module: str) -> set[str]:
    seen, todo = set(), [module]
    while todo:
        for dep in package_imports(todo.pop()) - seen:
            seen.add(dep)
            todo.append(dep)
    return seen - {module}


def test_import_reader_sees_every_form():
    assert {"atlas", "moduli", "linkage", "certificates"} <= package_imports("cli")
    assert package_imports("graphs") == set()


def test_certificates_import_closure_is_the_trusted_base():
    assert import_closure("certificates") == {"graphs", "canonical", "connectivity"}
