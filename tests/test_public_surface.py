"""The package's public surface, pinned by what the package itself uses.

Every public top-level function or class of src/tropilink/*.py must be
referenced by the package's code outside its own definition (another
function, a class, a module-level statement; `__init__.py`, which only
re-exports, does not count), or be one of the library entry points listed
below.  A reference is a name, an imported name, or an attribute of a
package module the file imports (`moduli.build_poset`); a method or
property of the same name is not one.  Helpers that only tests call live
in tests/ (conftest.py and the *_oracle.py modules), so they cannot grow
back into src/.
"""

import ast
import pathlib

import tropilink

PACKAGE = pathlib.Path(tropilink.__file__).parent

# Constructors and checks offered to library callers that no module calls.
# `to_json_dict` is the graph schema as a value, and the oracle of the
# writer that renders graphs from their slots.
ENTRY_POINTS = {"theta_graph", "dumbbell_graph", "k4_graph", "cycle_graph",
                "petersen_graph", "enumerate_stable", "check_schottky_codim1",
                "genus", "to_json_dict"}


def _package_modules(tree) -> set[str]:
    """Names the file binds to modules of the package (`from . import m`)."""
    return {alias.asname or alias.name for stmt in tree.body
            if isinstance(stmt, ast.ImportFrom) and stmt.level
            and stmt.module is None for alias in stmt.names}


def _names_used(node, modules) -> set[str]:
    """Identifiers node reads: names, imported names, and attributes of the
    package modules in `modules` (`moduli.build_poset`).  An attribute of
    anything else, such as the property `Stratum.genus`, is not a use of
    the top-level name it shares."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif (isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)
              and sub.value.id in modules):
            found.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            found.update(alias.name for alias in sub.names)
    return found


def _surface():
    """({module.name: definition} of public top-level functions and classes,
    the names the package uses)."""
    public, used = {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        modules = _package_modules(tree)
        for stmt in tree.body:
            if (isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                    and not stmt.name.startswith("_")):
                public[f"{path.stem}.{stmt.name}"] = stmt
                # a definition does not use itself (recursion included)
                used |= _names_used(stmt, modules) - {stmt.name}
            else:
                used |= _names_used(stmt, modules)
    return public, used


def test_every_public_name_is_used_by_the_package_or_an_entry_point():
    public, used = _surface()
    unused = sorted(q for q, d in public.items()
                    if d.name not in used and d.name not in ENTRY_POINTS)
    assert unused == [], "public but used only outside the package"


def test_entry_points_are_public_and_otherwise_unused():
    public, used = _surface()
    names = {d.name for d in public.values()}
    assert ENTRY_POINTS <= names
    assert ENTRY_POINTS.isdisjoint(used)


def test_removed_helpers_stay_out_of_src():
    public, _ = _surface()
    names = {d.name for d in public.values()}
    assert names.isdisjoint({"TropicalCurve", "stabilize", "canonical_hash",
                             "find_partner_short_chord", "b1_of_edge_subset",
                             "twist", "factor_twist", "twist_3ec",
                             "is_p_regular", "short_arc", "is_short"})
    assert not hasattr(tropilink.Graph, "loops_at")
    assert not hasattr(tropilink.WeightedGraph, "is_stable")
    assert "_canon_cache" not in tropilink.Graph.__slots__
