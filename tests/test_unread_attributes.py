"""Every attribute a module of src/tropilink/ assigns is read somewhere.

A slot that is written and never read costs its build on every object and
says nothing.  This stdlib AST scan, a companion of
tests/test_unused_imports.py, collects the attribute names that the
package's modules assign (`obj.name = ...`, `self.name += ...`) and the
names that any module of src/tropilink/, tests/ or demos/ reads as an
attribute (`obj.name`, an augmented assignment included).  Names are
matched as strings, so a read of the same name on any object counts; a
read through `getattr` with a string does not.
"""

import ast
import pathlib

import tropilink

PACKAGE = pathlib.Path(tropilink.__file__).parent
TESTS = pathlib.Path(__file__).parent
DEMOS = TESTS.parent / "demos"


def attributes(source: str) -> tuple[set[str], set[str]]:
    """(attribute names the source assigns, attribute names it reads)."""
    assigned, read = set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.AugAssign) and isinstance(node.target,
                                                          ast.Attribute):
            read.add(node.target.attr)
        elif isinstance(node, ast.Attribute):
            (assigned if isinstance(node.ctx, ast.Store) else read).add(node.attr)
    return assigned, read


def test_every_assigned_attribute_is_read():
    assigned, read = {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        names, reads = attributes(path.read_text())
        read |= reads
        for name in names:
            assigned.setdefault(name, []).append(path.name)
    for path in sorted(TESTS.glob("*.py")) + sorted(DEMOS.glob("*.py")):
        read |= attributes(path.read_text())[1]
    unread = {name: where for name, where in assigned.items()
              if name not in read}
    assert unread == {}, "assigned but never read"


def test_the_scan_finds_an_unread_attribute():
    source = ("class Poset:\n"
              "    def __init__(self, strata):\n"
              "        self.strata = strata\n"
              "        self._index = {s: i for i, s in enumerate(strata)}\n"
              "        self.count = 0\n"
              "        self.count += 1\n"
              "    def top(self):\n"
              "        return max(self.strata)\n")
    assigned, read = attributes(source)
    assert assigned - read == {"_index"}
