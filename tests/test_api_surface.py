"""Every public function, class and method of a coopdss module has a caller
in the program (src/ or perfbench/), so no API lives only for its own tests.
A reference is a name, an attribute, an imported name, or a string equal to
the name (perfbench wraps functions and methods by name).  A bare name that
is a Python builtin (`pow`, `max`, ...) is not a reference: `pow(a, e, p)`
calls the builtin, not a method named `pow`.  A method counts as used when
code outside its own body refers to it, its class's other methods included;
dunder and underscore methods are exempt.

The check is by name, not by type: it cannot tell `ExtField.inv` from
`PrimeField.inv`, so one caller of a method name keeps every method of that
name alive.

Every module under src/coopdss is guarded.  Code that only the tests call,
such as the mincut oracles that the closed-form bounds are checked against,
lives under tests/."""

import ast
import builtins
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GUARDED = sorted(path.relative_to(ROOT).as_posix()
                 for path in (ROOT / "src/coopdss").rglob("*.py"))
BUILTIN_NAMES = frozenset(dir(builtins))

def public_defs(scope):
    """Public functions and classes of a module, or public methods of a class."""
    return [node for node in scope.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def referenced_names(node):
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            if sub.id not in BUILTIN_NAMES:
                names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            names.add(sub.value)
    return names


def program_trees():
    files = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))
    return {path.relative_to(ROOT).as_posix(): ast.parse(path.read_text())
            for path in files}


def reference_units(tree):
    """(top-level statement, class body item or None, names) for each piece
    of a module that can refer to a definition: a top-level statement, or,
    inside a class, its header and each body item on its own."""
    for stmt in tree.body:
        if not isinstance(stmt, ast.ClassDef):
            yield stmt, None, referenced_names(stmt)
            continue
        header = stmt.bases + stmt.keywords + stmt.decorator_list
        yield stmt, None, set().union(*map(referenced_names, header))
        for item in stmt.body:
            yield stmt, item, referenced_names(item)


def unreferenced(trees):
    """Public definitions of the guarded modules, and public methods of their
    classes, that nothing outside their own body uses.  Iterated to a fixed
    point, so a definition whose only users are themselves unreferenced is
    reported too.  Methods are reported as Class.method."""
    units = [unit for tree in trees.values() for unit in reference_units(tree)]
    defs = []  # (label, node)
    for module in GUARDED:
        for node in public_defs(trees[module]):
            defs.append((node.name, node))
        for cls in trees[module].body:
            if isinstance(cls, ast.ClassDef):
                defs += [(f"{cls.name}.{meth.name}", meth) for meth in public_defs(cls)]
    dead = set()
    while True:
        newly = [(label, node) for label, node in defs if node not in dead
                 and not any(node.name in names for top, item, names in units
                             if node is not top and node is not item
                             and top not in dead and item not in dead)]
        if not newly:
            return sorted(label for label, node in defs if node in dead)
        dead.update(node for _, node in newly)


def test_public_api_has_a_program_caller():
    trees = program_trees()
    # only the package's own __init__ defines nothing
    assert [module for module in GUARDED if not public_defs(trees[module])] \
        == ["src/coopdss/__init__.py"]
    assert unreferenced(trees) == []


def test_guard_flags_test_only_definitions():
    # a recursive orphan, a class whose only user is another orphan, a
    # method of a live class that only calls itself, and a method whose only
    # "caller" is a call to the builtin of the same name
    trees = program_trees()
    module = "src/coopdss/field.py"
    assert module in GUARDED
    tree = trees[module]
    tree.body += ast.parse(
        "def orphan(x):\n    return orphan(x - 1) if x else Orphaned()\n\n"
        "class Orphaned:\n    pass\n").body
    prime_field = next(node for node in tree.body
                       if isinstance(node, ast.ClassDef) and node.name == "PrimeField")
    prime_field.body += ast.parse(
        "def orphan_method(self, x):\n"
        "    return self.orphan_method(x - 1) if x else self.mul(x, x)\n\n"
        "def pow(self, a, e):\n"
        "    return pow(a, e, self.p)\n").body
    tree.body += ast.parse("pow(2, 3, 5)\n").body
    assert unreferenced(trees) == ["Orphaned", "PrimeField.orphan_method", "PrimeField.pow",
                                   "orphan"]
