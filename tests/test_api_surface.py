"""Every public function and class of a coopdss module has a caller in the
program (src/ or perfbench/), so no API lives only for its own tests.  A
reference is a name, an attribute, an imported name, or a string equal to the
name (perfbench wraps functions by name).

coopdss.bounds is left out.  Nine of its public names (s_max, cutset_value,
coop_cutset_bound, compositions, CutConfig, ...) have only test callers: they
are the mincut reference oracles the closed-form bounds are checked against,
and whether they stay in src/ is a separate decision."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GUARDED = sorted(path.relative_to(ROOT).as_posix()
                 for path in (ROOT / "src/coopdss").rglob("*.py") if path.name != "bounds.py")


def public_defs(tree):
    return [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def referenced_names(node):
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
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


def unreferenced(trees):
    """Public definitions of the guarded modules that no top-level statement
    other than their own uses.  Iterated to a fixed point, so a definition
    whose only users are themselves unreferenced is reported too."""
    stmts = [(stmt, referenced_names(stmt)) for tree in trees.values() for stmt in tree.body]
    defs = [node for module in GUARDED for node in public_defs(trees[module])]
    dead = []
    while True:
        newly = [d for d in defs if d not in dead
                 and not any(d.name in names for stmt, names in stmts
                             if stmt is not d and stmt not in dead)]
        if not newly:
            return sorted(d.name for d in dead)
        dead += newly


def test_public_api_has_a_program_caller():
    trees = program_trees()
    # only the package's own __init__ defines nothing
    assert [module for module in GUARDED if not public_defs(trees[module])] \
        == ["src/coopdss/__init__.py"]
    assert unreferenced(trees) == []


def test_guard_flags_test_only_definitions():
    # a recursive orphan, and a class whose only user is another orphan
    trees = program_trees()
    module = GUARDED[0]
    trees[module].body += ast.parse(
        "def orphan(x):\n    return orphan(x - 1) if x else Orphaned()\n\n"
        "class Orphaned:\n    pass\n").body
    assert unreferenced(trees) == ["Orphaned", "orphan"]
