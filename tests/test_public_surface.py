"""Every public top-level function and class of ``b4`` has a caller in ``b4``.

A name that only the tests reach belongs in the test module that uses
it.  The walk parses ``src/b4/*.py`` and counts a public ``def`` or
``class`` as reached when some other part of the package names it: as
a bare name, as an attribute, or in an import.  Uses inside its own
definition do not count.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "b4"

# Public names with no caller in the package yet, each with the ROADMAP
# item that gives it one.
AWAITING_A_CALLER = {
    "serialize": "item 6",
    "check_conditions": "item 6",
    "eval_Ln": "item 4",
    "shifted_sequences": "item 4",
    "decay_monitor": "item 4",
}


def _names(node, skip):
    """Names, attributes and import aliases under node, skipping subtree skip."""
    found = set()
    stack = [node]
    while stack:
        current = stack.pop()
        if current is skip:
            continue
        if isinstance(current, ast.Name):
            found.add(current.id)
        elif isinstance(current, ast.Attribute):
            found.add(current.attr)
        elif isinstance(current, ast.alias):
            found.add(current.name)
        stack.extend(ast.iter_child_nodes(current))
    return found


def unreached_public_names():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    unreached = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_"):
                continue
            if not any(node.name in _names(other, node) for other in trees.values()):
                unreached.append(f"{module}:{node.name}")
    return unreached


def test_every_public_name_has_a_caller_in_the_package():
    unreached = unreached_public_names()
    waiting = {name.split(":")[1] for name in unreached}
    assert waiting == set(AWAITING_A_CALLER), sorted(unreached)
