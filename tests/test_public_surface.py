"""Every public top-level function and class of ``b4`` has a caller in ``b4``.

A name that only the tests reach belongs in the test module that uses
it.  The walk parses ``src/b4/*.py`` and counts a public ``def`` or
``class`` of module ``m`` as reached in three ways only: another module
imports it (``from .m import name``), code reads it as an attribute of
the module (``m.name``, with ``m`` bound by a module-level ``from .
import m``), or a read of the bare name resolves to the module global.
Names resolve scope by scope as Python resolves them, from the module's
``symtable``, so a method, an attribute of some other object or a local
variable of the same name (a loop or comprehension variable, say) does
not count, and neither does a use inside the name's own definition.

Every public member of a ``b4`` class, too (a dataclass field, a
property or a method), is read as an attribute somewhere in ``b4``.
"""

import ast
import symtable
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "b4"

# Public names with no caller in the package yet, each with the ROADMAP
# item that gives it one.
AWAITING_A_CALLER = {
    "cli:serialize": "item 6",
    "functionals:eval_Ln": "item 4",
    "functionals:shifted_sequences": "item 4",
    "functionals:decay_monitor": "item 4",
}

# Public names that no code in the package calls but a tool outside it
# does, each with the file of that caller.
OUTSIDE_CALLERS = {
    "solver:laplacian": "perfbench/layertrace.py",
}

# Public class members that no code in the package reads yet, each with
# the ROADMAP item that will read it.
AWAITING_A_READER = {
    "functionals:ConditionReport.margin1": "item 6",
    "functionals:ConditionReport.margin2": "item 6",
    "functionals:ConditionReport.margin3": "item 6",
    "functionals:DecayReport.absorbed": "item 4",
    "functionals:DecayReport.plateau": "item 4",
    "functionals:DecayReport.tail_max": "item 4",
    "solver:ObservableRecord.mins": "item 6",
    "solver:ObservableRecord.maxs": "item 6",
    "tsa:DimensionReport.singular_values": "item 6",
    "tsa:DimensionReport.takens_ok": "item 6",
    "tsa:DimensionReport.kept_count": "item 6",
}

# The symbol-table name of each kind of comprehension.
_COMPREHENSIONS = {
    ast.ListComp: "listcomp",
    ast.SetComp: "setcomp",
    ast.DictComp: "dictcomp",
    ast.GeneratorExp: "genexpr",
}


class _Walk(ast.NodeVisitor):
    """What one module's code reaches of the package.

    ``imported`` holds (module, name) for each ``from .module import
    name``, ``modules`` the sibling modules bound at module level by
    ``from . import module``, and ``reads`` (name, attribute, top) for
    each read of a module global: the attribute read off it, if any,
    and the top-level definition the read lies in, if any.  A name is
    read where its scope's symbol table marks it global; a name the
    table does not hold (an annotation that is never evaluated) is not
    read.
    """

    def __init__(self, source):
        self.tree = ast.parse(source)
        self.table = symtable.symtable(source, "<module>", "exec")
        # The child tables of each table not yet matched to their node.
        self.unvisited = {}
        self.top = None
        self.imported, self.modules, self.reads = set(), {}, []
        self.visit(self.tree)

    def _read(self, name, attribute):
        table = self.table
        if name.id in table.get_identifiers() and table.lookup(name.id).is_global():
            self.reads.append((name.id, attribute, self.top))

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load):
            self._read(node, None)

    def visit_Attribute(self, node):
        if isinstance(node.value, ast.Name):
            self._read(node.value, node.attr if isinstance(node.ctx, ast.Load) else None)
        else:
            self.visit(node.value)

    def visit_ImportFrom(self, node):
        if node.level != 1:
            return
        for alias in node.names:
            if node.module:
                self.imported.add((node.module, alias.name))
            elif self.table.get_type() == "module":
                self.modules[alias.asname or alias.name] = alias.name

    def _scope(self, node, name, outer, inner):
        """Visit outer in the current scope, then inner in node's own."""
        for child in outer:
            if child is not None:
                self.visit(child)
        children = self.unvisited.setdefault(self.table.get_id(), self.table.get_children())
        table = next(t for t in children if (t.get_name(), t.get_lineno()) == (name, node.lineno))
        children.remove(table)
        saved, self.table = self.table, table
        for child in inner:
            self.visit(child)
        self.table = saved

    def _definition(self, node, outer):
        saved = self.top
        self.top = saved or node.name
        self._scope(node, node.name, outer, node.body)
        self.top = saved

    def visit_FunctionDef(self, node):
        # Decorators, defaults and annotations are evaluated outside the body.
        self._definition(node, [*node.decorator_list, node.args, node.returns])

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_ClassDef(self, node):
        self._definition(node, [*node.decorator_list, *node.bases, *node.keywords])

    def visit_Lambda(self, node):
        self._scope(node, "lambda", [node.args], [node.body])

    def _comprehension(self, node, *results):
        # The first iterable is evaluated in the enclosing scope.
        first, *rest = node.generators
        inner = [first.target, *first.ifs, *rest, *results]
        self._scope(node, _COMPREHENSIONS[type(node)], [first.iter], inner)

    def visit_ListComp(self, node):
        self._comprehension(node, node.elt)

    visit_SetComp = visit_GeneratorExp = visit_ListComp

    def visit_DictComp(self, node):
        self._comprehension(node, node.key, node.value)


def unreached_public_names(sources):
    """``module:name`` of every public top-level def or class in sources, a
    {module: source} dict of one package, that nothing in the package reaches."""
    walks = {module: _Walk(source) for module, source in sources.items()}
    reached = set()
    for module, walk in walks.items():
        reached |= walk.imported
        for name, attribute, top in walk.reads:
            if name != top:
                reached.add((module, name))
            if attribute and name in walk.modules:
                reached.add((walk.modules[name], attribute))
    return [
        f"{module}:{node.name}"
        for module, walk in walks.items()
        for node in walk.tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and (module, node.name) not in reached
    ]


def _member_names(item):
    """The names one statement of a class body annotates, assigns or defines."""
    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return [item.name]
    if isinstance(item, ast.Assign):
        return [target.id for target in item.targets if isinstance(target, ast.Name)]
    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
        return [item.target.id]
    return []


def unread_public_members(sources):
    """``module:Class.member`` of every public member of a top-level class in
    sources, a {module: source} dict of one package, that no code in the
    package reads as an attribute.

    The check goes by name alone: a read of ``anything.name`` counts for
    every member called ``name``, so a name collision can hide an unread
    member (a method ``fields`` would pass on the reads of a stencil's
    ``fields``).  It never reports a member that is read.
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    reads = {
        node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    return [
        f"{module}:{cls.name}.{name}"
        for module, tree in trees.items()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for item in cls.body
        for name in _member_names(item)
        if not name.startswith("_") and name not in reads
    ]


def package_sources():
    return {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}


def test_every_public_class_member_is_read_in_the_package():
    assert sorted(unread_public_members(package_sources())) == sorted(AWAITING_A_READER)


def test_an_unread_field_property_or_method_is_reported():
    source = (
        "class Box:\n"
        "    size: int\n"
        "    _hidden: int\n"
        "    area = property(lambda self: self.size ** 2)\n\n"
        "    def grow(self):\n"
        "        return self.size + 1\n\n"
        "    def _shrink(self):\n"
        "        return self.size - 1\n"
    )
    assert sorted(unread_public_members({"m": source})) == ["m:Box.area", "m:Box.grow"]
    use = "def g(box):\n    return box.area + box.grow()\n"
    assert unread_public_members({"m": source, "n": use}) == []


def test_every_public_name_has_a_caller_in_the_package():
    sources = package_sources()
    unreached = unreached_public_names(sources)
    assert sorted(unreached) == sorted({**AWAITING_A_CALLER, **OUTSIDE_CALLERS})
    for name, caller in OUTSIDE_CALLERS.items():
        assert name.split(":")[1] in (ROOT / caller).read_text(), (name, caller)


FUNCTION = "def f():\n    return 1\n"


@pytest.mark.parametrize(
    "use",
    [
        # A method of the same name, called on an object.
        "class Box:\n    def f(self):\n        return 2\n\n\ndef g(box):\n    return box.f()\n",
        # A comprehension variable of the same name.
        "def g(pairs):\n    return [f + 1 for f, _ in pairs]\n",
        # A parameter and a loop variable of the same name.
        "def g(f):\n    for f in range(f):\n        pass\n    return f\n",
        # A use inside its own definition.
        "def f():\n    return f()\n",
    ],
    ids=["method", "comprehension", "local", "recursion"],
)
def test_a_same_named_local_or_attribute_does_not_reach_a_function(use):
    source = use if use.startswith("def f") else FUNCTION + "\n\n" + use
    assert "m:f" in unreached_public_names({"m": source, "n": "import math\n"})


@pytest.mark.parametrize(
    "use",
    [
        "from .m import f\n",
        "from . import m\n\n\ndef g():\n    return m.f()\n",
        "from . import m as mod\n\n\ndef g():\n    return [mod.f() for _ in range(2)]\n",
    ],
    ids=["from-import", "module-attribute", "aliased-module"],
)
def test_an_import_or_module_attribute_reaches_a_function(use):
    assert "m:f" not in unreached_public_names({"m": FUNCTION, "n": use})


@pytest.mark.parametrize(
    "use",
    [
        "def g():\n    return [f() for _ in range(2)]\n",
        "class Box:\n    value = f()\n",
        "def g(value=f):\n    return value\n",
        "def g():\n    global f\n    return f\n",
    ],
    ids=["nested-scope", "class-body", "default", "declared-global"],
)
def test_a_read_of_the_module_global_reaches_a_function(use):
    assert "m:f" not in unreached_public_names({"m": FUNCTION + "\n\n" + use})
