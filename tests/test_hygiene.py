"""Static checks over the package source that no linter covers here."""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ordalg"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads.  `__future__` imports are
    directives, not names."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_scanner_finds_an_unused_import():
    assert unused_imports("import os\nfrom x import a, b as c\nprint(a)\n") == [
        "os (line 1)",
        "c (line 2)",
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def local_repeat_imports(source: str) -> list[str]:
    """Imports inside a function from a module that the file already
    imports from at top level; the top-level import can take the name."""
    tree = ast.parse(source)
    top = {(node.level, node.module) for node in tree.body if isinstance(node, ast.ImportFrom)}
    found = {}  # by line: a nested function's import is reported once, in its outermost function
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(func):
                if isinstance(node, ast.ImportFrom) and (node.level, node.module) in top:
                    module = "." * node.level + (node.module or "")
                    found.setdefault(node.lineno, f"{module} in {func.name} (line {node.lineno})")
    return list(found.values())


def test_scanner_finds_a_local_repeat_import():
    source = (
        "from .a import x\n"
        "def f():\n"
        "    from .a import y\n"
        "    from .b import z\n"
        "    from a import w\n"
        "    def g():\n"
        "        from .a import v\n"
        "        return v\n"
        "    return x, y, z, w, g\n"
    )
    assert local_repeat_imports(source) == [".a in f (line 3)", ".a in f (line 7)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_local_repeat_imports(path):
    assert local_repeat_imports(path.read_text(encoding="utf-8")) == []


MUTABLE = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
# A registry of the workspace builtins, filled once and never written to.
REGISTRIES = {"_BUILTINS"}


def module_containers(source: str) -> list[str]:
    """Module-level names bound to a dict, list or set literal or
    comprehension.  A cache must live on the object it describes, not in
    a module-level container keyed by identity."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
        else:
            continue
        if not isinstance(node.value, MUTABLE):
            continue
        for target in targets:
            name = target.id if isinstance(target, ast.Name) else ast.unparse(target)
            if name not in REGISTRIES:
                found.append(f"{name} (line {node.lineno})")
    return found


def test_scanner_finds_a_module_container():
    source = (
        "A = {}\n"
        "B: dict = {k: 1 for k in 'ab'}\n"
        "C = [x for x in ()]\n"
        "D = (1, 2)\n"
        "_BUILTINS = {'x': 1}\n"
        "def f():\n"
        "    local = {}\n"
        "    return local\n"
        "class K:\n"
        "    table = {}\n"
    )
    assert module_containers(source) == ["A (line 1)", "B (line 2)", "C (line 3)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_level_containers(path):
    assert module_containers(path.read_text(encoding="utf-8")) == []


PACKAGE = sorted(SRC.glob("*.py"))


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def private_definitions(source: str) -> list[str]:
    """Module-level functions and classes, and methods, whose names start
    with one underscore.  Dunder methods are read by the language."""
    defs = []
    for node in ast.parse(source).body:
        methods = [m for m in node.body if isinstance(m, FUNCTIONS)] if isinstance(node, ast.ClassDef) else []
        for item in [node, *methods]:
            if isinstance(item, (*FUNCTIONS, ast.ClassDef)) and item.name.startswith("_") and not item.name.endswith("__"):
                defs.append(item.name)
    return defs


def names_read(source: str) -> set[str]:
    """Every name and attribute a module reads."""
    tree = ast.parse(source)
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return names | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def unread_privates(sources: list[str]) -> list[str]:
    read = set().union(*(names_read(s) for s in sources))
    return [name for s in sources for name in private_definitions(s) if name not in read]


def test_scanner_finds_an_unread_private():
    source = (
        "def _used():\n"
        "    return 1\n"
        "def _unused():\n"
        "    return _used()\n"
        "class _Box:\n"
        "    def _left(self):\n"
        "        return self._right()\n"
        "    def _right(self):\n"
        "        return 0\n"
        "    def __len__(self):\n"
        "        return 0\n"
        "class Public:\n"
        "    def _helper(self):\n"
        "        return 2\n"
    )
    assert unread_privates([source]) == ["_unused", "_Box", "_left", "_helper"]


def test_every_private_definition_is_read():
    sources = [p.read_text(encoding="utf-8") for p in PACKAGE]
    assert unread_privates(sources) == []


# Public definitions that no module of the package reads, each kept for a reason.
UNREAD_PUBLIC = {
    "omega": "ordinals in Cantor normal form: the first infinite ordinal",
    "ord_sup": "ordinals in Cantor normal form: the sup of two ordinals",
    "parse_ordinal": "ordinals in Cantor normal form: their text form",
    "MaxReduct": "ordinals in Cantor normal form: the max-plus reduct",
    "direct_product": "tests build product structures with it",
}


def public_definitions(source: str) -> list[str]:
    """Module-level functions and classes whose names do not start with
    an underscore."""
    return [
        node.name
        for node in ast.parse(source).body
        if isinstance(node, (*FUNCTIONS, ast.ClassDef)) and not node.name.startswith("_")
    ]


def unread_publics(sources: list[str]) -> list[str]:
    read = set().union(*(names_read(s) for s in sources))
    return [name for s in sources for name in public_definitions(s) if name not in read]


def test_scanner_finds_an_unread_public():
    sources = [
        "def used():\n    return 1\nclass Unread:\n    pass\ndef _private():\n    return 0\n",
        "from .a import used\nx = used()\n",
    ]
    assert unread_publics(sources) == ["Unread"]


def test_every_public_definition_is_read():
    # __init__.py only re-exports: a name it reads is not reached by any command
    sources = [p.read_text(encoding="utf-8") for p in MODULES]
    assert sorted(unread_publics(sources)) == sorted(UNREAD_PUBLIC)


# Public methods, as Class.method, that no module of the package reads, each kept for a reason.
UNREAD_METHODS = {
    "FunctionSpace.wedge": "perfbench/spans.py times it by name as a pointwise operation",
}


def public_methods(source: str) -> list[tuple[str, str]]:
    """(class, method) for the methods of module-level classes whose
    names do not start with an underscore; dunder methods are read by
    the language, and other private methods by `unread_privates`."""
    return [
        (node.name, item.name)
        for node in ast.parse(source).body
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, FUNCTIONS) and not item.name.startswith("_")
    ]


def method_reads(source: str) -> set[tuple[str | None, str]]:
    """The names and attributes a module reads, as (class, name) for a
    read through `self` or `cls` inside a module-level class, which
    reaches only that class's own method, and (None, name) for any
    other read."""
    tree = ast.parse(source)
    own = {}
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for sub in ast.walk(node):
                if isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name) and sub.value.id in ("self", "cls"):
                    own[sub] = node.name
    reads = {(None, node.id) for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return reads | {(own.get(node), node.attr) for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def unread_methods(sources: list[str]) -> list[str]:
    """Public methods no source reads by name, through an instance of
    their own class or otherwise.  A method of a class that no source
    reads is unread with its class, which `unread_publics` reports."""
    read = set().union(*(method_reads(s) for s in sources))
    return [
        f"{cls}.{name}"
        for s in sources
        for cls, name in public_methods(s)
        if (None, cls) in read and (None, name) not in read and (cls, name) not in read
    ]


def test_scanner_finds_an_unread_method():
    sources = [
        "class Box:\n"
        "    def used(self):\n"
        "        return self.other()\n"
        "    def other(self):\n"
        "        return 0\n"
        "    def unread(self):\n"
        "        return 1\n"
        "    def _private(self):\n"
        "        return 2\n"
        "    def __len__(self):\n"
        "        return 0\n"
        "class Unread:\n"
        "    def method(self):\n"
        "        return 3\n",
        "from .a import Box\nx = Box().used()\n",
    ]
    assert unread_methods(sources) == ["Box.unread"]


def test_scanner_counts_a_self_read_for_its_own_class_only():
    sources = [
        "class Chain:\n"
        "    def is_zero(self):\n"
        "        return True\n"
        "class Table:\n"
        "    def is_zero(self):\n"
        "        return False\n"
        "    def check(self):\n"
        "        return self.is_zero()\n",
        "from .a import Chain, Table\nx = Chain(), Table().check()\n",
    ]
    assert unread_methods(sources) == ["Chain.is_zero"]


def test_every_public_method_is_read():
    sources = [p.read_text(encoding="utf-8") for p in MODULES]
    assert sorted(unread_methods(sources)) == sorted(UNREAD_METHODS)


# Fields, as Class.field, that no module of the package reads, each kept for a reason.
UNREAD_FIELDS = {
    "AxiomReport.sampled": "the sampled checkers set it; no record reports it yet (ROADMAP item 4)",
    "ConvAlgebra.rounds": "perfbench/spans.py reads it as convolution.saturate_rounds",
}

# The methods that set up an instance; a field is an attribute of `self` one of them assigns.
SETUP = ("__init__", "__post_init__")


def instance_fields(source: str) -> list[tuple[str, str]]:
    """(class, field) for the `self.<name> = ...` targets of the
    `__init__` of each module-level class, and of the `__post_init__`
    it calls, in source order and each once."""
    found = {}
    for node in ast.parse(source).body:
        if not isinstance(node, ast.ClassDef):
            continue
        setup = [m for m in node.body if isinstance(m, FUNCTIONS) and m.name in SETUP]
        for sub in (sub for m in setup for sub in ast.walk(m)):
            targets = sub.targets if isinstance(sub, ast.Assign) else [sub.target] if isinstance(sub, ast.AnnAssign) else []
            for target in targets:
                for item in target.elts if isinstance(target, ast.Tuple) else [target]:
                    if isinstance(item, ast.Attribute) and getattr(item.value, "id", None) == "self":
                        found.setdefault((node.name, item.attr))
    return list(found)


# Comparing or hashing an instance reads every field, but uses none of them.
IDENTITY = ("__eq__", "__hash__")


def attributes_loaded(source: str) -> set[str]:
    """The attributes a module reads outside `__eq__` and `__hash__`;
    assigning one is not reading it."""
    tree = ast.parse(source)
    identity = [f for f in ast.walk(tree) if isinstance(f, FUNCTIONS) and f.name in IDENTITY]
    skipped = {id(node) for f in identity for node in ast.walk(f)}
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and id(node) not in skipped
    }


def unread_fields(sources: list[str]) -> list[str]:
    """Fields that no source reads as an attribute, through an instance
    of their own class or otherwise."""
    read = set().union(*(attributes_loaded(s) for s in sources))
    return [f"{cls}.{name}" for s in sources for cls, name in instance_fields(s) if name not in read]


def test_scanner_finds_an_unread_field():
    sources = [
        "class Box:\n"
        "    def __init__(self, kept, written, never=0):\n"
        "        self.kept = kept\n"
        "        self.written = written\n"
        "        self.never = never\n"
        "        self.cache: dict = {}\n"
        "        self.__post_init__()\n"
        "    def __post_init__(self):\n"
        "        self.size, self.spare = len(self.cache), 0\n"
        "    def total(self):\n"
        "        self.later = 1\n"
        "        return self.kept + self.size\n"
        "class Pair:\n"
        "    def __init__(self, left):\n"
        "        self.left = left\n"
        "    def __eq__(self, other):\n"
        "        return self.left == other.left\n"
        "class Plain:\n"
        "    skipped: int\n"
        "    def helper(self):\n"
        "        self.late = 0\n",
        "from .a import Box\nb = Box(1, 2)\nb.written = 3\nb.written += 1\n",
    ]
    assert unread_fields(sources) == ["Box.written", "Box.never", "Box.spare", "Pair.left"]


def test_every_field_is_read():
    sources = [p.read_text(encoding="utf-8") for p in MODULES]
    assert sorted(unread_fields(sources)) == sorted(UNREAD_FIELDS)


def found_in(source: str, match) -> list[str]:
    """The dotted name of the class or function whose own body holds a
    node that `match` accepts, once per node, in source order;
    "<module>" outside them."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, *FUNCTIONS)):
                visit(child, f"{where}.{child.name}" if where else child.name)
                continue
            if match(child):
                found.append(where or "<module>")
            visit(child, where)

    visit(ast.parse(source), "")
    return found


def calls_of(source: str, name: str) -> list[str]:
    """Where `name(...)` is called, or `<anything>.method(...)` for a
    name ".method", as `found_in` names it."""

    def called(node) -> bool:
        if not isinstance(node, ast.Call):
            return False
        if name.startswith("."):
            return isinstance(node.func, ast.Attribute) and node.func.attr == name[1:]
        return isinstance(node.func, ast.Name) and node.func.id == name

    return found_in(source, called)


def test_scanner_finds_every_call_with_its_definition():
    source = (
        "x = f()\n"
        "class A:\n"
        "    def g(self):\n"
        "        return [f(i) for i in h(f)]\n"
        "    def k(self):\n"
        "        return A.f(), f\n"
        "def m():\n"
        "    def n():\n"
        "        return lambda: f()\n"
        "    return n\n"
    )
    assert calls_of(source, "f") == ["<module>", "A.g", "m.n"]


def test_scanner_finds_every_method_call_with_its_definition():
    source = "def g(s):\n    return s.f(), f(), s.f, s.t.f(1)\nclass A:\n    def h(self):\n        return self.f()\n"
    assert calls_of(source, ".f") == ["g", "g", "A.h"]


def test_each_functional_has_one_value_cache():
    # every checker reads `Functional.values`, so a functional's values are evaluated once
    made = [f"{p.name}: {where}" for p in PACKAGE for where in calls_of(p.read_text(encoding="utf-8"), "LazyValues")]
    assert made == ["functionals.py: Functional.values"]


def test_law_instances_is_the_one_compile_of_a_law():
    # every scan of a law reads the lazy compile that `law_instances` keeps per space and grid
    made = [f"{p.name}: {where}" for p in PACKAGE for where in calls_of(p.read_text(encoding="utf-8"), "_instances")]
    assert made == ["functionals.py: law_instances"]


def test_each_named_table_is_read_and_coded_in_one_place():
    # a document's rows are read by `Section.table`, its a:b lists by `pairs`, and every
    # table keyed by pairs of names becomes rows of codes in `code_rows`; the builders call them
    def callers(name):
        return [f"{p.name}: {where}" for p in PACKAGE for where in calls_of(p.read_text(encoding="utf-8"), name)]

    assert callers(".table") == [
        "workspace.py: _build_structure",  # add.row and mul.row
        "workspace.py: _build_action",  # groupoid.row
        "workspace.py: _build_action",  # act and rho
    ]
    assert callers("pairs") == ["cli.py: _cmd_eval", "workspace.py: _build_function", "workspace.py: _build_scheme"]
    assert callers("code_rows") == [
        "convolution.py: Groupoid.__init__",
        "convolution.py: ActionSystem.__init__",  # act
        "convolution.py: ActionSystem.__init__",  # rho
        "structures.py: FinStruct.__post_init__",  # add and mul
    ]


def codes_by_position(node) -> bool:
    """Whether `node` is a dict comprehension {x: i for i, x in
    enumerate(...)}, which gives each x its position as its code."""
    if not isinstance(node, ast.DictComp) or len(node.generators) != 1:
        return False
    loop = node.generators[0]
    return (
        isinstance(loop.iter, ast.Call)
        and getattr(loop.iter.func, "id", None) == "enumerate"
        and isinstance(loop.target, ast.Tuple)
        and isinstance(node.value, ast.Name)
        and node.value.id == getattr(loop.target.elts[0], "id", None)
    )


def test_scanner_finds_a_code_by_position():
    source = (
        "A = {x: i for i, x in enumerate('ab')}\n"
        "def f(xs):\n"
        "    named = {i: x for i, x in enumerate(xs)}\n"
        "    return {x: i for i, x in enumerate(xs)}, dict(enumerate(xs)), named\n"
        "class C:\n"
        "    def g(self, xs):\n"
        "        return {x.k: n for n, x in enumerate(xs) if x}, {x: 0 for x in xs}\n"
    )
    assert found_in(source, codes_by_position) == ["<module>", "f", "C.g"]


def test_names_are_coded_and_looked_up_in_one_place():
    # a carrier's names are coded by `encode`, and every name a constructor is given is looked
    # up by `codes`; nothing else codes by position but the position map of a monotone space,
    # keyed by value tuples, and the inverse of t^r in `scheme_law`, keyed by codes
    def found(find):
        return [f"{p.name}: {where}" for p in PACKAGE for where in find(p.read_text(encoding="utf-8"))]

    assert found(lambda source: found_in(source, codes_by_position)) == [
        "funcspace.py: FunctionSpace._index",
        "order.py: encode",
        "suites.py: scheme_law",
    ]
    assert found(lambda source: calls_of(source, "encode")) == [
        "convolution.py: Groupoid.__init__",
        "funcspace.py: FunctionSpace.__init__",
        "order.py: OrderRelation.__init__",
    ]
    assert found(lambda source: calls_of(source, "codes")) == [
        "convolution.py: Groupoid.__init__",  # unit
        "convolution.py: ActionSystem.__init__",  # L
        "funcspace.py: FunctionSpace.function",  # values
        "functionals.py: Dirac.__init__",
        "functionals.py: _Extremum.__init__",  # the subset of SupOver and InfOver
        "functionals.py: weighted_combo",  # coefficients
        "functionals.py: pushforward",  # the point map's values
        "structures.py: FinStruct.__post_init__",  # zero
        "structures.py: FinStruct.__post_init__",  # one
        "structures.py: Homomorphism.__init__",  # images
    ]
