"""The package's source, read with `ast`: nothing bound, defined or
defaulted that nothing uses.

No function in the package binds a local name it never reads.  A name
counts as bound when the function's own scope assigns it (an assignment,
augmented or annotated assignment, `for`, `with ... as`, `except ... as`, a
walrus, an import, or a nested `def` or `class`), and as read when the
function or anything nested in it loads it, or a nested function declares
it `nonlocal`.  Parameters are part of a signature and are not checked, nor
are names declared `global` or `nonlocal` in the function itself.  A name
that starts with `_` is a deliberate discard.

No public API only tests use.  The program is `src/privavg` without
`__init__.py`, whose re-exports are not uses, plus `bench/`.  Every
module-level public function, class and constant of the package is loaded
somewhere in the program, by name or as a module attribute; every public
method or property of a public class is loaded in it as an attribute; and
every defaulted parameter of such a function is passed, by position or by
keyword, by some call in it.  Dunder names, and the fields of dataclasses
and NamedTuples, are exempt.
"""

import ast
from pathlib import Path

import pytest

import privavg

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "privavg"
PROGRAM = sorted(set(PACKAGE.glob("*.py")) - {PACKAGE / "__init__.py"}) + sorted(
    (ROOT / "bench").glob("*.py")
)
# The test seam of the entry point: python -m privavg calls main() bare.
UNPASSED_DEFAULTS = {"cli.main(argv)"}

METHODS = (ast.FunctionDef, ast.AsyncFunctionDef)
FUNCTIONS = METHODS + (ast.Lambda,)
SCOPES = FUNCTIONS + (ast.ClassDef,)


def own_nodes(func):
    """The nodes of func's own scope: its body, without the inside of any
    nested function or class (a nested def's decorators, defaults and name
    stay in func's scope)."""
    stack = list(func.body) if isinstance(func.body, list) else [func.body]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, SCOPES):
            if not isinstance(node, ast.Lambda):
                stack.extend(node.decorator_list)
            if isinstance(node, ast.ClassDef):
                stack.extend(node.bases + [kw.value for kw in node.keywords])
            else:
                stack.extend(node.args.defaults + [d for d in node.args.kw_defaults if d])
            continue
        stack.extend(ast.iter_child_nodes(node))


def bound_names(func) -> dict[str, int]:
    """Each name func's own scope binds, with the line of its first binding."""
    bound: dict[str, int] = {}
    declared: set[str] = set()
    for node in own_nodes(func):
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            declared.update(node.names)
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names = [node.id]
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names = [node.name]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, SCOPES) and not isinstance(node, ast.Lambda):
            names = [node.name]
        else:
            continue
        for name in names:
            bound[name] = min(bound.get(name, node.lineno), node.lineno)
    return {name: line for name, line in bound.items() if name not in declared}


def read_names(func) -> set[str]:
    """Every name that func, or anything nested in it, reads."""
    read: set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Nonlocal):
            read.update(node.names)
    return read


def unread_locals(tree) -> list[str]:
    """'function:line name' for each local name bound and never read."""
    found = []
    for func in ast.walk(tree):
        if not isinstance(func, FUNCTIONS):
            continue
        read = read_names(func)
        label = getattr(func, "name", "<lambda>")
        for name, line in bound_names(func).items():
            if not name.startswith("_") and name not in read:
                found.append(f"{label}:{line} {name}")
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_bound_local_is_read(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert unread_locals(tree) == []


@pytest.mark.parametrize(
    "source, expected",
    [
        ("def f(xs):\n    count = len(xs)\n    return xs\n", ["f:2 count"]),
        ("def f(xs):\n    for i, x in enumerate(xs):\n        print(x)\n", ["f:2 i"]),
        ("def f():\n    try:\n        g()\n    except OSError as exc:\n        pass\n",
         ["f:4 exc"]),
        ("def f():\n    import os\n", ["f:2 os"]),
        ("def f():\n    def inner():\n        pass\n", ["f:2 inner"]),
        ("def f(xs):\n    total = 0\n    total += len(xs)\n", ["f:2 total"]),
        ("def f(xs):\n    n = len(xs)\n    return lambda: n\n", []),
        ("def f():\n    calls = 0\n    def g():\n        nonlocal calls\n"
         "        calls += 1\n    return g\n", []),
        ("def f(xs):\n    _, rest = xs\n    return rest\n", []),
        ("def f(xs):\n    return [x for x in xs if (y := x)]\n", ["f:2 y"]),
        ("def f(unused):\n    return 1\n", []),
        ("def f():\n    global cache\n    cache = {}\n    spare = 0\n", ["f:4 spare"]),
    ],
    ids=[
        "assignment", "loop-target", "except-as", "import", "nested-def", "aug-assign",
        "closure-read", "nonlocal", "underscore", "walrus", "parameter", "global",
    ],
)
def test_the_check_finds_what_it_says(source, expected):
    assert unread_locals(ast.parse(source)) == expected



def public_definitions(modules) -> dict[str, ast.AST]:
    """'module.name' -> node, for each module-level public def and class."""
    found = {}
    for name, tree in modules.items():
        for node in tree.body:
            if isinstance(node, SCOPES) and not node.name.startswith("_"):
                found[f"{name}.{node.name}"] = node
    return found


def public_constants(modules) -> dict[str, str]:
    """'module.NAME' -> NAME, for each public name a module-level assignment
    binds (a dunder name starts with `_`, so none is public)."""
    found = {}
    for name, tree in modules.items():
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            for target in targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name) and not leaf.id.startswith("_"):
                        found[f"{name}.{leaf.id}"] = leaf.id
    return found


def public_methods(modules) -> dict[str, str]:
    """'module.Class.name' -> name, for each public method or property of a
    public class.  Fields are annotations, not defs, and dunder methods start
    with `_`, so neither is listed."""
    found = {}
    for label, node in public_definitions(modules).items():
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, METHODS) and not item.name.startswith("_"):
                    found[f"{label}.{item.name}"] = item.name
    return found


def loaded_names(program) -> tuple[set[str], set[str]]:
    """The names the trees of program load bare, and those they load as an
    attribute."""
    bare, attributes = set(), set()
    for tree in program:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                bare.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attributes.add(node.attr)
    return bare, attributes


def unloaded_definitions(modules, program) -> list[str]:
    """'module.name' of each public definition that no tree of program loads,
    bare or as an attribute."""
    loaded = set.union(*loaded_names(program))
    return [label for label, node in public_definitions(modules).items() if node.name not in loaded]


def unloaded_constants(modules, program) -> list[str]:
    """'module.NAME' of each public constant that no tree of program loads,
    bare or as an attribute."""
    loaded = set.union(*loaded_names(program))
    return [label for label, name in public_constants(modules).items() if name not in loaded]


def unloaded_methods(modules, program) -> list[str]:
    """'module.Class.name' of each public method or property that no tree of
    program loads as an attribute."""
    _, attributes = loaded_names(program)
    return [label for label, name in public_methods(modules).items() if name not in attributes]


def defaulted_parameters(func) -> list[tuple[str, int | None]]:
    """(name, position) of each parameter of func that has a default;
    position is None for a keyword-only one."""
    args = func.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    found = [(arg.arg, k) for k, arg in enumerate(positional) if k >= first]
    found += [(arg.arg, None) for arg, d in zip(args.kwonlyargs, args.kw_defaults) if d]
    return found


def passes(call: ast.Call, name: str, position: int | None) -> bool:
    """True iff call may pass the parameter, by position or by keyword."""
    if position is not None and (
        len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args)
    ):
        return True
    return any(kw.arg in (name, None) for kw in call.keywords)


def unpassed_defaults(modules, program) -> list[str]:
    """'module.func(param)' of each defaulted parameter of a public function
    that no call in program passes."""
    calls: dict[str, list[ast.Call]] = {}
    for tree in program:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                callee = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(callee, []).append(node)
    return [
        f"{label}({name})"
        for label, node in public_definitions(modules).items()
        if isinstance(node, FUNCTIONS)
        for name, position in defaulted_parameters(node)
        if not any(passes(c, name, position) for c in calls.get(node.name, ()))
    ]


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


@pytest.fixture(scope="module")
def program():
    """The package's modules by name, and every parsed file of the program."""
    trees = {path: parse(path) for path in PROGRAM}
    modules = {path.stem: tree for path, tree in trees.items() if path.parent == PACKAGE}
    return modules, list(trees.values())


def test_every_public_definition_is_loaded(program):
    modules, trees = program
    assert unloaded_definitions(modules, trees) == []
    # So every export is checked.
    names = {label.split(".")[1] for label in public_definitions(modules)}
    assert set(privavg.__all__) <= names


def test_every_public_constant_is_loaded(program):
    assert unloaded_constants(*program) == []


def test_every_public_method_is_loaded(program):
    assert unloaded_methods(*program) == []


def test_every_default_is_passed(program):
    assert [d for d in unpassed_defaults(*program) if d not in UNPASSED_DEFAULTS] == []


@pytest.mark.parametrize(
    "source, expected",
    [
        ("def f():\n    pass\n", ["m.f"]),
        ("def f():\n    pass\nf()\n", []),
        ("class C:\n    pass\nx = [C]\n", []),
        ("def _f():\n    pass\n", []),
        ("def f(a, b=1):\n    pass\nf(0)\n", ["m.f(b)"]),
        ("def f(a, b=1):\n    pass\nf(0, 2)\n", []),
        ("def f(a, b=1):\n    pass\nf(0, b=2)\n", []),
        ("def f(a, b=1):\n    pass\nf(*xs)\n", []),
        ("def f(a, b=1):\n    pass\nf(**kw)\n", []),
        ("def f(a, *, b=1):\n    pass\nf(0, 2)\n", ["m.f(b)"]),
        ("def f(a, b=1):\n    pass\nm.f(a=0, b=2)\n", []),
    ],
    ids=[
        "unloaded", "called", "class-loaded", "private", "default-unpassed",
        "by-position", "by-keyword", "starred", "double-starred", "keyword-only",
        "attribute-call",
    ],
)
def test_the_api_checks_find_what_they_say(source, expected):
    tree = ast.parse(source)
    modules, trees = {"m": tree}, [tree]
    assert unloaded_definitions(modules, trees) + unpassed_defaults(modules, trees) == expected


@pytest.mark.parametrize(
    "source, expected",
    [
        ("LIMIT = 1\n", ["m.LIMIT"]),
        ("LIMIT = 1\nprint(LIMIT)\n", []),
        ("LIMIT: int = 1\nprint(m.LIMIT)\n", []),
        ("LOW, HIGH = 1, 2\nprint(LOW)\n", ["m.HIGH"]),
        ("__version__ = '1'\n_CACHE = {}\n", []),
        ("class C:\n    def f(self):\n        pass\nprint(C)\n", ["m.C.f"]),
        ("class C:\n    def f(self):\n        pass\nprint(C().f())\n", []),
        ("class C:\n    @property\n    def p(self):\n        return 1\nprint(C)\n",
         ["m.C.p"]),
        ("def f():\n    pass\nclass C:\n    def f(self):\n        pass\nprint(C, f)\n",
         ["m.C.f"]),
        ("class C:\n    def __init__(self):\n        pass\n    def _g(self):\n"
         "        pass\nprint(C)\n", []),
        ("class C(NamedTuple):\n    x: int\n    y: int = 0\nprint(C)\n", []),
        ("class _C:\n    def f(self):\n        pass\n", []),
    ],
    ids=[
        "constant-unloaded", "constant-loaded", "constant-attribute", "unpacked",
        "dunder-and-private-constants", "method-unloaded", "method-called",
        "property-unloaded", "bare-name-is-not-the-method", "dunder-and-private-methods",
        "fields", "private-class",
    ],
)
def test_the_member_checks_find_what_they_say(source, expected):
    tree = ast.parse(source)
    modules, trees = {"m": tree}, [tree]
    assert unloaded_constants(modules, trees) + unloaded_methods(modules, trees) == expected
