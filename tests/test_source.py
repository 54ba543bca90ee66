"""No function in the package binds a local name it never reads.

Each function of `src/privavg` is read with `ast`.  A name counts as bound
when the function's own scope assigns it (an assignment, augmented or
annotated assignment, `for`, `with ... as`, `except ... as`, a walrus, an
import, or a nested `def` or `class`), and as read when the function or
anything nested in it loads it, or a nested function declares it
`nonlocal`.  Parameters are part of a signature and are not checked, nor are
names declared `global` or `nonlocal` in the function itself.  A name that
starts with `_` is a deliberate discard.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "privavg"

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
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
