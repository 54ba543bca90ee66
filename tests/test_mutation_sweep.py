"""tests/mutation_sweep.py, run on a toy tree with two tests of its own."""

import ast
import io
import json
import subprocess

import mutation_sweep

TOY = '''"""A toy module; its docstring is not mutated."""

LIMIT = 3
'''

TOY_TESTS = '''from toy import limits


def test_limit_is_set():
    assert hasattr(limits, "LIMIT")


def test_limit_is_positive():
    assert limits.LIMIT > 0
'''


def test_one_toy_mutant_is_killed_and_one_survives(tmp_path):
    (tmp_path / "toy").mkdir()
    (tmp_path / "toy" / "limits.py").write_text(TOY)
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_toy.py").write_text(TOY_TESTS)
    out = io.StringIO()
    sites = mutation_sweep.collect(tmp_path, ["toy"])
    assert mutation_sweep.sweep(tmp_path, sites, ["tests"], out) == 0
    rows = [json.loads(line) for line in out.getvalue().splitlines()]
    assert [(r["module"], r["line"], r["operator"], r["status"], r["first_failure"]) for r in rows] == [
        ("toy/limits.py", 3, "pass", "killed", "tests/test_toy.py::test_limit_is_set"),
        ("toy/limits.py", 3, "constant", "survived", None),
    ]
    assert (tmp_path / "toy" / "limits.py").read_text() == TOY  # never mutated in place


SNIPPET = '''"""Docstring."""


def f(x: int = 3) -> int:
    if x < 1 and x is not None:
        x += 2
    return f"{x + 1}"
'''


def test_each_operator_replaces_only_its_span():
    sites = mutation_sweep.find_sites("m.py", SNIPPET)
    got = [(s.line, s.operator, s.original, s.mutant) for s in sites]
    assert got == [
        (4, "pass", got[0][2], "pass"),
        (4, "constant", "3", "4"),
        (5, "pass", "if x < 1 and x is not None:\n        x += 2", "pass"),
        (5, "if-false", "x < 1 and x is not None", "False"),
        (5, "boolop", "x < 1 and x is not None", "(x < 1 or x is not None)"),
        (5, "compare", "x < 1", "(x <= 1)"),
        (5, "constant", "1", "2"),
        (5, "compare", "x is not None", "(x is None)"),
        (6, "pass", "x += 2", "pass"),
        (6, "arith", "x += 2", "x -= 2"),
        (6, "constant", "2", "3"),
        (7, "pass", 'return f"{x + 1}"', "pass"),
    ]
    for site in sites:
        mutated = mutation_sweep.apply(SNIPPET, site)
        assert ast.dump(ast.parse(mutated)) != ast.dump(ast.parse(SNIPPET))


CONDITION = '''def f(a, b, c):
    if (a
            and b
            and c):
        return 1
    return 0
'''


def test_since_reaches_what_is_left_of_an_expression_a_deletion_shortened(tmp_path):
    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                       cwd=tmp_path, check=True, capture_output=True)

    (tmp_path / "m.py").write_text(CONDITION)
    git("init", "-q")
    git("add", "m.py")
    git("commit", "-q", "-m", "toy")
    (tmp_path / "m.py").write_text(CONDITION.replace("            and b\n", ""))  # a "+c,0" hunk
    sites = mutation_sweep.collect(tmp_path, ["m.py"])
    kept = mutation_sweep.changed_sites(tmp_path, "HEAD", sites)
    # The hunk sits between lines 2 and 3: the sites whose span touches either.
    assert [(s.line, s.end_line, s.operator) for s in kept] == [
        (1, 5, "pass"),  # the def
        (2, 4, "pass"),  # the if
        (2, 3, "if-false"),
        (2, 3, "boolop"),
    ]
