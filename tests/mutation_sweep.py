"""Mutation sweep: change one site of a module at a time and run the tests.

A mutant that the whole suite passes ("survived") marks code that no test
tells apart.  It is a missing test, code that decides nothing, or an
equivalent change that only speed can tell.

Operators, each applied to one site:

    compare   swap a comparison: < and <=, > and >=, == and !=,
              is and is not, in and not in
    boolop    swap and / or
    arith     swap + and - (a binary operator or an augmented assignment)
    constant  add 1 to an integer constant
    pass      replace a statement with pass
    if-false  replace an if statement's test with False

Docstrings, annotations and f-string internals are not mutated.  A mutant
replaces only its node's source span, in a temporary copy of the tree, never
in place.  The unmutated copy runs first as a control, and the sweep stops
if the control fails.  Each mutant then runs

    python -m pytest -x -q -p no:cacheprovider tests/test_golden.py tests

serially, in a child with a 2 GB address-space limit and a timeout of three
times the control run plus 30 s (a mutant can loop or allocate), and writes
no bytecode, so no stale .pyc can stand in for a mutated module.  One JSON
line per mutant goes to stdout:

    {"module": "src/privavg/engine.py", "line": 390, "col": 11,
     "operator": "compare", "original": "...", "mutant": "...",
     "status": "killed", "first_failure": "tests/test_golden.py::...",
     "seconds": 12.4}

status is killed, survived or timeout.  first_failure is the first FAILED
or ERROR node id pytest reports, and null when none is reported.

Usage, from anywhere in the repository:

    python3 tests/mutation_sweep.py --sample 160 --seed 41 > sweep.jsonl
    python3 tests/mutation_sweep.py --since HEAD~1

--since REV keeps the sites whose source span touches a line changed since
REV (git diff against the working tree): an added line, or a line on either
side of a deletion.  An untracked module counts as changed, and a --since
that keeps no site exits 1.  --sample K --seed S then draws K of the
remaining sites.  src/privavg has about 2,000 sites, hours of serial runs,
so the sweep is not a tier-1 step; tests/test_mutation_sweep.py runs it on
a toy tree.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import random
import re
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

COMPARE_SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In,
}
ARITH_SWAPS = {ast.Add: ast.Sub, ast.Sub: ast.Add}
BOOLOP_SWAPS = {ast.And: ast.Or, ast.Or: ast.And}
COPY_IGNORED = (".git", "__pycache__", ".hypothesis", ".pytest_cache", ".bench_out", "*.egg-info")
MEMORY_LIMIT = 2 * 2**30  # bytes of address space per test run
FAILURE_LINE = re.compile(r"^(?:FAILED|ERROR) (.+?)(?: - .*)?$")
ROOT = Path(__file__).resolve().parents[1]  # the repository: copied, then tested
PACKAGE = "src/privavg"  # what is mutated, relative to ROOT
TESTS = ["tests/test_golden.py", "tests"]  # pytest arguments, in run order


@dataclass(frozen=True)
class Site:
    """One mutant: the source span [start, end) of `module` and its replacement."""

    module: str
    line: int
    col: int
    end_line: int
    end_col: int
    operator: str
    original: str
    mutant: str


def _swapped(node: ast.AST, **changes) -> ast.AST:
    """A shallow copy of node with some fields replaced."""
    fields = {name: getattr(node, name) for name in node._fields}
    fields.update(changes)
    return type(node)(**fields)


def _is_docstring(stmt: ast.stmt) -> bool:
    return isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)


def _start(stmt: ast.stmt) -> tuple[int, int]:
    """Where a statement's source begins, its decorators included."""
    decorators = getattr(stmt, "decorator_list", None)
    if decorators:
        return decorators[0].lineno, decorators[0].col_offset - 1  # the "@"
    return stmt.lineno, stmt.col_offset


def _span(data: bytes, line: int, col: int, end_line: int, end_col: int) -> slice:
    """The bytes of a span; ast columns are UTF-8 byte offsets."""
    starts = [0]
    for text in data.splitlines(keepends=True):
        starts.append(starts[-1] + len(text))
    return slice(starts[line - 1] + col, starts[end_line - 1] + end_col)


def find_sites(module: str, source: str) -> list[Site]:
    """Every mutation site of one module's source, in source order."""
    sites: list[Site] = []
    data = source.encode("utf-8")

    def add(node, operator: str, mutant: str, start: tuple[int, int] | None = None) -> None:
        line, col = start or (node.lineno, node.col_offset)
        span = (line, col, node.end_lineno, node.end_col_offset)
        original = data[_span(data, *span)].decode("utf-8")
        sites.append(Site(module, *span, operator, original, mutant))

    def expression(node: ast.expr) -> None:
        if isinstance(node, ast.JoinedStr):  # positions inside f-strings are unreliable
            return
        if isinstance(node, ast.Compare):
            for k, op in enumerate(node.ops):
                ops = [*node.ops]
                ops[k] = COMPARE_SWAPS[type(op)]()
                add(node, "compare", f"({ast.unparse(_swapped(node, ops=ops))})")
        elif isinstance(node, ast.BoolOp):
            add(node, "boolop", f"({ast.unparse(_swapped(node, op=BOOLOP_SWAPS[type(node.op)]()))})")
        elif isinstance(node, ast.BinOp) and type(node.op) in ARITH_SWAPS:
            add(node, "arith", f"({ast.unparse(_swapped(node, op=ARITH_SWAPS[type(node.op)]()))})")
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, int)
            and not isinstance(node.value, bool)
        ):
            add(node, "constant", str(node.value + 1))
        for child in ast.iter_child_nodes(node):
            visit(child)

    def body(stmts: list[ast.stmt]) -> None:
        for k, stmt in enumerate(stmts):
            if k == 0 and _is_docstring(stmt) or isinstance(stmt, ast.Pass):
                continue
            add(stmt, "pass", "pass", _start(stmt))
            if isinstance(stmt, ast.If):
                add(stmt.test, "if-false", "False")
            if isinstance(stmt, ast.AugAssign) and type(stmt.op) in ARITH_SWAPS:
                add(stmt, "arith", ast.unparse(_swapped(stmt, op=ARITH_SWAPS[type(stmt.op)]())))
            fields(stmt)

    def fields(node: ast.AST) -> None:
        """Visit a statement's or other node's fields, annotations skipped."""
        for name, value in ast.iter_fields(node):
            if name in ("annotation", "returns"):
                continue
            if isinstance(value, list) and value and isinstance(value[0], ast.stmt):
                body(value)
            else:
                for item in value if isinstance(value, list) else [value]:
                    if isinstance(item, ast.AST):
                        visit(item)

    def visit(node: ast.AST) -> None:
        if isinstance(node, ast.expr):
            expression(node)
        elif not isinstance(node, ast.arg):  # an arg holds only its annotation
            fields(node)

    body(ast.parse(source).body)
    return sorted(sites, key=lambda s: (s.line, s.col))  # stable: one node's order kept


def apply(source: str, site: Site) -> str:
    """source with the site's span replaced by its mutant."""
    data = bytearray(source.encode("utf-8"))
    data[_span(data, site.line, site.col, site.end_line, site.end_col)] = site.mutant.encode("utf-8")
    return data.decode("utf-8")


def changed_lines(root: Path, rev: str, paths: list[str]) -> dict[str, set[int] | None]:
    """Per module path, the lines changed since rev; None means the whole file.

    An added line counts, and so do the lines on either side of a deletion,
    so that dropping one operand line of a multi-line expression still
    reaches what is left of it.
    """
    diff = subprocess.run(  # --relative: paths relative to root, as collect() names them
        ["git", "diff", "-U0", "--relative", rev, "--", *paths],
        cwd=root, capture_output=True, text=True, check=True,
    ).stdout
    changed: dict[str, set[int] | None] = {}
    current = None
    for line in diff.splitlines():
        if line.startswith("+++ "):
            current = line[6:] if line.startswith("+++ b/") else None
            if current is not None:
                changed.setdefault(current, set())
        elif line.startswith("@@") and current is not None:
            new = line.split()[2][1:]  # "+start,count"
            start, _, count = new.partition(",")
            start, count = int(start), int(count or 1)
            # A deletion ("+c,0") sits between lines c and c + 1.
            changed[current].update(range(start, start + count) if count else (start, start + 1))
    untracked = subprocess.run(
        ["git", "ls-files", "--others", "--exclude-standard", "--", *paths],
        cwd=root, capture_output=True, text=True, check=True,
    ).stdout.split()
    changed.update({path: None for path in untracked})
    return changed


def changed_sites(root: Path, rev: str, sites: list[Site]) -> list[Site]:
    """The sites whose span [line, end_line] touches a line changed since rev."""
    changed = changed_lines(root, rev, sorted({s.module for s in sites}))
    return [
        s for s in sites
        if s.module in changed
        and (changed[s.module] is None or not changed[s.module].isdisjoint(range(s.line, s.end_line + 1)))
    ]


def collect(root: Path, paths: list[str]) -> list[Site]:
    sites: list[Site] = []
    for path in paths:
        target = root / path
        files = sorted(target.rglob("*.py")) if target.is_dir() else [target]
        for file in files:
            module = file.relative_to(root).as_posix()
            sites.extend(find_sites(module, file.read_text(encoding="utf-8")))
    return sites


def _limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def run_tests(tree: Path, tests: list[str], timeout: float) -> dict:
    """Run pytest in tree; the status and first failing node id."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    began = time.monotonic()
    child = subprocess.Popen(
        command, cwd=tree, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, preexec_fn=_limit_memory, start_new_session=True,
    )
    try:
        output, _ = child.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        output = None
    try:  # the whole group: a suite that overran, or children that outlived it
        os.killpg(child.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    if output is None:
        child.communicate()
        return {"status": "timeout", "first_failure": None, "seconds": round(timeout, 1)}
    # Only the summary names tests: a failure's captured output may hold a
    # line that starts with FAILED too.
    summary = output.rpartition("short test summary info")[2]
    failures = [m.group(1) for m in map(FAILURE_LINE.match, summary.splitlines()) if m]
    return {
        "status": "survived" if child.returncode == 0 else "killed",
        "first_failure": failures[0] if failures else None,
        "seconds": round(time.monotonic() - began, 1),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--since", metavar="REV", help="only sites that touch a line changed since REV")
    parser.add_argument("--sample", type=int, metavar="K", help="draw K sites at random")
    parser.add_argument("--seed", type=int, default=0, metavar="S", help="seed of --sample")
    args = parser.parse_args(argv)

    sites = collect(ROOT, [PACKAGE])
    if args.since:
        sites = changed_sites(ROOT, args.since, sites)
        if not sites:
            print(f"no site of {PACKAGE} touches a line changed since {args.since}", file=sys.stderr)
            return 1
    if args.sample is not None and args.sample < len(sites):
        picked = random.Random(args.seed).sample(range(len(sites)), args.sample)
        sites = [sites[k] for k in sorted(picked)]
    return sweep(ROOT, sites, TESTS, sys.stdout)


def sweep(root: Path, sites: list[Site], tests: list[str], out) -> int:
    """Run the control, then every site's mutant, on a copy of root."""
    statuses: dict[str, int] = {}
    with tempfile.TemporaryDirectory(prefix="mutation-sweep-") as scratch:
        tree = Path(scratch) / "tree"
        shutil.copytree(root, tree, ignore=shutil.ignore_patterns(*COPY_IGNORED), symlinks=True)
        control = run_tests(tree, tests, timeout=3600)
        if control["status"] != "survived":
            print(f"control run failed: {control}", file=sys.stderr)
            return 2
        timeout = 3 * control["seconds"] + 30  # a mutant that loops is cut here
        print(f"control passed in {control['seconds']} s; {len(sites)} mutants", file=sys.stderr)
        for site in sites:
            path = tree / site.module
            source = path.read_text(encoding="utf-8")
            mutated = apply(source, site)
            try:
                differs = ast.dump(ast.parse(mutated)) != ast.dump(ast.parse(source))
            except SyntaxError:
                differs = False
            if not differs:  # the span did not take the mutant: a fault of this tool
                print(f"skipped {site.module}:{site.line} {site.operator}", file=sys.stderr)
                continue
            path.write_text(mutated, encoding="utf-8")
            try:
                result = run_tests(tree, tests, timeout)
            finally:
                path.write_text(source, encoding="utf-8")
            statuses[result["status"]] = statuses.get(result["status"], 0) + 1
            row = {
                "module": site.module, "line": site.line, "col": site.col,
                "operator": site.operator, "original": site.original, "mutant": site.mutant,
                **result,
            }
            print(json.dumps(row), file=out, flush=True)
    print(f"done: {statuses}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
