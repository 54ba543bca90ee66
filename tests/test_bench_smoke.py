"""The workflow's benchmark smoke, run locally: each workload of
bench/run.py at `--seconds 1 --trace 1`, in a copy of the checkout so its
`.bench_out/` lands in a temporary directory.  A traced run must check its
outputs correct, fail no op, read every layer that a tracer hook feeds above
0 and, on witness_search, a witness yield of 1.0.  The hooked layers are read
out of the workflow, so the lists have one home."""

from __future__ import annotations

import ast
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def hooked_layers() -> dict[str, list[str]]:
    """The `hooked` dict of the workflow's benchmark smoke step."""
    match = re.search(r"hooked = (\{.*?\})", WORKFLOW.read_text(), re.S)
    assert match, "no hooked dict in the workflow"
    return ast.literal_eval(match.group(1))


@pytest.fixture(scope="module")
def checkout(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("bench")
    skip = shutil.ignore_patterns("__pycache__", ".bench_out")
    for name in ("src", "bench"):
        shutil.copytree(ROOT / name, root / name, ignore=skip)
    shutil.copy(ROOT / "BENCHMARK.json", root)
    return root


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_feeds_every_hooked_layer(checkout, workload):
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seconds", "1", "--trace", "1"],
        cwd=checkout,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    metrics = result["metrics"]
    dead = [name for name in hooked_layers()[workload] if not metrics[name]["value"] > 0]
    assert dead == []
    if workload == "witness_search":
        assert metrics["privacy.witness_yield"]["value"] == 1.0
