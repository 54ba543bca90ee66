"""The traced benchmark smoke: each workload of bench/run.py at `--seconds 1
--trace 1`, in a copy of the checkout so its `.bench_out/` lands in a
temporary directory.  A traced run must check its outputs correct, fail no op,
read every layer that a tracer hook feeds above 0 and, on witness_search, a
witness yield of 1.0.  The workflow's benchmark step makes only the untraced
runs; the hooked layer lists live here."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]

# A hooked layer reads 0 when the program stops calling the name its hook
# wraps (such as privacy.run_simulation or experiments.extract_series).
# repro_batch and scale_n200 draw their graphs, so their graph layers are
# hooked too: graph.attempts_per_graph counts the sampler's calls of
# graph.is_strongly_connected, made through the module global.  scale_n200
# runs its 3-op minimum; it is the only workload whose checks cover
# convergence order and the silent tail at n = 200.  witness_search's
# confirmation replays also step nodes through engine.step_node and run the
# audits by name, so it checks those hooks on the tiny pair graphs as well.
HOOKED = {
    "repro_batch": [
        "graph.generate_ms",
        "graph.attempts_per_graph",
        "protocol.node_steps",
        "engine.simulate_ms",
        "engine.audit_ms",
        "experiments.series_ms",
    ],
    "witness_search": [
        "privacy.search_ms",
        "privacy.replays_per_search",
        "privacy.project_ms",
        "protocol.node_steps",
        "engine.audit_ms",
    ],
    "scale_n200": [
        "graph.generate_ms",
        "graph.attempts_per_graph",
        "protocol.node_steps",
        "engine.simulate_ms",
        "engine.audit_ms",
    ],
}


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
    dead = [name for name in HOOKED[workload] if not metrics[name]["value"] > 0]
    assert dead == []
    if workload == "witness_search":
        # The screen passes a candidate only when its whole coalition view
        # matches the log, on any log, so on a trace's own log every candidate
        # it passes is a witness: a screen that passed more reads below 1.
        assert metrics["privacy.witness_yield"]["value"] == 1.0
