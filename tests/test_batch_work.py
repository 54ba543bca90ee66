"""The protocol work of the bench's batch workloads is pinned.

A change that only slows a trial (a node stepped that need not be, a record
kept that need not be) passes every outcome test, and the bench's timings
drift too much to show it.  So the counts of tests/batch_work.py are pinned
here, under this interpreter and under every other CPython 3.10+ found: the
counts are protocol work, so they are the same on each.  A change that moves
one on purpose updates the pin and says so in CHANGES.md.
"""

import json
import os
import subprocess
from pathlib import Path

import pytest

from batch_work import batch_work
from interpreters import other_interpreters

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

# node_steps counts engine.step_node calls; active_rounds is the sum of
# quiescence_round + 1, where the tracer's engine.rounds_active reads
# quiescence_round.
PINNED = {
    "repro_batch": {"node_steps": 32_374, "active_rounds": 3_610, "records": 13_610, "events": 46_010},
    "scale_n200": {"node_steps": 69_832, "active_rounds": 3_176, "records": 12_176, "events": 101_460},
}
MOVED = "the batch work changed; a change that alters it on purpose updates this pin"


@pytest.mark.parametrize("name", sorted(PINNED))
def test_batch_work_is_pinned(name):
    assert batch_work(name) == PINNED[name], MOVED


def test_batch_work_is_pinned_under_other_interpreters():
    """-B keeps each interpreter's bytecode out of src/ and tests/."""
    pythons = other_interpreters()
    if not pythons:
        pytest.skip("no other CPython 3.10+ under the pyenv versions directory")
    for python in pythons:
        done = subprocess.run(
            [str(python), "-B", str(TESTS / "batch_work.py")],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert done.returncode == 0, f"{python}: {done.stderr}"
        assert json.loads(done.stdout) == PINNED, (python, MOVED)
