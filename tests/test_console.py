"""The privavg command as a user runs it: `python -m privavg` in a fresh
directory, with this checkout's `src` on PYTHONPATH, so nothing needs
installing.  Each test is one check of the command line: an exit code, the
files a run writes or refuses to write, CSVs that must be equal across
worker counts, and whole lines of the output.  One more test calls the
console-script target that pyproject.toml names, which an installed
`privavg` runs."""

from __future__ import annotations

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# The README's reproduction config, cut to 3 trials.
REPRO = (
    "seed = 100", "trials = 3", "n = 20", "p = 0.1",
    "states = 5,21,13,8,30,2,17,9,24,11,6,19,3,28,15,10,22,7,14,4",
)
# Private, curious and neutral nodes, whose broadcasts the round loop routes
# only where they raise a state.
ROLES = (
    "seed = 5", "trials = 10", "n = 30", "p = 0.15", "states_range = -100,100",
    "private_fraction = 0.5", "curious_fraction = 0.25",
)
HUB_GRAPH = ("3 4", "0 1", "1 0", "0 2", "2 0")
HUB = ("graph_file = graph.txt", "seed = 6", "states = 4,7,-3")


def privavg(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "privavg", *args],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=300,
    )


def write(path: Path, *lines: str) -> None:
    path.write_text("".join(f"{line}\n" for line in lines))


def same_bytes(a: Path, b: Path) -> bool:
    return a.read_bytes() == b.read_bytes()


@pytest.fixture(scope="module")
def repro(tmp_path_factory) -> Path:
    """A directory holding repro.cfg and its serial batch in out/."""
    work = tmp_path_factory.mktemp("repro")
    write(work / "repro.cfg", *REPRO)
    assert privavg(work, "--config", "repro.cfg", "--out-dir", "out", "batch").returncode == 0
    return work


def test_batch_writes_both_csvs(repro):
    assert (repro / "out/trials.csv").stat().st_size > 0
    assert (repro / "out/series.csv").stat().st_size > 0


@pytest.mark.parametrize("jobs", [2, 8])  # 8 workers are capped at the 3 trials
def test_batch_on_workers_equals_the_serial_batch(repro, jobs):
    out = f"jobs{jobs}"
    done = privavg(repro, "--config", "repro.cfg", "--out-dir", out, "batch", "--jobs", str(jobs))
    assert done.returncode == 0
    for name in ("trials.csv", "series.csv"):
        assert same_bytes(repro / "out" / name, repro / out / name)


def test_mixed_role_batch_on_two_workers_equals_the_serial_batch(tmp_path):
    write(tmp_path / "roles.cfg", *ROLES)
    assert privavg(tmp_path, "--config", "roles.cfg", "--out-dir", "roles", "batch").returncode == 0
    done = privavg(tmp_path, "--config", "roles.cfg", "--out-dir", "roles2", "batch", "--jobs", "2")
    assert done.returncode == 0
    for name in ("trials.csv", "series.csv"):
        assert same_bytes(tmp_path / "roles" / name, tmp_path / "roles2" / name)


def test_round_budget_of_zero_converges_no_trial(tmp_path):
    write(tmp_path / "budget0.cfg", *REPRO, "max_rounds = 0")
    done = privavg(tmp_path, "--config", "budget0.cfg", "--out-dir", "budget0", "batch")
    assert done.returncode == 2
    rows = (tmp_path / "budget0/trials.csv").read_text().splitlines()[1:]
    assert len(rows) == 3
    for row in rows:  # blank convergence and quiescence cells
        assert (row.split(",") + [""] * 7)[5:7] == ["", ""], row
    assert (tmp_path / "budget0/series.csv").read_text().count("\n") == 1  # the header


def test_run_writes_trace_and_message_log(repro):
    done = privavg(repro, "--config", "repro.cfg", "--out-dir", "run", "run", "--trial", "1")
    assert done.returncode == 0
    assert (repro / "run/trace.csv").stat().st_size > 0
    assert (repro / "run/messages.csv").stat().st_size > 0


def test_zero_jobs_are_refused(repro):
    done = privavg(repro, "--config", "repro.cfg", "--out-dir", "refused", "batch", "--jobs", "0")
    assert done.returncode == 1
    assert not (repro / "refused/trials.csv").exists()


def test_negative_trial_is_refused(repro):
    done = privavg(repro, "--config", "repro.cfg", "--out-dir", "negative", "run", "--trial", "-1")
    assert done.returncode == 1
    assert not (repro / "negative/report.txt").exists()


def test_missing_config_file_is_an_io_error(tmp_path):
    done = privavg(tmp_path, "--config", "missing.cfg", "--out-dir", "missing", "batch")
    assert done.returncode == 3
    assert not (tmp_path / "missing/trials.csv").exists()


def test_overflow_aborts_the_trial_alike_serially_and_on_workers(tmp_path):
    # The worker's SimulationOverflowError comes back pickled with its trace.
    write(tmp_path / "pair.txt", "2 2", "0 1", "1 0")
    write(
        tmp_path / "overflow.cfg", "graph_file = pair.txt", "seed = 100",
        "states = 4611686018427387904,4611686018427387904",
    )
    serial = privavg(tmp_path, "--config", "overflow.cfg", "--out-dir", "overflow", "batch")
    workers = privavg(
        tmp_path, "--config", "overflow.cfg", "--out-dir", "overflow2", "batch", "--jobs", "2"
    )
    assert serial.returncode == 2 and workers.returncode == 2
    line = "trial aborted: round 0: message from node 1 to node 0 left the 64-bit range"
    assert line in serial.stderr.splitlines()
    assert serial.stderr == workers.stderr


@pytest.mark.parametrize(
    "lines, code",
    [
        (("y0 = 4", "dmax = 3", "role = private", "uy = 1,8,6,2,3"), 0),
        (("y0 = 4", "dmax = 3", "role = private"), 1),
        (("y0 = 4", "dmax = 0", "role = private", "uy = 3,5"), 1),
    ],
    ids=["good", "no_uy", "dmax_0"],
)
def test_validate_schedule(tmp_path, lines, code):
    write(tmp_path / "node.sched", *lines)
    assert privavg(tmp_path, "validate-schedule", "node.sched").returncode == code


def _attack(tmp_path: Path, graph: tuple[str, ...], cfg: tuple[str, ...]) -> list[str]:
    """The privacy_audit.txt lines of `privacy-audit --attack`, which must exit 0."""
    write(tmp_path / "graph.txt", *graph)
    write(tmp_path / "attack.cfg", *cfg)
    done = privavg(
        tmp_path, "--config", "attack.cfg", "--out-dir", "audit", "privacy-audit", "--attack"
    )
    assert done.returncode == 0, done.stderr
    return (tmp_path / "audit/privacy_audit.txt").read_text().splitlines()


def test_hub_attack_with_a_private_helper_finds_a_witness(tmp_path):
    # Every interpreter must print this digest through its own built-in SHA-256.
    lines = _attack(tmp_path, HUB_GRAPH, (*HUB, "roles = private,private,curious"))
    assert "attack,0,witness,helper,1,delta,1,digest,9531356856c4a989" in lines


def test_role_fractions_beside_given_roles_are_refused(tmp_path):
    write(tmp_path / "graph.txt", *HUB_GRAPH)
    write(tmp_path / "mixed.cfg", *HUB, "roles = private,private,curious", "private_fraction = 0.2")
    done = privavg(tmp_path, "--config", "mixed.cfg", "--out-dir", "mixed", "batch")
    assert done.returncode == 1
    assert not (tmp_path / "mixed/trials.csv").exists()


def test_hub_attack_on_a_surrounded_target_reconstructs_it(tmp_path):
    lines = _attack(tmp_path, HUB_GRAPH, (*HUB, "roles = private,curious,curious"))
    assert "attack,0,reconstructed,4,truth,4,match,True" in lines


def test_three_cycle_attack_has_no_witness(tmp_path):
    cycle = ("3 3", "0 1", "1 2", "2 0")
    lines = _attack(tmp_path, cycle, (*HUB, "roles = private,private,curious"))
    assert "attack,0,witness,unavailable" in lines
    assert "attack,1,witness,unavailable" in lines


def test_the_console_script_target_prints_help(capsys):
    # A regex, not tomllib, which Python 3.10 lacks.
    pyproject = (SRC.parent / "pyproject.toml").read_text()
    scripts = re.search(r"^\[project\.scripts\]$(.*?)(?=^\[|\Z)", pyproject, re.M | re.S)
    target = re.search(r'^privavg\s*=\s*"([\w.]+):(\w+)"', scripts.group(1), re.M)
    module, function = target.groups()
    main = getattr(importlib.import_module(module), function)
    assert main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: privavg")
