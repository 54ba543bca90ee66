"""What a run does not use, it does not load.

`ObservationLog.digest()` hashes with the interpreter's built-in SHA-256
module, so no run loads `hashlib` (which maps OpenSSL through `_hashlib`),
not even one whose attack finds a witness.  The process pool (which loads
`multiprocessing`) is imported only by a batch on more than one worker.  The
check runs in a fresh interpreter, because the test process has loaded all
of them already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from interpreters import other_interpreters

SRC = Path(__file__).resolve().parents[1] / "src"

NEVER_MODULES = ("_hashlib", "hashlib")
POOL_MODULES = ("multiprocessing", "concurrent.futures.process")

CHILD = """
import sys
from pathlib import Path

import privavg
import privavg.cli
from privavg import NodeRole, coalition_observations, parse_config, run_batch, run_single_trial

LAZY = {lazy!r}


def loaded():
    return sorted(m for m in LAZY if m in sys.modules)


work = Path(sys.argv[1])
(work / "pair.txt").write_text("2 2\\n0 1\\n1 0\\n", encoding="ascii")
(work / "pair.cfg").write_text(
    f"graph_file = {{work / 'pair.txt'}}\\nseed = 1\\ntrials = 2\\n"
    "states = 4,6\\nroles = private,curious\\n",
    encoding="ascii",
)
(work / "hub.txt").write_text("3 4\\n0 1\\n1 0\\n0 2\\n2 0\\n", encoding="ascii")
(work / "hub.cfg").write_text(
    f"graph_file = {{work / 'hub.txt'}}\\nseed = 6\\n"
    "states = 4,7,-3\\nroles = private,private,curious\\n",
    encoding="ascii",
)
(work / "good.sched").write_text("y0 = 4\\ndmax = 3\\nrole = private\\nuy = 1,8,6,2,3\\n")
cfg_path = str(work / "pair.cfg")
main = privavg.cli.main
assert main(["--config", cfg_path, "--out-dir", str(work / "batch"), "batch"]) == 0
assert main(["--config", cfg_path, "--out-dir", str(work / "run"), "run", "--trial", "0"]) == 0
assert main(["validate-schedule", str(work / "good.sched")]) == 0

cfg = parse_config((work / "pair.cfg").read_text(encoding="ascii"))
trial = run_single_trial(cfg, 0, keep_trace=True)
curious = {{j for j, role in enumerate(trial.roles) if role is NodeRole.CURIOUS}}
log = coalition_observations(trial.trace, curious)
print("before", loaded())

hub = ["--config", str(work / "hub.cfg"), "--out-dir", str(work / "audit")]
assert main(hub + ["privacy-audit", "--attack"]) == 0
audit = (work / "audit" / "privacy_audit.txt").read_text(encoding="ascii")
assert "attack,0,witness,helper,1,delta,1,digest," in audit, audit
print("attack", loaded())

digest = log.digest()
print("digest", loaded())

summary = run_batch(cfg, jobs=2)
assert summary.n_trials == 2 and not summary.failed
print("after", loaded())

import hashlib
payload = "\\n".join(log.canonical_lines()).encode("ascii")
print("sha256", digest == hashlib.sha256(payload).hexdigest())
""".format(lazy=NEVER_MODULES + POOL_MODULES)


def test_unused_modules_stay_unloaded_until_used(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(tmp_path)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    # The commands print their own lines; keep the child's checkpoints.
    labels = ("before ", "attack ", "digest ", "after ", "sha256 ")
    checkpoints = [line for line in proc.stdout.splitlines() if line.startswith(labels)]
    assert checkpoints == [
        "before []",
        "attack []",
        "digest []",
        f"after {sorted(POOL_MODULES)}",
        "sha256 True",
    ], proc.stdout


SERIAL_CASES = """
import sys

from privavg.experiments import run_cases

assert list(run_cases(abs, [-1, 2], 1)) == [1, 2]
assert list(run_cases(abs, [-3], 4)) == [3]
print(sorted(m for m in {pool!r} if m in sys.modules))
""".format(pool=POOL_MODULES)


def test_serial_run_cases_loads_no_pool():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", SERIAL_CASES], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


DIGEST_LOOKUPS = """
import json
import sys

sys.path.insert(0, sys.argv[1])
from privavg.privacy import ObservationLog

BUILTIN = ("_sha2", "_sha256")
looked_up = []


class Recorder:
    @staticmethod
    def find_spec(name, path=None, target=None):
        looked_up.append(name)
        return None


sys.meta_path.insert(0, Recorder)
ObservationLog(frozenset(), (), ()).digest()
first = [m for m in looked_up if m in BUILTIN]
del looked_up[:]
ObservationLog(frozenset({0}), (), ()).digest()
print(json.dumps([first, [m for m in looked_up if m in BUILTIN]]))
"""


def digest_lookups(python) -> list[list[str]]:
    """The built-in hash modules looked up by a first and a second digest,
    of two distinct logs, in a fresh interpreter."""
    proc = subprocess.run(
        [str(python), "-I", "-B", "-c", DIGEST_LOOKUPS, str(SRC)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, f"{python}: {proc.stderr}"
    return json.loads(proc.stdout)


def assert_one_builtin_lookup(python):
    # The first digest imports the interpreter's own module, unless random
    # has already; a failed import is not cached, so a later digest that
    # tried a module this interpreter lacks would scan sys.path for it again.
    first, second = digest_lookups(python)
    assert len(first) <= 1 and second == [], (python, first, second)


def test_a_later_digest_looks_up_no_hash_module():
    assert_one_builtin_lookup(sys.executable)


def test_a_later_digest_looks_up_no_hash_module_under_other_interpreters():
    pythons = other_interpreters()
    if not pythons:
        pytest.skip("no other CPython 3.10+ under the pyenv versions directory")
    for python in pythons:
        assert_one_builtin_lookup(python)
