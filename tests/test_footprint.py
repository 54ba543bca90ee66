"""What a run does not use, it does not load.

`ObservationLog.digest()` hashes with the interpreter's built-in SHA-256
module, so no run loads `hashlib` (which maps OpenSSL through `_hashlib`),
not even one whose attack finds a witness.  The process pool (which loads
`multiprocessing`) is imported only by a batch on more than one worker.  The
check runs in a fresh interpreter, because the test process has loaded all
of them already.
"""

import os
import subprocess
import sys
from pathlib import Path

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
