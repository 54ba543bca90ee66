"""What a run does not use, it does not load.

`hashlib` (which maps OpenSSL through `_hashlib`) is imported on the first
`ObservationLog.digest()`, and the process pool (which loads
`multiprocessing`) only by a batch on more than one worker.  The check runs
in a fresh interpreter, because the test process has loaded both already.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

LAZY_MODULES = ("_hashlib", "hashlib", "multiprocessing", "concurrent.futures.process")

CHILD = """
import sys
from pathlib import Path

import privavg
import privavg.cli
from privavg import NodeRole, coalition_observations, parse_config, run_batch, run_single_trial

LAZY = {lazy!r}
work = Path(sys.argv[1])
(work / "pair.txt").write_text("2 2\\n0 1\\n1 0\\n", encoding="ascii")
(work / "pair.cfg").write_text(
    f"graph_file = {{work / 'pair.txt'}}\\nseed = 1\\ntrials = 2\\n"
    "states = 4,6\\nroles = private,curious\\n",
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
print("before", sorted(m for m in LAZY if m in sys.modules))

digest = log.digest()
summary = run_batch(cfg, jobs=2)
assert summary.n_trials == 2 and not summary.failed
print("after", sorted(m for m in LAZY if m in sys.modules))

import hashlib
payload = "\\n".join(log.canonical_lines()).encode("ascii")
print("digest", digest == hashlib.sha256(payload).hexdigest())
""".format(lazy=LAZY_MODULES)


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
    tail = proc.stdout.splitlines()[-3:]
    assert tail == [
        "before []",
        f"after {sorted(LAZY_MODULES)}",
        "digest True",
    ], proc.stdout
