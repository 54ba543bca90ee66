#!/usr/bin/env python3
"""privavg benchmark: three workloads, end-to-end metrics, per-layer tracing.

Run from the repository root:

    python3 bench/run.py --workload repro_batch --seed 100 --seconds 20 --trace 0

Each workload runs in fresh worker processes (bench/worker.py), serially.
`--seconds` sizes a fixed op list from a nominal rate per workload, so the
same arguments always give the same ops; a run never does "as many ops as
fit".  Set-up is timed from process start to the worker's READY line, in
several workers, and the median is reported.  `--trace 1` runs the op list
once untraced and once traced and reports the per-layer metrics instead.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# name: (default seed, nominal ops per second on 2 cores, fewest ops)
WORKLOADS = {
    "repro_batch": (100, 18.0, 100),
    "witness_search": (0, 9.0, 100),
    "scale_n200": (1, 0.45, 3),
}
SETUP_SAMPLES = 7  # set-ups timed per run, the timed worker's included
WORKER_TIMEOUT_S = 170
TAIL_MIN_OPS = 100  # op_p90_ms needs ten samples beyond the 90th percentile


class WorkerError(RuntimeError):
    pass


def spawn(workload: str, seed: int, ops: int, *flags: str) -> tuple[float, dict]:
    """Run one worker; return (seconds from start to READY, its final JSON)."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--ops", str(ops), *flags]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        rest, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    lines = rest.strip().splitlines()
    if ready.strip() != "READY" or proc.returncode != 0 or not lines:
        raise WorkerError(f"worker {' '.join(cmd[2:])} exited with {proc.returncode}")
    return setup, json.loads(lines[-1])


def measure(res: dict, setups: list[tuple[float, float]], normalise: bool) -> dict:
    """End-to-end metrics; `normalise` puts times in reference-speed seconds.

    setups holds (seconds to READY, speed scale measured right after it).
    """
    scale = res["scale"] if normalise else 1.0
    lat_ms = [s * 1e3 * scale for s in res["latencies_s"]]
    p50 = statistics.median(lat_ms)
    # Below TAIL_MIN_OPS there is no tail to report: the p90 slot carries
    # the median (scale_n200 runs about ten ops).
    p90 = statistics.quantiles(lat_ms, n=10)[-1] if len(lat_ms) >= TAIL_MIN_OPS else p50
    return {
        "setup_s": statistics.median(s * (k if normalise else 1.0) for s, k in setups),
        "ops_per_s": res["ops"] / (res["wall_s"] * scale),
        "op_p50_ms": p50,
        "op_p90_ms": p90,
        "peak_rss_mb": res["peak_rss_mb"],
    }


def main() -> int:
    ap = argparse.ArgumentParser(description="privavg benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, help="workload seed (default per workload)")
    ap.add_argument("--seconds", type=int, default=20, help="sizes the op list")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "privavg" / "__init__.py").is_file():
        print(f"no privavg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    default_seed, rate, fewest = WORKLOADS[args.workload]
    seed = default_seed if args.seed is None else args.seed
    ops = max(fewest, round(args.seconds * rate))

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    try:
        if args.trace:
            _, res = spawn(args.workload, seed, ops, "--trace")
            values = res["layers"]
        else:
            setups = []
            for _ in range(SETUP_SAMPLES - 1):
                setup, res = spawn(args.workload, seed, ops, "--setup-only")
                setups.append((setup, res["setup_scale"]))
            setup, res = spawn(args.workload, seed, ops)
            setups.append((setup, res["setup_scale"]))
            raw = measure(res, setups, normalise=False)
            values = measure(res, setups, normalise=True)
    except WorkerError as exc:
        print(exc, file=sys.stderr)
        return 1

    out = {
        "correct": res["problems"] == 0,
        "attempted": ops,
        "failed": ops - res["ops"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    record = dict(out, seed=seed, speed_scale=res["scale"])
    if not args.trace:
        record["raw"] = raw
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    (ROOT / ".bench_out" / f"result_{args.workload}_trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="ascii"
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
