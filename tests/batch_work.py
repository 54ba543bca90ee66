"""The protocol work of the bench's two batch workloads, counted.

Each workload's op list is run in process, run_single_trial(cfg, i,
keep_trace=True) for each trial i, and four counts are summed over it:
engine.step_node calls, active rounds (quiescence_round + 1, so round -1
counts), records kept, and events recorded (round -1's broadcasts included).
They count protocol work, not bytecode, so every interpreter gives the same
ones.  As a script it prints them as one JSON object:

    PYTHONPATH=src python3 tests/batch_work.py
"""

import json

from privavg import engine, experiments

# bench/worker.py's BATCH_CONFIGS, each with its workload's seed and trial
# count: (seed, trials, config lines).
WORKLOADS = {
    "repro_batch": (
        100,
        100,
        "n = 20\np = 0.1\nprivate_fraction = 1.0\nstates = "
        + ",".join(map(str, experiments.REFERENCE_STATE_VECTOR)),
    ),
    "scale_n200": (1, 9, "n = 200\np = 0.04\nprivate_fraction = 1.0\nstates_range = -100,100"),
}


def batch_work(name: str) -> dict[str, int]:
    seed, trials, lines = WORKLOADS[name]
    cfg = experiments.parse_config(f"seed = {seed}\ntrials = {trials}\n{lines}\n")
    counts = {"node_steps": 0, "active_rounds": 0, "records": 0, "events": 0}
    step = engine.step_node

    def counted(*args):
        counts["node_steps"] += 1
        return step(*args)

    engine.step_node = counted
    try:
        for index in range(trials):
            trace = experiments.run_single_trial(cfg, index, keep_trace=True).trace
            counts["active_rounds"] += trace.quiescence_round + 1
            counts["records"] += len(trace.records)
            counts["events"] += sum(len(record.messages.events) for record in trace.records)
    finally:
        engine.step_node = step
    return counts


if __name__ == "__main__":
    print(json.dumps({name: batch_work(name) for name in WORKLOADS}))
