"""One workload in one fresh process: set up, say READY, run the op list, check.

Started by run.py, which times set-up from process start to the READY line
on stdout.  The last line on stdout is a JSON object with the timed phase's
figures and the verdict of the output checks.  Usage:

    python3 bench/worker.py --workload repro_batch --seed 100 --ops 450 [--trace] [--setup-only]
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(ROOT / "src"))

import privavg  # noqa: E402
from privavg import engine, experiments, privacy  # noqa: E402
from privavg.graph import assign_edge_order, digraph_from_edges, max_out_degree  # noqa: E402
from privavg.schedule import NodeRole, decompose_initial_state  # noqa: E402

import checks  # noqa: E402
import speed  # noqa: E402
import tracer as tracing  # noqa: E402

WITNESS_DELTAS = (1, -1, 2, -2, 3, -3)
WITNESS_SEED_STRIDE = 1_000_000  # seed s walks pair cases s * stride + 0, 1, ...

BATCH_CONFIGS = {
    "repro_batch": (
        "n = 20\np = 0.1\nprivate_fraction = 1.0\nstates = "
        + ",".join(map(str, experiments.REFERENCE_STATE_VECTOR))
    ),
    "scale_n200": "n = 200\np = 0.04\nprivate_fraction = 1.0\nstates_range = -100,100",
}


class BatchWorkload:
    """The calls `privavg batch` makes: run_batch, then emit_round_metrics.

    An op is one trial; the trials of one batch are the op list.
    """

    def __init__(self, name: str, seed: int, ops: int) -> None:
        self.name = name
        self.cfg = experiments.parse_config(
            f"seed = {seed}\ntrials = {ops}\n{BATCH_CONFIGS[name]}\n"
        )
        self.n = self.cfg.n
        self.out = OUT / name

    def run(self, probe, tracer=None) -> list[float]:
        latencies = []
        original = experiments.run_single_trial

        def timed_trial(cfg, index, keep_trace=False):
            if tracer is not None:
                tracer.op = index
            spent, start = probe.spent, perf_counter()
            result = original(cfg, index, keep_trace)
            latencies.append(perf_counter() - start - (probe.spent - spent))
            return result

        experiments.run_single_trial = timed_trial
        try:
            self.summary = experiments.run_batch(self.cfg)
            trials_path, _ = experiments.emit_round_metrics(self.summary, self.out)
        finally:
            experiments.run_single_trial = original
        self.trials_csv = trials_path.read_text(encoding="ascii")
        return latencies

    def _check_args(self):
        fanout = self.name == "repro_batch"
        return self.summary, self.n, self.cfg.trials, self.trials_csv, fanout

    def check(self) -> list[str]:
        return checks.check_batch(*self._check_args())

    def self_test(self) -> list[str]:
        return checks.self_test_batch(*self._check_args())

    def export_ms(self) -> float:
        """trace.csv plus messages.csv for one trial, as `privavg run` writes them."""
        result = experiments.run_single_trial(self.cfg, 0, keep_trace=True)
        times = []
        for _ in range(3):
            start = perf_counter()
            engine.write_trace_csv(result.trace, self.out / "trace.csv")
            engine.write_message_log(result.trace, self.out / "messages.csv")
            times.append(perf_counter() - start)
        return sorted(times)[1] * 1e3


def pair_spokes(index: int) -> int:
    """The spoke count acceptance-07 draws first for pair case `index`."""
    return random.Random(f"caseCD:{index}").randint(1, 3)


class PairCase:
    """One acceptance-07 pair topology: private pair 0 <-> 1, curious spokes."""

    def __init__(self, index: int) -> None:
        self.index = index
        rng = random.Random(f"caseCD:{index}")
        spokes = rng.randint(1, 3)
        n = 2 + spokes
        edges = [(1, 0), (0, 1)]
        for x in range(2, n):
            edges += [(x, 0), (0, x)]
        self.graph = assign_edge_order(digraph_from_edges(n, edges), rng)
        self.dmax = max_out_degree(self.graph)
        roles = [NodeRole.PRIVATE] * 2 + [NodeRole.CURIOUS] * spokes
        self.states = [rng.randint(-100, 100) for _ in range(n)]
        self.schedules = [
            decompose_initial_state(self.states[j], self.dmax, roles[j], 100, rng)
            for j in range(n)
        ]
        self.trace, _ = engine.run_simulation(self.graph, self.schedules)
        self.coalition = frozenset(range(2, n))
        self.log = privacy.coalition_observations(self.trace, self.coalition)
        self.target, self.helper = (0, 1) if index % 2 == 0 else (1, 0)
        self._view = None

    def view(self):
        if self._view is None:
            self._view = checks.coalition_view(self.trace, self.coalition)
        return self._view


class WitnessWorkload:
    """Ambiguity-witness search on pair topologies.

    An op is one preserved target's search over the deltas +-1, +-2, +-3.
    A search costs about 50, 120 or 165 ms on 1, 2 or 3 spokes, so the op
    list takes the cases of the seed's stream in order but fills equal
    quotas of the six strata (spokes, target), instead of letting the mix
    vary from seed to seed.  Set-up builds each case's base simulation and
    coalition log.
    """

    def __init__(self, seed: int, ops: int) -> None:
        strata = [(spokes, target) for spokes in (1, 2, 3) for target in (0, 1)]
        quota = {k: ops // 6 + (i < ops % 6) for i, k in enumerate(strata)}
        self.cases = []
        index = seed * WITNESS_SEED_STRIDE
        while len(self.cases) < ops:
            key = (pair_spokes(index), index % 2)
            if quota[key]:
                quota[key] -= 1
                self.cases.append(PairCase(index))
            index += 1

    def run(self, probe, tracer=None) -> list[float]:
        latencies = []
        self.found = []
        for op, case in enumerate(self.cases):
            if tracer is not None:
                tracer.op = op
            spent, start = probe.spent, perf_counter()
            found = []
            for delta in WITNESS_DELTAS:
                try:
                    w = privacy.ambiguity_witness(
                        case.trace, case.log, case.graph, case.target, case.helper, delta
                    )
                except privacy.WitnessUnavailableError:
                    w = None
                found.append((delta, w))
            latencies.append(perf_counter() - start - (probe.spent - spent))
            self.found.append(found)
        return latencies

    def check(self) -> list[str]:
        errors = []
        for case, found in zip(self.cases, self.found):
            errors.extend(checks.check_witnesses(case, found, engine.run_simulation))
        return errors + checks.check_yield(self.found)

    def self_test(self) -> list[str]:
        return checks.self_test_witnesses(self.cases[0], self.found[0], engine.run_simulation)


def make_workload(name: str, seed: int, ops: int):
    if name == "witness_search":
        return WitnessWorkload(seed, ops)
    return BatchWorkload(name, seed, ops)


def verify(workload) -> list[str]:
    problems = workload.check()
    missed = workload.self_test()
    problems += [f"self-test: corrupted {tag} result was accepted" for tag in missed]
    return problems


def timed_phase(workload, tracer=None) -> tuple[float, float, list[float]]:
    """Run the op list once: (wall seconds without the probe, speed scale, op latencies)."""
    with speed.Probe() as probe:
        start = perf_counter()
        latencies = workload.run(probe, tracer)
        wall = perf_counter() - start - probe.spent
    probe.fill()
    return wall, probe.scale(), latencies


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--ops", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    src = (ROOT / "src").resolve()
    if src not in Path(privavg.__file__).resolve().parents:
        print(f"privavg was imported from {privavg.__file__}, not {src}", file=sys.stderr)
        return 2
    workload = make_workload(args.workload, args.seed, args.ops)
    print("READY", flush=True)
    setup_probe = speed.Probe()
    setup_probe.fill()
    if args.setup_only:
        print(json.dumps({"setup_scale": setup_probe.scale()}))
        return 0

    wall, scale, latencies = timed_phase(workload)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    problems = verify(workload)
    result = {"ops": len(latencies), "wall_s": wall, "scale": scale, "latencies_s": latencies,
              "peak_rss_mb": peak_rss_mb, "setup_scale": setup_probe.scale()}

    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
        try:
            traced_wall, traced_scale, _ = timed_phase(workload, tracer)
        finally:
            tracer.restore()
        problems += verify(workload)
        layers = tracing.layer_metrics(tracer, len(latencies))
        layers["engine.export_ms"] = (
            workload.export_ms() if args.workload == "scale_n200" else 0.0
        )
        layers = {
            k: v * traced_scale if k.endswith(("_ms", "_us")) else v for k, v in layers.items()
        }
        layers["trace.overhead_pct"] = (traced_wall * traced_scale / (wall * scale) - 1) * 100
        tracer.write(OUT / args.workload)
        result["layers"] = layers

    for line in problems[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    result["problems"] = len(problems)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
