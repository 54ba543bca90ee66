"""Per-layer tracing of privavg, installed from outside the package.

The traced run replaces functions at the module attributes through which
privavg looks them up at call time (for example `privavg.engine.step_node`,
which `run_simulation` reads as a module global), so no file of the package
changes.  Calls at a layer boundary become spans (id, parent, op, name,
start, end, ok).  Hot leaf calls -- one per node step, per schedule draw or
per generation attempt -- are too many to keep one by one; they are summed
into (calls, nanoseconds) per parent span instead.  Everything stays in
memory until `write` runs at the end of the benchmark.
"""

from __future__ import annotations

from collections import defaultdict
from pathlib import Path
from statistics import mean
from time import perf_counter_ns

AUDITS = ("audit_mass_conservation", "audit_leading_mass_dominance", "audit_absorption")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [id, parent, op, name, start_ns, end_ns, ok]
        self.leaves: dict[tuple[int, str], list[int]] = {}  # (parent, name) -> [calls, ns]
        self.counts: dict[int, dict[str, int]] = {}  # span id -> counts read off its result
        self.op = -1
        self._stack = [0]
        self._patched: list[tuple[object, str, object]] = []

    def wrap_span(self, module, attr: str, name: str, inspect=None) -> None:
        fn = getattr(module, attr)
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            sid = len(spans) + 1
            rec = [sid, stack[-1], self.op, name, 0, 0, 0]
            spans.append(rec)
            stack.append(sid)
            rec[4] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[5] = perf_counter_ns()
                stack.pop()
            rec[6] = 1
            if inspect is not None:
                counts[sid] = inspect(result)
            return result

        self._patch(module, attr, traced)

    def wrap_leaf(self, module, attr: str, name: str) -> None:
        fn = getattr(module, attr)
        leaves, stack = self.leaves, self._stack

        def traced(*args, **kwargs):
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                key = (stack[-1], name)
                acc = leaves.get(key)
                if acc is None:
                    leaves[key] = [1, elapsed]
                else:
                    acc[0] += 1
                    acc[1] += elapsed

        self._patch(module, attr, traced)

    def _patch(self, module, attr: str, replacement) -> None:
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def write(self, out_dir: Path) -> None:
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(out_dir / "spans.csv", "w", encoding="ascii") as fh:
            fh.write("id,parent,op,name,start_ns,end_ns,ok\n")
            for rec in self.spans:
                fh.write(",".join(map(str, rec)) + "\n")
        with open(out_dir / "leaves.csv", "w", encoding="ascii") as fh:
            fh.write("parent,name,calls,ns\n")
            for (parent, name), (calls, ns) in self.leaves.items():
                fh.write(f"{parent},{name},{calls},{ns}\n")


def _simulation_counts(result) -> dict[str, int]:
    trace, _report = result
    quiet = trace.quiescence_round
    simulated = trace.final_round + 1  # rounds 0..final; round -1 is the initial broadcast
    return {
        "rounds": simulated,
        "active": simulated if quiet is None else quiet,
        "certification": 0 if quiet is None else simulated - quiet,
        "records": len(trace.records),
    }


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics are read from."""
    from privavg import engine, experiments, graph, privacy

    tracer.wrap_span(experiments, "run_batch", "experiments.batch")
    tracer.wrap_span(experiments, "run_single_trial", "experiments.trial")
    tracer.wrap_span(experiments, "build_trial_inputs", "experiments.inputs")
    tracer.wrap_span(experiments, "generate_random_strongly_connected", "graph.generate")
    tracer.wrap_leaf(graph, "is_strongly_connected", "graph.attempt")
    tracer.wrap_leaf(experiments, "decompose_initial_state", "schedule.decompose")
    tracer.wrap_span(experiments, "run_simulation", "engine.simulate", _simulation_counts)
    tracer.wrap_span(privacy, "run_simulation", "engine.simulate", _simulation_counts)
    tracer.wrap_leaf(engine, "init_node", "protocol.init")
    tracer.wrap_leaf(engine, "step_node", "protocol.step")
    for attr in AUDITS:
        tracer.wrap_span(engine, attr, "engine.audit")
    tracer.wrap_span(experiments, "extract_series", "experiments.series")
    tracer.wrap_span(experiments, "emit_round_metrics", "experiments.emit")
    tracer.wrap_span(privacy, "ambiguity_witness", "privacy.search")
    tracer.wrap_span(privacy, "coalition_observations", "privacy.project")


def _ms(ns: float) -> float:
    return ns / 1e6


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, float]:
    """Per-layer figures of one traced timed phase.

    Times are means per call of the named boundary; a layer the workload
    never enters reads 0.
    """
    by_name: dict[str, list[list]] = defaultdict(list)
    child_ns: dict[int, int] = defaultdict(int)
    audit_ns: dict[int, int] = defaultdict(int)
    for rec in tracer.spans:
        by_name[rec[3]].append(rec)
        child_ns[rec[1]] += rec[5] - rec[4]
        if rec[3] == "engine.audit":
            audit_ns[rec[1]] += rec[5] - rec[4]
    leaf_ns: dict[int, int] = defaultdict(int)
    leaf_total: dict[str, list[int]] = defaultdict(lambda: [0, 0])
    leaf_under: dict[tuple[int, str], int] = {}
    for (parent, name), (calls, ns) in tracer.leaves.items():
        leaf_ns[parent] += ns
        leaf_total[name][0] += calls
        leaf_total[name][1] += ns
        leaf_under[(parent, name)] = calls

    def dur(rec) -> int:
        return rec[5] - rec[4]

    def mean_or_0(values) -> float:
        values = list(values)
        return float(mean(values)) if values else 0.0

    generate = by_name["graph.generate"]
    inputs = by_name["experiments.inputs"]
    sims = by_name["engine.simulate"]
    searches = by_name["privacy.search"]
    search_ids = {rec[0] for rec in searches}
    replays = [rec for rec in sims if rec[1] in search_ids]
    sim_counts = [tracer.counts[rec[0]] for rec in sims]
    replay_counts = [tracer.counts[rec[0]] for rec in replays]
    steps, step_ns = leaf_total["protocol.step"]
    decompose_ns = leaf_total["schedule.decompose"][1]
    attempts = sum(leaf_under.get((rec[0], "graph.attempt"), 0) for rec in generate)
    witnesses = sum(rec[6] for rec in searches)

    return {
        "graph.generate_ms": mean_or_0(_ms(dur(r)) for r in generate),
        "graph.attempts_per_graph": attempts / len(generate) if generate else 0.0,
        "schedule.decompose_ms": _ms(decompose_ns) / len(inputs) if inputs else 0.0,
        "protocol.node_steps": steps / ops,
        "protocol.step_us": step_ns / steps / 1e3 if steps else 0.0,
        "engine.simulate_ms": mean_or_0(_ms(dur(r)) for r in sims),
        "engine.self_ms": mean_or_0(
            _ms(dur(r) - child_ns[r[0]] - leaf_ns[r[0]]) for r in sims
        ),
        "engine.audit_ms": mean_or_0(_ms(audit_ns[r[0]]) for r in sims),
        "engine.rounds_active": mean_or_0(c["active"] for c in sim_counts),
        "engine.rounds_certification": mean_or_0(c["certification"] for c in sim_counts),
        "engine.records_kept": mean_or_0(c["records"] for c in sim_counts),
        "experiments.inputs_ms": mean_or_0(_ms(dur(r)) for r in inputs),
        "experiments.series_ms": mean_or_0(_ms(dur(r)) for r in by_name["experiments.series"]),
        "experiments.aggregate_ms": mean_or_0(
            _ms(dur(r) - child_ns[r[0]]) for r in by_name["experiments.batch"]
        ),
        "experiments.emit_ms": mean_or_0(_ms(dur(r)) for r in by_name["experiments.emit"]),
        "privacy.search_ms": mean_or_0(_ms(dur(r)) for r in searches),
        "privacy.replays_per_search": len(replays) / len(searches) if searches else 0.0,
        "privacy.replay_rounds": mean_or_0(c["rounds"] for c in replay_counts),
        "privacy.project_ms": mean_or_0(
            _ms(dur(r)) for r in by_name["privacy.project"] if r[1] in search_ids
        ),
        "privacy.witness_yield": witnesses / len(replays) if replays else 0.0,
    }
