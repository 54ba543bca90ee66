"""Batch trial execution, aggregation, and CSV emission.

A trial is a pure function of (config, trial index): the per-trial rng is
derived from the master seed and the index, so any row of a batch CSV can
be replayed bit-for-bit from its seed token.  Config files are flat
"key = value" text; lists are comma-separated.

`run_single_trial` pauses the cyclic garbage collector for the span of a
trial.  A trial keeps every round record (about 5.9k broadcast events,
5.4k mass transfers and 8.0k node states at n = 200, and one compact
trigger-outcome row of n bytes per active round), none of which can form
a cycle, so reference counting frees them and the collector would only
re-walk them.  Trials run serially or in worker processes, never in
threads: the collector's switch is process-wide.
"""

from __future__ import annotations

import gc
import random
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

from .engine import SeriesRow, SimTrace, TrialReport, run_simulation
from .graph import (
    assign_edge_order,
    generate_random_strongly_connected,
    load_edge_list,
    max_out_degree,
)
from .schedule import DEFAULT_OFFSET_BOUND, NodeRole, decompose_initial_state


class ConfigError(ValueError):
    """A trial configuration is malformed or inconsistent."""


# Pinned 20-node reference vector for the scaled reproduction scenario:
# sums to 268, so the exact network average is 268/20 = 13.4.
REFERENCE_STATE_VECTOR = (
    5, 21, 13, 8, 30, 2, 17, 9, 24, 11, 6, 19, 3, 28, 15, 10, 22, 7, 14, 4,
)

TRIALS_CSV_HEADER = (
    "trial,seed,n,m,dmax,convergence_round,quiescence_round,"
    "tx_broadcast_as_one,tx_broadcast_as_fanout,bound"
)
SERIES_CSV_HEADER = (
    "round,avg_broadcasts,avg_mass_transfers,avg_transmitting_nodes,avg_converged_fraction"
)


@dataclass(slots=True)
class TrialConfig:
    """Everything needed to reproduce a batch of trials."""

    seed: int = 0
    trials: int = 1
    graph_file: str | None = None
    n: int | None = None
    p: float | None = None
    states: tuple[int, ...] | None = None
    states_range: tuple[int, int] | None = None
    roles: tuple[NodeRole, ...] | None = None
    private_fraction: float | None = None  # None: 1.0 unless roles are given
    curious_fraction: float | None = None  # None: 0.0 unless roles are given
    offset_bound: int = DEFAULT_OFFSET_BOUND
    max_rounds: int | None = None
    quiescence_window: int | None = None

    def validate(self) -> None:
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if (self.graph_file is None) == (self.n is None):
            raise ConfigError("exactly one of graph_file or (n, p) must be given")
        if self.graph_file is not None and self.p is not None:
            raise ConfigError("graph_file and p must not both be given")
        if self.graph_file is None:
            if self.p is None:
                raise ConfigError("random graphs need both n and p")
            if self.n < 2:
                raise ConfigError("n must be >= 2")
            if not (0.0 < self.p <= 1.0):
                raise ConfigError("p must be in (0, 1]")
        if self.states is not None and self.n is not None and len(self.states) != self.n:
            raise ConfigError(f"states list has {len(self.states)} entries, n={self.n}")
        if self.roles is not None and self.n is not None and len(self.roles) != self.n:
            raise ConfigError(f"roles list has {len(self.roles)} entries, n={self.n}")
        if self.states is None and self.states_range is None:
            raise ConfigError("either states or states_range must be given")
        if self.states is not None and self.states_range is not None:
            raise ConfigError("states and states_range must not both be given")
        if self.states_range is not None and self.states_range[0] > self.states_range[1]:
            raise ConfigError("states_range lower bound exceeds upper bound")
        for name in ("private_fraction", "curious_fraction"):
            if self.roles is not None and getattr(self, name) is not None:
                raise ConfigError(f"roles and {name} must not both be given")
        private, curious = _fractions(self)
        if not (0.0 <= private <= 1.0):
            raise ConfigError("private_fraction must be in [0, 1]")
        if not (0.0 <= curious <= 1.0):
            raise ConfigError("curious_fraction must be in [0, 1]")
        if private + curious > 1.0:
            raise ConfigError("private_fraction + curious_fraction must not exceed 1")
        if self.offset_bound < 1:
            raise ConfigError("offset_bound must be a positive integer")
        if self.max_rounds is not None and self.max_rounds < 0:
            raise ConfigError("max_rounds must be >= 0")
        if self.quiescence_window is not None and self.quiescence_window < 1:
            raise ConfigError("quiescence_window must be >= 1")


def _fractions(cfg: TrialConfig) -> tuple[float, float]:
    """The private and curious fractions, an unset one at its default."""
    private = 1.0 if cfg.private_fraction is None else cfg.private_fraction
    curious = 0.0 if cfg.curious_fraction is None else cfg.curious_fraction
    return private, curious


def parse_kv_text(text: str) -> dict[str, str]:
    """Parse flat 'key = value' lines; '#' starts a comment."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value.strip()
    return out


def _int_pair(text: str) -> tuple[int, int]:
    lo, hi = text.split(",")
    return int(lo), int(hi)


# The accepted config keys, each with the parser of its value.
_CONFIG_PARSERS = {
    "seed": int,
    "trials": int,
    "graph_file": str,
    "n": int,
    "p": float,
    "states": lambda text: tuple(int(v) for v in text.split(",")),
    "states_range": _int_pair,
    "roles": lambda text: tuple(NodeRole(v.strip().lower()) for v in text.split(",")),
    "private_fraction": float,
    "curious_fraction": float,
    "offset_bound": int,
    "max_rounds": int,
    "quiescence_window": int,
}


def parse_config(text: str) -> TrialConfig:
    kv = parse_kv_text(text)
    unknown = set(kv) - set(_CONFIG_PARSERS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    cfg = TrialConfig()
    try:
        for key, parse in _CONFIG_PARSERS.items():
            if key in kv:
                setattr(cfg, key, parse(kv[key]))
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad config value: {exc}") from exc
    cfg.validate()
    return cfg


def trial_seed_token(master_seed: int, index: int) -> str:
    return f"{master_seed}:{index}"


@dataclass(slots=True)
class TrialResult:
    index: int
    seed: str
    report: TrialReport
    series: tuple[SeriesRow, ...]
    roles: tuple[NodeRole, ...]
    states: tuple[int, ...]
    trace: SimTrace | None = None

    @property
    def ok(self) -> bool:
        r = self.report  # bound_ok holds only for a converged, quiescent run
        return r.bound_ok and r.conservation.ok and r.dominance.ok and r.absorption.ok


def build_trial_inputs(cfg: TrialConfig, index: int):
    """Materialize (graph, roles, states, schedules) for trial `index`, from its seed token."""
    rng = random.Random(trial_seed_token(cfg.seed, index))
    if cfg.graph_file is not None:
        g = assign_edge_order(load_edge_list(cfg.graph_file), rng)
    else:
        g = generate_random_strongly_connected(cfg.n, cfg.p, rng)
    n = g.n
    if cfg.roles is not None:
        if len(cfg.roles) != n:
            raise ConfigError(f"roles list has {len(cfg.roles)} entries, graph has {n}")
        roles = tuple(cfg.roles)
    else:
        private, curious = _fractions(cfg)
        n_private = round(private * n)
        n_curious = min(round(curious * n), n - n_private)
        pool = (
            [NodeRole.PRIVATE] * n_private
            + [NodeRole.CURIOUS] * n_curious
            + [NodeRole.NEUTRAL] * (n - n_private - n_curious)
        )
        rng.shuffle(pool)
        roles = tuple(pool)
    if cfg.states is not None:
        if len(cfg.states) != n:
            raise ConfigError(f"states list has {len(cfg.states)} entries, graph has {n}")
        states = tuple(cfg.states)
    else:
        lo, hi = cfg.states_range
        states = tuple(rng.randint(lo, hi) for _ in range(n))
    dmax = max_out_degree(g)
    schedules = tuple(
        decompose_initial_state(states[j], dmax, roles[j], cfg.offset_bound, rng)
        for j in range(n)
    )
    return g, roles, states, schedules


def extract_series(report: TrialReport) -> tuple[SeriesRow, ...]:
    """The report's counter rows of the iteration rounds, without the round -1 broadcasts."""
    return tuple(row for row in report.rows if row.round >= 0)


def run_single_trial(cfg: TrialConfig, index: int, keep_trace: bool = False) -> TrialResult:
    """Run trial `index` of `cfg`; the trace is kept only when `keep_trace` is set.

    The cyclic garbage collector is off while the trial runs and is switched
    back on at exit, by return or exception, only if it was on at entry.  No
    trial creates cyclic garbage, so reference counting alone frees what a
    trial drops and the pause leaves nothing for the collector.  The trace is
    released before the collector resumes, so the first allocation after that
    does not walk it.  The switch is process-wide: do not run trials in threads.
    """
    token = trial_seed_token(cfg.seed, index)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        g, roles, states, schedules = build_trial_inputs(cfg, index)
        trace, report = run_simulation(g, schedules, cfg.max_rounds, cfg.quiescence_window)
        result = TrialResult(
            index=index,
            seed=token,
            report=report,
            series=extract_series(report),
            roles=roles,
            states=states,
            trace=trace if keep_trace else None,
        )
        del trace
    finally:
        if was_enabled:
            gc.enable()
    return result


@dataclass(slots=True)
class BatchSummary:
    config: TrialConfig
    results: list[TrialResult]
    failed: bool
    failed_seeds: list[str]
    mean_convergence_round: float
    mean_quiescence_round: float
    mean_tx_broadcast_as_one: float
    mean_tx_broadcast_as_fanout: float
    series_avg: list[tuple[int, float, float, float, float]] = field(default_factory=list)

    @property
    def n_trials(self) -> int:
        return len(self.results)


def _average_series(results: list[TrialResult]) -> list[tuple[int, float, float, float, float]]:
    length = max(len(r.series) for r in results)
    rows = []
    count = len(results)
    for k in range(length):
        b = m = t = frac = 0.0
        for r in results:
            n = r.report.n
            if k < len(r.series):
                row = r.series[k]
                b += row.broadcasts
                m += row.mass_transfers
                t += row.transmitting_nodes
                frac += row.converged_nodes / n
            else:
                # A finished trial keeps emitting nothing and stays converged.
                frac += r.series[-1].converged_nodes / n
        rows.append((k, b / count, m / count, t / count, frac / count))
    return rows


def run_cases(fn, cases, jobs: int):
    """Yield fn(case) for each case, in case order: in this process when
    min(jobs, len(cases)) is 1, otherwise on that many worker processes, which
    get fn pickled (so a module-level function, or a partial of one).  The
    exception of the first case, in case order, whose call raises is re-raised."""
    workers = min(jobs, len(cases))  # a fork pool forks all its workers at first submit
    if workers <= 1:
        yield from map(fn, cases)
        return
    # Imported here: the pool loads multiprocessing, which a serial run never needs.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(fn, cases)


def run_batch(cfg: TrialConfig, jobs: int = 1) -> BatchSummary:
    """Execute cfg.trials independent trials through `run_cases`, on up to
    `jobs` worker processes, and aggregate their reports."""
    if jobs < 1:
        raise ConfigError("jobs must be >= 1")
    cfg.validate()
    results = list(run_cases(partial(run_single_trial, cfg), range(cfg.trials), jobs))
    failed_seeds = [r.seed for r in results if not r.ok]

    def mean(values) -> float:
        vals = [v for v in values if v is not None]
        return sum(vals) / len(vals) if vals else float("nan")

    return BatchSummary(
        config=cfg,
        results=results,
        failed=bool(failed_seeds),
        failed_seeds=failed_seeds,
        mean_convergence_round=mean(r.report.convergence_round for r in results),
        mean_quiescence_round=mean(r.report.quiescence_round for r in results),
        mean_tx_broadcast_as_one=mean(r.report.tx_broadcast_as_one for r in results),
        mean_tx_broadcast_as_fanout=mean(r.report.tx_broadcast_as_fanout for r in results),
        series_avg=_average_series(results),
    )


def trials_csv_lines(summary: BatchSummary) -> list[str]:
    lines = [TRIALS_CSV_HEADER]
    for r in summary.results:
        rep = r.report
        conv = "" if rep.convergence_round is None else rep.convergence_round
        quiesc = "" if rep.quiescence_round is None else rep.quiescence_round
        lines.append(
            f"{r.index},{r.seed},{rep.n},{rep.m},{rep.dmax},{conv},{quiesc},"
            f"{rep.tx_broadcast_as_one},{rep.tx_broadcast_as_fanout},{rep.bound}"
        )
    return lines


def series_csv_lines(summary: BatchSummary) -> list[str]:
    lines = [SERIES_CSV_HEADER]
    for rnd, b, m, t, frac in summary.series_avg:
        lines.append(f"{rnd},{b:.6f},{m:.6f},{t:.6f},{frac:.6f}")
    return lines


def emit_round_metrics(summary: BatchSummary, out_dir) -> tuple[Path, Path]:
    """Write the per-trial and averaged per-round CSVs; refuses empty batches."""
    if summary.n_trials == 0:
        raise ValueError("no completed trials; refusing to write metrics")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    trials_path = out / "trials.csv"
    series_path = out / "series.csv"
    trials_path.write_text("\n".join(trials_csv_lines(summary)) + "\n", encoding="ascii")
    series_path.write_text("\n".join(series_csv_lines(summary)) + "\n", encoding="ascii")
    return trials_path, series_path
