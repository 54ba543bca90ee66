"""Command-line interface.

Subcommands: run (one trial with a full trace), batch (many trials plus
CSV metrics), privacy-audit (topological classification, optionally with
executable attacks), validate-schedule (substate file check).

Exit codes: 0 success, 1 configuration error (including a config for which
no strongly connected graph or no feasible substate schedule could be
drawn), 2 nonconvergence / audit or attack failure (including a trial
aborted because a value left the 64-bit range), 3 I/O error.
"""

from __future__ import annotations

import argparse
import random
import sys
from pathlib import Path

from .engine import (
    SimulationOverflowError,
    run_simulation,
    write_message_log,
    write_trace_csv,
)
from .experiments import (
    ConfigError,
    TrialConfig,
    build_trial_inputs,
    emit_round_metrics,
    parse_config,
    parse_kv_text,
    run_batch,
    run_single_trial,
    trial_seed_token,
)
from .graph import GraphGenerationError
from .privacy import (
    NotFullySurroundedError,
    PrivacyClass,
    ReconstructionError,
    WitnessUnavailableError,
    ambiguity_witness,
    classify_privacy,
    coalition_observations,
    reconstruct_fully_surrounded,
)
from .schedule import (
    NodeRole,
    ScheduleInfeasibleError,
    SubstateSchedule,
    validate_schedule,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_TRIAL_FAILURE = 2
EXIT_IO = 3

WITNESS_DELTAS = (1, -1, 2, -2, 3, -3)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="privavg",
        description="Exact quantized averaging on digraphs with substate privacy",
    )
    parser.add_argument("--config", help="flat key=value trial config file")
    parser.add_argument("--seed", type=int, help="override the master seed")
    parser.add_argument("--out-dir", default="out", help="output directory")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one trial and export its full trace")
    p_run.add_argument("--trial", type=int, default=0, help="trial index to (re)run")

    p_batch = sub.add_parser("batch", help="run a batch of trials and emit CSV metrics")
    p_batch.add_argument(
        "--jobs", type=int, default=1, help="parallel trial workers, at most one per trial"
    )

    p_audit = sub.add_parser("privacy-audit", help="classify private nodes; optionally attack")
    p_audit.add_argument("--trial", type=int, default=0, help="trial index to analyze")
    p_audit.add_argument(
        "--attack",
        action="store_true",
        help="execute reconstruction/witness attacks against the trial trace",
    )

    p_sched = sub.add_parser("validate-schedule", help="check a substate schedule file")
    p_sched.add_argument("schedule_file", help="file with y0, dmax, role, uy keys")
    return parser


def _load_config(args) -> TrialConfig:
    if args.config:
        cfg = parse_config(Path(args.config).read_text(encoding="ascii"))
    else:
        raise ConfigError("--config is required for this command")
    if args.seed is not None:
        cfg.seed = args.seed
    return cfg


def _trial_index(args) -> int:
    if args.trial < 0:
        raise ConfigError(f"--trial must be >= 0, got {args.trial}")
    return args.trial


def _out_dir(args) -> Path:
    """The --out-dir path, refused before any trial runs if a file stands on it.

    Nothing is created here; the commands make the directory when they write.
    """
    out = Path(args.out_dir)
    nearest = next((p for p in (out, *out.parents) if p.exists()), None)
    if nearest is not None and not nearest.is_dir():
        raise NotADirectoryError(f"--out-dir {args.out_dir}: {nearest} is not a directory")
    return out


def _report_lines(result) -> list[str]:
    rep = result.report
    states = ";".join(f"{y}/{z}" for y, z in rep.final_states)
    return [
        f"trial = {result.index}",
        f"seed = {result.seed}",
        f"n = {rep.n}",
        f"m = {rep.m}",
        f"dmax = {rep.dmax}",
        f"average = {rep.q_num}/{rep.q_den}",
        f"convergence_round = {rep.convergence_round}",
        f"quiescence_round = {rep.quiescence_round}",
        f"last_emission_round = {rep.last_emission_round}",
        f"tx_broadcast_as_one = {rep.tx_broadcast_as_one}",
        f"tx_broadcast_as_fanout = {rep.tx_broadcast_as_fanout}",
        f"bound = {rep.bound}",
        f"exactness_ok = {rep.exactness_ok}",
        f"bound_ok = {rep.bound_ok}",
        f"conservation_ok = {rep.conservation.ok}",
        f"dominance_ok = {rep.dominance.ok}",
        f"absorption_ok = {rep.absorption.ok}",
        f"final_states = {states}",
    ]


def cmd_run(args) -> int:
    cfg = _load_config(args)
    trial = _trial_index(args)
    out = _out_dir(args)
    result = run_single_trial(cfg, trial, keep_trace=True)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.txt").write_text("\n".join(_report_lines(result)) + "\n", encoding="ascii")
    write_trace_csv(result.trace, out / "trace.csv", result.report.rows)
    write_message_log(result.trace, out / "messages.csv")
    print(f"trial {result.index} seed {result.seed}: "
          f"convergence={result.report.convergence_round} "
          f"quiescence={result.report.quiescence_round}")
    return EXIT_OK if result.ok else EXIT_TRIAL_FAILURE


def cmd_batch(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args)
    summary = run_batch(cfg, jobs=args.jobs)
    trials_path, series_path = emit_round_metrics(summary, out)
    print(f"{summary.n_trials} trials -> {trials_path}, {series_path}")
    print(
        f"mean convergence {summary.mean_convergence_round:.2f}, "
        f"mean quiescence {summary.mean_quiescence_round:.2f}, "
        f"mean tx one/fanout {summary.mean_tx_broadcast_as_one:.2f}/"
        f"{summary.mean_tx_broadcast_as_fanout:.2f}"
    )
    if summary.failed:
        print(f"FAILED trials (seeds): {', '.join(summary.failed_seeds)}")
        return EXIT_TRIAL_FAILURE
    return EXIT_OK


def cmd_privacy_audit(args) -> int:
    cfg = _load_config(args)
    trial = _trial_index(args)
    out = _out_dir(args)
    rng = random.Random(trial_seed_token(cfg.seed, trial))
    g, roles, states, schedules = build_trial_inputs(cfg, rng)
    verdicts = classify_privacy(g, roles)
    lines = [f"{v.target},{v.classification.value},{v.justification}" for v in verdicts]
    failures = 0
    if args.attack:
        trace, _report = run_simulation(g, schedules, cfg.max_rounds, cfg.quiescence_window)
        coalition = {j for j in range(g.n) if roles[j] is NodeRole.CURIOUS}
        log = coalition_observations(trace, coalition)
        for v in verdicts:
            if v.classification is PrivacyClass.BREACHED and v.justification == "all-neighbors-curious":
                try:
                    guess = reconstruct_fully_surrounded(log, g, v.target)
                    truth = states[v.target]
                    match = guess == truth
                    lines.append(f"attack,{v.target},reconstructed,{guess},truth,{truth},match,{match}")
                    if not match:
                        failures += 1
                except (NotFullySurroundedError, ReconstructionError) as exc:
                    lines.append(f"attack,{v.target},reconstruction-error,{exc}")
                    failures += 1
            elif v.classification is PrivacyClass.PRESERVED:
                helper = int(v.justification.rsplit("-", 1)[1])
                found = None
                for delta in WITNESS_DELTAS:
                    try:
                        found = ambiguity_witness(trace, log, g, v.target, helper, delta)
                        break
                    except WitnessUnavailableError:
                        continue
                if found is None:
                    lines.append(f"attack,{v.target},witness,unavailable")
                else:
                    lines.append(
                        f"attack,{v.target},witness,helper,{found.helper},"
                        f"delta,{found.delta},digest,{found.log_digest[:16]}"
                    )
    out.mkdir(parents=True, exist_ok=True)
    (out / "privacy_audit.txt").write_text("\n".join(lines) + "\n", encoding="ascii")
    for line in lines:
        print(line)
    return EXIT_TRIAL_FAILURE if failures else EXIT_OK


def cmd_validate_schedule(args) -> int:
    kv = parse_kv_text(Path(args.schedule_file).read_text(encoding="ascii"))
    try:
        y0 = int(kv["y0"])
        dmax = int(kv["dmax"])
        role = NodeRole(kv["role"].strip().lower())
        uy = tuple(int(v) for v in kv["uy"].split(","))
        uz = (
            tuple(int(v) for v in kv["uz"].split(","))
            if "uz" in kv
            else (1,) * len(uy)
        )
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad schedule file: {exc}") from exc
    if dmax < 1:
        raise ConfigError(f"bad schedule file: dmax must be >= 1, got {dmax}")
    schedule = SubstateSchedule(y0=y0, uy=uy, uz=uz)
    violations = validate_schedule(schedule, dmax, role)
    if violations:
        for v in violations:
            print(v)
        return EXIT_CONFIG
    print("ok")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_CONFIG
    try:
        if args.command == "run":
            return cmd_run(args)
        if args.command == "batch":
            return cmd_batch(args)
        if args.command == "privacy-audit":
            return cmd_privacy_audit(args)
        if args.command == "validate-schedule":
            return cmd_validate_schedule(args)
        raise AssertionError(f"unhandled command {args.command}")
    except (ConfigError, GraphGenerationError, ScheduleInfeasibleError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SimulationOverflowError as exc:
        print(f"trial aborted: {exc}", file=sys.stderr)
        return EXIT_TRIAL_FAILURE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
