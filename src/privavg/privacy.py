"""Topological privacy classification and executable coalition attacks.

A coalition of curious nodes sees its own internal histories plus every
message a member sent or received, and nothing between outsiders.  Against
that knowledge model this module implements both directions of the privacy
argument: exact reconstruction of a node's initial state when the coalition
surrounds it completely, and construction of alternative ground truths that
replay to a byte-identical coalition log when a non-colluding private
neighbor exists; attack_trial runs both against a trial's private nodes.

A witness search screens many candidate ground truths against one log.
Each differs from the original run only in two substates, read at known
rounds, so the candidates share the replays of their common prefixes, and a
candidate whose run rejoins the original one takes its verdict.  The replay
of the original run is kept for the next search on the same log (see
ambiguity_witness).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import NamedTuple

from .engine import (
    RoundRecord,
    SimTrace,
    SimulationOverflowError,
    iter_rounds,
    run_simulation,
)
from .graph import Digraph, max_out_degree
from .protocol import MassTransfer
from .schedule import NodeRole, SubstateSchedule, validate_schedule


class NotFullySurroundedError(RuntimeError):
    """Reconstruction refused: some neighbor of the target is outside the coalition."""


class ReconstructionError(RuntimeError):
    """The observation log is inconsistent with a protocol-following target."""


class WitnessUnavailableError(RuntimeError):
    """No alternative ground truth reproduced the coalition's observations."""


class PrivacyClass(Enum):
    PRESERVED = "preserved"
    BREACHED = "breached"


@dataclass(frozen=True, slots=True)
class PrivacyVerdict:
    target: int
    classification: PrivacyClass
    justification: str


def classify_privacy(g: Digraph, roles) -> list[PrivacyVerdict]:
    """Verdict per private node: preserved iff a private in- or out-neighbor exists.

    A neutral neighbor does not help; its traffic is a deterministic relay
    the coalition can unwind, so only a private neighbor blocks inference.
    """
    roles = list(roles)
    if len(roles) != g.n:
        raise ValueError(f"expected {g.n} roles, got {len(roles)}")
    verdicts = []
    for j in range(g.n):
        if roles[j] is not NodeRole.PRIVATE:
            continue
        neighbors = sorted(set(g.in_neighbors(j)) | set(g.out_neighbors(j)))
        private = [v for v in neighbors if roles[v] is NodeRole.PRIVATE]
        if private:
            verdicts.append(
                PrivacyVerdict(j, PrivacyClass.PRESERVED, f"private-neighbor-{private[0]}")
            )
        elif all(roles[v] is NodeRole.CURIOUS for v in neighbors):
            verdicts.append(
                PrivacyVerdict(j, PrivacyClass.BREACHED, "all-neighbors-curious")
            )
        else:
            verdicts.append(
                PrivacyVerdict(j, PrivacyClass.BREACHED, "no-private-neighbor")
            )
    return verdicts


@dataclass(frozen=True, slots=True)
class ObservationLog:
    """Everything a coalition can see in one trial, canonically ordered."""

    coalition: frozenset[int]
    messages: tuple[tuple[int, str, int, int, int, int], ...]  # round, kind, src, dst, y, z
    internal: tuple[tuple[int, int, int, int, int, int, int, int], ...]
    # round, node, mass_y, mass_z, state_y, state_z, s, rr_cursor

    def canonical_lines(self) -> list[str]:
        lines = [f"coalition,{','.join(map(str, sorted(self.coalition)))}"]
        lines.extend("msg," + ",".join(map(str, ev)) for ev in self.messages)
        lines.extend("node," + ",".join(map(str, ev)) for ev in self.internal)
        return lines

    def digest(self) -> str:
        """SHA-256 of the canonical lines, computed once per distinct log value."""
        return _log_digest(self)


@lru_cache(maxsize=8)
def _log_digest(log: ObservationLog) -> str:
    # The interpreter's built-in SHA-256 first, as the stdlib's random does:
    # hashlib would map OpenSSL's libcrypto (about 3.6 MB of RSS) for a few
    # small hashes, so it is only the fallback for a build without the module.
    # Imported here, on a cache miss, so a run without a digest loads neither.
    # Only the module this interpreter ships is tried: a failed import is not
    # remembered, so each miss would scan sys.path for the other one again.
    try:
        if sys.version_info >= (3, 12):
            from _sha2 import sha256
        else:
            from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

    payload = "\n".join(log.canonical_lines()).encode("ascii")
    return sha256(payload).hexdigest()


def coalition_observations(trace: SimTrace, coalition) -> ObservationLog:
    """Project a trace onto what a coalition observes; no inference is done."""
    members = frozenset(int(v) for v in coalition)
    messages = []
    internal = []
    for record in trace.records:
        seen_messages, seen_internal = _observe(record, members)
        messages.extend(seen_messages)
        internal.extend(seen_internal)
    messages.sort()
    internal.sort()
    return ObservationLog(members, tuple(messages), tuple(internal))


def _observe(record: RoundRecord, members: frozenset[int]) -> tuple[list, list]:
    """The coalition's message and internal events of one record, unsorted.

    A broadcast is expanded only into the copies a member sends or receives."""
    messages = []
    for ev in record.messages.events:
        if type(ev) is MassTransfer:
            if ev.src in members or ev.dst in members:
                messages.append((ev.round, "mass", ev.src, ev.dst, ev.y, ev.z))
        else:
            sent = ev.src in members
            messages.extend(
                [
                    (ev.round, "state", ev.src, dst, ev.y, ev.z)
                    for dst in ev.dsts
                    if sent or dst in members
                ]
            )
    internal = [
        (
            record.round,
            node.id,
            node.mass_y,
            node.mass_z,
            node.state_y,
            node.state_z,
            node.s,
            node.rr_cursor,
        )
        for node in record.nodes
        if node.id in members
    ]
    return messages, internal


def reconstruct_fully_surrounded(log: ObservationLog, g: Digraph, target: int) -> int:
    """Recover the exact initial state of a target every neighbor of which colludes.

    The first substate is read off the target's initial broadcast; each later
    substate is the target's outgoing transfer minus the coalition-known
    masses delivered to it that round.  Their mean is the initial state; the
    coalition knows g, so it knows the substate count, max_out_degree(g) + 2.
    """
    dmax = max_out_degree(g)
    neighbors = set(g.in_neighbors(target)) | set(g.out_neighbors(target))
    if target in log.coalition:
        raise NotFullySurroundedError(f"target {target} is itself in the coalition")
    missing = neighbors - log.coalition
    if missing:
        raise NotFullySurroundedError(
            f"neighbors {sorted(missing)} of target {target} are outside the coalition"
        )

    init_payloads = {
        (y, z)
        for rnd, kind, src, dst, y, z in log.messages
        if rnd == -1 and kind == "state" and src == target
    }
    if len(init_payloads) != 1:
        raise ReconstructionError(f"expected one initial broadcast payload, got {init_payloads}")
    ((u0, z0),) = init_payloads
    if z0 != 1:
        raise ReconstructionError(f"initial broadcast carries z={z0}, expected 1")

    sends: dict[int, tuple[int, int]] = {}
    delivered: dict[int, tuple[int, int]] = {}
    for rnd, kind, src, dst, y, z in log.messages:
        if kind != "mass":
            continue
        if src == target and 0 <= rnd <= dmax:
            if rnd in sends and sends[rnd] != (y, z):
                raise ReconstructionError(f"conflicting transfers from target at round {rnd}")
            sends[rnd] = (y, z)
        if dst == target and 0 <= rnd + 1 <= dmax:
            dy, dz = delivered.get(rnd + 1, (0, 0))
            delivered[rnd + 1] = (dy + y, dz + z)

    total = u0
    for k in range(dmax + 1):
        if k not in sends:
            raise ReconstructionError(f"no transfer from target at forced round {k}")
        out_y, out_z = sends[k]
        in_y, in_z = delivered.get(k, (0, 0))
        held = u0 if k == 0 else 0
        held_z = 1 if k == 0 else 0
        if out_z != in_z + held_z + 1:
            raise ReconstructionError(
                f"round {k}: outgoing z={out_z} inconsistent with delivered z={in_z}"
            )
        total += out_y - in_y - held
    if total % (dmax + 2) != 0:
        raise ReconstructionError(f"substate total {total} not divisible by {dmax + 2}")
    return total // (dmax + 2)


@dataclass(frozen=True, slots=True)
class AmbiguityWitness:
    """An alternative ground truth indistinguishable to the coalition."""

    target: int
    helper: int
    delta: int
    shifted_index: int
    compensated_index: int
    target_schedule: SubstateSchedule
    helper_schedule: SubstateSchedule
    alt_target_schedule: SubstateSchedule
    alt_helper_schedule: SubstateSchedule
    log_digest: str


def ambiguity_witness(
    trace: SimTrace,
    log: ObservationLog,
    g: Digraph,
    target: int,
    helper: int,
    delta: int,
) -> AmbiguityWitness:
    """Shift the target's hidden substate mass by delta and hide the change.

    One target substate moves by delta times its schedule's length and one
    helper substate compensates, so the implied initial states move by
    +delta and -delta while the network total is unchanged.  A candidate
    placement is returned only if its full re-simulation reaches quiescence,
    passes the exactness and mass-conservation checks (not the dominance or
    absorption audits) and gives the coalition an observation log identical
    to the original, event for event.  Of the trace the search reads only
    the graph, the schedules and the round limits, never its records.

    Candidates are screened first, on replays they share.  A validated
    private schedule hands off one substate per round, so substate s is
    read at round s - 1 whatever the mail, and candidate (i, j) is the run
    that shifts only its earlier-read side through round max(i, j) - 2.
    When i == j that is the target's single shift, which through that round
    is the base run: it hands back the base's record, or the base's verdict.
    One lazily extended _Replay is kept for the base schedules and one for
    each single shift; each candidate resumes from its shared replay's
    record at that round and runs to its end, unless it is dropped at the
    first round whose coalition view differs from the log's (past the log's
    last round a non-empty coalition always sees a difference), or rejoins
    the base run first.  It rejoins at a round from max(i, j) - 1 on, when
    both its substates are read, where its record equals the base's by
    value and neither run found silence before that round; from there it
    is the base run, record for record, so it takes the base's verdict.  So
    on any log the screen passes exactly the candidates whose whole view
    matches.  A passed candidate is simulated in full and checked, which
    decides.  The base replay is kept for the next search on equal graph,
    schedules, round limits and log (a case's other deltas, an attack's
    other targets), so each log's base run is simulated once.
    The search order, and so the witness returned, is that of checking
    every candidate in full.

    A SimulationOverflowError escapes the search when the candidate's own
    run reaches it before its view differs; the full run then raises it,
    with the whole partial trace.  An overflow that only a shared replay
    reaches does not escape.
    """
    if delta == 0:
        raise ValueError("delta must be a nonzero integer")
    if target in log.coalition or helper in log.coalition:
        raise ValueError("target and helper must lie outside the coalition")
    adjacency = set(g.in_neighbors(target)) | set(g.out_neighbors(target))
    if helper not in adjacency:
        raise ValueError(f"helper {helper} is not an in- or out-neighbor of target {target}")
    dmax = max_out_degree(g)
    st = trace.schedules[target]
    sh = trace.schedules[helper]
    for name, sched in (("target", st), ("helper", sh)):
        if validate_schedule(sched, dmax, NodeRole.PRIVATE):
            raise ValueError(f"{name} schedule is not a private decomposition")

    sight, base = _base_replay(
        trace.graph, trace.schedules, trace.max_rounds, trace.quiescence_window, log
    )

    def replay(schedules, shared: _Replay, start: int, rejoin: _Replay | None = None) -> _Replay:
        alt = SimTrace(trace.graph, tuple(schedules), trace.max_rounds, trace.quiescence_window)
        return _Replay(alt, sight, shared, start, rejoin)

    singles: dict[tuple[int, int], _Replay] = {}

    def single_shift(node: int, index: int, sched: SubstateSchedule) -> _Replay:
        # The run shifting one substate is the base run until it reads it.
        key = (node, index)
        if key not in singles:
            schedules = list(trace.schedules)
            schedules[node] = sched
            singles[key] = replay(schedules, base, index - 2)
        return singles[key]

    helper_placements = _shifted(sh, -delta)
    for i, alt_t in _shifted(st, delta):
        for j, alt_h in helper_placements:
            alt_schedules = list(trace.schedules)
            alt_schedules[target] = alt_t
            alt_schedules[helper] = alt_h
            # Through round max(i, j) - 2 the candidate is the run that
            # shifts only its earlier-read side, or the target's when i == j,
            # which is the base run through that round.
            if j < i:
                shared = single_shift(helper, j, alt_h)
            else:
                shared = single_shift(target, i, alt_t)
            if replay(alt_schedules, shared, max(i, j) - 2, base).finish() == "fail":
                continue
            # After "pass" this run cannot overflow; after "overflow" it
            # raises the error the screen met, with the whole partial trace.
            alt_trace, alt_report = run_simulation(
                trace.graph,
                alt_schedules,
                max_rounds=trace.max_rounds,
                quiescence_window=trace.quiescence_window,
            )
            if (
                alt_report.quiescent
                and alt_report.exactness_ok
                and alt_report.conservation.ok
                and coalition_observations(alt_trace, log.coalition) == log
            ):
                return AmbiguityWitness(
                    target=target,
                    helper=helper,
                    delta=delta,
                    shifted_index=i,
                    compensated_index=j,
                    target_schedule=st,
                    helper_schedule=sh,
                    alt_target_schedule=alt_t,
                    alt_helper_schedule=alt_h,
                    log_digest=log.digest(),
                )
    raise WitnessUnavailableError(
        f"no substate placement hides a shift of {delta} for target {target} "
        f"with helper {helper}"
    )


def _shifted(sched: SubstateSchedule, delta: int) -> list[tuple[int, SubstateSchedule]]:
    """The private schedules that move sched's initial state by delta by
    adding delta * len(sched.uy) to one substate, each with that substate's
    index."""
    count = len(sched.uy)
    placements = []
    for i in range(count):
        uy = list(sched.uy)
        uy[i] += delta * count
        alt = SubstateSchedule(y0=sched.y0 + delta, uy=tuple(uy), uz=sched.uz)
        if not validate_schedule(alt, sched.dmax, NodeRole.PRIVATE):
            placements.append((i, alt))
    return placements


WITNESS_DELTAS = (1, -1, 2, -2, 3, -3)


def attack_trial(trace: SimTrace, roles) -> list[tuple[int, object]]:
    """Attack each private node of trace's run with the curious nodes' log.

    One (target, outcome) per attacked target, in id order.  A target whose
    neighbors are all curious gets the reconstructed initial state, or the
    NotFullySurroundedError or ReconstructionError that refused it.  A
    preserved target gets the first AmbiguityWitness found with its first
    private neighbor as helper, trying each of WITNESS_DELTAS in turn, or
    None if no delta gives one.  A breached target with a neutral neighbor
    is not attacked.
    """
    g = trace.graph
    log = coalition_observations(trace, (j for j in range(g.n) if roles[j] is NodeRole.CURIOUS))
    outcomes = []
    for v in classify_privacy(g, roles):
        if v.classification is PrivacyClass.PRESERVED:
            neighbors = set(g.in_neighbors(v.target)) | set(g.out_neighbors(v.target))
            helper = min(u for u in neighbors if roles[u] is NodeRole.PRIVATE)
            found = None
            for delta in WITNESS_DELTAS:
                try:
                    found = ambiguity_witness(trace, log, g, v.target, helper, delta)
                    break
                except WitnessUnavailableError:
                    pass
            outcomes.append((v.target, found))
        elif v.justification == "all-neighbors-curious":
            try:
                outcomes.append((v.target, reconstruct_fully_surrounded(log, g, v.target)))
            except (NotFullySurroundedError, ReconstructionError) as exc:
                outcomes.append((v.target, exc))
    return outcomes


class _Sight(NamedTuple):
    """What a coalition saw, keyed by round: the sorted message and internal
    events of each round of an observation log, and the log's last round."""

    members: frozenset[int]
    views: dict[int, tuple[list, list]]
    last_round: int

    @classmethod
    def of(cls, log: ObservationLog) -> _Sight:
        # Each list comes out sorted, as the log is.
        views: dict[int, tuple[list, list]] = {}
        for ev in log.messages:
            views.setdefault(ev[0], ([], []))[0].append(ev)
        for ev in log.internal:
            views.setdefault(ev[0], ([], []))[1].append(ev)
        return cls(log.coalition, views, max(views, default=-1))


_UNSEEN: tuple[list, list] = ([], [])


@lru_cache(maxsize=1)
def _base_replay(graph, schedules, max_rounds, quiescence_window, log) -> tuple[_Sight, _Replay]:
    """The sight of log and the replay of the base run, kept for the next
    search on the same log and trace values (a case's other deltas, an
    attack's other targets), so the base run is extended once per log."""
    sight = _Sight.of(log)
    return sight, _Replay(SimTrace(graph, schedules, max_rounds, quiescence_window), sight)


class _Replay:
    """One run of fixed schedules, extended on demand and only while each of
    its rounds shows the coalition what the log shows.

    A shared replay is extended round by round through `at`; a candidate's
    is screened with `finish`, which runs it to its end unless a round's
    view differs first or the run rejoins the base run, whose verdict it
    then takes.  `records` holds the matched records, from `resume`
    on when the run picks up after another run's record.  `verdict` stays
    None while the run can be extended; then it reads "pass" (every round
    matched and the run ended at or after the log's last round), "fail" (a
    round's view differed, or the run ended before the log's last round) or
    "overflow" (the next record left the 64-bit range).  A round missing
    from the log is seen as empty, so a run that goes on past the log's last
    round differs there unless the coalition is empty.
    """

    __slots__ = ("records", "verdict", "_sight", "_rounds", "_trace", "_rejoin")

    def __init__(
        self,
        trace: SimTrace,
        sight: _Sight,
        shared: _Replay | None = None,
        start: int = -2,
        rejoin: _Replay | None = None,
    ):
        """The run of trace's schedules, which is `shared`'s run through
        round `start` (so it starts afresh when start < -1).  With `rejoin`,
        a run of schedules that differ from trace's only in substates read
        by round `start` + 1, the run takes rejoin's verdict at its first
        round from `start` + 1 on that rejoins it (see _advance)."""
        self._sight = sight
        self._trace = trace
        self._rejoin = rejoin
        resume = shared.at(start) if start >= -1 else None
        if start >= -1 and resume is None:
            # shared stopped before round start, and this run stops with it.
            self.records: list[RoundRecord] = []
            self.verdict: str | None = shared.verdict
            return
        self.records = [] if resume is None else [resume]
        self.verdict = None
        self._rounds = iter_rounds(trace, resume)

    def at(self, rnd: int) -> RoundRecord | None:
        """The matched record of round rnd, extending the run up to it; None
        when the run stopped before it (or the record predates the run)."""
        records = self.records
        while self.verdict is None and (not records or records[-1].round < rnd):
            self._advance()
        k = rnd - records[0].round if records else -1
        return records[k] if 0 <= k < len(records) else None

    def finish(self) -> str:
        """Extend the run to its end, or to its first unmatched round."""
        while self.verdict is None:
            self._advance()
        return self.verdict

    def _advance(self) -> None:
        sight = self._sight
        try:
            record = next(self._rounds)
        except StopIteration:
            last = self.records[-1].round if self.records else -2
            self.verdict = "pass" if last >= sight.last_round else "fail"
            return
        except SimulationOverflowError:
            self.verdict = "overflow"
            return
        except BaseException:
            # A generator that raised cannot be resumed, so a cached base
            # replay that did is dropped.
            _base_replay.cache_clear()
            raise
        rnd, base = record.round, self._rejoin
        if base is not None and base.at(rnd) == record:
            # From here on this run is base's, record for record, unless one
            # of the two found silence before rnd and so ends its tail sooner.
            quiet = (self._trace.quiescence_round, base._trace.quiescence_round)
            if all(q is None or q >= rnd for q in quiet):
                self.verdict = base.finish()
                return
        messages, internal = _observe(record, sight.members)
        messages.sort()
        internal.sort()
        if (messages, internal) != sight.views.get(record.round, _UNSEEN):
            self.verdict = "fail"
            return
        self.records.append(record)
