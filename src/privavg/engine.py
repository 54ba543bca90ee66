"""Synchronous-round simulation with auditing.

Messages sent at round k are delivered at round k + 1; the initial
broadcasts count as round -1 traffic consumed at round 0.  The engine never
holds a float: the network-wide average is kept as a reduced integer
fraction and every convergence check cross-multiplies.

The simulator also watches two structural invariants of the protocol while
it runs: no node's state pair may lexicographically exceed the current
leading mass once all substates are injected, and once only lex-equal
masses remain the mass-adoption trigger must stay quiet with all traffic
dying out within n - 1 further rounds.

The protocol is event-triggered, and silence is a fixed point of step_node
per node: a settled node (past its schedule) without mail comes back
unchanged, sends nothing and fires nothing.  Nor can a state copy
that is not lex-greater than its addressee's state change anything: the
triggers read only the lex-max of the received states, and adopt it only
above the state, and at the start of every step a node's mass is (0, 0)
or equal to its state, so a merged mass no greater than the state fires
neither mass trigger.  (Set-up makes the two equal, a hand-off zeroes the
mass, and a step that keeps a nonzero mass leaves the state equal to it.)
So the round loop routes every transfer, and a broadcast only to the
addressees whose state it exceeds, hands each addressee its mail as the
sums of its transfers and the greatest state delivered to it, steps only
the nodes that have mail or are not yet settled, carries every other
node's state object forward, and emits the certification tail after
quiescence without stepping at all.  The records store what was sent, so
none of this shows in them.

The records therefore change in few places from one to the next, and the
conservation audit pays only for that: it keeps running sums over the nodes
and re-sums only the positions whose node object changed.  The dominance
and absorption audits evaluate each record whole.

A record stores the events of its round, one protocol.Broadcast per
broadcasting node and one MassTransfer per hand-off, in a RoundMessages.
Iterating it yields each Broadcast as one StateBroadcast copy per
addressee, so an outside reader sees per-copy messages.  The engine's own
readers (the routing, the overflow check, round_rows, the audits, the
exports) and the coalition projection walk its events and build no copy.

Frozen values that trials repeat are shared, not rebuilt.  step_node returns
its trigger outcome as a small int, the index of one of eight shared
TriggersFired objects (see protocol), and a record stores its nodes'
outcomes as a protocol.FiredRow, one byte per node (that index) where a
tuple would hold an 8-byte pointer; indexing the row gives the shared
object back.  Round -1 and the certification tail
share one all-idle row.  round_rows takes the row of a record without
messages, a "silent row" such as each of the certification tail's, from a
bounded module-level cache keyed by (round, converged nodes).  All trials
in one process then share one object per silent row.  A batch on worker
processes unpickles each result on its own, so only a serial batch shares
rows across its trials.  Within a trial, the report's final_states
keeps one (state_y, state_z) tuple per distinct value, so a converged
trial's n slots refer to one pair; pickling memoizes shared objects, so
an unpickled report shares them too.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import compress, count
from operator import is_not
from pathlib import Path

from .graph import Digraph, is_strongly_connected, max_out_degree
from .protocol import (
    Broadcast,
    Event,
    FiredRow,
    MassTransfer,
    Message,
    NodeState,
    TriggersFired,
    _build_copy,
    _build_fired,
    _builder,
    init_node,
    step_node,
)
from .schedule import SubstateSchedule, structural_violations

INT64_MAX = 2**63 - 1


class InvalidScheduleError(ValueError):
    """A schedule handed to the engine fails its structural constraints."""


class SimulationOverflowError(RuntimeError):
    """A mass or state value left the signed 64-bit range; trial aborted."""

    def __init__(self, message: str, trace: "SimTrace"):
        super().__init__(message)
        self.trace = trace

    def __reduce__(self):
        # Batch workers send exceptions back pickled; the default reduce
        # replays only the message and loses the trace argument.
        return type(self), (self.args[0], self.trace)


@dataclass(frozen=True, slots=True)
class RoundMessages:
    """The events of one round, Broadcast and MassTransfer, in send order.

    Iterating yields the per-copy messages: one StateBroadcast per member of
    a Broadcast's dsts, in order, built on each read.  It is true when the
    round has events, and compares and hashes by them.
    """

    events: tuple[Event, ...] = ()

    def __iter__(self) -> Iterator[Message]:
        for ev in self.events:
            if type(ev) is Broadcast:
                src, y, z, rnd = ev.src, ev.y, ev.z, ev.round
                for dst in ev.dsts:
                    yield _build_copy(src, dst, y, z, rnd)
            else:
                yield ev

    def __bool__(self) -> bool:
        return bool(self.events)


_SILENT = RoundMessages()  # shared by every record without messages
_build_messages = _builder(RoundMessages)  # built once per round with messages


@dataclass(frozen=True, slots=True)
class RoundRecord:
    """Everything that happened in one round: its events and post-step snapshots."""

    round: int
    messages: RoundMessages
    nodes: tuple[NodeState, ...]
    fired: Sequence[TriggersFired]  # a FiredRow from the engine


@dataclass(frozen=True, slots=True)
class SeriesRow:
    """The counters of one round record; a broadcast event is one broadcasting
    node, and each of its per-neighbor messages is a copy."""

    round: int
    broadcasts: int
    broadcast_copies: int
    mass_transfers: int
    transmitting_nodes: int
    converged_nodes: int


# Built once per round and once per counter row (see protocol._builder).
_build_record = _builder(RoundRecord)
_build_row = _builder(SeriesRow)


@lru_cache(maxsize=4096)  # a 5n-round certification tail fits whole up to n = 800
def _silent_row(rnd: int, converged: int) -> SeriesRow:
    """The shared counter row of a record without messages."""
    return _build_row(rnd, 0, 0, 0, 0, converged)


@dataclass(slots=True)
class SimTrace:
    """Complete, replayable record of one trial."""

    graph: Digraph
    schedules: tuple[SubstateSchedule, ...]
    max_rounds: int
    quiescence_window: int
    records: list[RoundRecord] = field(default_factory=list)
    quiescence_round: int | None = None

    @property
    def final_round(self) -> int:
        return self.records[-1].round


@dataclass(frozen=True, slots=True)
class AuditVerdict:
    ok: bool
    first_violation_round: int | None = None
    detail: str = ""


@dataclass(frozen=True, slots=True)
class TrialReport:
    """Headline numbers and audit outcomes for one trial."""

    n: int
    m: int
    dmax: int
    q_num: int
    q_den: int
    quiescent: bool
    convergence_round: int | None
    quiescence_round: int | None
    last_emission_round: int
    tx_broadcast_as_one: int
    tx_broadcast_as_fanout: int
    bound: int
    exactness_ok: bool
    bound_ok: bool
    conservation: AuditVerdict
    dominance: AuditVerdict
    absorption: AuditVerdict
    # (state_y, state_z) per node; nodes on equal states share one tuple
    final_states: tuple[tuple[int, int], ...]
    rows: tuple[SeriesRow, ...]  # round_rows of the trace, round -1 included


def exact_average(schedules) -> tuple[int, int]:
    """The target value sum(y0) / n as a reduced fraction."""
    total = sum(s.y0 for s in schedules)
    n = len(schedules)
    g = math.gcd(total, n)
    return total // g, n // g


def theoretical_bound(n: int, m: int, dmax: int) -> int:
    """Worst-case round count before every node settles on the average."""
    if n < 2:
        raise ValueError("n must be >= 2")
    if m < n:
        raise ValueError("a strongly connected digraph needs m >= n")
    if dmax < 1:
        raise ValueError("dmax must be >= 1")
    return 1 + dmax + n * n + (n - 1) * m * m


def run_simulation(
    g: Digraph,
    schedules,
    max_rounds: int | None = None,
    quiescence_window: int | None = None,
) -> tuple[SimTrace, TrialReport]:
    """Run one trial to quiescence (or to the round budget).

    Quiescence is a simulator-level observation: the first round that emits
    nothing after every schedule is exhausted.  The protocol has already
    stopped on its own by then; the trace certifies the silence with
    quiescence_window silent rounds (default 5n), the quiescent one included.
    """
    schedules = tuple(schedules)
    if len(schedules) != g.n:
        raise InvalidScheduleError(f"expected {g.n} schedules, got {len(schedules)}")
    if not is_strongly_connected(g):
        raise ValueError("digraph must be strongly connected")
    dmax = max_out_degree(g)
    for j, sched in enumerate(schedules):
        broken = structural_violations(sched, dmax)
        if broken:
            raise InvalidScheduleError(f"schedule {j}: {broken[0]}")
    if quiescence_window is None:
        quiescence_window = 5 * g.n
    if quiescence_window < 1:
        raise ValueError("quiescence_window must be >= 1")
    if max_rounds is None:
        max_rounds = theoretical_bound(g.n, g.m, dmax)

    trace = SimTrace(g, schedules, max_rounds, quiescence_window)
    for _ in iter_rounds(trace):
        pass
    return trace, _build_report(trace, dmax)


def iter_rounds(trace: SimTrace, resume: RoundRecord | None = None) -> Iterator[RoundRecord]:
    """Simulate trace's graph and schedules, yielding one record per round.

    Yields round -1 (the initial broadcasts), the active rounds up to
    quiescence or the max_rounds budget, then the rest of the certification
    window.  A transfer is delivered to its dst.  A broadcast is delivered
    to an addressee only when its (z, y) exceeds the addressee's key,
    which is the node's (state_z, state_y) at the end of the last round,
    raised to each broadcast delivered to it; a dropped copy could not
    have changed the step (see the module docstring).  Each addressee gets
    one step_node mail entry, [add_y, add_z, best]: a transfer adds to the
    two sums, and a delivered broadcast sets best, which by the filter is
    the greatest key delivered so far.  An active round steps only the
    nodes with mail or not yet settled, in id order.  A node is settled
    once its counter s has moved past its own schedule, however long.
    Silence is then a fixed point of step_node: no mail fires no trigger
    and a counter past the carriers forces no hand-off, so nothing is sent
    or changed.
    So the other nodes keep their state objects, a silent round with every
    node settled is quiescent, and the tail is emitted without stepping.
    Each record is appended to trace.records and checked for 64-bit
    overflow before it is yielded (the step loop notes the first stepped
    node out of range, and _check_overflow raises for it, or for a mass
    transfer, once the record is appended), so an aborted run's partial
    trace ends at the offending record; trace.quiescence_round is set when
    silence is found.  A consumer may stop early.  The inputs are taken as valid:
    run_simulation checks them.

    With `resume`, an active-round record of another run on the same graph
    (one that had not found silence by then), the loop picks up after that
    record instead of starting at round -1.  The record itself is neither
    yielded nor appended, so trace.records starts at the next round, and its
    node states are carried over as they are.  A node state holds no
    schedule, so the record is also that round's record of trace's own run
    exactly when trace's schedules agree with the other run's on every
    substate already read by round resume.round (substate s is read at round
    s - 1); the caller vouches for that.  The records yielded are then those
    of trace's own run, and an overflow is raised at the round the whole run
    would raise it, but with the partial trace from the resume point on.
    The record's nodes, like every node the engine records, hold a mass of
    (0, 0) or equal to their state, which the routing rests on.
    """
    g = trace.graph
    schedules, out_order = trace.schedules, g.out_order
    lengths = [len(sched.uy) for sched in schedules]
    idle_fired = FiredRow(bytes(g.n))
    if resume is None:
        nodes: list[NodeState] = []
        init_msgs: list[Event] = []
        overflowed = None  # the first node out of the 64-bit range
        for j in range(g.n):
            node, broadcast = init_node(j, schedules[j], out_order[j])
            nodes.append(node)
            init_msgs.append(broadcast)
            if abs(node.state_y) > INT64_MAX and overflowed is None:
                overflowed = node
        record = _build_record(-1, _build_messages(tuple(init_msgs)), tuple(nodes), idle_fired)
        trace.records.append(record)
        _check_overflow(record, trace, overflowed)
        yield record
    else:
        record = resume
        nodes = list(resume.nodes)

    # max_rounds budgets the search for quiescence onset; once found, the
    # certification window always runs to completion.
    unsettled = [j for j, node in enumerate(nodes) if node.s < lengths[j]]
    keys = [(node.state_z, node.state_y) for node in nodes]
    rnd = record.round + 1
    while trace.quiescence_round is None and rnd < trace.max_rounds:
        mail: dict[int, list] = {}
        for ev in record.messages.events:
            if type(ev) is MassTransfer:
                entry = mail.get(ev.dst)
                if entry is None:
                    mail[ev.dst] = [ev.y, ev.z, None]
                else:
                    entry[0] += ev.y
                    entry[1] += ev.z
            else:
                key = (ev.z, ev.y)
                for dst in ev.dsts:
                    if key > keys[dst]:
                        keys[dst] = key
                        entry = mail.get(dst)
                        if entry is None:
                            mail[dst] = [0, 0, key]
                        else:
                            entry[2] = key
        stepped = sorted(mail.keys() | unsettled)
        unsettled = []
        outbox: list[Event] = []
        codes = bytearray(g.n)
        overflowed = None  # the first stepped node out of the 64-bit range
        for j in stepped:
            node, emitted, codes[j] = step_node(
                nodes[j], schedules[j], out_order[j], mail.get(j), rnd
            )
            nodes[j] = node
            keys[j] = (node.state_z, node.state_y)
            outbox += emitted
            if node.s < lengths[j]:
                unsettled.append(j)
            if abs(node.state_y) > INT64_MAX and overflowed is None:
                overflowed = node
        messages = _build_messages(tuple(outbox)) if outbox else _SILENT
        record = _build_record(rnd, messages, tuple(nodes), _build_fired(bytes(codes)))
        trace.records.append(record)
        _check_overflow(record, trace, overflowed)
        if not outbox and not unsettled:
            trace.quiescence_round = rnd
        yield record
        rnd += 1

    if trace.quiescence_round is not None:
        # Silence is a fixed point of step_node (see above), so the
        # certification tail is emitted without stepping, every record
        # sharing the quiescent record's (already overflow-checked) node tuple.
        frozen = record.nodes
        quiet = trace.quiescence_round
        for k in range(quiet + 1, quiet + trace.quiescence_window):
            record = _build_record(k, _SILENT, frozen, idle_fired)
            trace.records.append(record)
            yield record


def _check_overflow(
    record: RoundRecord, trace: SimTrace, overflowed: NodeState | None
) -> None:
    """Raise for `overflowed`, the first node in id order that the record's
    round set up or stepped and found with its state out of the 64-bit
    range, or, when there is none, for the first of the record's mass
    transfers out of that range.

    A broadcast carries its sender's state after the step, and its sender
    was stepped (or set up, at round -1), so a broadcast out of range is
    reported as its sender's node error and needs no scan of its own.
    A transfer carries mass its sender no longer holds, so it is checked.
    A node's mass is (0, 0) or equal to its state (see the module
    docstring), so its state alone decides.  Only the y side is read: every
    carrier is 1 (init_node and run_simulation refuse any other), so a z
    counts unit carriers and stays at most n * (dmax + 2)."""
    if overflowed is not None:
        raise SimulationOverflowError(
            f"round {record.round}: node {overflowed.id} left the 64-bit range", trace
        )
    for ev in record.messages.events:
        if type(ev) is MassTransfer and abs(ev.y) > INT64_MAX:
            raise SimulationOverflowError(
                f"round {record.round}: message from node {ev.src} to node {ev.dst} "
                "left the 64-bit range",
                trace,
            )


def converged_nodes(nodes, q_num: int, q_den: int) -> int:
    """How many nodes hold the exact average q_num / q_den, cross-multiplied."""
    return sum(1 for node in nodes if node.state_y * q_den == q_num * node.state_z)


def _evaluated(trace: SimTrace, first_round: int = -1) -> Iterator[RoundRecord]:
    """The records from first_round on that an audit must evaluate: a record
    with the same node tuple object and the same fired row object as the
    last one yielded, and no messages in either, evaluates like it and is
    skipped.  Holds for any trace; the engine's certification tail is the
    case that matters.  Each call starts with no last record, so no record
    before first_round vouches for a later one."""
    last = None
    for record in trace.records:
        if record.round < first_round or (
            last is not None
            and record.nodes is last.nodes
            and record.fired is last.fired
            and not record.messages
            and not last.messages
        ):
            continue
        last = record
        yield record


def _in_flight(record: RoundRecord) -> list[tuple[int, int]]:
    """The (z, y) pair of every mass transfer in the record's outbox."""
    return [(m.z, m.y) for m in record.messages.events if type(m) is MassTransfer]


def _nonzero_masses(record: RoundRecord) -> list[tuple[int, int]]:
    masses = [(node.mass_z, node.mass_y) for node in record.nodes if node.mass_z > 0]
    masses.extend(_in_flight(record))
    return masses


def round_rows(trace: SimTrace) -> tuple[SeriesRow, ...]:
    """One counter row per record, round -1 included, from one pass over its
    events: a step emits at most one Broadcast, so each counts one
    broadcasting node, and one copy per addressee.  A record without
    messages gets its shared silent row."""
    q_num, q_den = exact_average(trace.schedules)
    rows = []
    last_nodes = None
    converged = 0
    for record in trace.records:
        if record.nodes is not last_nodes:
            last_nodes = record.nodes
            converged = converged_nodes(last_nodes, q_num, q_den)
        if not record.messages:
            rows.append(_silent_row(record.round, converged))
            continue
        broadcasts = copies = transfers = 0
        senders: set[int] = set()
        for ev in record.messages.events:
            senders.add(ev.src)
            if type(ev) is MassTransfer:
                transfers += 1
            else:
                broadcasts += 1
                copies += len(ev.dsts)
        rows.append(
            _build_row(record.round, broadcasts, copies, transfers, len(senders), converged)
        )
    return tuple(rows)


def audit_mass_conservation(trace: SimTrace) -> AuditVerdict:
    """Check the global bookkeeping identity at every recorded round.

    Held mass + in-flight mass + not-yet-injected substates must equal
    sum(len(uy) * y0) on the y side and sum(len(uz)) on the z side.
    Each position's held-plus-pool total is a running sum, re-summed only
    where the node object is not the one the previous evaluated record held.
    A node's pool, what its schedule holds from its counter s on, is a
    suffix sum of its schedule, kept per schedule for the counter last read
    and built once per call: a counter moves up one substate per hand-off,
    so a read mostly subtracts one substate, and any other move re-sums.
    """
    schedules = trace.schedules
    expect_y = sum(len(s.uy) * s.y0 for s in schedules)
    expect_z = sum(len(s.uz) for s in schedules)
    pools = [(0, sum(sched.uy), sum(sched.uz)) for sched in schedules]  # (s, pool at s)
    own_y, own_z, prev = [], [], ()
    total_y = total_z = 0
    for record in _evaluated(trace):
        nodes = record.nodes
        if len(nodes) != len(own_y):  # first record, or another node count: all new
            own_y, own_z, prev = [0] * len(nodes), [0] * len(nodes), (None,) * len(nodes)
            total_y = total_z = 0
        for p in compress(count(), map(is_not, nodes, prev)):
            node = nodes[p]
            sched = schedules[node.id]
            y, z = node.mass_y, node.mass_z
            s = node.s
            if s < len(sched.uy):  # past the schedule the pool is empty
                at, pool_y, pool_z = pools[node.id]
                if s != at:
                    if s == at + 1 and 0 <= at < len(sched.uz):
                        pool_y -= sched.uy[at]
                        pool_z -= sched.uz[at]
                    else:
                        pool_y, pool_z = sum(sched.uy[s:]), sum(sched.uz[s:])
                    pools[node.id] = (s, pool_y, pool_z)
                y += pool_y
                z += pool_z
            total_y += y - own_y[p]
            total_z += z - own_z[p]
            own_y[p], own_z[p] = y, z
        got_y, got_z = total_y, total_z
        for ev in record.messages.events:
            if type(ev) is MassTransfer:
                got_y += ev.y
                got_z += ev.z
        if got_y != expect_y or got_z != expect_z:
            detail = f"round {record.round}: y {got_y} != {expect_y} or z {got_z} != {expect_z}"
            return AuditVerdict(False, record.round, detail)
        prev = nodes
    return AuditVerdict(ok=True, detail=f"totals {(expect_y, expect_z)} at every round")


def _after_injection(trace: SimTrace) -> int:
    """The round after the last forced injection: a node injects substate s
    at round s - 1, so a schedule of k substates injects its last at k - 2."""
    return max(len(s.uy) for s in trace.schedules) - 1


def audit_leading_mass_dominance(trace: SimTrace) -> AuditVerdict:
    """From the round after the last forced injection, no state may exceed
    the lex-max of all held and in-flight masses."""
    for record in _evaluated(trace, _after_injection(trace)):
        masses = _nonzero_masses(record)
        if not masses:
            return AuditVerdict(False, record.round, "no nonzero mass anywhere")
        lead = max(masses)
        lead_z, lead_y = lead
        for node in record.nodes:
            if node.state_z >= lead_z and (
                node.state_z > lead_z or node.state_y > lead_y
            ):
                state = (node.state_z, node.state_y)
                detail = f"node {node.id} state {state} exceeds leading {lead}"
                return AuditVerdict(False, record.round, detail)
    return AuditVerdict(ok=True)


def audit_absorption(trace: SimTrace) -> AuditVerdict:
    """After the first round (from the one after the last forced injection)
    where all nonzero masses are lex-equal, the mass-adoption trigger must
    stay quiet and all traffic must stop within n - 1 further rounds."""
    n = trace.graph.n
    evaluated = _evaluated(trace, _after_injection(trace))
    settle = next((r.round for r in evaluated if len(set(_nonzero_masses(r))) == 1), None)
    if settle is None:
        return AuditVerdict(False, None, "masses never became all lex-equal")
    for record in _evaluated(trace, settle + 1):
        if any(f.adopt_mass for f in record.fired):
            return AuditVerdict(
                False, record.round, f"mass adoption fired after settle round {settle}"
            )
        if record.messages and record.round > settle + (n - 1):
            detail = f"traffic after settle round {settle} + n - 1"
            return AuditVerdict(False, record.round, detail)
    return AuditVerdict(ok=True, detail=f"masses settled at round {settle}")


def _build_report(trace: SimTrace, dmax: int) -> TrialReport:
    g = trace.graph
    rows = round_rows(trace)
    q_num, q_den = exact_average(trace.schedules)
    bound = theoretical_bound(g.n, g.m, dmax)
    # The first round from which every later row has all n nodes on q.
    conv = 1 + max((row.round for row in rows if row.converged_nodes != g.n), default=-1)
    if conv > rows[-1].round:
        conv = None
    quiesc = trace.quiescence_round
    bound_ok = conv is not None and quiesc is not None and conv <= quiesc <= bound
    # One tuple per distinct final state: a converged trial's n nodes share one.
    pairs = [(n.state_y, n.state_z) for n in trace.records[-1].nodes]
    shared: dict[tuple[int, int], tuple[int, int]] = {}
    return TrialReport(
        n=g.n,
        m=g.m,
        dmax=dmax,
        q_num=q_num,
        q_den=q_den,
        quiescent=quiesc is not None,
        convergence_round=conv,
        quiescence_round=quiesc,
        last_emission_round=max(
            (row.round for row in rows if row.transmitting_nodes), default=-1
        ),
        tx_broadcast_as_one=sum(row.broadcasts + row.mass_transfers for row in rows),
        tx_broadcast_as_fanout=sum(row.broadcast_copies + row.mass_transfers for row in rows),
        bound=bound,
        exactness_ok=rows[-1].converged_nodes == g.n,
        bound_ok=bound_ok,
        conservation=audit_mass_conservation(trace),
        dominance=audit_leading_mass_dominance(trace),
        absorption=audit_absorption(trace),
        final_states=tuple(shared.setdefault(pair, pair) for pair in pairs),
        rows=rows,
    )


# --------------------------------------------------------------------------
# Trace exports
# --------------------------------------------------------------------------

TRACE_CSV_HEADER = "round,state_broadcasts,mass_transfers,transmitting_nodes,converged_nodes"
MESSAGE_LOG_HEADER = "round,kind,src,dst,y,z"


def trace_csv_lines(trace: SimTrace, rows: tuple[SeriesRow, ...] | None = None) -> list[str]:
    """trace.csv's lines from `rows`, the trace's `round_rows` when not given."""
    lines = [TRACE_CSV_HEADER]
    for row in round_rows(trace) if rows is None else rows:
        lines.append(
            f"{row.round},{row.broadcasts},{row.mass_transfers},"
            f"{row.transmitting_nodes},{row.converged_nodes}"
        )
    return lines


def message_log_lines(trace: SimTrace) -> list[str]:
    """messages.csv's lines: one per message copy, in record order."""
    lines = [MESSAGE_LOG_HEADER]
    for record in trace.records:
        for ev in record.messages.events:
            if type(ev) is MassTransfer:
                lines.append(f"{ev.round},mass,{ev.src},{ev.dst},{ev.y},{ev.z}")
            else:
                head, tail = f"{ev.round},state,{ev.src},", f",{ev.y},{ev.z}"
                lines.extend([f"{head}{dst}{tail}" for dst in ev.dsts])
    return lines


def write_trace_csv(trace: SimTrace, path, rows: tuple[SeriesRow, ...] | None = None) -> None:
    Path(path).write_text("\n".join(trace_csv_lines(trace, rows)) + "\n", encoding="ascii")


def write_message_log(trace: SimTrace, path) -> None:
    Path(path).write_text("\n".join(message_log_lines(trace)) + "\n", encoding="ascii")
