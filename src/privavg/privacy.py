"""Topological privacy classification and executable coalition attacks.

A coalition of curious nodes sees its own internal histories plus every
message a member sent or received, and nothing between outsiders.  Against
that knowledge model this module implements both directions of the privacy
argument: exact reconstruction of a node's initial state when the coalition
surrounds it completely, and construction of alternative ground truths that
replay to a byte-identical coalition log when a non-colluding private
neighbor exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .engine import RoundRecord, SimTrace, iter_rounds, run_simulation
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
        # Imported on first use: hashlib maps OpenSSL, which most runs never need.
        import hashlib

        payload = "\n".join(self.canonical_lines()).encode("ascii")
        return hashlib.sha256(payload).hexdigest()


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
    """The coalition's message and internal events of one record, unsorted."""
    messages = [
        (
            msg.round,
            "mass" if isinstance(msg, MassTransfer) else "state",
            msg.src,
            msg.dst,
            msg.y,
            msg.z,
        )
        for msg in record.messages
        if msg.src in members or msg.dst in members
    ]
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
    +delta and -delta while the network total is unchanged.  Every candidate
    placement is re-simulated; a witness is returned only if the coalition's
    observation log is identical to the original, event for event.

    Each candidate is first replayed round by round and dropped at the
    first round whose coalition view differs from the log's; past the log's
    last round a non-empty coalition always sees a difference.  Only a
    candidate whose whole view matched is simulated in full and checked.  The
    search order, and so the witness returned, is that of checking every
    candidate in full.  A SimulationOverflowError still escapes the search
    when a replay reaches it, but a replay dropped at an earlier round no
    longer does.
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

    exchanged = any(
        isinstance(m, MassTransfer) and {m.src, m.dst} == {target, helper}
        for record in trace.records
        for m in record.messages
    )
    if not exchanged:
        raise WitnessUnavailableError(
            f"no mass transfer between target {target} and helper {helper}"
        )

    # The log's events by round; each list comes out sorted, as the log is.
    views: dict[int, tuple[list, list]] = {}
    for ev in log.messages:
        views.setdefault(ev[0], ([], []))[0].append(ev)
    for ev in log.internal:
        views.setdefault(ev[0], ([], []))[1].append(ev)
    helper_placements = _shifted(sh, -delta)
    for i, alt_t in _shifted(st, delta):
        for j, alt_h in helper_placements:
            alt_schedules = list(trace.schedules)
            alt_schedules[target] = alt_t
            alt_schedules[helper] = alt_h
            screen = SimTrace(
                graph=trace.graph,
                schedules=tuple(alt_schedules),
                max_rounds=trace.max_rounds,
                quiescence_window=trace.quiescence_window,
            )
            if not _replays_view(screen, log.coalition, views):
                continue
            alt_trace, alt_report = run_simulation(
                trace.graph,
                alt_schedules,
                max_rounds=trace.max_rounds,
                quiescence_window=trace.quiescence_window,
            )
            if not (
                alt_report.quiescent
                and alt_report.exactness_ok
                and alt_report.conservation.ok
            ):
                continue
            alt_log = coalition_observations(alt_trace, log.coalition)
            if alt_log == log:
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


def _replays_view(trace: SimTrace, members: frozenset[int], views) -> bool:
    """Whether trace's schedules replay to the coalition view `views`, the
    sorted events of an observation log keyed by round.

    Gives up at the first round whose view differs.  A round missing from
    `views` is seen as empty, so a replay that runs past the log's last
    round differs there unless the coalition is empty; one that ends
    before that round is a mismatch too.
    """
    nothing = ([], [])
    for record in iter_rounds(trace):
        messages, internal = _observe(record, members)
        messages.sort()
        internal.sort()
        if (messages, internal) != views.get(record.round, nothing):
            return False
    return record.round >= max(views, default=-1)
