"""Per-node state machine for the event-triggered averaging protocol.

Each node keeps a mass pair (mass_y, mass_z) that physically moves through
the network and a state pair (state_y, state_z) holding its current best
estimate, whose exact ratio state_y / state_z is the answer.  Pairs compare
lexicographically with z first; the state is monotone non-decreasing in
that order.  A NodeState holds only what changes from round to round: the
node's substate schedule and its out-neighbor priority order are fixed
before round 0, so init_node and step_node take them as arguments.  One
call to step_node consumes the node's inbox for a round and returns the
successor state plus its outgoing events: at most one MassTransfer, to one
out-neighbor, and at most one Broadcast, whose dsts is the out-neighbor row
itself, shared and not copied.  A Broadcast stands for one StateBroadcast
copy per member of dsts, in order; the engine's records expand the copies
only for readers that ask (see engine.RoundMessages).

The records built once per node step -- every event and every
successor state -- are frozen slotted dataclasses, and their generated
__init__ writes each field through object.__setattr__.  step_node and
init_node therefore build them through _builder: a positional function,
generated once at import per class, that writes each field straight
through the class's own slot member descriptor.  Measured on CPython
3.11.7, __init__ costs 1.2 to 2 times as much per object, and plain
constructors cut the scale_n200 benchmark's ops/s by about 8 % (median of
10 alternating 20 s runs on 2 cores).  The object is the one __init__
makes (same class and slots, equal, same hash and repr, pickles and
`dataclasses.replace`s the same, and still refuses assignment); the public
classes and their __init__ are unchanged.

Where a step has nothing new to build, it builds nothing: evaluate_triggers
returns one of eight module-level TriggersFired objects, one per outcome
(_IDLE is the all-False one, shared by every step without mail), and
step_node returns the NodeState it was given when the successor would equal
it field for field, as it does for a node whose mail changes nothing.  All
of these are frozen and compare by value, so sharing them changes no
result.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from itertools import product
from types import MemberDescriptorType
from typing import ClassVar, NamedTuple, Union

from .schedule import SubstateSchedule, structural_violations


class EngineContractError(RuntimeError):
    """A message reached a node it was not addressed to."""


def _builder(cls):
    """A positional constructor for the frozen slotted dataclass cls that
    makes the same object as cls(...) without going through object.__setattr__.

    The function is generated once, as dataclasses generates __init__: its
    parameters are the fields in order, and it writes each one through the
    slot member descriptor in cls.__dict__.  Raises TypeError for a class
    whose __init__ does more than set its fields (a __post_init__, a field
    left out of __init__) or whose fields are not its own frozen slots.
    """
    params = getattr(cls, "__dataclass_params__", None)
    if params is None or not params.frozen:
        raise TypeError(f"{cls.__name__} is not a frozen dataclass")
    if hasattr(cls, "__post_init__"):
        raise TypeError(f"{cls.__name__} has a __post_init__ that a builder would skip")
    if not all(
        f.init and isinstance(cls.__dict__.get(f.name), MemberDescriptorType)
        for f in fields(cls)
    ):
        raise TypeError(f"{cls.__name__}'s fields are not all its own __init__ slots")
    names = [f.name for f in fields(cls)]
    # The generated names start with two underscores, which a class body
    # mangles, so no field can shadow them.
    namespace = {"__new": object.__new__, "__cls": cls}
    lines = [f"def _build_{cls.__name__}({', '.join(names)}):", "    __obj = __new(__cls)"]
    for name in names:
        namespace[f"__set_{name}"] = cls.__dict__[name].__set__
        lines.append(f"    __set_{name}(__obj, {name})")
    lines.append("    return __obj")
    exec("\n".join(lines), namespace)
    return namespace[f"_build_{cls.__name__}"]


@dataclass(frozen=True, slots=True)
class Broadcast:
    """One state announcement to every out-neighbor in dsts, the sender's
    own out-neighbor row; it stands for one StateBroadcast copy per member."""

    src: int
    dsts: tuple[int, ...]
    y: int
    z: int
    round: int


@dataclass(frozen=True, slots=True)
class StateBroadcast:
    """One per-neighbor copy of a Broadcast, as the records show it."""

    src: int
    dst: int
    y: int
    z: int
    round: int

    @property
    def dsts(self) -> tuple[int]:
        """The one addressee, so a copy reads like the Broadcast it came from."""
        return (self.dst,)


@dataclass(frozen=True, slots=True)
class MassTransfer:
    """A whole mass pair handed off to exactly one out-neighbor."""

    src: int
    dst: int
    y: int
    z: int
    round: int


Message = Union[StateBroadcast, MassTransfer]  # one per addressee
Event = Union[Broadcast, StateBroadcast, MassTransfer]  # what a step emits or an inbox holds


class TriggersFired(NamedTuple):
    adopt_received: bool  # condition set 1
    adopt_mass: bool      # condition set 2
    hand_off: bool        # condition set 3


# Every trigger outcome, indexed by 4 * adopt_received + 2 * adopt_mass + hand_off.
_OUTCOMES = tuple(TriggersFired(*bits) for bits in product((False, True), repeat=3))
_IDLE = _OUTCOMES[0]  # shared by every step without mail

_build_broadcast = _builder(Broadcast)
_build_copy = _builder(StateBroadcast)
_build_transfer = _builder(MassTransfer)


@dataclass(frozen=True, slots=True)
class NodeState:
    """The part of a node that changes; its schedule and out-neighbor row
    are passed to init_node and step_node."""

    id: int
    mass_y: int
    mass_z: int
    state_y: int
    state_z: int
    s: int            # substate counter
    rr_cursor: int    # index into the out-neighbor row of the next transfer target

    # The broadcast-state and transmit-mass flags are consumed within a step;
    # they stay readable for bench/checks.py until the benchmark refresh
    # (ROADMAP item 1).
    s_br: ClassVar[bool] = False
    m_tr: ClassVar[bool] = False


_build_node = _builder(NodeState)


def init_node(
    node_id: int, schedule: SubstateSchedule, out_neighbors: tuple[int, ...]
) -> tuple[NodeState, Broadcast]:
    """Set up a node on its first substate and emit its initial broadcast.

    The mass and state both start at (uy[0], 1), the counter moves to 1, and
    the returned broadcast, addressed to out_neighbors itself, is stamped
    with send round -1 so that the engine delivers it at round 0.
    """
    if not out_neighbors:
        raise ValueError(f"node {node_id} has no out-neighbors")
    broken = structural_violations(schedule, schedule.dmax)
    if broken:
        raise ValueError(f"node {node_id}: {broken[0]}")
    y, z = schedule.uy_at(0), schedule.uz_at(0)
    node = _build_node(node_id, y, z, y, z, 1, 0)
    return node, _build_broadcast(node_id, out_neighbors, y, z, -1)


def evaluate_triggers(
    state_y: int,
    state_z: int,
    received_states: list[tuple[int, int]],
    mass_y: int,
    mass_z: int,
) -> tuple[int, int, TriggersFired]:
    """Run the three condition sets in order against a merged mass.

    received_states holds (y, z) payloads.  Returns the updated state pair
    and which condition sets fired; sets 2 and 3 see the state as already
    updated by set 1.  The outcome is one of the eight shared TriggersFired
    objects.
    """
    fired1 = fired2 = fired3 = False
    if received_states:
        best = max([(z, y) for y, z in received_states])
        if best > (state_z, state_y):
            state_z, state_y = best
            fired1 = True
    if (mass_z, mass_y) > (state_z, state_y):
        state_y, state_z = mass_y, mass_z
        fired2 = True
    if 0 < mass_z < state_z or (mass_z == state_z and mass_y < state_y):
        fired3 = True
    return state_y, state_z, _OUTCOMES[4 * fired1 + 2 * fired2 + fired3]


def step_node(
    node: NodeState,
    schedule: SubstateSchedule,
    out: tuple[int, ...],
    inbox: list[Event],
    rnd: int,
) -> tuple[NodeState, list[Event], TriggersFired]:
    """Advance one node by one synchronous round.

    schedule and out are the node's substate schedule and out-neighbor row,
    the ones init_node set it up with.  inbox must contain exactly the
    events addressed to this node that were sent in round rnd - 1: a
    transfer whose dst, or a broadcast (or per-neighbor copy) whose dsts
    holds node.id.  The returned outbox, a transfer then a broadcast to
    `out` when there are both, is stamped with round rnd and is due for
    delivery at rnd + 1.  The successor is node itself when it would equal
    node field for field.
    """
    node_id = node.id
    received_states: list[tuple[int, int]] = []
    add_y = add_z = 0
    for msg in inbox:
        if type(msg) is MassTransfer:
            if msg.dst != node_id:
                raise _misrouted(rnd, (msg.dst,), node_id)
            add_y += msg.y
            add_z += msg.z
        elif node_id in msg.dsts:
            received_states.append((msg.y, msg.z))
        else:
            raise _misrouted(rnd, msg.dsts, node_id)
    mass_y = node.mass_y + add_y
    mass_z = node.mass_z + add_z

    state_y, state_z = node.state_y, node.state_z
    fired = _IDLE
    if inbox:
        state_y, state_z, fired = evaluate_triggers(
            state_y, state_z, received_states, mass_y, mass_z
        )

    # The flags are this round's outcome: a hand-off is forced while the
    # schedule still has carrier substates.
    s = node.s
    s_br = fired.adopt_received or fired.adopt_mass
    m_tr = fired.hand_off or schedule.uz_at(s) == 1

    outbox: list[Event] = []
    rr_cursor = node.rr_cursor
    if m_tr:
        mass_y += schedule.uy_at(s)
        mass_z += schedule.uz_at(s)
        assert mass_z >= 1, "a hand-off must carry positive z mass"
        outbox.append(_build_transfer(node_id, out[rr_cursor], mass_y, mass_z, rnd))
        rr_cursor = (rr_cursor + 1) % len(out)
        mass_y = mass_z = 0
        s += 1
    if s_br:
        outbox.append(_build_broadcast(node_id, out, state_y, state_z, rnd))

    assert (state_z, state_y) >= (node.state_z, node.state_y), "state must be lex monotone"
    # s moves on with every hand-off (which alone moves the cursor): an
    # unchanged s, mass and state leave nothing to build.
    if (
        s == node.s
        and mass_y == node.mass_y
        and mass_z == node.mass_z
        and state_y == node.state_y
        and state_z == node.state_z
    ):
        return node, outbox, fired
    new_node = _build_node(node_id, mass_y, mass_z, state_y, state_z, s, rr_cursor)
    return new_node, outbox, fired


def _misrouted(rnd: int, dsts: tuple[int, ...], node_id: int) -> EngineContractError:
    to = f"node {dsts[0]}" if len(dsts) == 1 else f"nodes {', '.join(map(str, dsts))}"
    return EngineContractError(f"round {rnd}: message for {to} delivered to node {node_id}")
