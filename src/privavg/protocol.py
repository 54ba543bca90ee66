"""Per-node state machine for the event-triggered averaging protocol.

Each node keeps a mass pair (mass_y, mass_z) that physically moves through
the network and a state pair (state_y, state_z) holding its current best
estimate, whose exact ratio state_y / state_z is the answer.  Pairs compare
lexicographically with z first; the state is monotone non-decreasing in
that order.  A NodeState holds only what changes from round to round: the
node's substate schedule and its out-neighbor priority order are fixed
before round 0, so init_node and step_node take them as arguments.  One
call to step_node consumes the node's mail for a round -- the sums of the
transfers delivered to it and the greatest state it received, which is all
the triggers read -- and returns the successor state plus its outgoing
events: at most one MassTransfer, to one out-neighbor, and at most one
Broadcast, whose dsts is the out-neighbor row itself, shared and not
copied.  A Broadcast is one transmission that every member of dsts hears;
the engine's records store it as it is, and build one StateBroadcast copy
per addressee, in order, only for a reader that iterates them (see
engine.RoundMessages).

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

evaluate_triggers returns one of eight module-level TriggersFired objects,
one per outcome (_IDLE is the all-False one, shared by every step without
mail); they are immutable and compare by value, so sharing them changes no
result.  A FiredRow stores one outcome per node as its one-byte index into
them, and reads back the shared objects.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass, fields
from itertools import product
from types import MemberDescriptorType
from typing import ClassVar, NamedTuple, Union

from .schedule import SubstateSchedule, structural_violations


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
    """One per-neighbor copy of a Broadcast, as iterating a record shows it."""

    src: int
    dst: int
    y: int
    z: int
    round: int


@dataclass(frozen=True, slots=True)
class MassTransfer:
    """A whole mass pair handed off to exactly one out-neighbor."""

    src: int
    dst: int
    y: int
    z: int
    round: int


Message = Union[StateBroadcast, MassTransfer]  # one per addressee
Event = Union[Broadcast, MassTransfer]  # what a step emits or a record holds


class TriggersFired(NamedTuple):
    adopt_received: bool  # condition set 1
    adopt_mass: bool      # condition set 2
    hand_off: bool        # condition set 3


# Every trigger outcome, indexed by 4 * adopt_received + 2 * adopt_mass + hand_off.
_OUTCOMES = tuple(TriggersFired(*bits) for bits in product((False, True), repeat=3))
_IDLE = _OUTCOMES[0]  # shared by every step without mail
_CODES = {outcome: code for code, outcome in enumerate(_OUTCOMES)}  # outcome -> index


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class FiredRow(Sequence):
    """One trigger outcome per node, stored as one byte each: codes holds
    each outcome's index into _OUTCOMES, as _CODES gives it.

    An entry reads as the shared TriggersFired object.  The row compares
    and hashes like the tuple of its outcomes, so it equals a plain tuple
    of them, and its repr reads like one.
    """

    codes: bytes

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, index):
        return _OUTCOMES[self.codes[index]]

    def __iter__(self) -> Iterator[TriggersFired]:
        return map(_OUTCOMES.__getitem__, self.codes)

    def __eq__(self, other):
        if type(other) is FiredRow:
            return self.codes == other.codes
        if isinstance(other, tuple):
            return tuple(self) == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


_build_broadcast = _builder(Broadcast)
_build_copy = _builder(StateBroadcast)
_build_transfer = _builder(MassTransfer)
_build_fired = _builder(FiredRow)  # built once per active round


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
    best: tuple[int, int] | None,
    mass_y: int,
    mass_z: int,
) -> tuple[int, int, TriggersFired]:
    """Run the three condition sets in order against a merged mass.

    best is the (z, y) key of the lex-greatest received state, or None when
    no state was received.  Returns the updated state pair and which
    condition sets fired; sets 2 and 3 see the state as already updated by
    set 1.  The outcome is one of the eight shared TriggersFired objects.
    """
    fired1 = fired2 = fired3 = False
    if best is not None and best > (state_z, state_y):
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
    mail: list | None,
    rnd: int,
) -> tuple[NodeState, list[Event], TriggersFired]:
    """Advance one node by one synchronous round.

    schedule and out are the node's substate schedule and out-neighbor row,
    the ones init_node set it up with.  mail is what was delivered to the
    node from round rnd - 1: None when nothing was, and otherwise [add_y,
    add_z, best], the sums of the delivered transfers' y and z and the
    (z, y) key of the lex-greatest delivered broadcast, or None when no
    broadcast was delivered.  The triggers are evaluated exactly when mail
    is not None, so a delivered transfer of (0, 0) still makes a node whose
    mass trails its state hand that mass off.  The returned outbox, a
    transfer then a broadcast to `out` when there are both, is stamped with
    round rnd and is due for delivery at rnd + 1.
    """
    node_id = node.id
    mass_y, mass_z = node.mass_y, node.mass_z
    state_y, state_z = node.state_y, node.state_z
    fired = _IDLE
    if mail is not None:
        add_y, add_z, best = mail
        mass_y += add_y
        mass_z += add_z
        state_y, state_z, fired = evaluate_triggers(state_y, state_z, best, mass_y, mass_z)

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
    new_node = _build_node(node_id, mass_y, mass_z, state_y, state_z, s, rr_cursor)
    return new_node, outbox, fired
