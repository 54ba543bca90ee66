"""The node state as it stood when each node carried its schedule and its
out-neighbor row, for the oracles written against that API.

NodeState is a verbatim copy of the 11-field node.  init_node and step_node
are adapters over privavg.protocol's, which take the two fixed fields as
arguments, take a node's mail as two sums and a best state, and emit one
Broadcast event per broadcasting node: they carry those fields along, fold
a list inbox of events or copies into mail (step_inbox, which reads a
copy's or a transfer's addressee from dst and a broadcast's from dsts),
read a step's outcome code back as its TriggersFired object, and
expand each event into one StateBroadcast copy per addressee, so an oracle
that reads node.schedule or node.out_neighbors, or calls init_node(id,
schedule, out) and step_node(node, inbox, rnd) and routes copies by dst,
runs unchanged.
privavg's NodeState also holds no trigger flags, which a step consumes
before it returns: _carry fills them clear, and project drops the two fixed
fields and refuses a node with a flag set, to compare an oracle's nodes
with privavg's.

The protocol oracles live here, so that the NodeState they build is this
one, and so does the EngineContractError they raise.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from privavg import protocol
from privavg.protocol import (
    MassTransfer,
    Message,
    StateBroadcast,
    TriggersFired,
)
from privavg.schedule import SubstateSchedule


class EngineContractError(RuntimeError):
    """A message reached a node it was not addressed to."""


@dataclass(frozen=True, slots=True)
class NodeState:
    id: int
    out_neighbors: tuple[int, ...]  # round-robin priority order
    schedule: SubstateSchedule
    mass_y: int
    mass_z: int
    state_y: int
    state_z: int
    s: int            # substate counter
    s_br: bool        # broadcast-state flag
    m_tr: bool        # transmit-mass flag
    rr_cursor: int    # index into out_neighbors of the next transfer target


_CHANGING = tuple(f.name for f in fields(protocol.NodeState))


def project(node: NodeState) -> protocol.NodeState:
    """node without its schedule and out-neighbor row; a node with a
    trigger flag set has no counterpart, so it raises ValueError."""
    if node.s_br or node.m_tr:
        raise ValueError(f"node {node.id} has a trigger flag set")
    return protocol.NodeState(**{name: getattr(node, name) for name in _CHANGING})


def _carry(
    node: protocol.NodeState, schedule: SubstateSchedule, out_neighbors: tuple[int, ...]
) -> NodeState:
    """node with the schedule and out-neighbor row it was stepped with, and
    both flags clear."""
    return NodeState(
        out_neighbors=out_neighbors,
        schedule=schedule,
        s_br=False,
        m_tr=False,
        **{name: getattr(node, name) for name in _CHANGING},
    )


def copies(events) -> list[Message]:
    """events with each Broadcast expanded into one StateBroadcast per
    member of its dsts, in order."""
    expanded: list[Message] = []
    for ev in events:
        if isinstance(ev, protocol.Broadcast):
            expanded.extend(StateBroadcast(ev.src, dst, ev.y, ev.z, ev.round) for dst in ev.dsts)
        else:
            expanded.append(ev)
    return expanded


def init_node(node_id, schedule, out_neighbors):
    node, broadcast = protocol.init_node(node_id, schedule, out_neighbors)
    return _carry(node, schedule, tuple(out_neighbors)), tuple(copies([broadcast]))


def step_inbox(node, schedule, out, inbox, rnd):
    """protocol.step_node on a list inbox of events.

    Each event must be addressed to the node -- a transfer or a copy by
    its dst, a broadcast by its dsts -- or EngineContractError is raised.
    The transfers are summed, the lex-greatest broadcast or copy (z first)
    is the best state, and an empty inbox is no mail.  The step's outcome
    code is returned as the shared TriggersFired object it indexes.
    """
    add_y = add_z = 0
    keys = []
    for ev in inbox:
        dsts = ev.dsts if type(ev) is protocol.Broadcast else (ev.dst,)
        if node.id not in dsts:
            raise _misrouted(rnd, dsts, node.id)
        if type(ev) is MassTransfer:
            add_y += ev.y
            add_z += ev.z
        else:
            keys.append((ev.z, ev.y))
    mail = [add_y, add_z, max(keys, default=None)] if inbox else None
    after, outbox, code = protocol.step_node(node, schedule, out, mail, rnd)
    return after, outbox, protocol._OUTCOMES[code]


def _misrouted(rnd: int, dsts: tuple[int, ...], node_id: int) -> EngineContractError:
    to = f"node {dsts[0]}" if len(dsts) == 1 else f"nodes {', '.join(map(str, dsts))}"
    return EngineContractError(f"round {rnd}: message for {to} delivered to node {node_id}")


def step_node(node, inbox, rnd):
    after, outbox, fired = step_inbox(
        project(node), node.schedule, node.out_neighbors, inbox, rnd
    )
    return _carry(after, node.schedule, node.out_neighbors), copies(outbox), fired


# step_node and evaluate_triggers as they stood before messages were built
# positionally and the schedule tuples read directly, kept verbatim as the
# oracle for both; only the names differ.


def reference_evaluate_triggers(
    state_y: int,
    state_z: int,
    received_states: list[tuple[int, int]],
    mass_y: int,
    mass_z: int,
) -> tuple[int, int, TriggersFired]:
    """Run the three condition sets in order against a merged mass.

    received_states holds (y, z) payloads.  Returns the updated state pair
    and which condition sets fired; sets 2 and 3 see the state as already
    updated by set 1.
    """
    fired1 = fired2 = fired3 = False
    if received_states:
        best_y, best_z = max(received_states, key=lambda p: (p[1], p[0]))
        if (best_z, best_y) > (state_z, state_y):
            state_y, state_z = best_y, best_z
            fired1 = True
    if (mass_z, mass_y) > (state_z, state_y):
        state_y, state_z = mass_y, mass_z
        fired2 = True
    if 0 < mass_z < state_z or (mass_z == state_z and mass_y < state_y):
        fired3 = True
    return state_y, state_z, TriggersFired(fired1, fired2, fired3)


def reference_step_node(
    node: NodeState, inbox: list[Message], rnd: int
) -> tuple[NodeState, list[Message], TriggersFired]:
    """Advance one node by one synchronous round.

    inbox must contain exactly the messages addressed to this node that were
    sent in round rnd - 1.  The returned outbox is stamped with round rnd
    and is due for delivery at rnd + 1.
    """
    received_states: list[tuple[int, int]] = []
    add_y = add_z = 0
    for msg in inbox:
        if msg.dst != node.id:
            raise EngineContractError(
                f"round {rnd}: message for node {msg.dst} delivered to node {node.id}"
            )
        if isinstance(msg, MassTransfer):
            add_y += msg.y
            add_z += msg.z
        else:
            received_states.append((msg.y, msg.z))
    mass_y = node.mass_y + add_y
    mass_z = node.mass_z + add_z

    state_y, state_z = node.state_y, node.state_z
    s_br, m_tr = node.s_br, node.m_tr
    fired = TriggersFired(False, False, False)
    if inbox:
        state_y, state_z, fired = reference_evaluate_triggers(
            state_y, state_z, received_states, mass_y, mass_z
        )
        s_br = s_br or fired.adopt_received or fired.adopt_mass
        m_tr = m_tr or fired.hand_off

    # Forced hand-off while the schedule still has carrier substates.
    s = node.s
    if node.schedule.uz_at(s) == 1:
        m_tr = True

    outbox: list[Message] = []
    rr_cursor = node.rr_cursor
    if m_tr:
        mass_y += node.schedule.uy_at(s)
        mass_z += node.schedule.uz_at(s)
        assert mass_z >= 1, "a hand-off must carry positive z mass"
        target = node.out_neighbors[rr_cursor]
        outbox.append(MassTransfer(src=node.id, dst=target, y=mass_y, z=mass_z, round=rnd))
        rr_cursor = (rr_cursor + 1) % len(node.out_neighbors)
        mass_y = mass_z = 0
        m_tr = False
        s += 1
    if s_br:
        for dst in node.out_neighbors:
            outbox.append(
                StateBroadcast(src=node.id, dst=dst, y=state_y, z=state_z, round=rnd)
            )
        s_br = False

    assert (state_z, state_y) >= (node.state_z, node.state_y), "state must be lex monotone"
    # Positional construction: this runs once per node step.
    new_node = NodeState(
        node.id,
        node.out_neighbors,
        node.schedule,
        mass_y,
        mass_z,
        state_y,
        state_z,
        s,
        s_br,
        m_tr,
        rr_cursor,
    )
    return new_node, outbox, fired
