import dataclasses
import inspect
import pickle
import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from privavg.engine import (
    RoundMessages,
    RoundRecord,
    SeriesRow,
    SimTrace,
    _build_record,
    _build_row,
    run_simulation,
)
from privavg.graph import Digraph, generate_random_strongly_connected, max_out_degree
from privavg.protocol import (
    _IDLE,
    _OUTCOMES,
    Broadcast,
    MassTransfer,
    Message,
    NodeState,
    StateBroadcast,
    TriggersFired,
    _build_broadcast,
    _build_copy,
    _build_node,
    _build_transfer,
    _builder,
    evaluate_triggers,
    init_node,
    step_node,
)
from privavg.schedule import NodeRole, SubstateSchedule, decompose_initial_state

import legacy_node
from legacy_node import (
    EngineContractError,
    reference_evaluate_triggers,
    reference_step_node,
    step_inbox,
)

# The schedule and out-neighbor row of make_node's node 0.
SCHEDULE = SubstateSchedule(y0=4, uy=(4, 4, 4), uz=(1, 1, 1))
OUT = (1,)


def make_node(state=(3, 1), mass=(0, 0), s=1):
    return NodeState(
        id=0,
        mass_y=mass[0],
        mass_z=mass[1],
        state_y=state[0],
        state_z=state[1],
        s=s,
        rr_cursor=0,
    )


class TestInitNode:
    def test_private_example_starts_on_first_substate(self):
        schedule = SubstateSchedule(y0=4, uy=(1, 8, 6, 2, 3), uz=(1, 1, 1, 1, 1))
        out = (2, 5)
        node, broadcast = init_node(7, schedule, out)
        assert (node.mass_y, node.mass_z) == (1, 1)
        assert (node.state_y, node.state_z) == (1, 1)
        assert node.s == 1 and not node.s_br and not node.m_tr
        assert broadcast == Broadcast(src=7, dsts=(2, 5), y=1, z=1, round=-1)
        assert broadcast.dsts is out

    def test_neutral_node(self):
        schedule = SubstateSchedule(y0=7, uy=(7, 7, 7), uz=(1, 1, 1))
        node, broadcast = init_node(0, schedule, (1,))
        assert (node.mass_y, node.mass_z) == (7, 1)
        assert broadcast.y == 7 and broadcast.z == 1

    def test_initial_ratio_is_first_substate_over_one(self):
        schedule = SubstateSchedule(y0=-2, uy=(-5, 1, -2 * 3 + 4), uz=(1, 1, 1))
        node, _ = init_node(0, schedule, (1,))
        assert node.state_z == 1 and node.state_y == schedule.uy[0]

    def test_rejects_malformed_schedule(self):
        bad = SubstateSchedule(y0=4, uy=(1, 2, 3), uz=(1, 0, 1))
        with pytest.raises(ValueError):
            init_node(0, bad, (1,))
        bad_sum = SubstateSchedule(y0=4, uy=(1, 2, 3), uz=(1, 1, 1))
        with pytest.raises(ValueError):
            init_node(0, bad_sum, (1,))

    def test_rejects_no_out_neighbors(self):
        schedule = SubstateSchedule(y0=1, uy=(1, 1, 1), uz=(1, 1, 1))
        with pytest.raises(ValueError):
            init_node(0, schedule, ())


class TestEventTriggers:
    # The default schedule has dmax = 1; a node at s = dmax + 2 has used it
    # up, so no forced hand-off can hide which flag a trigger set.
    PAST_SCHEDULE = 3

    def test_received_with_larger_z_is_adopted(self):
        node = make_node(state=(3, 1), s=self.PAST_SCHEDULE)
        inbox = [StateBroadcast(src=1, dst=0, y=0, z=2, round=4)]
        out, emitted, fired = step_inbox(node, SCHEDULE, OUT, inbox, 5)
        assert fired == (True, False, False)
        assert (out.state_y, out.state_z) == (0, 2)
        assert emitted == [Broadcast(src=0, dsts=(1,), y=0, z=2, round=5)]
        assert (out.mass_y, out.mass_z) == (0, 0) and out.s == self.PAST_SCHEDULE

    def test_mass_with_equal_z_larger_y_is_adopted(self):
        node = make_node(state=(3, 1), s=self.PAST_SCHEDULE)
        inbox = [MassTransfer(src=1, dst=0, y=5, z=1, round=4)]
        out, emitted, fired = step_inbox(node, SCHEDULE, OUT, inbox, 5)
        assert fired == (False, True, False)
        assert (out.state_y, out.state_z) == (5, 1)
        assert emitted == [Broadcast(src=0, dsts=(1,), y=5, z=1, round=5)]
        assert (out.mass_y, out.mass_z) == (5, 1)

    def test_follower_mass_sets_hand_off_flag(self):
        node = make_node(state=(4, 2), s=self.PAST_SCHEDULE)
        inbox = [MassTransfer(src=1, dst=0, y=9, z=1, round=4)]
        out, emitted, fired = step_inbox(node, SCHEDULE, OUT, inbox, 5)
        assert fired == (False, False, True)
        assert (out.state_y, out.state_z) == (4, 2)
        assert emitted == [MassTransfer(src=0, dst=1, y=9, z=1, round=5)]
        assert (out.mass_y, out.mass_z) == (0, 0) and not out.m_tr and not out.s_br

    def test_adoption_uses_lex_max_of_received(self):
        # (y, z) payloads (7, 2), (100, 1) and (3, 3): z compares first
        y, z, fired = evaluate_triggers(0, 1, max((2, 7), (1, 100), (3, 3)), 0, 0)
        assert (y, z) == (3, 3)
        assert fired.adopt_received and not fired.adopt_mass

    def test_mass_comparison_happens_after_state_adoption(self):
        # received lifts the state first; the mass then loses the comparison
        y, z, fired = evaluate_triggers(1, 1, (3, 10), 5, 2)
        assert (y, z) == (10, 3)
        assert fired.adopt_received and not fired.adopt_mass and fired.hand_off

    def test_equal_pairs_fire_nothing(self):
        y, z, fired = evaluate_triggers(6, 1, (1, 6), 6, 1)
        assert (y, z) == (6, 1) and fired == (False, False, False)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(-50, 50), st.integers(1, 20))
    def test_zero_mass_never_requests_hand_off(self, state_y, state_z):
        _, _, fired = evaluate_triggers(state_y, state_z, None, 0, 0)
        assert not fired.hand_off

    def test_one_shared_object_per_outcome(self):
        assert [tuple(o) for o in _OUTCOMES] == list(product((False, True), repeat=3))
        assert _IDLE is _OUTCOMES[0]
        small = (-1, 0, 1)
        pairs = list(product(small, (0, 1, 2)))
        reached = {}
        for (sy, sz), (my, mz) in product(pairs, pairs):
            for received in [[]] + [[pair] for pair in pairs]:
                best = max(((z, y) for y, z in received), default=None)
                y, z, fired = evaluate_triggers(sy, sz, best, my, mz)
                want = reference_evaluate_triggers(sy, sz, received, my, mz)
                assert (y, z, fired) == want
                assert fired is next(o for o in _OUTCOMES if o == want[2])
                reached[id(fired)] = fired
        # An adopted mass is the new state, so it cannot also be handed off.
        assert sorted(reached.values()) == [o for o in _OUTCOMES if not (o[1] and o[2])]


class TestStepNode:
    """The first round of the hand-traced bidirectional pair."""

    def test_node_with_smaller_value_adopts_and_relays(self):
        schedule = SubstateSchedule(y0=4, uy=(4, 4, 4), uz=(1, 1, 1))
        node, _ = init_node(0, schedule, (1,))
        inbox = [StateBroadcast(src=1, dst=0, y=6, z=1, round=-1)]
        out, emitted, fired = step_inbox(node, schedule, (1,), inbox, 0)
        assert fired == (True, False, True)
        assert (out.state_y, out.state_z) == (6, 1)
        assert (out.mass_y, out.mass_z) == (0, 0) and out.s == 2
        assert [type(m).__name__ for m in emitted] == ["MassTransfer", "Broadcast"]
        transfer, broadcast = emitted
        assert (transfer.y, transfer.z, transfer.dst) == (8, 2, 1)
        assert (broadcast.y, broadcast.z) == (6, 1)

    def test_node_with_larger_value_only_hands_off(self):
        schedule = SubstateSchedule(y0=6, uy=(6, 6, 6), uz=(1, 1, 1))
        node, _ = init_node(1, schedule, (0,))
        inbox = [StateBroadcast(src=0, dst=1, y=4, z=1, round=-1)]
        out, emitted, fired = step_inbox(node, schedule, (0,), inbox, 0)
        assert fired == (False, False, False)
        assert len(emitted) == 1 and isinstance(emitted[0], MassTransfer)
        assert (emitted[0].y, emitted[0].z, emitted[0].dst) == (12, 2, 0)

    def test_exhausted_idle_node_does_nothing(self):
        node = make_node(state=(9, 3), mass=(0, 0), s=3)  # dmax=1, so s > dmax+1
        out, emitted, fired = step_node(node, SCHEDULE, OUT, None, 5)
        assert emitted == [] and fired == (False, False, False)
        assert out == node

    def test_mail_that_changes_nothing_hands_back_the_node(self):
        node = make_node(state=(9, 3), mass=(0, 0), s=3)
        out, emitted, fired = step_inbox(node, SCHEDULE, OUT, [StateBroadcast(1, 0, 1, 1, 4)], 5)
        assert out == node and emitted == [] and fired is _IDLE
        out, emitted, fired = step_inbox(node, SCHEDULE, OUT, [StateBroadcast(1, 0, 1, 4, 4)], 5)
        assert out != node and (out.state_y, out.state_z) == (1, 4) and len(emitted) == 1

    def test_triggers_run_exactly_when_mail_is_delivered(self):
        # The node's mass (2, 1) trails its state (3, 1), and it is past its
        # schedule, so only condition set 3 can make it send: a delivered
        # transfer of (0, 0) is mail, and no mail evaluates no trigger.
        node = make_node(state=(3, 1), mass=(2, 1), s=3)
        out, emitted, fired = step_node(node, SCHEDULE, OUT, None, 5)
        assert out == node and emitted == [] and fired is _IDLE
        out, emitted, fired = step_node(node, SCHEDULE, OUT, [0, 0, None], 5)
        assert fired == (False, False, True)
        assert emitted == [MassTransfer(src=0, dst=1, y=2, z=1, round=5)]
        assert (out.mass_y, out.mass_z, out.s) == (0, 0, 4)
        inbox = [MassTransfer(src=1, dst=0, y=0, z=0, round=4)]
        got = step_inbox(node, SCHEDULE, OUT, inbox, 5)
        want = reference_step_node(legacy_node._carry(node, SCHEDULE, OUT), inbox, 5)
        assert (got[0], legacy_node.copies(got[1]), got[2]) == (
            legacy_node.project(want[0]), *want[1:]
        )

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_settled_node_without_mail_is_a_fixed_point(self, data):
        # The engine skips a settled node with an empty inbox; no trigger may
        # fire, and nothing may change or be sent, without input.  The
        # schedule's own length says when the node is past it, whatever the
        # out-degree.
        length = data.draw(st.integers(1, 8))
        values = st.integers(-10**6, 10**6)
        uy = tuple(data.draw(st.lists(values, min_size=length, max_size=length)))
        schedule = SubstateSchedule(y0=data.draw(values), uy=uy, uz=(1,) * length)
        out = tuple(data.draw(st.lists(st.integers(0, 50), min_size=1, max_size=6, unique=True)))
        node = NodeState(
            id=data.draw(st.integers(0, 50)),
            mass_y=data.draw(values),
            mass_z=data.draw(st.integers(0, 10**6)),
            state_y=data.draw(values),
            state_z=data.draw(st.integers(1, 10**6)),
            s=data.draw(st.integers(length, length + 20)),
            rr_cursor=data.draw(st.integers(0, len(out) - 1)),
        )
        assert node.s >= length  # settled
        rnd = data.draw(st.integers(0, 10**6))
        after, emitted, fired = step_node(node, schedule, out, None, rnd)
        assert after == node
        assert emitted == []
        assert fired == TriggersFired(False, False, False)

    def test_misrouted_message_is_a_contract_violation(self):
        node = make_node()
        with pytest.raises(EngineContractError):
            step_inbox(node, SCHEDULE, OUT, [StateBroadcast(src=1, dst=9, y=1, z=1, round=0)], 1)
        stray = Broadcast(src=1, dsts=(2, 9), y=1, z=1, round=0)
        with pytest.raises(EngineContractError, match="for nodes 2, 9 delivered to node 0"):
            step_inbox(node, SCHEDULE, OUT, [stray], 1)
        # the same event, addressed to the node among others, is accepted
        out, _, fired = step_inbox(node, SCHEDULE, OUT, [Broadcast(1, (2, 0, 9), 1, 4, 0)], 1)
        assert fired.adopt_received and (out.state_y, out.state_z) == (1, 4)

    def test_round_robin_cursor_advances_cyclically(self):
        schedule = SubstateSchedule(y0=0, uy=(-1, 2, 3, -4), uz=(1, 1, 1, 1))
        node, _ = init_node(0, schedule, (3, 1, 2))
        targets = []
        for rnd in range(3):
            node, emitted, _ = step_node(node, schedule, (3, 1, 2), None, rnd)
            transfers = [m for m in emitted if isinstance(m, MassTransfer)]
            assert len(transfers) == 1
            targets.append(transfers[0].dst)
        assert targets == [3, 1, 2]

    def test_forced_phase_emits_exactly_one_transfer_per_round(self):
        rng = random.Random(13)
        g = generate_random_strongly_connected(6, 0.5, rng)
        dmax = max_out_degree(g)
        schedules = [
            decompose_initial_state(rng.randint(-9, 9), dmax, NodeRole.PRIVATE, 100, rng)
            for _ in range(6)
        ]
        trace, _ = run_simulation(g, schedules)
        for record in trace.records[1:]:
            if record.round > dmax:
                break
            per_node = {j: 0 for j in range(6)}
            for m in record.messages:
                if isinstance(m, MassTransfer):
                    per_node[m.src] += 1
            assert all(c == 1 for c in per_node.values())

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_state_pairs_are_lex_monotone_across_rounds(self, seed):
        rng = random.Random(seed)
        n = rng.randint(3, 7)
        g = generate_random_strongly_connected(n, 0.5, rng)
        dmax = max_out_degree(g)
        schedules = [
            decompose_initial_state(rng.randint(-20, 20), dmax, NodeRole.PRIVATE, 100, rng)
            for _ in range(n)
        ]
        trace, _ = run_simulation(g, schedules)
        previous = None
        for record in trace.records:
            current = [(node.state_z, node.state_y) for node in record.nodes]
            if previous is not None:
                assert all(c >= p for c, p in zip(current, previous))
            previous = current


class TestNodeStateFields:
    """A NodeState holds what lasts from round to round; the trigger flags
    are outcomes of one step and are no fields of it."""

    def test_the_seven_fields(self):
        assert [f.name for f in dataclasses.fields(NodeState)] == [
            "id", "mass_y", "mass_z", "state_y", "state_z", "s", "rr_cursor",
        ]
        assert NodeState in [row[0] for row in _BUILT]  # TestBuilderMatchesInit covers it

    def test_a_flag_cannot_be_set(self):
        node = make_node()
        with pytest.raises(TypeError):
            dataclasses.replace(node, s_br=True)
        with pytest.raises(TypeError):
            NodeState(id=0, mass_y=0, mass_z=0, state_y=3, state_z=1, s=1, rr_cursor=0, m_tr=True)

    def test_the_flags_read_clear(self):
        node, _ = init_node(0, SCHEDULE, OUT)
        stepped, emitted, fired = step_inbox(
            node, SCHEDULE, OUT, [StateBroadcast(1, 0, 9, 1, -1)], 0
        )
        assert fired.adopt_received and len(emitted) == 2  # both flags fired this step
        for made in (node, stepped):
            for state in (made, pickle.loads(pickle.dumps(made))):
                assert state.s_br is False and state.m_tr is False


def _outcome(fn, *args):
    """fn's result, or the type and first line of what it raised: pytest
    rewrites the asserts of this module's copies and appends a second line."""
    try:
        return fn(*args)
    except Exception as err:  # a random node may fail an assertion on both sides
        return type(err), str(err).split("\n")[0]


class TestStepNodeMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_random_nodes_and_inboxes(self, data):
        # Schedules may differ in length from dmax + 2 and from each other,
        # and the counter may run past both, so every uy_at / uz_at branch
        # is read; the inbox mixes both kinds and may hold misrouted mail.
        small = st.integers(-20, 20)
        uy = tuple(data.draw(st.lists(small, min_size=1, max_size=7)))
        uz = tuple(data.draw(st.lists(st.integers(0, 2), min_size=1, max_size=7)))
        schedule = SubstateSchedule(y0=data.draw(small), uy=uy, uz=uz)
        out = tuple(data.draw(st.lists(st.integers(0, 30), min_size=1, max_size=4, unique=True)))
        legacy = legacy_node.NodeState(
            id=data.draw(st.integers(0, 30)),
            out_neighbors=out,
            schedule=schedule,
            mass_y=data.draw(small),
            mass_z=data.draw(st.integers(-2, 8)),
            state_y=data.draw(small),
            state_z=data.draw(st.integers(-2, 8)),
            s=data.draw(st.integers(0, max(len(uy), len(uz)) + 2)),
            # privavg's NodeState holds no flags, and project refuses a flagged node.
            s_br=False,
            m_tr=False,
            rr_cursor=data.draw(st.integers(0, len(out) - 1)),
        )
        node = legacy_node.project(legacy)
        rnd = data.draw(st.integers(0, 10**4))
        inbox: list[Message] = [
            data.draw(st.sampled_from((StateBroadcast, MassTransfer)))(
                data.draw(st.integers(0, 30)), node.id, data.draw(small),
                data.draw(st.integers(-2, 8)), rnd - 1,
            )
            for _ in range(data.draw(st.integers(0, 6)))
        ]
        misrouted = inbox and data.draw(st.booleans())
        if misrouted:
            pos = data.draw(st.integers(0, len(inbox) - 1))
            inbox[pos] = dataclasses.replace(inbox[pos], dst=node.id + 1)
        got = _outcome(step_inbox, node, schedule, out, inbox, rnd)
        want = _outcome(reference_step_node, legacy, inbox, rnd)
        stepped = len(want) == 3  # a step, not a refusal
        if stepped:
            want = (legacy_node.project(want[0]),) + want[1:]
        if len(got) == 3:  # the reference sends one copy per out-neighbor
            got = (got[0], legacy_node.copies(got[1]), got[2])
        assert got == want
        if misrouted:
            assert got[0] is EngineContractError


# The hot records are built through protocol._builder; each builder must make
# the object its class's __init__ makes.

_NODE = make_node()
_BUILT = [
    (Broadcast, _build_broadcast, dict(src=1, dsts=(2, 6), y=-3, z=4, round=5), "dsts", (0,)),
    (StateBroadcast, _build_copy, dict(src=1, dst=2, y=-3, z=4, round=5), "y", 7),
    (MassTransfer, _build_transfer, dict(src=1, dst=2, y=-3, z=4, round=5), "dst", 0),
    (
        NodeState,
        _build_node,
        {f.name: getattr(_NODE, f.name) for f in dataclasses.fields(NodeState)},
        "s",
        2,
    ),
    (
        RoundRecord,
        _build_record,
        dict(
            round=3,
            messages=RoundMessages((Broadcast(0, (1, 2), 3, 1, 3),)),
            nodes=(_NODE,),
            fired=(_IDLE,),
        ),
        "messages",
        (),
    ),
    (
        SeriesRow,
        _build_row,
        dict(round=3, broadcasts=1, broadcast_copies=2, mass_transfers=1,
             transmitting_nodes=2, converged_nodes=5),
        "converged_nodes",
        6,
    ),
]


@pytest.mark.parametrize(
    "cls, build, values, field, other", _BUILT, ids=[row[0].__name__ for row in _BUILT]
)
class TestBuilderMatchesInit:
    def test_parameters_are_the_fields_in_order(self, cls, build, values, field, other):
        names = [f.name for f in dataclasses.fields(cls)]
        assert list(inspect.signature(build).parameters) == names
        assert list(values) == names

    def test_same_object(self, cls, build, values, field, other):
        made, init = build(*values.values()), cls(**values)
        assert type(made) is cls and not hasattr(made, "__dict__")
        assert made == init and init == made
        assert hash(made) == hash(init)
        assert repr(made) == repr(init)

    def test_pickle_round_trip(self, cls, build, values, field, other):
        made = build(*values.values())
        back = pickle.loads(pickle.dumps(made))
        assert type(back) is cls and back == made == cls(**values)

    def test_replace(self, cls, build, values, field, other):
        changed = dataclasses.replace(build(*values.values()), **{field: other})
        assert changed == cls(**{**values, field: other})

    def test_assignment_is_refused(self, cls, build, values, field, other):
        made = build(*values.values())
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(made, field, other)
        assert made == cls(**values)


@dataclasses.dataclass(frozen=True)
class _FrozenUnslotted:
    x: int


@pytest.mark.parametrize("cls", [SimTrace, Digraph, _FrozenUnslotted])
def test_builder_refuses_classes_it_cannot_build(cls):
    # SimTrace is not frozen, Digraph validates in __post_init__, and a class
    # without slots has no member descriptors to write through.
    with pytest.raises(TypeError):
        _builder(cls)
