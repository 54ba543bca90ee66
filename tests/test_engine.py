import dataclasses
import functools
import pickle
import random
import sys
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from privavg import engine, privacy
from privavg.engine import (
    INT64_MAX,
    AuditVerdict,
    InvalidScheduleError,
    RoundMessages,
    RoundRecord,
    SeriesRow,
    SimTrace,
    SimulationOverflowError,
    _SILENT,
    _build_row,
    _evaluated,
    audit_absorption,
    audit_leading_mass_dominance,
    audit_mass_conservation,
    converged_nodes,
    exact_average,
    message_log_lines,
    run_simulation,
    theoretical_bound,
    trace_csv_lines,
)
from privavg.experiments import (
    REFERENCE_STATE_VECTOR,
    TrialConfig,
    build_trial_inputs,
    parse_config,
    run_batch,
    run_single_trial,
)
from privavg.graph import (
    digraph_from_edges,
    generate_random_strongly_connected,
    max_out_degree,
)
from privavg.protocol import (
    Broadcast,
    FiredRow,
    MassTransfer,
    Message,
    NodeState,
    StateBroadcast,
    TriggersFired,
    _OUTCOMES,
)
from privavg.schedule import NodeRole, SubstateSchedule, decompose_initial_state

from handtrace import TWO_NODE_EXPECTED, record_view
from legacy_node import init_node, project, step_node  # reference_iter_rounds' node API
from topologies import REFERENCE_EDGE_PROBABILITY, pair_inputs


class TestTwoNodeFixture:
    def test_matches_hand_trace_round_by_round(self, two_node_run):
        trace, _ = two_node_run
        by_round = {r.round: r for r in trace.records}
        for rnd, expected in TWO_NODE_EXPECTED.items():
            assert record_view(by_round[rnd]) == expected, f"round {rnd}"

    def test_headline_numbers(self, two_node_run):
        trace, report = two_node_run
        assert (report.q_num, report.q_den) == (5, 1)
        assert report.convergence_round == 5
        assert report.quiescence_round == 6
        assert report.final_states == ((30, 6), (30, 6))
        assert report.exactness_ok and report.bound_ok
        assert report.bound == 10 and report.exactness_ok and report.quiescent

    def test_absorbed_mass_equals_split_count_times_totals(self, two_node_run):
        trace, report = two_node_run
        final = trace.records[-1]
        held_y = sum(n.mass_y for n in final.nodes)
        held_z = sum(n.mass_z for n in final.nodes)
        assert (held_y, held_z) == (30, 6)  # (dmax + 2) * (sum y, n)

    def test_silence_certified_for_full_window(self, two_node_run):
        trace, report = two_node_run
        q = report.quiescence_round
        window = trace.quiescence_window
        assert window == 10  # 5n
        assert trace.final_round == q + window - 1
        silent = [r for r in trace.records if r.round >= q]
        assert len(silent) == window
        assert all(not r.messages for r in silent)

    def test_transmission_totals(self, two_node_run):
        _, report = two_node_run
        # 10 broadcast events and 5 hand-offs; fan-out equals events at degree 1
        assert report.tx_broadcast_as_one == 15
        assert report.tx_broadcast_as_fanout == 15


def reference_convergence_round(trace, q):
    """Backward-walk convergence detection, kept verbatim as an oracle for
    TrialReport.convergence_round; only trace.iteration_records(), gone from
    SimTrace, is spelled out as the records from round 0 on."""
    k0 = 0
    last_nodes = None
    for record in reversed([r for r in trace.records if r.round >= 0]):
        if record.nodes is last_nodes:
            continue
        last_nodes = record.nodes
        if converged_nodes(record.nodes, *q) != len(record.nodes):
            k0 = record.round + 1
            break
    return k0 if k0 <= trace.final_round else None


def _all_equal_cycle():
    g = digraph_from_edges(3, [(1, 0), (2, 1), (0, 2)])
    return g, [SubstateSchedule(y0=5, uy=(5, 5, 5), uz=(1, 1, 1))] * 3


class TestConvergenceDetection:
    def test_two_node_convergence_round(self, two_node_run):
        _, report = two_node_run
        assert report.convergence_round == 5
        by_round = {row.round: row.converged_nodes for row in report.rows}
        assert by_round[4] < 2
        assert all(c == 2 for rnd, c in by_round.items() if rnd >= 5)

    def test_all_equal_initial_states_converge_at_round_zero(self):
        trace, report = run_simulation(*_all_equal_cycle())
        assert report.convergence_round == 0
        assert all((y, z) == (report.q_num * z, z) for y, z in report.final_states)

    def test_nonconvergent_trace_returns_none(self, two_node_fixture):
        # The pair converges at round 5; a budget of 3 rounds ends before it.
        trace, report = run_simulation(*two_node_fixture, max_rounds=3)
        assert trace.final_round == 2
        assert report.convergence_round is None and not report.exactness_ok

    def test_exact_without_any_round_is_not_converged(self):
        # Every node already holds q at round -1, but with no round simulated
        # there is no round to converge at: exactness and convergence differ.
        trace, report = run_simulation(*_all_equal_cycle(), max_rounds=0)
        assert trace.final_round == -1
        assert report.exactness_ok
        assert report.convergence_round is None

    @pytest.mark.parametrize(
        "n,p,states,near",
        [
            # near: budgets about the median convergence round at seed 31
            (20, REFERENCE_EDGE_PROBABILITY, {"states": REFERENCE_STATE_VECTOR}, (29, 30)),
            (6, 0.5, {"states_range": (-3, 3)}, (13, 14)),
            (2, 1.0, {"states_range": (-2, 2)}, (5, 6)),
        ],
    )
    def test_matches_reference_detection(self, n, p, states, near):
        cfg = TrialConfig(seed=31, trials=100, n=n, p=p, **states)
        outcomes = set()
        for index in range(cfg.trials):
            result = run_single_trial(cfg, index, keep_trace=True)
            runs = {None: (result.trace, result.report)}
            for budget in (0, 1, 4) + near:
                runs[budget] = run_simulation(
                    result.trace.graph, result.trace.schedules, max_rounds=budget
                )
            for budget, (trace, report) in runs.items():
                expected = reference_convergence_round(trace, (report.q_num, report.q_den))
                assert report.convergence_round == expected, (index, budget)
                outcomes.add((budget, expected is None))
        # a budget of 0 never converges and a full run always does; the
        # budget under the median leaves some runs short of convergence
        # and the one at it lets some converge before the budget ends
        assert {(0, False), (None, True)}.isdisjoint(outcomes)
        assert {(None, False), (0, True), (near[1], False)} <= outcomes
        assert (near[0], True) in outcomes


class TestRowsOnce:
    def test_series_rows_are_the_report_rows(self):
        result = run_single_trial(_reproduction_config(), 0)
        rows = result.report.rows
        assert rows[0].round == -1
        assert len(result.series) == len(rows) - 1
        assert all(a is b for a, b in zip(result.series, rows[1:]))


class TestSharedRows:
    def test_reproduction_batch_shares_its_silent_rows(self):
        # Every trial ends in a 100-round silent tail of fully converged
        # rows; a serial batch keeps one object per (round, converged nodes).
        cfg = TrialConfig(
            seed=100, trials=100, n=20, p=REFERENCE_EDGE_PROBABILITY,
            states=REFERENCE_STATE_VECTOR,
        )
        reports = [result.report for result in run_batch(cfg).results]
        rows = [row for report in reports for row in report.rows]
        assert len({id(row) for row in rows}) <= 0.4 * len(rows)

        def silent(report):
            return {
                (row.round, row.converged_nodes): row
                for row in report.rows
                if not row.transmitting_nodes
            }

        first, second = silent(reports[0]), silent(reports[1])
        shared = first.keys() & second.keys()
        assert shared
        assert all(first[key] is second[key] for key in shared)


class TestTheoreticalBound:
    @pytest.mark.parametrize(
        "n,m,dmax,expected",
        [(2, 2, 1, 10), (3, 3, 1, 29), (20, 100, 8, 190_409)],
    )
    def test_formula(self, n, m, dmax, expected):
        assert theoretical_bound(n, m, dmax) == expected

    @pytest.mark.parametrize("bound, holds", [(5, False), (6, True)])
    def test_bound_ok_holds_up_to_a_quiescence_at_the_bound(
        self, two_node_fixture, monkeypatch, bound, holds
    ):
        # The pair quiesces at round 6, far below its real bound of 10.
        g, schedules = two_node_fixture
        monkeypatch.setattr(engine, "theoretical_bound", lambda n, m, dmax: bound)
        _, report = run_simulation(g, schedules, max_rounds=100)
        assert (report.quiescence_round, report.bound) == (6, bound)
        assert report.bound_ok is holds

    def test_preconditions(self):
        with pytest.raises(ValueError):
            theoretical_bound(1, 2, 1)
        with pytest.raises(ValueError):
            theoretical_bound(3, 2, 1)
        with pytest.raises(ValueError):
            theoretical_bound(3, 3, 0)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-50, 50), min_size=1, max_size=8))
def test_exact_average_is_the_reduced_fraction(states):
    # Totals below, at and above zero: floor division by the gcd must give
    # Fraction's numerator, sign included.
    schedules = [SubstateSchedule(y0=v, uy=(v,), uz=(1,)) for v in states]
    q = Fraction(sum(states), len(states))
    assert exact_average(schedules) == (q.numerator, q.denominator)


class TestMassConservation:
    def test_two_node_trace_passes(self, two_node_run):
        trace, _ = two_node_run
        verdict = audit_mass_conservation(trace)
        assert verdict.ok and verdict.first_violation_round is None

    def test_corrupted_transfer_is_flagged_at_its_round(self, two_node_run):
        trace, _ = two_node_run
        target_round = 1
        idx = next(i for i, r in enumerate(trace.records) if r.round == target_round)
        record = trace.records[idx]
        events = list(record.messages.events)
        pos, transfer = next(
            (i, ev) for i, ev in enumerate(events) if isinstance(ev, MassTransfer)
        )
        events[pos] = dataclasses.replace(transfer, y=transfer.y + 1)
        trace.records[idx] = RoundRecord(
            record.round, RoundMessages(tuple(events)), record.nodes, record.fired
        )
        verdict = audit_mass_conservation(trace)
        assert not verdict.ok and verdict.first_violation_round == target_round

    def test_uninjected_pool_before_first_transfer(self):
        # Right after initialization each node still holds two of its three
        # substates in the pool; the audit balances on that count alone.
        g = digraph_from_edges(3, [(1, 0), (2, 1), (0, 2)])
        schedules = tuple(
            SubstateSchedule(y0=v, uy=(v - 1, v, v + 1), uz=(1, 1, 1))
            for v in (1, 2, 3)
        )
        trace, _ = run_simulation(g, schedules)
        init_only = dataclasses.replace(trace, records=[trace.records[0]])
        for node in init_only.records[0].nodes:
            assert 3 - node.s == 2
        assert audit_mass_conservation(init_only).ok


class TestEngineBehaviors:
    def test_determinism_bitwise(self, two_node_fixture):
        g, schedules = two_node_fixture
        a, _ = run_simulation(g, schedules)
        b, _ = run_simulation(g, schedules)
        assert trace_csv_lines(a) == trace_csv_lines(b)
        assert message_log_lines(a) == message_log_lines(b)

    def test_trace_messages_deliverable_exactly_once(self, two_node_run):
        trace, _ = two_node_run
        by_round = {r.round: r for r in trace.records}
        for record in trace.records[:-1]:
            nxt = by_round.get(record.round + 1)
            assert nxt is not None
            # every message addressed to a node that exists; delivery is total
            for m in record.messages:
                assert 0 <= m.dst < trace.graph.n

    def test_nonconvergence_is_flagged_not_raised(self, two_node_fixture):
        g, schedules = two_node_fixture
        trace, report = run_simulation(g, schedules, max_rounds=3)
        assert not report.quiescent and report.quiescence_round is None
        assert trace.records  # trace preserved

    def test_overflow_aborts_with_trace(self):
        g = digraph_from_edges(2, [(0, 1), (1, 0)])
        big = 2**62
        schedules = [
            SubstateSchedule(y0=big, uy=(big,) * 3, uz=(1, 1, 1)),
            SubstateSchedule(y0=big, uy=(big,) * 3, uz=(1, 1, 1)),
        ]
        with pytest.raises(SimulationOverflowError) as info:
            run_simulation(g, schedules)
        assert info.value.trace.records
        # parallel batch workers hand the error back through pickle
        copy = pickle.loads(pickle.dumps(info.value))
        assert str(copy) == str(info.value)
        assert copy.trace.records == info.value.trace.records

    def test_overflow_in_message_payload_aborts_in_emitting_round(self):
        # Each node hands off 2^62 + 2^62 = 2^63 at round 0 and then holds
        # nothing out of range; only the message payload overflows.
        g = digraph_from_edges(2, [(0, 1), (1, 0)])
        big = 2**62
        schedules = [SubstateSchedule(y0=big, uy=(big,) * 3, uz=(1, 1, 1))] * 2
        with pytest.raises(SimulationOverflowError) as info:
            run_simulation(g, schedules)
        assert str(info.value).startswith("round 0: ")
        assert "left the 64-bit range" in str(info.value)
        records = info.value.trace.records
        assert [r.round for r in records] == [-1, 0]
        assert any(m.y > INT64_MAX for m in records[-1].messages)

    def test_out_of_range_substate_aborts_at_round_minus_one(self):
        # Node 1 holds its first substate from set-up on, before any step.
        g = digraph_from_edges(2, [(0, 1), (1, 0)])
        schedules = [
            SubstateSchedule(y0=0, uy=(0,) * 3, uz=(1, 1, 1)),
            SubstateSchedule(y0=2**63, uy=(2**63,) * 3, uz=(1, 1, 1)),
        ]
        with pytest.raises(SimulationOverflowError) as info:
            run_simulation(g, schedules)
        assert str(info.value) == "round -1: node 1 left the 64-bit range"
        assert [r.round for r in info.value.trace.records] == [-1]

    def test_values_at_the_64_bit_limit_stay_in_range(self):
        # At unit scale this pair's states and transfers reach |y| = 7 and no
        # more.  Sums and the lex order of (z, y) keys commute with a positive
        # scale of y, so scaled by (2^63 - 1) / 7 the same run touches the
        # limit exactly, and must not abort.
        c = INT64_MAX // 7
        g = digraph_from_edges(2, [(0, 1), (1, 0)])
        schedules = [
            SubstateSchedule(y0=-3 * c, uy=(-2 * c, 0, -7 * c), uz=(1, 1, 1)),
            SubstateSchedule(y0=4 * c, uy=(0, 7 * c, 5 * c), uz=(1, 1, 1)),
        ]
        trace, report = run_simulation(g, schedules)
        assert report.quiescent and report.exactness_ok
        states = [abs(node.state_y) for r in trace.records for node in r.nodes]
        transfers = [
            abs(ev.y) for r in trace.records for ev in r.messages.events
            if type(ev) is MassTransfer
        ]
        assert max(states) == max(transfers) == INT64_MAX

    def test_a_state_out_of_range_is_its_node_error_after_a_hand_off(self):
        # Node 1 merges 4 * 2^61 = 2^63 at round 1 and hands all of it on, so
        # only its state and its transfer hold the value out of range.
        g = digraph_from_edges(3, [(1, 0), (0, 1), (2, 1), (1, 2)])
        schedules = [SubstateSchedule(y0=2**61, uy=(2**61,) * 4, uz=(1,) * 4)] * 3
        with pytest.raises(SimulationOverflowError) as info:
            run_simulation(g, schedules)
        assert str(info.value) == "round 1: node 1 left the 64-bit range"
        node = info.value.trace.records[-1].nodes[1]
        assert (node.mass_y, node.mass_z, node.state_y) == (0, 0, 2**63)

    def test_schedule_structure_validated(self, two_node_fixture):
        g, _ = two_node_fixture
        bad = [
            SubstateSchedule(y0=4, uy=(4, 4, 5), uz=(1, 1, 1)),
            SubstateSchedule(y0=6, uy=(6, 6, 6), uz=(1, 1, 1)),
        ]
        with pytest.raises(ValueError):
            run_simulation(g, bad)

    def test_schedule_count_must_match_node_count(self, two_node_fixture):
        g, schedules = two_node_fixture
        with pytest.raises(InvalidScheduleError, match="expected 2 schedules, got 1"):
            run_simulation(g, schedules[:1])

    def test_quiescence_window_must_be_positive(self, two_node_fixture):
        g, schedules = two_node_fixture
        with pytest.raises(ValueError, match="quiescence_window must be >= 1"):
            run_simulation(g, schedules, quiescence_window=0)

    def test_requires_strong_connectivity(self):
        g = digraph_from_edges(2, [(1, 0)])
        schedules = [SubstateSchedule(y0=1, uy=(1, 1, 1), uz=(1, 1, 1))] * 2
        with pytest.raises(ValueError):
            run_simulation(g, schedules)

    def test_monitored_invariants_on_random_trials(self):
        for seed in range(8):
            rng = random.Random(f"inv{seed}")
            n = rng.randint(3, 10)
            g = generate_random_strongly_connected(n, 0.4, rng)
            dmax = max_out_degree(g)
            schedules = [
                decompose_initial_state(rng.randint(-40, 40), dmax, NodeRole.PRIVATE, 100, rng)
                for _ in range(n)
            ]
            trace, report = run_simulation(g, schedules)
            assert report.quiescent and report.exactness_ok
            assert report.exactness_ok and report.bound_ok
            assert report.conservation.ok
            assert report.dominance.ok, report.dominance
            assert report.absorption.ok, report.absorption
            assert report.convergence_round <= report.quiescence_round <= report.bound

    def test_one_substate_schedules_settle_on_their_own_length(self):
        # Each node injects its whole state at once, a schedule that
        # run_simulation refuses; built by hand as the witness search builds
        # its screens, the trace must still settle once every node is past
        # its one substate, exact, conserving and passing the audits that
        # start after the last forced injection.
        trace = _one_substate_trace()
        assert trace.quiescence_round is not None and trace.quiescence_round < 200
        q_num, q_den = engine.exact_average(trace.schedules)
        assert converged_nodes(trace.records[-1].nodes, q_num, q_den) == trace.graph.n
        assert audit_mass_conservation(trace).ok
        assert audit_leading_mass_dominance(trace).ok
        assert audit_absorption(trace).ok

    def test_one_substate_dominance_starts_at_round_zero(self):
        # No substate is left to inject after initialization, so dominance
        # is checked from round 0, below the graph's dmax + 1.
        trace = _one_substate_trace()
        at1 = next(r for r in trace.records if r.round == 1)
        lead = max(engine._nonzero_masses(at1))
        high = (dataclasses.replace(at1.nodes[0], state_z=lead[0] + 1),) + at1.nodes[1:]
        _replace_record(trace, 1, nodes=high)
        verdict = audit_leading_mass_dominance(trace)
        assert not verdict.ok and verdict.first_violation_round == 1


def _one_substate_trace() -> SimTrace:
    """G(20, 0.1) at rng 1:0, every node on a one-substate schedule, run by
    hand through the round loop."""
    rng = random.Random("1:0")
    g = generate_random_strongly_connected(20, 0.1, rng)
    schedules = tuple(
        SubstateSchedule(y0=y0, uy=(y0,), uz=(1,))
        for y0 in (rng.randint(-50, 50) for _ in range(g.n))
    )
    trace = SimTrace(g, schedules, 2000, 5 * g.n)
    for _ in engine.iter_rounds(trace):
        pass
    return trace


def _reproduction_config() -> TrialConfig:
    return TrialConfig(
        seed=100, trials=1, n=20, p=REFERENCE_EDGE_PROBABILITY, states=REFERENCE_STATE_VECTOR
    )


def _recording_step_node(monkeypatch) -> list[tuple[int, int]]:
    """Wrap engine.step_node to record the (round, node id) of every call."""
    steps: list[tuple[int, int]] = []
    original = engine.step_node

    def recorded(node, *args):
        steps.append((args[-1], node.id))
        return original(node, *args)

    monkeypatch.setattr(engine, "step_node", recorded)
    return steps


def _expected_steps(trace, q: int) -> set[tuple[int, int]]:
    """The (round, node id) pairs of rounds 0..q whose node, in the previous
    record, was not settled, was a transfer's dst, or was sent a state copy
    lex-greater than its own state, read off trace.records."""
    dmax = max_out_degree(trace.graph)
    by_round = {r.round: r for r in trace.records}
    expected = set()
    for rnd in range(q + 1):
        prev = by_round[rnd - 1]
        mailed = {
            m.dst
            for m in prev.messages
            if type(m) is MassTransfer
            or (m.z, m.y) > (prev.nodes[m.dst].state_z, prev.nodes[m.dst].state_y)
        }
        for node in prev.nodes:
            if node.id in mailed or node.s <= dmax + 1:
                expected.add((rnd, node.id))
    return expected


def _replace_record(trace, rnd: int, **changes) -> None:
    idx = next(i for i, r in enumerate(trace.records) if r.round == rnd)
    trace.records[idx] = dataclasses.replace(trace.records[idx], **changes)


class TestCertificationTail:
    def test_two_node_steps_stop_at_quiescence(self, two_node_fixture, monkeypatch):
        steps = _recording_step_node(monkeypatch)
        trace, report = run_simulation(*two_node_fixture)
        q = report.quiescence_round
        assert len(steps) == len(set(steps))
        assert set(steps) == _expected_steps(trace, q)
        assert all(rnd <= q for rnd, _ in steps)

    def test_reproduction_trial_steps_stop_at_quiescence(self, monkeypatch):
        steps = _recording_step_node(monkeypatch)
        result = run_single_trial(_reproduction_config(), 0, keep_trace=True)
        q = result.report.quiescence_round
        assert result.ok
        assert len(steps) == len(set(steps))
        assert set(steps) == _expected_steps(result.trace, q)
        assert all(rnd <= q for rnd, _ in steps)
        assert len(steps) < 20 * (q + 1)  # idle nodes are not stepped
        assert result.trace.final_round == q + 5 * 20 - 1

    def test_skipped_nodes_keep_their_state_objects(self):
        result = run_single_trial(_reproduction_config(), 0, keep_trace=True)
        trace = result.trace
        q = result.report.quiescence_round
        stepped = _expected_steps(trace, q)
        idle = TriggersFired(False, False, False)
        skipped = 0
        for prev, record in zip(trace.records, trace.records[1 : q + 2]):
            for j in range(trace.graph.n):
                if (record.round, j) not in stepped:
                    assert record.nodes[j] is prev.nodes[j], (record.round, j)
                    assert record.fired[j] == idle
                    skipped += 1
        assert skipped > 0

    def test_tail_records_share_the_frozen_state(self, two_node_run):
        trace, report = two_node_run
        q = report.quiescence_round
        quiescent = next(r for r in trace.records if r.round == q)
        tail = [r for r in trace.records if r.round > q]
        assert len(tail) == trace.quiescence_window - 1
        idle = TriggersFired(False, False, False)
        for record in tail:
            assert record.nodes is quiescent.nodes
            assert record.messages is _SILENT
            assert record.fired is tail[0].fired
            assert tuple(record.fired) == (idle,) * trace.graph.n

    def test_window_of_one_ends_at_quiescent_round(self, two_node_fixture):
        trace, report = run_simulation(*two_node_fixture, quiescence_window=1)
        assert report.quiescence_round == 6
        assert trace.final_round == 6

    def test_budgeted_nonquiescent_run_keeps_every_round(self, two_node_fixture, monkeypatch):
        steps = _recording_step_node(monkeypatch)
        trace, report = run_simulation(*two_node_fixture, max_rounds=3)
        assert report.quiescence_round is None
        assert [r.round for r in trace.records] == [-1, 0, 1, 2]
        assert sorted(steps) == [(rnd, j) for rnd in range(3) for j in range(2)]

    def test_corrupted_tail_state_is_flagged_at_its_round(self, two_node_run):
        trace, report = two_node_run
        bad_round = report.quiescence_round + 3
        frozen = trace.records[-1].nodes
        off = (dataclasses.replace(frozen[0], mass_y=frozen[0].mass_y + 1),) + frozen[1:]
        _replace_record(trace, bad_round, nodes=off)
        verdict = audit_mass_conservation(trace)
        assert not verdict.ok and verdict.first_violation_round == bad_round

    def test_tail_record_with_a_message_is_evaluated(self, two_node_run):
        trace, report = two_node_run
        bad_round = report.quiescence_round + 3
        stray = MassTransfer(src=0, dst=1, y=1, z=1, round=bad_round)
        _replace_record(trace, bad_round, messages=RoundMessages((stray,)))
        assert trace.records[-1].nodes is next(
            r.nodes for r in trace.records if r.round == bad_round
        )
        verdict = audit_mass_conservation(trace)
        assert not verdict.ok and verdict.first_violation_round == bad_round

    def test_record_below_dominance_start_does_not_vouch(self, two_node_run):
        # dmax = 1, so dominance starts at round 2; round 1 is never checked
        # and must not let round 2 through on the strength of a shared tuple.
        trace, _ = two_node_run
        at2 = next(r for r in trace.records if r.round == 2)
        high = (dataclasses.replace(at2.nodes[0], state_z=100),) + at2.nodes[1:]
        _replace_record(trace, 1, nodes=high, messages=_SILENT)
        _replace_record(trace, 2, nodes=high, messages=_SILENT)
        verdict = audit_leading_mass_dominance(trace)
        assert not verdict.ok and verdict.first_violation_round == 2

    def test_adoption_in_a_tail_record_is_flagged(self, two_node_run):
        trace, report = two_node_run
        bad_round = report.quiescence_round + 3
        adopted = (TriggersFired(False, True, False),) * trace.graph.n
        _replace_record(trace, bad_round, fired=adopted)
        verdict = audit_absorption(trace)
        assert not verdict.ok and verdict.first_violation_round == bad_round

    def test_settle_record_does_not_vouch_for_its_successor(self, two_node_run):
        # The settle round is never checked for adoption, so a record after it
        # sharing its node and fired tuples must still be checked.
        trace, _ = two_node_run
        settle = 4
        assert audit_absorption(trace).detail == f"masses settled at round {settle}"
        at_settle = next(r for r in trace.records if r.round == settle)
        adopted = (TriggersFired(False, True, False),) * trace.graph.n
        for rnd in (settle, settle + 1):
            _replace_record(trace, rnd, nodes=at_settle.nodes, messages=_SILENT, fired=adopted)
        verdict = audit_absorption(trace)
        assert verdict.detail == f"mass adoption fired after settle round {settle}"
        assert not verdict.ok and verdict.first_violation_round == settle + 1

    def test_round_without_any_mass_is_flagged(self, two_node_run):
        trace, _ = two_node_run
        at3 = next(r for r in trace.records if r.round == 3)
        empty = tuple(dataclasses.replace(node, mass_y=0, mass_z=0) for node in at3.nodes)
        _replace_record(trace, 3, nodes=empty, messages=_SILENT)
        verdict = audit_leading_mass_dominance(trace)
        assert verdict == engine.AuditVerdict(False, 3, "no nonzero mass anywhere")

    def test_broadcast_in_a_tail_record_is_flagged(self, two_node_run):
        trace, report = two_node_run
        bad_round = report.quiescence_round + 3
        stray = Broadcast(src=0, dsts=(1,), y=1, z=1, round=bad_round)
        _replace_record(trace, bad_round, messages=RoundMessages((stray,)))
        verdict = audit_absorption(trace)
        assert verdict.detail == "traffic after settle round 4 + n - 1"
        assert not verdict.ok and verdict.first_violation_round == 9

    def test_record_with_a_message_does_not_vouch_for_a_silent_successor(self, two_node_run):
        # Round q + 3 balances a node's lost mass with a transfer in flight;
        # round q + 4 shares its node tuple without the transfer and is off.
        trace, report = two_node_run
        bad_round = report.quiescence_round + 4
        frozen = trace.records[-1].nodes
        off = (dataclasses.replace(frozen[0], mass_y=frozen[0].mass_y - 1),) + frozen[1:]
        stray = MassTransfer(src=0, dst=1, y=1, z=0, round=bad_round - 1)
        _replace_record(trace, bad_round - 1, nodes=off, messages=RoundMessages((stray,)))
        _replace_record(trace, bad_round, nodes=off)
        verdict = audit_mass_conservation(trace)
        assert not verdict.ok and verdict.first_violation_round == bad_round


REPRODUCTION = TrialConfig(
    seed=100, trials=100, n=20, p=REFERENCE_EDGE_PROBABILITY, states=REFERENCE_STATE_VECTOR
)
# Private, curious and neutral nodes in one network.
MIXED_ROLES = TrialConfig(
    seed=5, trials=10, n=30, p=0.15, states_range=(-100, 100),
    private_fraction=0.5, curious_fraction=0.25,
)
# Every node neutral on the initial state 7: every round-0 copy ties its
# addressee's state, and ties stay the most common case after that.
TIED_STATES = TrialConfig(
    seed=5, trials=10, n=30, p=0.15, states_range=(7, 7), private_fraction=0.0
)


def _trial_inputs(cfg: TrialConfig):
    """Each trial's (graph, roles, states, schedules), as a batch draws them."""
    for index in range(cfg.trials):
        yield build_trial_inputs(cfg, index)


def _run_trials(cfg: TrialConfig) -> None:
    for g, _, _, schedules in _trial_inputs(cfg):
        run_simulation(g, schedules)


def _search_pair_witnesses() -> None:
    """Acceptance-07's first ten pair cases, each searched for a delta = +-1
    witness by the coalition of its curious spokes."""
    for index in range(10):
        g, roles, _, schedules = pair_inputs(index)
        trace, _ = run_simulation(g, schedules)
        curious = {j for j, role in enumerate(roles) if role is NodeRole.CURIOUS}
        log = privacy.coalition_observations(trace, curious)
        for delta in (1, -1):
            try:
                privacy.ambiguity_witness(trace, log, g, 0, 1, delta)
            except privacy.WitnessUnavailableError:
                pass


ROUTED_RUNS = {
    "reproduction": functools.partial(_run_trials, REPRODUCTION),
    "mixed_roles": functools.partial(_run_trials, MIXED_ROLES),
    "tied_states": functools.partial(_run_trials, TIED_STATES),
    "pair_case_witness_search": _search_pair_witnesses,
}


def _recording_calls(monkeypatch) -> list[tuple[NodeState, tuple | None, NodeState]]:
    """Wrap engine.step_node to record each call's node, mail and successor."""
    calls = []
    original = engine.step_node

    def recorded(node, schedule, out, mail, rnd):
        successor, emitted, fired = original(node, schedule, out, mail, rnd)
        calls.append((node, None if mail is None else tuple(mail), successor))
        return successor, emitted, fired

    monkeypatch.setattr(engine, "step_node", recorded)
    return calls


class TestRoutingFilter:
    """iter_rounds delivers a broadcast only to the addressees whose state it
    exceeds.  That drops nothing a step would use, because every node the
    engine makes holds a mass of (0, 0) or equal to its state, and it leaves
    no step that changes nothing."""

    @pytest.mark.parametrize(
        "cfg", [REPRODUCTION, MIXED_ROLES, TIED_STATES],
        ids=["reproduction", "mixed_roles", "tied_states"],
    )
    def test_every_recorded_mass_is_zero_or_the_state(self, cfg):
        nodes = 0
        for g, _, _, schedules in _trial_inputs(cfg):
            trace, _ = run_simulation(g, schedules)
            for record in trace.records:
                for node in record.nodes:
                    mass = (node.mass_z, node.mass_y)
                    assert mass in ((0, 0), (node.state_z, node.state_y)), (record.round, node)
                    nodes += 1
        assert nodes > 0

    @pytest.mark.parametrize("run", ROUTED_RUNS.values(), ids=ROUTED_RUNS.keys())
    def test_no_step_hands_back_its_node(self, run, monkeypatch):
        calls = _recording_calls(monkeypatch)
        run()
        assert calls
        for node, mail, successor in calls:
            assert successor != node, (node, mail)

    @pytest.mark.parametrize("run", ROUTED_RUNS.values(), ids=ROUTED_RUNS.keys())
    def test_inbox_broadcasts_rise_above_the_state(self, run, monkeypatch):
        calls = _recording_calls(monkeypatch)
        run()
        with_broadcasts = 0
        for node, mail, _ in calls:
            best = None if mail is None else mail[2]
            assert best is None or best > (node.state_z, node.state_y), (node, mail)
            with_broadcasts += best is not None
        assert with_broadcasts > 0


def assert_final_states_shared(trace: SimTrace, report) -> None:
    """report.final_states is each node's last (state_y, state_z), with one
    tuple object per distinct pair."""
    final_states = report.final_states
    assert final_states == tuple((n.state_y, n.state_z) for n in trace.records[-1].nodes)
    assert len({id(pair) for pair in final_states}) == len(set(final_states))


class TestFinalStates:
    @pytest.mark.parametrize(
        "cfg", [REPRODUCTION, MIXED_ROLES], ids=["reproduction", "mixed_roles"]
    )
    def test_a_converged_trial_keeps_one_pair(self, cfg):
        for g, _, _, schedules in _trial_inputs(cfg):
            trace, report = run_simulation(g, schedules)
            assert_final_states_shared(trace, report)
            assert report.convergence_round is not None and len(set(report.final_states)) == 1

    def test_a_cut_trial_keeps_one_object_per_distinct_pair(self):
        distinct = []
        for g, _, _, schedules in islice(_trial_inputs(REPRODUCTION), 10):
            full, _ = run_simulation(g, schedules)
            trace, report = run_simulation(
                g, schedules, max_rounds=full.quiescence_round // 2
            )
            assert_final_states_shared(trace, report)
            distinct.append(len(set(report.final_states)))
        assert max(distinct) > 1


def reference_iter_rounds(trace):
    """The round loop as it stood before idle nodes were skipped: every node
    is stepped in every active round.  Kept verbatim as the oracle for
    engine.iter_rounds; it calls protocol.step_node directly and its own
    copy of the old overflow check, which scanned every node."""
    g = trace.graph
    dmax = max_out_degree(g)
    nodes: list[NodeState] = []
    init_msgs: list[Message] = []
    for j in range(g.n):
        node, broadcast = init_node(j, trace.schedules[j], g.out_neighbors(j))
        nodes.append(node)
        init_msgs.extend(broadcast)
    idle = TriggersFired(False, False, False)
    record = RoundRecord(-1, tuple(init_msgs), tuple(nodes), tuple(idle for _ in nodes))
    trace.records.append(record)
    reference_check_overflow(record, trace)
    yield record

    # max_rounds budgets the search for quiescence onset; once found, the
    # certification window always runs to completion.
    rnd = 0
    while trace.quiescence_round is None and rnd < trace.max_rounds:
        inboxes: list[list[Message]] = [[] for _ in range(g.n)]
        for msg in record.messages:
            inboxes[msg.dst].append(msg)
        outbox: list[Message] = []
        fired_list: list[TriggersFired] = []
        new_nodes: list[NodeState] = []
        for j in range(g.n):
            node, emitted, fired = step_node(nodes[j], inboxes[j], rnd)
            new_nodes.append(node)
            outbox.extend(emitted)
            fired_list.append(fired)
        nodes = new_nodes
        record = RoundRecord(rnd, tuple(outbox), tuple(nodes), tuple(fired_list))
        trace.records.append(record)
        reference_check_overflow(record, trace)
        if not outbox and all(
            node.s > dmax + 1 and not node.s_br and not node.m_tr for node in nodes
        ):
            trace.quiescence_round = rnd
        yield record
        rnd += 1

    if trace.quiescence_round is not None:
        # Silence is a fixed point of step_node: an empty inbox fires no
        # trigger, uz_at(s) == 0 past the schedule forces no hand-off, and
        # with both flags clear nothing is sent or changed.  The certification
        # tail is therefore emitted without stepping, every record sharing
        # the quiescent record's (already overflow-checked) node tuple.
        frozen = record.nodes
        idle_fired = tuple(idle for _ in frozen)
        quiet = trace.quiescence_round
        for k in range(quiet + 1, quiet + trace.quiescence_window):
            record = RoundRecord(k, (), frozen, idle_fired)
            trace.records.append(record)
            yield record


def reference_check_overflow(record: RoundRecord, trace) -> None:
    for node in record.nodes:
        if (
            abs(node.mass_y) > INT64_MAX
            or node.mass_z > INT64_MAX
            or abs(node.state_y) > INT64_MAX
            or node.state_z > INT64_MAX
        ):
            raise SimulationOverflowError(
                f"round {record.round}: node {node.id} left the 64-bit range", trace
            )
    for msg in record.messages:
        if abs(msg.y) > INT64_MAX or msg.z > INT64_MAX:
            raise SimulationOverflowError(
                f"round {record.round}: message from node {msg.src} to node {msg.dst} "
                "left the 64-bit range",
                trace,
            )


def _drive(loop, g, schedules, max_rounds=None, quiescence_window=None):
    """Run one round loop on a fresh trace; returns the trace and the overflow
    message, if the run aborted."""
    schedules = tuple(schedules)
    if max_rounds is None:
        max_rounds = theoretical_bound(g.n, g.m, max_out_degree(g))
    trace = SimTrace(g, schedules, max_rounds, quiescence_window or 5 * g.n)
    try:
        for _ in loop(trace):
            pass
    except SimulationOverflowError as err:
        return trace, str(err)
    return trace, None


def assert_loops_agree(g, schedules, **limits):
    """engine.iter_rounds and the all-nodes reference give the same records,
    quiescence round and overflow message, and the conservation and
    dominance audits agree with their references on those records; returns
    the engine's trace."""
    got, got_err = _drive(engine.iter_rounds, g, schedules, **limits)
    want, want_err = _drive(reference_iter_rounds, g, schedules, **limits)
    assert got_err == want_err
    assert got.quiescence_round == want.quiescence_round
    assert len(got.records) == len(want.records)
    last = None
    for a, b in zip(got.records, want.records):
        assert (a.round, tuple(a.messages), tuple(a.fired)) == (b.round, b.messages, b.fired)
        # a repeat of the last compared tuple pair needs no second comparison
        if last != (id(a.nodes), id(b.nodes)):
            assert a.nodes == tuple(map(project, b.nodes)), a.round
            last = (id(a.nodes), id(b.nodes))
    assert_audits_agree(got)
    assert engine.round_rows(got) == reference_round_rows(got)
    return got, got_err


def reference_round_rows(trace: SimTrace) -> tuple[SeriesRow, ...]:
    """engine.round_rows as it stood before silent rows were shared, kept
    verbatim as its oracle; only the name differs."""
    q_num, q_den = exact_average(trace.schedules)
    rows = []
    last_nodes = None
    converged = 0
    for record in trace.records:
        copies = transfers = 0
        broadcasters: set[int] = set()
        senders: set[int] = set()
        for msg in record.messages:
            senders.add(msg.src)
            if isinstance(msg, MassTransfer):
                transfers += 1
            else:
                copies += 1
                broadcasters.add(msg.src)
        if record.nodes is not last_nodes:
            last_nodes = record.nodes
            converged = converged_nodes(last_nodes, q_num, q_den)
        rows.append(
            _build_row(
                record.round, len(broadcasters), copies, transfers, len(senders), converged
            )
        )
    return tuple(rows)


class TestEventLoopMatchesReference:
    def test_reproduction_seeds(self):
        cfg = TrialConfig(
            seed=100, trials=100, n=20, p=REFERENCE_EDGE_PROBABILITY,
            states=REFERENCE_STATE_VECTOR,
        )
        for index in range(cfg.trials):
            g, _, _, schedules = build_trial_inputs(cfg, index)
            trace, _ = assert_loops_agree(g, schedules)
            assert trace.quiescence_round is not None
            if index < 10:
                q = trace.quiescence_round
                for budget in (0, 1, q // 2):
                    cut, _ = assert_loops_agree(g, schedules, max_rounds=budget)
                    assert cut.final_round == budget - 1 and cut.quiescence_round is None
                once, _ = assert_loops_agree(g, schedules, quiescence_window=1)
                assert once.final_round == q

    def test_scale_trial(self):
        cfg = TrialConfig(seed=1, trials=1, n=200, p=0.04, states_range=(-100, 100))
        g, _, _, schedules = build_trial_inputs(cfg, 0)
        trace, _ = assert_loops_agree(g, schedules)
        assert trace.quiescence_round is not None

    @pytest.mark.parametrize("cfg", [MIXED_ROLES, TIED_STATES], ids=["mixed_roles", "tied_states"])
    def test_filtered_routing_cases(self, cfg):
        for g, _, _, schedules in _trial_inputs(cfg):
            trace, _ = assert_loops_agree(g, schedules)
            assert trace.quiescence_round is not None

    def test_acceptance_07_pair_cases(self):
        for index in range(100):
            g, _, _, schedules = pair_inputs(index)
            assert_loops_agree(g, schedules)

    def test_overflow_aborts_identically(self):
        # the random cases overflow a node's held mass, some after every
        # node settled, where only the stepped nodes are checked
        inputs = _overflow_inputs()
        _, err = assert_loops_agree(*next(inputs))
        assert err.startswith("round 0: message")
        kinds = set()
        for g, schedules in inputs:
            trace, err = assert_loops_agree(g, schedules)
            if err is not None:
                late = trace.final_round > max_out_degree(g) + 1
                kinds.add((err.split(": ")[1].startswith("node"), late))
        assert (True, True) in kinds

    def test_out_of_range_broadcast_is_reported_as_a_node(self):
        # A broadcast carries its sender's state after the step, so in a
        # round whose broadcast leaves the range the sender's node check
        # raises first, and no broadcast payload is ever named.
        wide_rounds = 0
        for g, schedules in _overflow_inputs():
            try:
                run_simulation(g, schedules)
            except SimulationOverflowError as err:
                record = err.trace.records[-1]
                wide = [
                    ev for ev in record.messages.events
                    if type(ev) is Broadcast and (abs(ev.y) > INT64_MAX or ev.z > INT64_MAX)
                ]
                if not wide:
                    continue
                wide_rounds += 1
                for ev in wide:
                    sender = record.nodes[ev.src]
                    assert (sender.state_y, sender.state_z) == (ev.y, ev.z)
                assert str(err).startswith(f"round {record.round}: node ")
                assert str(err).endswith(" left the 64-bit range")
        assert wide_rounds > 0


def _overflow_inputs():
    """A pair whose round-0 hand-offs carry 2^63, then 40 random graphs on
    values near 2^57, some of which overflow."""
    pair = digraph_from_edges(2, [(0, 1), (1, 0)])
    yield pair, [SubstateSchedule(y0=2**62, uy=(2**62,) * 3, uz=(1, 1, 1))] * 2
    for seed in range(40):
        rng = random.Random(seed)
        n = rng.randint(3, 8)
        g = generate_random_strongly_connected(n, 0.4, rng)
        k = max_out_degree(g) + 2
        values = [rng.randint(2**56, 2**58) for _ in range(n)]
        yield g, [SubstateSchedule(y0=v, uy=(v,) * k, uz=(1,) * k) for v in values]


def assert_copies_read_like_the_log(trace, rows):
    """For every record of trace: the round,kind,src,dst,y,z lines built by
    iterating its messages are its lines of message_log_lines, the copies
    number its row's broadcast_copies + mass_transfers, and every event is
    a Broadcast or a MassTransfer."""
    for record, row in zip(trace.records, rows, strict=True):
        lines = [
            f"{m.round},{'mass' if type(m) is MassTransfer else 'state'},{m.src},{m.dst},{m.y},{m.z}"
            for m in record.messages
        ]
        assert lines == message_log_lines(dataclasses.replace(trace, records=[record]))[1:]
        assert len(lines) == row.broadcast_copies + row.mass_transfers
        assert all(type(ev) in (Broadcast, MassTransfer) for ev in record.messages.events)


def _resumed_replays(index: int) -> list[SimTrace]:
    """The records of pair case `index`'s replays with one substate of node
    0 shifted, each resumed from the base replay's record of the round
    before that substate is read, as traces of their schedules."""
    g, _, _, schedules = pair_inputs(index)
    base_trace, _ = run_simulation(g, schedules)
    log = privacy.coalition_observations(base_trace, range(2, g.n))
    sight = privacy._Sight.of(log)

    def trace_of(alt):
        return SimTrace(g, tuple(alt), base_trace.max_rounds, base_trace.quiescence_window)

    base = privacy._Replay(trace_of(schedules), sight)
    assert base.finish() == "pass"
    traces = []
    for i, alt in privacy._shifted(schedules[0], 1):
        if i == 0:  # substate 0 is read at set-up, before round -1
            continue
        alt_trace = trace_of([alt] + schedules[1:])
        replay = privacy._Replay(alt_trace, sight, base, i - 1)
        replay.finish()
        traces.append(dataclasses.replace(alt_trace, records=replay.records))
    return traces


def _overflow_traces() -> list[SimTrace]:
    """The partial traces that the overflow aborts of _overflow_inputs carry."""
    traces = []
    for g, schedules in _overflow_inputs():
        try:
            run_simulation(g, schedules)
        except SimulationOverflowError as err:
            traces.append(err.trace)
    return traces


class TestRoundMessages:
    """A record stores one event per broadcast and shows one copy per addressee."""

    def test_reproduction_seeds_store_one_event_per_broadcast(self):
        cfg = TrialConfig(
            seed=100, trials=100, n=20, p=REFERENCE_EDGE_PROBABILITY,
            states=REFERENCE_STATE_VECTOR,
        )
        broadcasts = 0
        for index in range(cfg.trials):
            g, _, _, schedules = build_trial_inputs(cfg, index)
            trace, report = run_simulation(g, schedules)
            assert_copies_read_like_the_log(trace, report.rows)
            for record in trace.records:
                events = record.messages.events
                for ev in events:
                    if type(ev) is Broadcast:
                        assert ev.dsts is g.out_order[ev.src]
                        broadcasts += 1
                assert (record.messages is _SILENT) == (not events)
        assert broadcasts > 0
        # Records that did not come from one fresh run keep the same contract.
        replays, aborted = _resumed_replays(0), _overflow_traces()
        assert sum(len(trace.records) for trace in replays) > len(replays) and len(aborted) > 1
        for trace in replays + aborted:
            assert_copies_read_like_the_log(trace, engine.round_rows(trace))

    def test_a_sequence_of_copies(self):
        events = (
            MassTransfer(2, 0, 5, 2, 3),
            Broadcast(2, (1, 0, 3), 7, 2, 3),
            Broadcast(0, (2,), -1, 1, 3),
        )
        copies = (
            MassTransfer(2, 0, 5, 2, 3),
            StateBroadcast(2, 1, 7, 2, 3),
            StateBroadcast(2, 0, 7, 2, 3),
            StateBroadcast(2, 3, 7, 2, 3),
            StateBroadcast(0, 2, -1, 1, 3),
        )
        messages = RoundMessages(events)
        assert tuple(messages) == copies
        back = pickle.loads(pickle.dumps(messages))
        assert type(back) is RoundMessages and back.events == events and tuple(back) == copies
        assert back == messages and hash(back) == hash(messages)  # by events
        assert messages and not RoundMessages() and RoundMessages() == _SILENT
        with pytest.raises(AttributeError):
            messages.events = ()


class TestFiredRow:
    """A record stores one byte per node for its trigger outcomes and reads
    back the shared TriggersFired objects."""

    def test_reads_like_the_tuple_of_its_outcomes(self):
        trace = run_single_trial(_reproduction_config(), 0, keep_trace=True).trace
        row = max((record.fired for record in trace.records), key=lambda r: len(set(r)))
        plain = tuple(row)
        n = trace.graph.n
        assert type(row) is FiredRow and len(row) == len(plain) == n and len(set(plain)) > 2
        for j in range(-n, n):
            assert row[j] is next(o for o in _OUTCOMES if o == plain[j])
        with pytest.raises(IndexError):
            row[n]
        assert all(outcome is row[j] for j, outcome in enumerate(row))
        assert row != plain[:-1] and row != list(plain) and row != FiredRow(row.codes[1:])
        other = next(o for o in _OUTCOMES if o is not plain[0])
        assert row != (other,) + plain[1:]
        with pytest.raises(TypeError):
            row[0] = _OUTCOMES[0]
        with pytest.raises(AttributeError):
            row.codes = bytes(n)
        back = pickle.loads(pickle.dumps(row))
        assert type(back) is FiredRow and back == row and hash(back) == hash(row)

    def test_round_minus_one_and_the_tail_share_one_idle_row(self):
        trace = run_single_trial(_reproduction_config(), 0, keep_trace=True).trace
        first, last = trace.records[0], trace.records[-1]
        assert first.fired is last.fired and tuple(first.fired) == (_OUTCOMES[0],) * trace.graph.n
        back = pickle.loads(pickle.dumps(trace.records))  # memoized: still one row
        assert back == trace.records and back[0].fired is back[-1].fired

    def test_a_row_takes_about_a_byte_per_node(self):
        # The largest trial of the n = 200 benchmark batch at seed 1.
        cfg = parse_config(
            "seed = 1\ntrials = 9\nn = 200\np = 0.04\nprivate_fraction = 1.0\n"
            "states_range = -100,100\n"
        )
        trace = run_single_trial(cfg, 4, keep_trace=True).trace
        rows = {id(record.fired): record.fired for record in trace.records}.values()
        assert trace.quiescence_round > 300 and len(rows) > 300
        for row in rows:  # a tuple of n outcomes would take 8n + 40 bytes
            assert sys.getsizeof(row) + sys.getsizeof(row.codes) <= cfg.n + 100


def test_resumed_run_equals_fresh_run_record_for_record():
    # A run whose one shifted substate i is first read at round i - 1 is the
    # base run through round i - 2; resumed from the base run's record of that
    # round, it must give the fresh run's records, the shared prefix included.
    cases = 0
    for index in range(20):
        g, _, _, schedules = pair_inputs(index)
        base, _ = run_simulation(g, schedules)
        for node, sched in enumerate(schedules):
            for i, alt in privacy._shifted(sched, 1):
                if i == 0:  # substate 0 is read at set-up, before round -1
                    continue
                alt_schedules = list(schedules)
                alt_schedules[node] = alt
                fresh, _ = run_simulation(g, alt_schedules)
                trace = SimTrace(g, fresh.schedules, fresh.max_rounds, fresh.quiescence_window)
                resumed = base.records[:i] + list(engine.iter_rounds(trace, base.records[i - 1]))
                assert resumed == fresh.records, (index, node, i)
                assert trace.quiescence_round == fresh.quiescence_round
                cases += 1
    assert cases == 157


# The conservation and dominance audits as whole-record checks, kept
# verbatim as their oracle: conservation keeps running sums over the nodes
# that changed, and dominance must give these verdicts (round and detail text included)
# however it is computed.  Only the names differ.


def reference_audit_mass_conservation(trace: SimTrace, schedules) -> AuditVerdict:
    """Check the global bookkeeping identity at every recorded round.

    Held mass + in-flight mass + not-yet-injected substates must equal
    (dmax + 2) * sum(y0) on the y side and (dmax + 2) * n on the z side.
    """
    schedules = tuple(schedules)
    dmax = schedules[0].dmax
    expect_y = (dmax + 2) * sum(s.y0 for s in schedules)
    expect_z = (dmax + 2) * len(schedules)
    for record in _evaluated(trace):
        held_y = sum(node.mass_y for node in record.nodes)
        held_z = sum(node.mass_z for node in record.nodes)
        fly_y = sum(m.y for m in record.messages if isinstance(m, MassTransfer))
        fly_z = sum(m.z for m in record.messages if isinstance(m, MassTransfer))
        pool_y = sum(sum(schedules[node.id].uy[node.s:dmax + 2]) for node in record.nodes)
        pool_z = sum(sum(schedules[node.id].uz[node.s:dmax + 2]) for node in record.nodes)
        got_y = held_y + fly_y + pool_y
        got_z = held_z + fly_z + pool_z
        if got_y != expect_y or got_z != expect_z:
            return AuditVerdict(
                ok=False,
                first_violation_round=record.round,
                detail=(
                    f"round {record.round}: y {got_y} != {expect_y} or "
                    f"z {got_z} != {expect_z}"
                ),
            )
    return AuditVerdict(ok=True, detail=f"totals ({expect_y}, {expect_z}) at every round")


def reference_nonzero_masses(record: RoundRecord) -> list[tuple[int, int]]:
    masses = [
        (node.mass_z, node.mass_y) for node in record.nodes if node.mass_z > 0
    ]
    masses.extend(
        (m.z, m.y) for m in record.messages if isinstance(m, MassTransfer)
    )
    return masses


def reference_audit_leading_mass_dominance(trace: SimTrace, dmax: int) -> AuditVerdict:
    """From the round after the last forced injection, no state may exceed
    the lex-max of all held and in-flight masses."""
    for record in _evaluated(trace, dmax + 1):
        masses = reference_nonzero_masses(record)
        if not masses:
            return AuditVerdict(False, record.round, "no nonzero mass anywhere")
        lead = max(masses)
        for node in record.nodes:
            if (node.state_z, node.state_y) > lead:
                return AuditVerdict(
                    False,
                    record.round,
                    f"node {node.id} state {(node.state_z, node.state_y)} exceeds leading {lead}",
                )
    return AuditVerdict(ok=True)


def _outcome(fn, *args):
    """fn's result, or the type and text of what it raised."""
    try:
        return fn(*args)
    except Exception as err:  # a corrupt trace may break either side
        return type(err), str(err)


def assert_audits_agree(trace):
    """The conservation and dominance audits give the reference verdicts
    (ok, round and detail) on trace."""
    dmax = max_out_degree(trace.graph)
    for audit, reference, args in (
        (audit_mass_conservation, reference_audit_mass_conservation, (trace.schedules,)),
        (audit_leading_mass_dominance, reference_audit_leading_mass_dominance, (dmax,)),
    ):
        assert _outcome(audit, trace) == _outcome(reference, trace, *args), audit.__name__


@functools.cache
def _engine_traces() -> tuple[SimTrace, SimTrace]:
    """The hand-traced pair's trace and the reproduction config's trial 0;
    callers copy before they change anything."""
    g = digraph_from_edges(2, [(0, 1), (1, 0)])
    pair = (
        SubstateSchedule(y0=4, uy=(4, 4, 4), uz=(1, 1, 1)),
        SubstateSchedule(y0=6, uy=(6, 6, 6), uz=(1, 1, 1)),
    )
    twenty = run_single_trial(_reproduction_config(), 0, keep_trace=True).trace
    return run_simulation(g, pair)[0], twenty


NODE_FIELDS = ("mass_y", "mass_z", "state_y", "state_z", "s", "id")
MESSAGE_FIELDS = ("y", "z", "src", "dst", "round")


@st.composite
def corruptions(draw, trace):
    """A copy of trace with one field of one node, event or fired entry
    changed, or one node dropped, in one record, tail records included; a
    broadcast's dst field is each member of its dsts."""
    records = list(trace.records)
    idx = draw(st.integers(0, len(records) - 1))
    record = records[idx]
    kinds = ["node", "fired", "drop"] + (["message"] if record.messages else [])
    kind = draw(st.sampled_from(kinds))
    delta = draw(st.integers(-40, 40).filter(bool))
    if kind == "message":
        events = list(record.messages.events)
        pos = draw(st.integers(0, len(events) - 1))
        field = draw(st.sampled_from(MESSAGE_FIELDS))
        ev = events[pos]
        if field == "dst" and type(ev) is Broadcast:
            changed = {"dsts": tuple(dst + delta for dst in ev.dsts)}
        else:
            changed = {field: getattr(ev, field) + delta}
        events[pos] = dataclasses.replace(ev, **changed)
        records[idx] = dataclasses.replace(record, messages=RoundMessages(tuple(events)))
    elif kind == "fired":
        pos = draw(st.integers(0, len(record.fired) - 1))
        fired = list(record.fired)
        fired[pos] = TriggersFired(*draw(st.tuples(st.booleans(), st.booleans(), st.booleans())))
        records[idx] = dataclasses.replace(record, fired=tuple(fired))
    else:
        pos = draw(st.integers(0, len(record.nodes) - 1))
        nodes = list(record.nodes)
        if kind == "drop":
            del nodes[pos]
        else:
            field = draw(st.sampled_from(NODE_FIELDS))
            node = nodes[pos]
            nodes[pos] = dataclasses.replace(node, **{field: getattr(node, field) + delta})
        records[idx] = dataclasses.replace(record, nodes=tuple(nodes))
    return dataclasses.replace(trace, records=records)


@st.composite
def small_traces(draw):
    """Short traces of 2 to 4 nodes on small values, not produced by the
    engine: each record keeps the previous node tuple, keeps some node
    objects, or drops or adds a node, so that maxima drop, leads fall,
    masses merge and the node count changes, which one corrupt field of
    an engine trace seldom does."""
    n = draw(st.integers(2, 4))
    g = digraph_from_edges(n, [(j, (j + 1) % n) for j in range(n)])  # dmax = 1
    k = max_out_degree(g) + 2
    schedules = tuple(SubstateSchedule(y0=1, uy=(1,) * k, uz=(1,) * k) for _ in range(n))
    small = st.integers(-1, 2)

    def fresh(j):
        return NodeState(
            j % n, draw(small), draw(small), draw(small), draw(small),
            draw(st.integers(0, k + 1)), 0,
        )

    def event(rnd):
        kind = draw(st.sampled_from((MassTransfer, Broadcast)))
        src, dst = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        return kind(src, dst if kind is MassTransfer else (dst,), draw(small), draw(small), rnd)

    nodes = tuple(fresh(j) for j in range(n))
    fired = tuple(TriggersFired(False, False, False) for _ in nodes)
    records = []
    for rnd in range(-1, draw(st.integers(4, 12))):
        step = draw(st.sampled_from(("keep", "one", "one", "some", "drop", "add")))
        if step == "one":
            j = draw(st.integers(0, len(nodes) - 1))
            nodes = nodes[:j] + (fresh(j),) + nodes[j + 1 :]
        elif step == "some":
            nodes = tuple(fresh(j) if draw(st.booleans()) else node for j, node in enumerate(nodes))
        elif step == "drop" and len(nodes) > 1:
            nodes = nodes[:-1]
        elif step == "add":
            nodes = nodes + (fresh(len(nodes)),)
        if len(fired) != len(nodes) or draw(st.booleans()):
            fired = tuple(
                TriggersFired(*draw(st.tuples(st.booleans(), st.booleans(), st.booleans())))
                for _ in nodes
            )
        events = tuple(event(rnd) for _ in range(draw(st.sampled_from((0, 0, 1, 2)))))
        records.append(RoundRecord(rnd, RoundMessages(events), nodes, fired))
    return SimTrace(g, schedules, 100, 5, records)


class TestAuditsMatchReference:
    """The conservation audit updates its sums only for the nodes whose
    object changed; on any trace it, and the dominance audit, must give the
    verdicts of the whole-record versions kept above."""

    def test_engine_traces(self):
        for trace in _engine_traces():
            assert_audits_agree(trace)

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_one_corrupt_field(self, data):
        trace = data.draw(st.sampled_from(_engine_traces()))
        assert_audits_agree(data.draw(corruptions(trace)))

    @settings(max_examples=300, deadline=None)
    @given(small_traces())
    def test_small_random_traces(self, trace):
        assert_audits_agree(trace)

    def test_a_maximum_taken_over_and_dropped_is_rescanned(self):
        # Node 1 takes the lead state (first trace) or the lead held mass
        # (second) from node 0 and drops it a round later, while node 0
        # keeps its own; the dominance audit must find node 0's value again.
        g = digraph_from_edges(3, [(0, 1), (1, 2), (2, 0)])  # dmax = 1
        sched = SubstateSchedule(y0=1, uy=(1, 1, 1), uz=(1, 1, 1))
        idle = (TriggersFired(False, False, False),) * 3

        def trace_of(*rounds):
            """Rounds 2, 3, ... of one ((mass z, y), (state z, y)) pair per
            node; a node equal to the one before keeps its object, as in
            the engine."""
            records, prev = [], None
            for rnd, pairs in enumerate(rounds, start=2):
                nodes = tuple(
                    NodeState(j, my, mz, sy, sz, 3, 0)
                    for j, ((mz, my), (sz, sy)) in enumerate(pairs)
                )
                if prev is not None:
                    nodes = tuple(old if old == new else new for old, new in zip(prev, nodes))
                records.append(RoundRecord(rnd, _SILENT, nodes, idle))
                prev = nodes
            return SimTrace(g, (sched,) * 3, 100, 5, records)

        none, low = (0, 0), (1, 0)
        state_lead = trace_of(
            (((3, 0), (1, 1)), (none, low), (none, low)),
            (((3, 0), (1, 1)), (none, (2, 5)), (none, low)),
            (((2, 0), (1, 1)), (none, low), (none, low)),
        )
        mass_lead = trace_of(
            (((2, 0), low), (none, low), (none, low)),
            (((2, 0), low), ((5, 0), low), (none, low)),
            (((2, 0), low), (none, low), (none, (3, 0))),
        )
        for trace, violation in ((state_lead, None), (mass_lead, 4)):
            assert audit_leading_mass_dominance(trace).first_violation_round == violation
            assert_audits_agree(trace)
