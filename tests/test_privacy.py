import random

import pytest

from privavg import privacy
from privavg.cli import WITNESS_DELTAS
from privavg.engine import SimTrace, SimulationOverflowError, run_simulation
from privavg.experiments import build_trial_inputs, parse_config, trial_seed_token
from privavg.graph import (
    assign_edge_order,
    digraph_from_edges,
    generate_random_strongly_connected,
    max_out_degree,
)
from privavg.privacy import (
    AmbiguityWitness,
    NotFullySurroundedError,
    ObservationLog,
    PrivacyClass,
    WitnessUnavailableError,
    ambiguity_witness,
    classify_privacy,
    coalition_observations,
    reconstruct_fully_surrounded,
)
from privavg.protocol import MassTransfer
from privavg.schedule import (
    NodeRole,
    SubstateSchedule,
    decompose_initial_state,
    validate_schedule,
)

P, C, N = NodeRole.PRIVATE, NodeRole.CURIOUS, NodeRole.NEUTRAL


def cycle3():
    return digraph_from_edges(3, [(1, 0), (2, 1), (0, 2)])


def star(leaves):
    n = leaves + 1
    edges = [(leaf, 0) for leaf in range(1, n)] + [(0, leaf) for leaf in range(1, n)]
    return digraph_from_edges(n, edges)


def hub_pair(spokes):
    """Private pair 0 <-> 1 where 1 talks only to 0; curious spokes 2..k <-> 0."""
    n = 2 + spokes
    edges = [(1, 0), (0, 1)]
    for x in range(2, n):
        edges += [(x, 0), (0, x)]
    return digraph_from_edges(n, edges)


def run_trial(g, roles, states, seed):
    rng = random.Random(seed)
    g = assign_edge_order(g, rng)
    dmax = max_out_degree(g)
    schedules = [
        decompose_initial_state(states[j], dmax, roles[j], 100, rng)
        for j in range(g.n)
    ]
    trace, report = run_simulation(g, schedules)
    assert report.quiescent and report.exactness_ok and report.conservation.ok
    return g, trace, report


class TestClassifyPrivacy:
    def test_two_private_neighbors_preserve_each_other(self):
        verdicts = classify_privacy(cycle3(), [P, P, C])
        assert [v.classification for v in verdicts] == [PrivacyClass.PRESERVED] * 2

    def test_isolated_private_node_is_breached(self):
        (verdict,) = classify_privacy(cycle3(), [P, C, C])
        assert verdict.classification is PrivacyClass.BREACHED
        assert verdict.justification == "all-neighbors-curious"

    def test_neutral_neighbor_does_not_help(self):
        (verdict,) = classify_privacy(cycle3(), [P, N, C])
        assert verdict.classification is PrivacyClass.BREACHED
        assert verdict.justification == "no-private-neighbor"

    def test_verdicts_only_for_private_nodes(self):
        assert classify_privacy(cycle3(), [N, C, C]) == []

    def test_role_list_length_checked(self):
        with pytest.raises(ValueError):
            classify_privacy(cycle3(), [P, C])


class TestCoalitionObservations:
    def test_empty_coalition_sees_nothing(self, two_node_run):
        trace, _ = two_node_run
        log = coalition_observations(trace, set())
        assert log.messages == () and log.internal == ()

    def test_full_coalition_sees_every_message(self, two_node_run):
        trace, _ = two_node_run
        log = coalition_observations(trace, {0, 1})
        total = sum(len(r.messages) for r in trace.records)
        assert len(log.messages) == total

    def test_single_member_sees_only_incident_traffic(self):
        g, trace, _ = run_trial(cycle3(), [P, P, C], [4, 7, -3], seed=5)
        log = coalition_observations(trace, {2})
        assert log.messages  # node 2 participates
        assert all(src == 2 or dst == 2 for _, _, src, dst, _, _ in log.messages)
        assert all(ev[1] == 2 for ev in log.internal)

    def test_digest_is_stable(self, two_node_run):
        trace, _ = two_node_run
        a = coalition_observations(trace, {0})
        b = coalition_observations(trace, {0})
        assert a == b and a.digest() == b.digest()


class TestReconstruction:
    def test_two_node_target_recovered_exactly(self):
        g = digraph_from_edges(2, [(0, 1), (1, 0)])
        g, trace, _ = run_trial(g, [P, C], [4, 9], seed=3)
        log = coalition_observations(trace, {1})
        assert reconstruct_fully_surrounded(log, g, 0) == 4

    def test_star_center_recovered_for_many_seeds(self):
        g = star(4)
        roles = [P] + [C] * 4
        for seed in range(20):
            rng = random.Random(f"star{seed}")
            states = [rng.randint(-100, 100) for _ in range(5)]
            g2, trace, _ = run_trial(star(4), roles, states, seed=f"star{seed}")
            log = coalition_observations(trace, {1, 2, 3, 4})
            got = reconstruct_fully_surrounded(log, g2, 0)
            assert got == states[0]

    def test_non_coalition_neighbor_refused(self):
        g, trace, _ = run_trial(cycle3(), [P, P, C], [4, 7, -3], seed=5)
        log = coalition_observations(trace, {2})
        with pytest.raises(NotFullySurroundedError):
            reconstruct_fully_surrounded(log, g, 0)

    def test_target_inside_coalition_refused(self):
        g, trace, _ = run_trial(cycle3(), [C, C, C], [4, 7, -3], seed=6)
        log = coalition_observations(trace, {0, 1, 2})
        with pytest.raises(NotFullySurroundedError):
            reconstruct_fully_surrounded(log, g, 0)


class TestAmbiguityWitness:
    def test_zero_delta_rejected(self):
        g, trace, _ = run_trial(hub_pair(1), [P, P, C], [4, 7, -3], seed=1)
        log = coalition_observations(trace, {2})
        with pytest.raises(ValueError, match="delta must be a nonzero integer"):
            ambiguity_witness(trace, log, g, 0, 1, 0)

    def test_witness_on_hub_pair(self):
        states = [4, 7, -3]
        g, trace, _ = run_trial(hub_pair(1), [P, P, C], states, seed=2)
        log = coalition_observations(trace, {2})
        w = ambiguity_witness(trace, log, g, 0, 1, 1)
        assert w.alt_target_schedule.y0 == states[0] + 1
        assert w.alt_helper_schedule.y0 == states[1] - 1
        dmax = max_out_degree(g)
        assert validate_schedule(w.alt_target_schedule, dmax, P) == []
        assert validate_schedule(w.alt_helper_schedule, dmax, P) == []
        assert w.log_digest == log.digest()

    def test_witness_replays_to_identical_log_and_same_average(self):
        states = [4, 7, -3]
        g, trace, report = run_trial(hub_pair(1), [P, P, C], states, seed=2)
        log = coalition_observations(trace, {2})
        w = None
        for delta in (2, -2, 3, -3):
            try:
                w = ambiguity_witness(trace, log, g, 0, 1, delta)
                break
            except WitnessUnavailableError:
                continue
        assert w is not None
        alt = list(trace.schedules)
        alt[0] = w.alt_target_schedule
        alt[1] = w.alt_helper_schedule
        alt_trace, alt_report = run_simulation(
            g, alt, trace.max_rounds, trace.quiescence_window
        )
        assert coalition_observations(alt_trace, {2}) == log
        assert (alt_report.q_num, alt_report.q_den) == (report.q_num, report.q_den)
        assert alt_report.exactness_ok and alt_report.conservation.ok

    def test_six_deltas_span_a_wide_consistent_set(self):
        states = [10, -6, 3, 8]
        g, trace, _ = run_trial(hub_pair(2), [P, P, C, C], states, seed=9)
        log = coalition_observations(trace, {2, 3})
        recovered = {states[0]}
        for delta in (1, -1, 2, -2, 3, -3):
            try:
                w = ambiguity_witness(trace, log, g, 0, 1, delta)
            except WitnessUnavailableError:
                continue
            recovered.add(w.alt_target_schedule.y0)
        # the coalition cannot pin the target below a six-wide candidate set
        assert len(recovered) >= 6

    def test_relay_cycle_pins_the_exchange(self):
        # On a directed 3-cycle every value the pair exchanges is relayed
        # through the lone curious node by state adoptions, so no alternative
        # ground truth can reproduce its log; the search must say so.
        g, trace, _ = run_trial(cycle3(), [P, P, C], [4, 7, -3], seed=11)
        log = coalition_observations(trace, {2})
        with pytest.raises(WitnessUnavailableError):
            ambiguity_witness(trace, log, g, 0, 1, 1)

    def test_helper_must_be_adjacent_private_non_coalition(self):
        g, trace, _ = run_trial(hub_pair(2), [P, P, C, C], [4, 7, -3, 5], seed=4)
        log = coalition_observations(trace, {2, 3})
        with pytest.raises(ValueError, match="outside the coalition"):
            ambiguity_witness(trace, log, g, 0, 2, 1)  # helper in the coalition
        with pytest.raises(ValueError, match="outside the coalition"):
            ambiguity_witness(trace, log, g, 2, 1, 1)  # target in the coalition
        # On the directed 4-cycle 0 -> 1 -> 2 -> 3 -> 0, private node 2 lies
        # outside the coalition {1, 3} but is no neighbor of target 0.
        cycle4 = digraph_from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        g, trace, _ = run_trial(cycle4, [P, C, P, C], [4, 7, -3, 5], seed=4)
        log = coalition_observations(trace, {1, 3})
        with pytest.raises(ValueError, match="helper 2 is not an in- or out-neighbor of target 0"):
            ambiguity_witness(trace, log, g, 0, 2, 1)

    def test_neutral_helper_refused(self):
        g, trace, _ = run_trial(hub_pair(1), [P, N, C], [4, 7, -3], seed=2)
        log = coalition_observations(trace, {2})
        with pytest.raises(ValueError, match="helper schedule is not a private decomposition"):
            ambiguity_witness(trace, log, g, 0, 1, 1)

    def test_no_mass_transfer_between_the_pair(self):
        g, trace, _ = run_trial(hub_pair(1), [P, P, C], [4, 7, -3], seed=2)
        # A run cut at round -1 carries only the initial state broadcasts.
        cut, _ = run_simulation(g, trace.schedules, max_rounds=0)
        log = coalition_observations(cut, {2})
        with pytest.raises(WitnessUnavailableError, match="no mass transfer between"):
            ambiguity_witness(cut, log, g, 0, 1, 1)


# ---------------------------------------------------------------------------
# Oracle: the witness search before candidates were screened round by round
# ---------------------------------------------------------------------------


def reference_witness(
    trace: SimTrace,
    log: ObservationLog,
    g,
    target: int,
    helper: int,
    delta: int,
) -> AmbiguityWitness:
    """The search that simulates every candidate placement in full, kept
    verbatim as the oracle of the screened search."""
    if delta == 0:
        raise ValueError("delta must be a nonzero integer")
    if target in log.coalition or helper in log.coalition:
        raise ValueError("target and helper must lie outside the coalition")
    adjacency = set(g.in_neighbors(target)) | set(g.out_neighbors(target))
    if helper not in adjacency:
        raise ValueError(f"helper {helper} is not an in- or out-neighbor of target {target}")
    dmax = trace.schedules[0].dmax
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

    shift = delta * (dmax + 2)
    for i in range(dmax + 2):
        alt_uy_t = list(st.uy)
        alt_uy_t[i] += shift
        alt_t = SubstateSchedule(y0=st.y0 + delta, uy=tuple(alt_uy_t), uz=st.uz)
        if validate_schedule(alt_t, dmax, NodeRole.PRIVATE):
            continue
        for j in range(dmax + 2):
            alt_uy_h = list(sh.uy)
            alt_uy_h[j] -= shift
            alt_h = SubstateSchedule(y0=sh.y0 - delta, uy=tuple(alt_uy_h), uz=sh.uz)
            if validate_schedule(alt_h, dmax, NodeRole.PRIVATE):
                continue
            alt_schedules = list(trace.schedules)
            alt_schedules[target] = alt_t
            alt_schedules[helper] = alt_h
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


def search_outcome(search, *args):
    try:
        return search(*args)
    except WitnessUnavailableError as exc:
        return f"unavailable: {exc}"


def assert_searches_agree(trace, log, g, target, helper, deltas=WITNESS_DELTAS):
    for delta in deltas:
        args = (trace, log, g, target, helper, delta)
        assert search_outcome(ambiguity_witness, *args) == search_outcome(
            reference_witness, *args
        ), f"delta {delta}"


def pair_case(index: int):
    """Acceptance-07 pair case `index`: trace, coalition log, graph, target, helper."""
    rng = random.Random(f"caseCD:{index}")
    spokes = rng.randint(1, 3)
    g = assign_edge_order(hub_pair(spokes), rng)
    dmax = max_out_degree(g)
    roles = [P, P] + [C] * spokes
    states = [rng.randint(-100, 100) for _ in range(g.n)]
    schedules = [
        decompose_initial_state(states[j], dmax, roles[j], 100, rng) for j in range(g.n)
    ]
    trace, _ = run_simulation(g, schedules)
    log = coalition_observations(trace, range(2, g.n))
    target, helper = (0, 1) if index % 2 == 0 else (1, 0)
    return trace, log, g, target, helper


class TestScreenedSearchMatchesReference:
    @pytest.mark.parametrize("first", [0, 3_000_000])
    def test_pair_case_streams(self, first):
        for index in range(first, first + 100):
            assert_searches_agree(*pair_case(index))

    def test_hub_setup_topology(self, hub_setup):
        config_path, _ = hub_setup
        cfg = parse_config(config_path.read_text(encoding="ascii"))
        rng = random.Random(trial_seed_token(cfg.seed, 0))
        g, roles, _states, schedules = build_trial_inputs(cfg, rng)
        trace, _ = run_simulation(g, schedules, cfg.max_rounds, cfg.quiescence_window)
        log = coalition_observations(trace, [j for j in range(g.n) if roles[j] is C])
        assert_searches_agree(trace, log, g, 0, 1)
        assert_searches_agree(trace, log, g, 1, 0)

    def test_empty_coalition(self):
        # Every replay passes the screen; the full checks alone decide.
        trace, _, g, target, helper = pair_case(0)
        assert_searches_agree(trace, coalition_observations(trace, ()), g, target, helper)

    def test_alternative_running_longer_than_the_original(self):
        # All-private but node 2 on a 4-node digraph; a shift of 100 makes the
        # pair's exchange outlast the original run by several rounds.
        rng = random.Random("longer:32")
        g = generate_random_strongly_connected(rng.randint(4, 8), 0.35, rng)
        dmax = max_out_degree(g)
        roles = [rng.choice([P, C]) for _ in range(g.n)]
        roles[0] = roles[1] = P
        assert roles == [P, P, C, P]
        states = [rng.randint(-1000, 1000) for _ in range(g.n)]
        schedules = [
            decompose_initial_state(states[j], dmax, roles[j], 1000, rng)
            for j in range(g.n)
        ]
        trace, _ = run_simulation(g, schedules)
        alt = list(schedules)
        alt[0] = SubstateSchedule(
            schedules[0].y0 + 100,
            tuple(v + 100 * (dmax + 2) * (k == 2) for k, v in enumerate(schedules[0].uy)),
            schedules[0].uz,
        )
        alt[1] = SubstateSchedule(
            schedules[1].y0 - 100,
            tuple(v - 100 * (dmax + 2) * (k == 0) for k, v in enumerate(schedules[1].uy)),
            schedules[1].uz,
        )
        alt_trace, _ = run_simulation(g, alt, trace.max_rounds, trace.quiescence_window)
        assert alt_trace.final_round > trace.final_round
        log = coalition_observations(trace, [2])
        assert_searches_agree(trace, log, g, 0, 1, WITNESS_DELTAS + (100, -100, 1000))

    def test_overflow_reached_by_a_replay_escapes_unchanged(self):
        # The empty coalition lets every replay reach round -1, where the
        # first placement for delta = 2^62 leaves the 64-bit range.
        g = digraph_from_edges(2, [(0, 1), (1, 0)])
        big = 2**61
        schedules = (
            SubstateSchedule(y0=big, uy=(big - 3, big + 1, big + 2), uz=(1, 1, 1)),
            SubstateSchedule(y0=0, uy=(-1, 3, -2), uz=(1, 1, 1)),
        )
        trace, report = run_simulation(g, schedules)
        assert report.quiescent
        log = coalition_observations(trace, ())
        args = (trace, log, g, 0, 1, 2 * big)
        with pytest.raises(SimulationOverflowError) as screened:
            ambiguity_witness(*args)
        with pytest.raises(SimulationOverflowError) as reference:
            reference_witness(*args)
        assert str(screened.value) == str(reference.value)
        assert screened.value.trace.records == reference.value.trace.records


def test_only_replays_with_a_matching_view_are_simulated_in_full(monkeypatch):
    trace, log, g, target, helper = pair_case(0)
    simulate = run_simulation
    full_runs = []

    def counted(*args, **kwargs):
        alt_trace, alt_report = simulate(*args, **kwargs)
        full_runs.append(coalition_observations(alt_trace, log.coalition) == log)
        return alt_trace, alt_report

    validated = []

    def counted_reference(*args, **kwargs):
        validated.append(args)
        return simulate(*args, **kwargs)

    monkeypatch.setattr(privacy, "run_simulation", counted)
    # reference_witness looks run_simulation up in this module's globals.
    monkeypatch.setitem(globals(), "run_simulation", counted_reference)
    for delta in WITNESS_DELTAS:
        assert search_outcome(ambiguity_witness, trace, log, g, target, helper, delta) == (
            search_outcome(reference_witness, trace, log, g, target, helper, delta)
        )
    assert all(full_runs)
    assert 0 < len(full_runs) * 10 <= len(validated)
