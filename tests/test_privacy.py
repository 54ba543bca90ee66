import ast
import dataclasses
import hashlib
import importlib.util
import random
import sys

import pytest

from privavg import engine, privacy
from privavg.engine import SimTrace, SimulationOverflowError, iter_rounds, run_simulation
from privavg.experiments import TrialConfig, build_trial_inputs, parse_config
from privavg.graph import (
    Digraph,
    assign_edge_order,
    digraph_from_edges,
    generate_random_strongly_connected,
    max_out_degree,
)
from privavg.privacy import (
    WITNESS_DELTAS,
    AmbiguityWitness,
    NotFullySurroundedError,
    ObservationLog,
    PrivacyClass,
    ReconstructionError,
    WitnessUnavailableError,
    _observe,
    _shifted,
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

from test_golden import GOLDEN_WITNESSES
from topologies import cycle3, hub_pair, pair_inputs, star

P, C, N = NodeRole.PRIVATE, NodeRole.CURIOUS, NodeRole.NEUTRAL


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


def hub_setup_run(config_path):
    """Trial 0 of the hub_setup config and the log of its curious coalition."""
    cfg = parse_config(config_path.read_text(encoding="ascii"))
    g, roles, _states, schedules = build_trial_inputs(cfg, 0)
    trace, _ = run_simulation(g, schedules, cfg.max_rounds, cfg.quiescence_window)
    log = coalition_observations(trace, [j for j in range(g.n) if roles[j] is C])
    return trace, log, g


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
        total = sum(1 for r in trace.records for _ in r.messages)
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

    def test_equal_logs_share_one_cached_digest(self):
        trace, log, *_ = pair_case(0)
        twin = coalition_observations(trace, log.coalition)
        assert twin == log and twin is not log
        payload = "\n".join(log.canonical_lines()).encode("ascii")
        privacy._log_digest.cache_clear()
        assert log.digest() == twin.digest() == hashlib.sha256(payload).hexdigest()
        info = privacy._log_digest.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        # Bounded: a stream of distinct logs keeps at most maxsize of them.
        assert info.maxsize is not None
        members = range(trace.graph.n)
        distinct = {coalition_observations(trace, {v, w}) for v in members for w in members}
        assert len(distinct) > info.maxsize
        for other in distinct:
            other.digest()
        assert privacy._log_digest.cache_info().currsize == info.maxsize

    @pytest.mark.parametrize("hidden", [("_sha2",), ("_sha2", "_sha256")])
    def test_digest_falls_back_past_missing_builtin_hashes(self, hub_setup, monkeypatch, hidden):
        # No supported CPython lacks both built-in modules, so only this test
        # takes the hashlib path.  A module mapped to None fails to import.
        config_path, _ = hub_setup
        _, log, _ = hub_setup_run(config_path)
        payload = "\n".join(log.canonical_lines()).encode("ascii")
        privacy._log_digest.cache_clear()
        unhidden = log.digest()
        builtin = [m for m in ("_sha2", "_sha256") if m not in hidden and importlib.util.find_spec(m)]
        calls = []

        def spy(data):
            calls.append(data)
            return hashlib.new("sha256", data)

        monkeypatch.setattr(hashlib, "sha256", spy)
        for name in hidden:
            monkeypatch.setitem(sys.modules, name, None)
        privacy._log_digest.cache_clear()
        try:
            assert log.digest() == unhidden == hashlib.new("sha256", payload).hexdigest()
        finally:
            privacy._log_digest.cache_clear()
        assert calls == ([] if builtin else [payload])


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


class TestReconstructionRefusals:
    """Each refusal of a log that no protocol-following target could leave:
    the log of a star whose four leaves all collude, with one message tuple
    of the center's changed, added or removed."""

    @pytest.fixture(scope="class")
    def surrounded(self):
        g, trace, _ = run_trial(star(4), [P] + [C] * 4, [4, 7, -3, 5, 11], seed="star0")
        log = coalition_observations(trace, {1, 2, 3, 4})
        assert max_out_degree(g) == 4 and reconstruct_fully_surrounded(log, g, 0) == 4
        return g, log

    @staticmethod
    def refusal(surrounded, messages) -> str:
        g, log = surrounded
        with pytest.raises(ReconstructionError) as caught:
            reconstruct_fully_surrounded(dataclasses.replace(log, messages=tuple(messages)), g, 0)
        return str(caught.value)

    @staticmethod
    def initial(message) -> bool:
        return message[0] == -1 and message[1] == "state" and message[2] == 0

    @staticmethod
    def sent(message, rnd) -> bool:
        return message[0] == rnd and message[1] == "mass" and message[2] == 0

    def changed(self, surrounded, rnd, dy=0, dz=0):
        """The log's messages with the center's transfer at round rnd shifted."""
        return [
            (*m[:4], m[4] + dy, m[5] + dz) if self.sent(m, rnd) else m
            for m in surrounded[1].messages
        ]

    def test_no_initial_payload(self, surrounded):
        messages = [m for m in surrounded[1].messages if not self.initial(m)]
        assert self.refusal(surrounded, messages) == "expected one initial broadcast payload, got set()"

    def test_two_initial_payloads(self, surrounded):
        messages = list(surrounded[1].messages)
        first = next(i for i, m in enumerate(messages) if self.initial(m))
        y0 = messages[first][4]
        messages[first] = (*messages[first][:4], y0 + 1, 1)
        head, _, payloads = self.refusal(surrounded, messages).partition(", got ")
        assert head == "expected one initial broadcast payload"
        assert ast.literal_eval(payloads) == {(y0, 1), (y0 + 1, 1)}

    def test_initial_z_other_than_one(self, surrounded):
        messages = [(*m[:5], 2) if self.initial(m) else m for m in surrounded[1].messages]
        assert self.refusal(surrounded, messages) == "initial broadcast carries z=2, expected 1"

    def test_two_different_transfers_in_one_forced_round(self, surrounded):
        messages = list(surrounded[1].messages)
        rnd, kind, src, dst, y, z = next(m for m in messages if self.sent(m, 2))
        messages.append((rnd, kind, src, dst, y + 1, z))
        assert self.refusal(surrounded, messages) == "conflicting transfers from target at round 2"

    def test_forced_round_without_a_transfer(self, surrounded):
        messages = [m for m in surrounded[1].messages if not self.sent(m, 4)]
        assert self.refusal(surrounded, messages) == "no transfer from target at forced round 4"

    def test_z_that_does_not_add_up(self, surrounded):
        # Nothing reaches the center before round 0, so it sends its one
        # unit of z plus the substate's: z = 2.
        (out_z,) = [m[5] for m in surrounded[1].messages if self.sent(m, 0)]
        assert out_z == 2
        messages = self.changed(surrounded, 0, dz=1)
        assert self.refusal(surrounded, messages) == "round 0: outgoing z=3 inconsistent with delivered z=0"

    def test_total_not_divisible_by_the_substate_count(self, surrounded):
        # The six substates of y0 = 4 total 24; one more unit sent leaves 25.
        messages = self.changed(surrounded, 3, dy=1)
        assert self.refusal(surrounded, messages) == "substate total 25 not divisible by 6"


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
        # A run cut at round -1 carries only the initial state broadcasts; one
        # cut at max_rounds = dmax ends before the last hand-off.  No
        # candidate run under the same limit quiesces, so the search finds
        # no placement.
        for max_rounds in (0, max_out_degree(g)):
            cut, _ = run_simulation(g, trace.schedules, max_rounds=max_rounds)
            log = coalition_observations(cut, {2})
            with pytest.raises(WitnessUnavailableError, match="no substate placement hides"):
                ambiguity_witness(cut, log, g, 0, 1, 1)

    @pytest.mark.parametrize("index", range(12))
    def test_the_search_reads_no_record_of_its_trace(self, index):
        trace, log, g, target, helper = pair_case(index)
        bare = dataclasses.replace(trace, records=[])
        for delta in WITNESS_DELTAS:
            full, recordless = (
                search_outcome(ambiguity_witness, t, log, g, target, helper, delta)
                for t in (trace, bare)
            )
            assert full == recordless, f"delta {delta}"


# Private, curious and neutral nodes on small drawn graphs.
SMALL_MIXED_ROLES = (
    TrialConfig(
        seed=5, trials=60, n=12, p=0.3, states_range=(-100, 100),
        private_fraction=0.5, curious_fraction=0.25,
    ),
    TrialConfig(
        seed=9, trials=60, n=6, p=0.5, states_range=(-100, 100),
        private_fraction=0.7, curious_fraction=0.3,
    ),
)


@pytest.mark.parametrize("cfg", SMALL_MIXED_ROLES, ids=["n12", "n6"])
def test_adjacent_private_nodes_exchange_mass_by_round_dmax(cfg):
    """A validated private schedule hands off once per round in rounds
    0..dmax along an out-row of at most dmax neighbors, so every private
    node has sent mass to each of its out-neighbors by round dmax.  A pair
    of adjacent private nodes has then always exchanged a MassTransfer, and
    the witness search needs no scan of the trace for one."""
    pairs = 0
    for index in range(cfg.trials):
        g, roles, _, schedules = build_trial_inputs(cfg, index)
        for max_rounds in (None, max_out_degree(g) + 1):
            trace, _ = run_simulation(g, schedules, max_rounds=max_rounds)
            exchanged = {
                frozenset((m.src, m.dst))
                for record in trace.records
                for m in record.messages.events
                if type(m) is MassTransfer
            }
            for j, row in enumerate(g.out_order):
                for k in row:
                    if roles[j] is P and roles[k] is P:
                        pairs += 1
                        assert frozenset((j, k)) in exchanged, (index, max_rounds, j, k)
    assert pairs > 100


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


# ---------------------------------------------------------------------------
# Oracle: the witness search that screened each candidate by a whole replay
# from round -1, before candidates shared their replays; kept verbatim (its
# helpers _shifted and _observe are the module's).  It fixes which
# candidates a screen passes on a trace's own log, and when an overflow
# escapes: where a screen's replay reaches it, not wherever a full run would.
# ---------------------------------------------------------------------------


def screened_witness(
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
            if not replays_view(screen, log.coalition, views):
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


def replays_view(trace: SimTrace, members: frozenset[int], views) -> bool:
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


def search_outcome(search, *args):
    try:
        return search(*args)
    except WitnessUnavailableError as exc:
        return f"unavailable: {exc}"


def overflow_outcome(search, *args):
    try:
        return search_outcome(search, *args)
    except SimulationOverflowError as exc:
        return "overflow", str(exc), exc.trace.records


def assert_searches_agree(trace, log, g, target, helper, deltas=WITNESS_DELTAS):
    for delta in deltas:
        args = (trace, log, g, target, helper, delta)
        assert search_outcome(ambiguity_witness, *args) == search_outcome(
            reference_witness, *args
        ), f"delta {delta}"


def pair_case(index: int):
    """Acceptance-07 pair case `index`: trace, coalition log, graph, target, helper."""
    g, _, _, schedules = pair_inputs(index)
    trace, _ = run_simulation(g, schedules)
    log = coalition_observations(trace, range(2, g.n))
    target, helper = (0, 1) if index % 2 == 0 else (1, 0)
    return trace, log, g, target, helper


@pytest.mark.parametrize("index", [0, 1])
def test_pair_case_logs_have_the_golden_digests(index):
    assert pair_case(index)[1].digest() == GOLDEN_WITNESSES[f"caseCD:{index}"][0]


def log_of_another_run(index: int) -> ObservationLog:
    """The coalition log of pair case `index` run with the pair's schedules
    redrawn and the curious nodes' kept, a run the case's trace does not
    replay."""
    trace, log, g, _, _ = pair_case(index)
    rng = random.Random(f"redrawn:{index}")
    dmax = max_out_degree(g)
    schedules = list(trace.schedules)
    for j in (0, 1):
        schedules[j] = decompose_initial_state(schedules[j].y0, dmax, P, 100, rng)
    other, _ = run_simulation(g, schedules)
    return coalition_observations(other, log.coalition)


def cut_log(log: ObservationLog, last: int) -> ObservationLog:
    """log without its events after round `last`."""
    return ObservationLog(
        log.coalition,
        tuple(ev for ev in log.messages if ev[0] <= last),
        tuple(ev for ev in log.internal if ev[0] <= last),
    )


def altered_log(log: ObservationLog) -> ObservationLog:
    """log with its last message's y value moved by one."""
    rnd, kind, src, dst, y, z = log.messages[-1]
    return ObservationLog(
        log.coalition,
        log.messages[:-1] + ((rnd, kind, src, dst, y + 1, z),),
        log.internal,
    )


UNTRUSTED_LOGS = {
    "another_run": lambda index, log: log_of_another_run(index),
    "cut": lambda index, log: cut_log(log, 8),
    "altered": lambda index, log: altered_log(log),
}


class TestScreenedSearchMatchesReference:
    @pytest.mark.parametrize("first", [0, 3_000_000])
    def test_pair_case_streams(self, first):
        for index in range(first, first + 100):
            assert_searches_agree(*pair_case(index))

    def test_hub_setup_topology(self, hub_setup):
        config_path, _ = hub_setup
        trace, log, g = hub_setup_run(config_path)
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


class TestSharedReplaysMatchReference:
    """Inputs that the pair cases' own logs never give the shared replays."""

    def test_log_of_another_run(self):
        # The pair's schedules redrawn, the curious nodes' kept: the log comes
        # from a run the trace's schedules do not replay.
        for index in range(10):
            trace, _, g, target, helper = pair_case(index)
            assert_searches_agree(trace, log_of_another_run(index), g, target, helper)

    def test_log_cut_or_altered_after_the_candidates_rejoin(self, monkeypatch):
        # The base run matches such a log only up to its late change, and so
        # does every candidate that rejoins it earlier: each is screened to
        # the end of its run, so none reaches a confirmation.
        confirmed = []
        simulate = run_simulation

        def counted(*args, **kwargs):
            confirmed.append(args)
            return simulate(*args, **kwargs)

        monkeypatch.setattr(privacy, "run_simulation", counted)
        for index in range(10):
            trace, log, g, target, helper = pair_case(index)
            for untrusted in (cut_log(log, 8), altered_log(log)):
                assert_searches_agree(trace, untrusted, g, target, helper)
        assert not confirmed  # the screen passes no candidate that the log rules out

    @pytest.mark.parametrize("budget", [1, 2, 4, None])
    def test_trace_cut_short_by_the_round_budget(self, budget):
        # None: the budget ends the search for silence one round too early.
        for index in range(6):
            full, log, g, target, helper = pair_case(index)
            max_rounds = full.quiescence_round if budget is None else budget
            trace, _ = run_simulation(g, full.schedules, max_rounds=max_rounds)
            assert trace.quiescence_round is None
            log = coalition_observations(trace, log.coalition)
            assert_searches_agree(trace, log, g, target, helper)

    def test_overflow_reached_after_the_resume_point(self):
        # A substate equal to y0 + delta on the target's side (y0 - delta on
        # the helper's) leaves the other placements non-private, so the only
        # candidate is (2, 2): it resumes from the base run's round 0 and
        # leaves the 64-bit range at round 1, where it reads the substates.
        g = digraph_from_edges(2, [(0, 1), (1, 0)])
        delta = 2**61
        schedules = (
            SubstateSchedule(y0=0, uy=(1 - 2**60, -1 - 2**60, delta), uz=(1, 1, 1)),
            SubstateSchedule(y0=0, uy=(1 + 2**60, 2**60 - 1, -delta), uz=(1, 1, 1)),
        )
        trace, report = run_simulation(g, schedules)
        assert report.quiescent
        log = coalition_observations(trace, ())
        args = (trace, log, g, 0, 1, delta)
        with pytest.raises(SimulationOverflowError) as screened:
            ambiguity_witness(*args)
        with pytest.raises(SimulationOverflowError) as reference:
            reference_witness(*args)
        assert str(screened.value) == str(reference.value)
        assert screened.value.trace.records == reference.value.trace.records
        assert [r.round for r in screened.value.trace.records] == [-1, 0, 1]

    def test_overflow_in_a_shared_replay_only_does_not_escape(self):
        # The trace is a run aborted at round 0, so the base replay, which
        # the screens compare with, overflows there; the first candidate
        # moves the offending substate back into range and is a witness.
        g = digraph_from_edges(2, [(0, 1), (1, 0)])
        t, h = 2**62, -(2**61)
        schedules = (
            SubstateSchedule(y0=t, uy=(t + 1, t + 2, t - 3), uz=(1, 1, 1)),
            SubstateSchedule(y0=h, uy=(h + 1, h + 2, h - 3), uz=(1, 1, 1)),
        )
        with pytest.raises(SimulationOverflowError, match="round 0") as aborted:
            run_simulation(g, schedules)
        trace = aborted.value.trace
        args = (trace, coalition_observations(trace, ()), g, 0, 1, -(2**61))
        w = ambiguity_witness(*args)
        assert w == reference_witness(*args)
        assert (w.shifted_index, w.compensated_index) == (0, 0)


class TestSharedReplaysMatchScreenedSearch:
    """The whole-replay screen is the oracle where the reference, which runs
    every candidate in full, would raise an overflow no screen reaches."""

    @staticmethod
    def lifted_pair_case():
        # Adding one constant to every substate moves no event (a tie in z
        # compares y values shifted alike), but a mass of z substates now
        # carries z times the constant: the first mass with z = 20 forms at
        # round 9, after the candidate (3, 2) rejoined the base run.
        trace, log, g, target, helper = pair_case(0)
        lift = 2**63 // 15
        lifted = [
            SubstateSchedule(s.y0 + lift, tuple(u + lift for u in s.uy), s.uz)
            for s in trace.schedules
        ]
        with pytest.raises(SimulationOverflowError, match="^round 9:") as aborted:
            run_simulation(g, lifted)
        return aborted.value.trace, log.coalition, g, target, helper

    def test_overflow_after_the_rejoin_escapes(self):
        trace, coalition, g, target, helper = self.lifted_pair_case()
        log = coalition_observations(trace, coalition)
        args = (trace, log, g, target, helper, 1)
        outcome = overflow_outcome(ambiguity_witness, *args)
        assert outcome[0] == "overflow"
        assert outcome == overflow_outcome(screened_witness, *args)

    def test_overflow_after_a_late_difference_does_not_escape(self):
        # The log ends at round 7.  A candidate that rejoins the base run by
        # then would overflow at round 9 with it, but its own replay differs
        # at round 8 and never gets there.
        trace, coalition, g, target, helper = self.lifted_pair_case()
        cut = cut_log(coalition_observations(trace, coalition), 7)
        for delta in WITNESS_DELTAS:
            args = (trace, cut, g, target, helper, delta)
            outcome = overflow_outcome(ambiguity_witness, *args)
            assert outcome == overflow_outcome(screened_witness, *args)
            assert outcome.startswith("unavailable")
        with pytest.raises(SimulationOverflowError):
            reference_witness(trace, cut, g, target, helper, 1)

    @staticmethod
    def assert_same_candidates_pass(monkeypatch, cases):
        # The screen passes just the candidates a whole replay passes, and at
        # most one per search: the witness that its confirmation returns.
        passed = []
        simulate = run_simulation

        def counted(*args, **kwargs):
            passed.append(args)
            return simulate(*args, **kwargs)

        monkeypatch.setattr(privacy, "run_simulation", counted)
        monkeypatch.setitem(globals(), "run_simulation", counted)
        for case in cases:
            for delta in WITNESS_DELTAS:
                del passed[:]
                outcome = search_outcome(ambiguity_witness, *case, delta)
                shared_runs = len(passed)
                assert outcome == search_outcome(screened_witness, *case, delta)
                assert shared_runs == len(passed) - shared_runs
                assert shared_runs == isinstance(outcome, AmbiguityWitness)

    def test_own_logs_pass_the_same_candidates(self, monkeypatch):
        self.assert_same_candidates_pass(monkeypatch, [pair_case(index) for index in range(20)])

    @pytest.mark.parametrize("kind", sorted(UNTRUSTED_LOGS))
    def test_untrusted_logs_pass_the_same_candidates(self, monkeypatch, kind):
        # The screen runs each candidate to its end, so it is exact on a log
        # from elsewhere too, not only on the trace's own log.
        cases = []
        for index in range(10):
            trace, log, g, target, helper = pair_case(index)
            cases.append((trace, UNTRUSTED_LOGS[kind](index, log), g, target, helper))
        self.assert_same_candidates_pass(monkeypatch, cases)

    def test_rejoin_needs_silence_found_at_the_same_round(self):
        # A run resumed from the base run's quiescent record stays in base's
        # silent state, but finds silence one round later, so its tail
        # outlasts the log: its screen must fail though it never leaves
        # base's state.
        trace, log, g, _, _ = pair_case(0)
        sight = privacy._Sight.of(log)

        def run(shared=None, start=-2):
            alt = SimTrace(g, trace.schedules, trace.max_rounds, trace.quiescence_window)
            return privacy._Replay(alt, sight, shared, start)

        base = run()
        assert base.finish() == "pass"
        quiet = trace.quiescence_round
        assert run(base, quiet).finish() == "fail"

    def test_a_rejoin_target_keeps_the_silence_rule(self):
        # The run above matches base's record at every round after the
        # resume point, but it found silence later than base did, so it may
        # not take base's verdict.  Resumed a round earlier, a run meets
        # base at the round where both find silence, and takes base's
        # verdict there: the run's own records end before that round.
        trace, log, g, _, _ = pair_case(0)
        sight = privacy._Sight.of(log)

        def run(shared=None, start=-2, rejoin=None):
            alt = SimTrace(g, trace.schedules, trace.max_rounds, trace.quiescence_window)
            return privacy._Replay(alt, sight, shared, start, rejoin)

        base = run()
        assert base.finish() == "pass"
        quiet = trace.quiescence_round
        assert run(base, quiet, base).finish() == "fail"
        late = run(base, quiet - 1, base)
        assert late.finish() == "pass"
        assert [record.round for record in late.records] == [quiet - 1]


class TestCachedBaseReplay:
    """The base replay is kept from one search to the next on equal inputs."""

    @pytest.mark.parametrize("order", ["forward", "reverse", "alternating"])
    def test_cached_base_replays_give_the_screened_outcomes(self, order):
        cases = [pair_case(index) for index in range(20)]
        if order == "reverse":
            cases.reverse()
        elif order == "alternating":
            # Each case's log, then a foreign log on the same trace: every
            # search after the first meets a base replay of other inputs.
            cases = [
                case
                for index, (trace, log, g, target, helper) in enumerate(cases)
                for case in (
                    (trace, log, g, target, helper),
                    (trace, log_of_another_run(index), g, target, helper),
                )
            ]
        privacy._base_replay.cache_clear()
        for case in cases:
            for delta in WITNESS_DELTAS:
                assert search_outcome(ambiguity_witness, *case, delta) == search_outcome(
                    screened_witness, *case, delta
                ), delta

    def test_an_error_while_extending_a_replay_drops_the_cached_base(self, monkeypatch):
        # A generator that raised is finished, so a kept base replay that
        # raised would end its run early and fail every candidate that
        # rejoins it.
        case = pair_case(0)
        step = engine.step_node
        for fail_at in range(1, 60, 4):
            calls = [0]

            def failing(*args):
                calls[0] += 1
                if calls[0] == fail_at:
                    raise RuntimeError("step failed")
                return step(*args)

            privacy._base_replay.cache_clear()
            monkeypatch.setattr(engine, "step_node", failing)
            with pytest.raises(RuntimeError, match="step failed"):
                ambiguity_witness(*case, 1)
            assert privacy._base_replay.cache_info().currsize == 0, fail_at
            monkeypatch.setattr(engine, "step_node", step)
            assert search_outcome(ambiguity_witness, *case, 1) == search_outcome(
                screened_witness, *case, 1
            ), fail_at

    def test_the_cache_stays_bounded(self):
        privacy._base_replay.cache_clear()
        for index in range(4):
            trace, log, g, target, helper = pair_case(index)
            for seen in (log, log_of_another_run(index), cut_log(log, 8)):
                search_outcome(ambiguity_witness, trace, seen, g, target, helper, 1)
                info = privacy._base_replay.cache_info()
                assert info.currsize <= info.maxsize == 1  # one base run's records
        assert privacy._base_replay.cache_info().misses == 12


def test_search_steps_at_most_85_percent_of_the_reference(monkeypatch):
    cases = [pair_case(index) for index in range(20)]
    steps = [0]
    step = engine.step_node

    def counted(*args):
        steps[0] += 1
        return step(*args)

    monkeypatch.setattr(engine, "step_node", counted)
    spent = {}
    for search in (ambiguity_witness, reference_witness):
        steps[0] = 0
        for case in cases:
            for delta in WITNESS_DELTAS:
                search_outcome(search, *case, delta)
        spent[search] = steps[0]
    assert spent[ambiguity_witness] <= 0.85 * spent[reference_witness]


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


@pytest.mark.parametrize(("index", "steps", "confirmations"), [(0, 529, 6), (1, 306, 4)])
def test_witness_search_work_is_pinned(monkeypatch, index, steps, confirmations):
    # The search's work is deterministic, and a change that only slows it
    # (a shorter resume, a dropped replay shortcut) passes every outcome
    # test, so its node steps and confirmation runs over WITNESS_DELTAS are
    # pinned here.
    case = pair_case(index)
    privacy._base_replay.cache_clear()
    counts = [0, 0]
    step, simulate = engine.step_node, privacy.run_simulation

    def counted_step(*args):
        counts[0] += 1
        return step(*args)

    def counted_simulate(*args, **kwargs):
        counts[1] += 1
        return simulate(*args, **kwargs)

    monkeypatch.setattr(engine, "step_node", counted_step)
    monkeypatch.setattr(privacy, "run_simulation", counted_simulate)
    for delta in WITNESS_DELTAS:
        search_outcome(ambiguity_witness, *case, delta)
    assert counts == [steps, confirmations], (
        "the witness search's work changed; a change that alters it on purpose "
        "updates this pin and says so in CHANGES.md"
    )
