import concurrent.futures
import gc
import os
import re

import pytest

from privavg import experiments
from privavg.engine import trace_csv_lines
from privavg.experiments import (
    ConfigError,
    REFERENCE_STATE_VECTOR,
    TrialConfig,
    emit_round_metrics,
    parse_config,
    run_batch,
    run_cases,
    run_single_trial,
    series_csv_lines,
    trials_csv_lines,
)
from privavg.schedule import NodeRole


@pytest.fixture
def two_node_graph_file(tmp_path):
    path = tmp_path / "pair.txt"
    path.write_text("2 2\n0 1\n1 0\n", encoding="ascii")
    return str(path)


@pytest.fixture(params=[True, False], ids=["collector-on", "collector-off"])
def collector_state(request):
    """Switch the cyclic collector on or off for one test, then restore it."""
    was_enabled = gc.isenabled()
    if request.param:
        gc.enable()
    else:
        gc.disable()
    yield request.param
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.fixture
def pool_sizes(monkeypatch):
    """Replace the process pool by one that maps serially and records its max_workers."""
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return None

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    # run_cases imports the pool from concurrent.futures when it needs one.
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    return sizes


def pair_config(graph_file, **kw):
    defaults = dict(
        seed=1,
        trials=1,
        graph_file=graph_file,
        states=(4, 6),
        roles=(NodeRole.NEUTRAL, NodeRole.NEUTRAL),
    )
    defaults.update(kw)
    return TrialConfig(**defaults)


# One config text per refusal, with the reason the refusal names.
CONFIG_REJECTIONS = [
    ("nope = 1\n", "unknown config keys"),
    ("n = 3\np = 0.5\n", "either states or states_range must be given"),
    (
        "n = 3\np = 0.5\nstates_range = 5,-5\n",
        "states_range lower bound exceeds upper bound",
    ),
    (
        "n = 3\np = 0.5\nstates = 1,2\nstates_range = 0,0\nn = 4\n",
        "duplicate key 'n'",
    ),
    ("p = 0.5\nstates_range = 0,1\n", "exactly one of graph_file or (n, p) must be given"),
    (
        "graph_file = g.txt\np = 0.5\nstates = 1,2\n",
        "graph_file and p must not both be given",
    ),
    (
        "n = 3\np = 0.5\nstates = 1,2,3\nstates_range = 0,1\n",
        "states and states_range must not both be given",
    ),
    (
        "n = 3\np = 0.5\nstates = 1,2,3\nprivate_fraction = 0.9\ncurious_fraction = 0.9\n",
        "private_fraction + curious_fraction must not exceed 1",
    ),
    ("n = 3\np = 0.5\nstates = a,b,c\n", "bad config value: invalid literal"),
    (
        "n = 3\np = 0.5\nstates = 1,2,3\nroles = wizard,curious,neutral\n",
        "bad config value: 'wizard' is not a valid NodeRole",
    ),
    ("n = 3\np = 0.5\nstates = 1,2,3\nmax_rounds = -3\n", "max_rounds must be >= 0"),
    (
        "n = 3\np = 0.5\nstates = 1,2,3\nquiescence_window = 0\n",
        "quiescence_window must be >= 1",
    ),
    ("trials = 0\nn = 3\np = 0.5\nstates = 1,2,3\n", "trials must be >= 1"),
    ("n = 3\nstates = 1,2,3\n", "random graphs need both n and p"),
    ("n = 1\np = 0.5\nstates = 1\n", "n must be >= 2"),
    ("n = 3\np = 0\nstates = 1,2,3\n", "p must be in (0, 1]"),
    ("n = 3\np = 1.5\nstates = 1,2,3\n", "p must be in (0, 1]"),
    ("n = 3\np = 0.5\nstates = 1,2\n", "states list has 2 entries, n=3"),
    (
        "n = 3\np = 0.5\nstates = 1,2,3\nroles = private,curious\n",
        "roles list has 2 entries, n=3",
    ),
    (
        "n = 3\np = 0.5\nstates = 1,2,3\nprivate_fraction = 1.5\n",
        "private_fraction must be in [0, 1]",
    ),
    (
        "n = 3\np = 0.5\nstates = 1,2,3\ncurious_fraction = -0.1\n",
        "curious_fraction must be in [0, 1]",
    ),
    (
        "n = 3\np = 0.5\nstates = 1,2,3\nroles = private,curious,neutral\nprivate_fraction = 0.2\n",
        "roles and private_fraction must not both be given",
    ),
    (
        "n = 3\np = 0.5\nstates = 1,2,3\nroles = private,curious,neutral\ncurious_fraction = 0.5\n",
        "roles and curious_fraction must not both be given",
    ),
    (
        "n = 3\np = 0.5\nstates = 1,2,3\noffset_bound = 0\n",
        "offset_bound must be a positive integer",
    ),
    ("n = 3\np 0.5\nstates = 1,2,3\n", "line 2: expected 'key = value'"),
]


class TestConfigParsing:
    def test_full_round_trip(self):
        text = """
        # reproduction scenario
        seed = 7
        trials = 4
        n = 20
        p = 0.1
        states = {}
        offset_bound = 100
        """.format(",".join(map(str, REFERENCE_STATE_VECTOR)))
        cfg = parse_config(text)
        assert cfg.seed == 7 and cfg.trials == 4
        assert cfg.n == 20 and cfg.p == 0.1
        assert cfg.states == REFERENCE_STATE_VECTOR

    def test_roles_and_range(self):
        cfg = parse_config("n = 3\np = 0.9\nroles = private,curious,neutral\nstates_range = -5,5\n")
        assert cfg.roles == (NodeRole.PRIVATE, NodeRole.CURIOUS, NodeRole.NEUTRAL)
        assert cfg.states_range == (-5, 5)

    def test_smallest_random_graph_is_accepted(self):
        cfg = parse_config("n = 2\np = 1\nstates = 1,2\n")
        assert cfg.n == 2 and cfg.p == 1.0

    @pytest.mark.parametrize(
        "text, reason", CONFIG_REJECTIONS, ids=[text for text, _ in CONFIG_REJECTIONS]
    )
    def test_rejections(self, text, reason):
        with pytest.raises(ConfigError, match=re.escape(reason)):
            parse_config(text)

    def test_round_budget_and_window_lower_bounds_accepted(self):
        cfg = parse_config("n = 3\np = 0.5\nstates = 1,2,3\nmax_rounds = 0\nquiescence_window = 1\n")
        assert cfg.max_rounds == 0 and cfg.quiescence_window == 1


class TestSingleTrial:
    def test_deterministic_replay(self, two_node_graph_file):
        cfg = pair_config(two_node_graph_file)
        a = run_single_trial(cfg, 0, keep_trace=True)
        b = run_single_trial(cfg, 0, keep_trace=True)
        assert a.report == b.report
        assert trace_csv_lines(a.trace) == trace_csv_lines(b.trace)

    def test_two_node_series_shape(self, two_node_graph_file):
        cfg = pair_config(two_node_graph_file)
        result = run_single_trial(cfg, 0)
        q = result.report.quiescence_round
        window = 5 * 2
        assert len(result.series) == q + window
        converged_at = [row.round for row in result.series if row.converged_nodes == 2]
        assert min(converged_at) == 5

    def test_random_roles_partition(self):
        cfg = TrialConfig(
            seed=3, trials=1, n=6, p=0.6, states_range=(-5, 5),
            private_fraction=0.5, curious_fraction=0.3,
        )
        result = run_single_trial(cfg, 0)
        assert result.roles.count(NodeRole.PRIVATE) == 3
        assert result.roles.count(NodeRole.CURIOUS) == 2
        assert result.roles.count(NodeRole.NEUTRAL) == 1

    def test_the_upper_curious_and_lower_offset_bounds_run(self):
        # offset_bound = 1 is too narrow for any private draw, but a config
        # without private nodes never draws from the window.
        cfg = parse_config(
            "seed = 3\nn = 6\np = 0.6\nstates_range = -5,5\n"
            "private_fraction = 0.0\ncurious_fraction = 1.0\noffset_bound = 1\n"
        )
        result = run_single_trial(cfg, 0)
        assert result.roles == (NodeRole.CURIOUS,) * 6
        assert result.ok


class TestCollectorPause:
    def test_collector_off_while_simulating(self, two_node_graph_file, monkeypatch):
        seen = []
        simulate = experiments.run_simulation

        def recording(*args):
            seen.append(gc.isenabled())
            return simulate(*args)

        monkeypatch.setattr(experiments, "run_simulation", recording)
        assert gc.isenabled()
        run_single_trial(pair_config(two_node_graph_file), 0)
        assert seen == [False]

    def test_state_restored_after_trial(self, two_node_graph_file, collector_state):
        run_single_trial(pair_config(two_node_graph_file), 0)
        assert gc.isenabled() is collector_state

    def test_state_restored_when_trial_raises(self, two_node_graph_file, collector_state):
        cfg = pair_config(two_node_graph_file, states=(1, 2, 3))
        with pytest.raises(ConfigError, match="states list has 3 entries, graph has 2"):
            run_single_trial(cfg, 0)
        assert gc.isenabled() is collector_state

    def test_trials_leave_no_cyclic_garbage(self):
        # The premise of the pause: reference counting alone frees a trial.
        cfg = TrialConfig(seed=100, trials=4, n=20, p=0.1, states=REFERENCE_STATE_VECTOR)
        was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            for index in range(cfg.trials):
                run_single_trial(cfg, index)
            run_single_trial(cfg, cfg.trials, keep_trace=True)
            assert gc.collect() == 0
        finally:
            if was_enabled:
                gc.enable()


class TestBatch:
    def test_reference_vector_average_is_exact_per_trial(self):
        cfg = TrialConfig(seed=5, trials=6, n=20, p=0.3, states=REFERENCE_STATE_VECTOR)
        summary = run_batch(cfg)
        assert not summary.failed
        for r in summary.results:
            assert (r.report.q_num, r.report.q_den) == (67, 5)  # 268/20 reduced
            assert r.report.exactness_ok

    def test_batch_csvs_deterministic(self, two_node_graph_file, tmp_path):
        cfg = pair_config(two_node_graph_file, trials=3)
        first = run_batch(cfg)
        second = run_batch(cfg)
        assert trials_csv_lines(first) == trials_csv_lines(second)
        assert series_csv_lines(first) == series_csv_lines(second)

    def test_emit_round_metrics_files(self, two_node_graph_file, tmp_path):
        cfg = pair_config(two_node_graph_file, trials=2)
        summary = run_batch(cfg)
        trials_path, series_path = emit_round_metrics(summary, tmp_path / "out")
        trials = trials_path.read_text().splitlines()
        series = series_path.read_text().splitlines()
        assert trials[0].startswith("trial,seed,n,m,dmax,convergence_round")
        assert len(trials) == 3
        assert series[0].startswith("round,avg_broadcasts")
        # converged fraction hits 1.0 at round 5 on the pair fixture
        round5 = series[6].split(",")
        assert round5[0] == "5" and round5[4] == "1.000000"

    def test_transmitting_nodes_bounded_by_n(self):
        cfg = TrialConfig(seed=9, trials=3, n=5, p=0.6, states_range=(-9, 9))
        summary = run_batch(cfg)
        for r in summary.results:
            assert all(row.transmitting_nodes <= 5 for row in r.series)

    def test_tail_of_average_series_decays_to_zero(self):
        cfg = TrialConfig(seed=2, trials=4, n=6, p=0.5, states_range=(-20, 20))
        summary = run_batch(cfg)
        tail = summary.series_avg[-3:]
        assert all(row[3] == 0.0 for row in tail)
        assert summary.series_avg[-1][3] == 0.0

    def test_empty_batch_refused(self, two_node_graph_file, tmp_path):
        cfg = pair_config(two_node_graph_file)
        summary = run_batch(cfg)
        summary.results = []
        with pytest.raises(ValueError):
            emit_round_metrics(summary, tmp_path)

    def test_failed_trial_marks_batch_with_seed(self, two_node_graph_file):
        cfg = pair_config(two_node_graph_file, max_rounds=2)
        summary = run_batch(cfg)
        assert summary.failed
        assert summary.failed_seeds == ["1:0"]

    def test_replay_from_recorded_seed_token(self):
        cfg = TrialConfig(seed=31, trials=4, n=6, p=0.5, states_range=(-50, 50))
        summary = run_batch(cfg)
        row = summary.results[2]
        master, index = row.seed.split(":")
        assert (int(master), int(index)) == (31, 2)
        again = run_single_trial(cfg, 2)
        assert again.report == row.report

    def test_parallel_jobs_match_serial(self, two_node_graph_file):
        cfg = pair_config(two_node_graph_file, trials=4)
        serial = run_batch(cfg, jobs=1)
        parallel = run_batch(cfg, jobs=2)
        assert trials_csv_lines(serial) == trials_csv_lines(parallel)

    @pytest.mark.parametrize(("trials", "jobs", "built"), [(3, 64, [3]), (1, 4, [])])
    def test_pool_capped_at_trial_count(self, two_node_graph_file, pool_sizes, trials, jobs, built):
        cfg = pair_config(two_node_graph_file, trials=trials)
        pooled = run_batch(cfg, jobs=jobs)
        assert pool_sizes == built
        assert trials_csv_lines(pooled) == trials_csv_lines(run_batch(cfg))

    @pytest.mark.parametrize("jobs", [0, -4])
    def test_jobs_below_one_refused(self, two_node_graph_file, jobs):
        with pytest.raises(ConfigError, match="jobs must be >= 1"):
            run_batch(pair_config(two_node_graph_file), jobs=jobs)


def toy_case(case: int) -> tuple[int, int]:
    """A case function run_cases can send to a worker: a negative case raises
    an error that names it, any other returns the case and the process id."""
    if case < 0:
        raise ValueError(f"case {case} refused")
    return case, os.getpid()


class TestRunCases:
    @pytest.mark.parametrize(
        ("cases", "jobs", "pooled"),
        [
            ([5, 0, 3, 1, 4], 1, False),
            ([5, 0, 3, 1, 4], 2, True),
            ([5, 0, 3], 9, True),
            ([7], 4, False),
        ],
    )
    def test_yields_in_case_order(self, cases, jobs, pooled):
        results = list(run_cases(toy_case, cases, jobs))
        assert [case for case, _ in results] == cases
        assert {pid != os.getpid() for _, pid in results} == {pooled}

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_first_failing_case_in_case_order_raises(self, jobs):
        with pytest.raises(ValueError, match=r"^case -2 refused$"):
            list(run_cases(toy_case, [1, -2, 3, -4], jobs))
