import pickle
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from privavg import graph
from privavg.graph import (
    Digraph,
    GraphGenerationError,
    assign_edge_order,
    digraph_from_edges,
    format_edge_list,
    generate_random_strongly_connected,
    is_strongly_connected,
    max_out_degree,
    parse_edge_list,
)

from topologies import cycle3, star


def reference_generate(n, p, rng, max_attempts=10_000):
    """The rejection sampler as first written: every pair drawn on every attempt.

    Kept verbatim as the oracle for the stream-identical sampler in
    privavg.graph.  It reads is_strongly_connected from this module's
    globals, so a test can count its attempts.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if not (0.0 < p <= 1.0):
        raise ValueError("p must be in (0, 1]")
    for _ in range(max_attempts):
        edges = set()
        for i in range(n):  # sender
            for j in range(n):  # receiver
                if i != j and rng.random() < p:
                    edges.add((j, i))
        g = digraph_from_edges(n, edges)
        if is_strongly_connected(g):
            return assign_edge_order(g, rng)
    raise GraphGenerationError(
        f"no strongly connected digraph after {max_attempts} attempts (n={n}, p={p})"
    )


def brute_force_strongly_connected(g: Digraph) -> bool:
    """Independent oracle: transitive closure by repeated squaring of reachability."""
    reach = [[False] * g.n for _ in range(g.n)]
    for j in range(g.n):
        reach[j][j] = True
    for dst, src in g.edges:
        reach[src][dst] = True
    for _ in range(g.n):
        for a in range(g.n):
            for b in range(g.n):
                if not reach[a][b]:
                    reach[a][b] = any(reach[a][c] and reach[c][b] for c in range(g.n))
    return all(reach[a][b] for a in range(g.n) for b in range(g.n))


class TestStrongConnectivity:
    def test_directed_cycle_is_strongly_connected(self):
        assert is_strongly_connected(cycle3())

    def test_directed_path_is_not(self):
        g = digraph_from_edges(3, [(1, 0), (2, 1)])
        assert not is_strongly_connected(g)

    def test_complete_bidirectional_four_nodes(self):
        edges = [(a, b) for a in range(4) for b in range(4) if a != b]
        assert is_strongly_connected(digraph_from_edges(4, edges))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000), st.integers(3, 8), st.floats(0.15, 0.9))
    def test_matches_brute_force_oracle_on_random_digraphs(self, seed, n, p):
        rng = random.Random(seed)
        edges = [
            (j, i) for i in range(n) for j in range(n) if i != j and rng.random() < p
        ]
        g = digraph_from_edges(n, edges)
        assert is_strongly_connected(g) == brute_force_strongly_connected(g)
        assert g.edges == frozenset(edges) and g.m == len(edges)
        for j in range(n):
            assert g.in_neighbors(j) == tuple(sorted(s for d, s in edges if d == j))
        assert parse_edge_list(format_edge_list(g)) == g
        assert pickle.loads(pickle.dumps(g)) == g


class TestMaxOutDegree:
    def test_cycle(self):
        assert max_out_degree(cycle3()) == 1

    def test_two_node_bidirectional(self):
        g = digraph_from_edges(2, [(0, 1), (1, 0)])
        assert max_out_degree(g) == 1

    def test_star_center_dominates(self):
        assert max_out_degree(star(5)) == 5


class TestGeneration:
    def test_p_one_forces_all_edges(self):
        g = generate_random_strongly_connected(2, 1.0, random.Random(99))
        assert g.edges == frozenset({(0, 1), (1, 0)})

    def test_deterministic_under_seed(self):
        a = generate_random_strongly_connected(20, 0.3, random.Random(7))
        b = generate_random_strongly_connected(20, 0.3, random.Random(7))
        assert a == b

    def test_output_passes_connectivity_oracle(self):
        g = generate_random_strongly_connected(5, 0.4, random.Random(3))
        assert is_strongly_connected(g)
        assert brute_force_strongly_connected(g)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 12), st.floats(0.25, 1.0))
    def test_generation_invariants(self, seed, n, p):
        g = generate_random_strongly_connected(n, p, random.Random(seed))
        assert is_strongly_connected(g)
        for j in range(g.n):
            order = g.out_order[j]
            assert sorted(order) == sorted({dst for dst, src in g.edges if src == j})

    def test_retry_budget_exhaustion(self):
        with pytest.raises(GraphGenerationError):
            generate_random_strongly_connected(
                12, 0.01, random.Random(0), max_attempts=50
            )

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            generate_random_strongly_connected(1, 0.5, random.Random(0))
        with pytest.raises(ValueError):
            generate_random_strongly_connected(4, 0.0, random.Random(0))
        with pytest.raises(ValueError):
            generate_random_strongly_connected(4, 1.5, random.Random(0))


class TestEdgeOrder:
    def test_single_out_neighbor_gets_rank_zero(self):
        g = assign_edge_order(cycle3(), random.Random(5))
        assert g.out_order[0] == (1,)

    def test_three_out_neighbors_get_permutation(self):
        edges = [(1, 0), (2, 0), (3, 0), (0, 1), (0, 2), (0, 3)]
        g = assign_edge_order(digraph_from_edges(4, edges), random.Random(2))
        assert sorted(g.out_order[0]) == [1, 2, 3]

    def test_deterministic_under_seed(self):
        edges = [(j, i) for i in range(5) for j in range(5) if i != j]
        base = digraph_from_edges(5, edges)
        assert assign_edge_order(base, random.Random(4)) == assign_edge_order(
            base, random.Random(4)
        )


class TestDigraphValidation:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            digraph_from_edges(2, [(0, 0), (1, 0), (0, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            digraph_from_edges(2, [(0, 1), (2, 0)])
        with pytest.raises(ValueError):
            digraph_from_edges(2, [(0, 1), (1, 0), (0, 2)])

    def test_rejects_bad_out_order(self):
        with pytest.raises(ValueError, match="one entry per node"):
            Digraph(2, ((1,),))
        with pytest.raises(ValueError, match=r"edge \(2, 0\) out of range"):
            Digraph(2, ((2,), (0,)))
        with pytest.raises(ValueError, match=r"edge \(-1, 1\) out of range"):
            Digraph(2, ((1,), (-1,)))
        with pytest.raises(ValueError, match=r"out_order\[0\] repeats a neighbor"):
            Digraph(2, ((1, 1), (0,)))

    def test_rejects_list_rows(self):
        # A list makes a graph that cannot be hashed and that differs from
        # the same graph built by digraph_from_edges.
        with pytest.raises(ValueError, match=r"out_order\[0\] must be a tuple"):
            Digraph(2, ([1], [0]))
        with pytest.raises(ValueError, match=r"out_order\[1\] must be a tuple"):
            Digraph(2, ((1,), [0]))
        with pytest.raises(ValueError, match="out_order must be a tuple of rows"):
            Digraph(2, [(1,), (0,)])

    def test_edge_errors_come_before_out_order_errors(self):
        with pytest.raises(ValueError, match="self-loop at node 1"):
            Digraph(2, ((1,), (1,)))
        with pytest.raises(ValueError, match="self-loop at node 0"):
            Digraph(2, ((0, 0), (0,)))
        with pytest.raises(ValueError, match=r"edge \(2, 0\) out of range"):
            Digraph(2, ((2, 2), (0,)))

    def test_in_neighbors(self):
        g = cycle3()
        assert g.in_neighbors(1) == (0,)
        assert g.out_neighbors(1) == (2,)


class TestEdgeListFormat:
    def test_round_trip(self):
        g = generate_random_strongly_connected(6, 0.5, random.Random(11))
        parsed = parse_edge_list(format_edge_list(g))
        assert parsed.n == g.n and parsed.edges == g.edges

    def test_header_and_direction(self):
        text = format_edge_list(cycle3())
        assert text.splitlines()[0] == "3 3"
        assert "0 1" in text  # sender 0 -> receiver 1

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "2\n0 1\n",            # malformed header
            "2 2\n0 1\n",          # wrong edge count
            "2 1\n0 0\n",          # self-loop
            "2 2\n0 1\n0 1\n",     # duplicate
            "2 1\n0 5\n",          # out of range
            "2 1\nx y\n",          # non-integer
        ],
    )
    def test_loader_rejects_malformed(self, text):
        with pytest.raises(ValueError):
            parse_edge_list(text)


def assert_same_as_reference(n, p, seed, max_attempts=10_000):
    ours, theirs = random.Random(seed), random.Random(seed)
    g = generate_random_strongly_connected(n, p, ours, max_attempts)
    ref = reference_generate(n, p, theirs, max_attempts)
    assert g.edges == ref.edges
    assert g.out_order == ref.out_order
    assert ours.getstate() == theirs.getstate()


class TestSamplerMatchesReference:
    """The sampler returns the reference's graph and leaves the rng where it does."""

    def test_reproduction_seeds(self):
        for i in range(200):
            assert_same_as_reference(20, 0.1, f"100:{i}")

    @pytest.mark.parametrize(
        "n, p, seed",
        [(30, 0.12, f"1:{i}") for i in range(5)]
        + [(100, 0.05, f"1:{i}") for i in range(3)],
    )
    def test_sparse(self, n, p, seed):
        assert_same_as_reference(n, p, seed)

    @pytest.mark.parametrize(
        "n, p",
        [(2, 1.0), (3, 1.0), (8, 1.0), (2, 0.5), (2, 0.2), (3, 0.3), (3, 0.6)],
    )
    def test_edge_cases(self, n, p):
        for seed in range(10):
            assert_same_as_reference(n, p, seed)

    def test_budget_exhaustion_leaves_the_same_rng_state(self):
        ours, theirs = random.Random(0), random.Random(0)
        with pytest.raises(GraphGenerationError):
            generate_random_strongly_connected(3, 0.01, ours, max_attempts=50)
        with pytest.raises(GraphGenerationError):
            reference_generate(3, 0.01, theirs, max_attempts=50)
        assert ours.getstate() == theirs.getstate()


@pytest.mark.parametrize("k", [1, 2, 3, 19, 380])
def test_getrandbits_consumes_the_words_of_random(k):
    """getrandbits(64 * k) reads the Mersenne Twister words of k random() calls.

    The sampler skips the rest of a rejected attempt on this fact; if a
    Python release breaks it, this test names the cause.
    """
    drawn, skipped = random.Random(k), random.Random(k)
    for _ in range(k):
        drawn.random()
    skipped.getrandbits(64 * k)
    assert drawn.getstate() == skipped.getstate()


def test_connectivity_check_runs_on_few_attempts(monkeypatch):
    """Attempts with an empty out-row or in-column never reach the check."""

    def counting(module):
        calls = []
        original = module.is_strongly_connected

        def check(g):
            calls.append(g)
            return original(g)

        monkeypatch.setattr(module, "is_strongly_connected", check)
        return calls

    sampler_calls = counting(graph)
    generate_random_strongly_connected(20, 0.1, random.Random("100:0"))
    attempts = counting(sys.modules[__name__])
    reference_generate(20, 0.1, random.Random("100:0"))
    assert len(attempts) >= 20
    assert 1 <= len(sampler_calls) * 10 <= len(attempts)
