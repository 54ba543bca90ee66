import inspect
import math
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from privavg import graph
from privavg.graph import (
    Digraph,
    GraphGenerationError,
    assign_edge_order,
    digraph_from_edges,
    generate_random_strongly_connected,
    is_strongly_connected,
    max_out_degree,
    parse_edge_list,
)

from interpreters import other_interpreters
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


def edge_pairs(g: Digraph) -> frozenset[tuple[int, int]]:
    """g's edges as (receiver, sender) pairs, the order digraph_from_edges takes."""
    return frozenset((dst, src) for src, order in enumerate(g.out_order) for dst in order)


def brute_force_strongly_connected(g: Digraph) -> bool:
    """Independent oracle: transitive closure by repeated squaring of reachability."""
    reach = [[False] * g.n for _ in range(g.n)]
    for j in range(g.n):
        reach[j][j] = True
    for dst, src in edge_pairs(g):
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
        assert edge_pairs(g) == frozenset(edges) and g.m == len(edges)
        for j in range(n):
            assert g.in_neighbors(j) == tuple(sorted(s for d, s in edges if d == j))
        text = f"{n} {len(edges)}\n" + "".join(f"{src} {dst}\n" for dst, src in edges)
        assert parse_edge_list(text) == g
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
        assert edge_pairs(g) == frozenset({(0, 1), (1, 0)})

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
            assert sorted(order) == sorted({dst for dst, src in edge_pairs(g) if src == j})

    def test_retry_budget_exhaustion(self):
        with pytest.raises(GraphGenerationError):
            graph._sample(12, 0.01, random.Random(0), 50)

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
        with pytest.raises(ValueError, match="need at least 2 nodes, got 1"):
            Digraph(1, ((),))
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
        # Lines in any order, blank lines skipped; out-orders come back ascending.
        parsed = parse_edge_list("4 6\n2 0\n0 3\n\n0 1\n1 2\n3 2\n2 1\n")
        assert parsed.n == 4
        assert edge_pairs(parsed) == {(0, 2), (3, 0), (1, 0), (2, 1), (2, 3), (1, 2)}
        assert parsed.out_order == ((1, 3), (2,), (0, 1), (2,))

    def test_header_and_direction(self):
        g = parse_edge_list("3 3\n0 1\n1 2\n2 0\n")  # sender 0 -> receiver 1
        assert g == cycle3()
        assert g.out_neighbors(0) == (1,) and g.in_neighbors(0) == (2,)

    # An edge is named in the file's own src -> dst order, where
    # digraph_from_edges would name its (receiver, sender) pair.
    MALFORMED = [
        ("", "^empty edge-list file$"),
        ("2\n0 1\n", "^bad header '2', expected 'n m'$"),            # malformed header
        ("2 2\n0 1\n", "^header announces 2 edges, found 1$"),        # wrong edge count
        ("2 1\n0 0\n", "^self-loop 0 -> 0$"),                         # self-loop
        ("2 2\n0 1\n0 1\n", "^duplicate edge 0 -> 1$"),               # duplicate
        ("2 1\n0 5\n", "^edge 0 -> 5 out of range for n=2$"),         # out of range
        ("2 1\nx y\n", "^invalid literal for int"),                   # non-integer
        ("2 1\n0 1 1\n", "^bad edge line '0 1 1'$"),                  # three fields
    ]

    @pytest.mark.parametrize("text, match", MALFORMED, ids=[text for text, _ in MALFORMED])
    def test_loader_rejects_malformed(self, text, match):
        with pytest.raises(ValueError, match=match):
            parse_edge_list(text)


def count_checks(monkeypatch, module):
    """Record every graph passed to module.is_strongly_connected: one per attempt checked."""
    calls = []
    original = module.is_strongly_connected

    def check(g):
        calls.append(g)
        return original(g)

    monkeypatch.setattr(module, "is_strongly_connected", check)
    return calls


def assert_same_as_reference(n, p, seed):
    ours, theirs = random.Random(seed), random.Random(seed)
    g = generate_random_strongly_connected(n, p, ours)
    ref = reference_generate(n, p, theirs)
    assert edge_pairs(g) == edge_pairs(ref)
    assert g.out_order == ref.out_order
    assert ours.getstate() == theirs.getstate()


class TestSamplerMatchesReference:
    """The sampler returns the reference's graph and leaves the rng where it does."""

    def test_reproduction_seeds(self, monkeypatch):
        """_sample also counts the attempts the reference makes."""
        checks = count_checks(monkeypatch, sys.modules[__name__])
        for i in range(200):
            ours, theirs = random.Random(f"100:{i}"), random.Random(f"100:{i}")
            g, attempts = graph._sample(20, 0.1, ours, 10_000)
            checks.clear()
            assert g == reference_generate(20, 0.1, theirs)
            assert attempts == len(checks)
            assert ours.getstate() == theirs.getstate()

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
            graph._sample(3, 0.01, ours, 50)
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


@pytest.mark.parametrize("seed, k", [(0, 1), (1, 2), (2, 3), (3, 19), ("100:0", 19), (4, 199)])
def test_getrandbits_lanes_hold_the_draws_of_random(seed, k):
    """Lane j of getrandbits(64 * k) holds the two words of the j-th random().

    random() reads a word a, then b, and returns
    ((a >> 5) * 2**26 + (b >> 6)) / 2**53.  The sampler reads each draw out
    of its 64-bit lane, a in the low half; if a Python release breaks this,
    this test names the cause.
    """
    drawn, lanes = random.Random(seed), random.Random(seed)
    row = lanes.getrandbits(64 * k)
    for j in range(k):
        a, b = row >> 64 * j & 0xFFFFFFFF, row >> 64 * j + 32 & 0xFFFFFFFF
        assert drawn.random() == ((a >> 5) * 2**26 + (b >> 6)) / 2**53
    assert drawn.getstate() == lanes.getstate()


class WordStream(random.Random):
    """A Random that reads one list of 32-bit words the way CPython's does.

    random() takes two words a, b; getrandbits(k) takes ceil(k / 32) words,
    low word first, and keeps the top bits of a partial last word.  So the
    sampler, reference_generate and rng.shuffle all run on it unchanged.
    """

    def __init__(self, words):
        super().__init__(0)
        self.words = words
        self.used = 0

    def _word(self):
        self.used += 1
        return self.words[self.used - 1]

    def random(self):
        a, b = self._word() >> 5, self._word() >> 6
        return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0)

    def getrandbits(self, k):
        bits = 0
        for shift in range(0, k, 32):
            word = self._word()
            bits |= (word >> max(32 - (k - shift), 0)) << shift
        return bits


def tie_words(p, count, seed):
    """Uniform words mixed with words that sit on p's decision boundaries.

    A draw is below p iff its key (a >> 5) << 26 | b >> 6 is below
    t = ceil(p * 2**53).  Ties: a >> 5 == t >> 26 (the row screen's
    boundary), a >> 24 == t >> 45 (the top byte), and b >> 6 just below or
    at t's low 26 bits (the key's last word).
    """
    t = math.ceil(p * 2**53)
    rnd = random.Random(seed)
    makers = (
        lambda: min(t >> 26, 2**27 - 1) << 5 | rnd.getrandbits(5),
        lambda: min(t >> 45, 255) << 24 | rnd.getrandbits(24),
        lambda: max((t & (2**26 - 1)) - rnd.getrandbits(1), 0) << 6 | rnd.getrandbits(6),
        lambda: rnd.getrandbits(32),
    )
    return [rnd.choice(makers)() for _ in range(count)]


@pytest.mark.parametrize("p", [0.5, 0.25, 1.0, 900719925474099 / 2**53, math.nextafter(0.1, 0)])
@pytest.mark.parametrize("n", [2, 3, 5])
def test_ties_and_boundaries_match_the_reference(n, p, monkeypatch):
    """On word streams full of ties, graph, error and words read all match.

    So do the attempts checked for strong connectivity: the reference's
    attempts with no node of out- or in-degree 0.
    """
    budget = 40
    checked = count_checks(monkeypatch, graph)
    drawn = count_checks(monkeypatch, sys.modules[__name__])
    for seed in range(4):
        words = tie_words(p, budget * 2 * n * (n - 1) + 100 * n, f"{n}:{p!r}:{seed}")
        ours, theirs = WordStream(words), WordStream(words)
        checked.clear()
        drawn.clear()
        try:
            got = graph._sample(n, p, ours, budget)[0]
        except GraphGenerationError as exc:
            got = str(exc)
        try:
            want = reference_generate(n, p, theirs, budget)
        except GraphGenerationError as exc:
            want = str(exc)
        assert got == want
        assert ours.used == theirs.used
        screened = [g for g in drawn if all(g.out_order) and all(map(g.in_neighbors, range(n)))]
        assert checked == screened


def test_tiny_p_exhausts_the_budget_on_the_same_words():
    p, budget = 2**-40, 30
    words = tie_words(p, budget * 2 * 4 * 3, 7)
    ours, theirs = WordStream(words), WordStream(words)
    with pytest.raises(GraphGenerationError):
        graph._sample(4, p, ours, budget)
    with pytest.raises(GraphGenerationError):
        reference_generate(4, p, theirs, budget)
    assert ours.used == theirs.used == len(words)


SRC = Path(__file__).resolve().parents[1] / "src"

CROSS_CHECK = """
import random, sys
sys.path.insert(0, sys.argv[1])
from privavg import graph
from privavg.graph import (
    GraphGenerationError, assign_edge_order, digraph_from_edges, is_strongly_connected,
)

{oracle}

cases = [(20, 0.1, f"100:{{i}}", 10_000) for i in range(10)]
cases += [(2, 1.0, 0, 10_000), (3, 0.3, 1, 10_000), (8, 0.5, 2, 10_000)]
cases += [(30, 0.12, "1:0", 10_000), (3, 0.01, 0, 50)]
for n, p, seed, budget in cases:
    ours, theirs = random.Random(seed), random.Random(seed)
    try:
        got = graph._sample(n, p, ours, budget)[0]
    except GraphGenerationError as exc:
        got = str(exc)
    try:
        want = reference_generate(n, p, theirs, budget)
    except GraphGenerationError as exc:
        want = str(exc)
    assert got == want and ours.getstate() == theirs.getstate(), (n, p, seed)
print("matched", len(cases))
"""


def test_sampler_matches_reference_under_other_interpreters():
    """The stream identity holds under every other CPython found, not only this one."""
    pythons = other_interpreters()
    if not pythons:
        pytest.skip("no other CPython 3.10+ under the pyenv versions directory")
    script = CROSS_CHECK.format(oracle=inspect.getsource(reference_generate))
    for python in pythons:
        proc = subprocess.run(
            [str(python), "-I", "-B", "-c", script, str(SRC)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, f"{python}: {proc.stderr}"
        assert proc.stdout.strip() == "matched 15", python


def test_connectivity_check_runs_on_few_attempts(monkeypatch):
    """Attempts with an empty out-row or in-column never reach the check."""
    sampler_calls = count_checks(monkeypatch, graph)
    generate_random_strongly_connected(20, 0.1, random.Random("100:0"))
    attempts = count_checks(monkeypatch, sys.modules[__name__])
    reference_generate(20, 0.1, random.Random("100:0"))
    assert len(attempts) >= 20
    assert 1 <= len(sampler_calls) * 10 <= len(attempts)
