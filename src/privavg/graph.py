"""Directed graphs with per-node round-robin transmission orders.

A digraph is its out-neighbor orders: out_order[i] lists node i's
out-neighbors in i's priority order, which the protocol follows to pick
mass-transfer targets in a round-robin fashion.  Edges are given to
``digraph_from_edges`` as (receiver, sender) pairs: the edge (j, i) lets node
j receive from node i.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import compress
from pathlib import Path

GENERATION_RETRY_BUDGET = 10_000


class GraphGenerationError(RuntimeError):
    """Rejection sampling failed to produce a strongly connected digraph."""


@dataclass(frozen=True, slots=True)
class Digraph:
    """Immutable digraph on nodes 0..n-1.

    out_order[j] lists j's out-neighbors in j's round-robin priority order;
    the position of a neighbor in that tuple is its transmission rank.
    """

    n: int
    out_order: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"need at least 2 nodes, got {self.n}")
        # Rows stay as given, so a list would make a graph that neither
        # hashes nor equals the same graph built from tuples.
        if not isinstance(self.out_order, tuple):
            raise ValueError("out_order must be a tuple of rows")
        if len(self.out_order) != self.n:
            raise ValueError("out_order must have one entry per node")
        for j, order in enumerate(self.out_order):
            if not isinstance(order, tuple):
                raise ValueError(f"out_order[{j}] must be a tuple")
            for dst in order:
                if dst == j:
                    raise ValueError(f"self-loop at node {j}")
                if not 0 <= dst < self.n:
                    raise ValueError(f"edge ({dst}, {j}) out of range")
            if len(set(order)) != len(order):
                raise ValueError(f"out_order[{j}] repeats a neighbor")

    @property
    def m(self) -> int:
        return sum(map(len, self.out_order))

    def out_neighbors(self, j: int) -> tuple[int, ...]:
        return self.out_order[j]

    def in_neighbors(self, j: int) -> tuple[int, ...]:
        return tuple(src for src, order in enumerate(self.out_order) if j in order)


def digraph_from_edges(n: int, edges) -> Digraph:
    """Build a digraph from (receiver, sender) pairs.

    Each node gets its out-neighbors in ascending id order.
    """
    outs: list[list[int]] = [[] for _ in range(n)]
    for d, s in edges:
        dst, src = int(d), int(s)
        if not (0 <= dst < n and 0 <= src < n):
            raise ValueError(f"edge ({dst}, {src}) out of range")
        outs[src].append(dst)
    return Digraph(n, tuple(tuple(sorted(o)) for o in outs))


def is_strongly_connected(g: Digraph) -> bool:
    """True iff every ordered node pair is joined by a directed path."""
    ins: list[list[int]] = [[] for _ in range(g.n)]
    for src, order in enumerate(g.out_order):
        for dst in order:
            ins[dst].append(src)
    return _reaches_all(g.out_order) and _reaches_all(ins)


def _reaches_all(adj) -> bool:
    """True iff node 0 reaches every node along the rows of adj."""
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == len(adj)


def max_out_degree(g: Digraph) -> int:
    """Network-wide maximum out-degree."""
    return max(map(len, g.out_order))


def generate_random_strongly_connected(n: int, p: float, rng: random.Random) -> Digraph:
    """Directed G(n, p) rejection-sampled until strongly connected.

    Each ordered pair (i, j), i != j, becomes an edge i -> j independently
    with probability p.  Out-edge orders are shuffled from the same rng, so
    the result is a pure function of (n, p, rng state); the rng stream is
    that of one ``rng.random() < p`` per pair on every attempt.

    random() reads words a, b and returns ``(a >> 5 << 26 | b >> 6) / 2**53``,
    below p exactly when that key is below ``t = ceil(p * 2**53)``.
    getrandbits lays out the same words low first, so sender i's row is one
    ``getrandbits(64 * (n - 1))`` with a in the low half of each 64-bit lane.
    Three big-int operations mark each lane whose ``a >> 5`` exceeds
    ``t >> 26``; if all are marked the row is empty and the attempt's other
    words are skipped in one call.  An attempt with no empty row is decided
    on bytes: a table of ``a >> 24`` says below p or not, and the whole key
    settles a tie with ``t >> 45``.  Bytes keep n = 200 as fast as the
    per-pair loop.  One getrandbits per attempt is slower: its 24-kbit
    operations cost more than stopping at the first empty row saves.

    At n = 100, p = 0.03 (master seed 1, trial 0) it takes 4069 attempts,
    about 1.1 s on CPython 3.11 (2-core x86-64); at p = 0.025 the
    GENERATION_RETRY_BUDGET runs out and GraphGenerationError is raised.  Sparse
    graphs need a model that is strongly connected by construction (ROADMAP
    item 6).
    """
    return _sample(n, p, rng, GENERATION_RETRY_BUDGET)[0]


def _sample(n: int, p: float, rng: random.Random, max_attempts: int) -> tuple[Digraph, int]:
    """generate_random_strongly_connected and the attempts it took."""
    if n < 2:
        raise ValueError("n must be >= 2")
    if not (0.0 < p <= 1.0):
        raise ValueError("p must be in (0, 1]")
    getrandbits = rng.getrandbits
    size = 8 * (n - 1)  # bytes per row
    width = 8 * size
    t = math.ceil(p * 2**53)  # random() < p iff its 53-bit key is below t
    lane = ((1 << width) - 1) // ((1 << 64) - 1)  # bit 0 of every lane
    low, carry = lane * 0xFFFFFFFF, lane << 32
    # (row & low) + add sets bit 32 of each lane with a >> 5 > t >> 26.
    add = lane * ((1 << 32) - min(((t >> 26) + 1) << 5, 1 << 32))
    # Entry a >> 24: 1 below p, 0 not below p, 2 the whole key decides.
    table = (b"\1" * (t >> 45) + b"\2" + bytes(255))[:256]
    nobody = bytes(n)
    skips = [width * k for k in range(n - 1, -1, -1)]  # bits after row i
    nodes = range(n)
    cells = range(0, n * n, n)
    for attempt in range(1, max_attempts + 1):
        rows = []
        for skip in skips:
            row = getrandbits(width)
            if (row & low) + add & carry == carry:  # no draw below p
                getrandbits(skip)
                break
            rows.append(row)
        else:
            # Byte k: 1 iff the attempt's k-th pair is an edge.
            words = [row.to_bytes(size, "little") for row in rows]
            flags = b"".join([w[3::8] for w in words]).translate(table)
            k = flags.find(2)
            if k >= 0:
                flags = bytearray(flags)
                while k >= 0:
                    i, j = divmod(8 * k, size)
                    word = int.from_bytes(words[i][j:j + 8], "little")
                    flags[k] = ((word & 0xFFFFFFFF) >> 5 << 26 | word >> 38) < t
                    k = flags.find(2, k + 1)
            # The n - 1 pairs between two diagonal cells are consecutive.
            adjacency = b"\0".join([b"", *(flags[c:c + n] for c in cells[:-1]), b""])
            if all(1 in adjacency[j::n] for j in nodes):  # every node is heard
                out = [adjacency[c:c + n] for c in cells]
                if nobody not in out:
                    g = Digraph(n, tuple((*compress(nodes, r),) for r in out))
                    if is_strongly_connected(g):
                        return assign_edge_order(g, rng), attempt
    raise GraphGenerationError(
        f"no strongly connected digraph after {max_attempts} attempts (n={n}, p={p})"
    )


def assign_edge_order(g: Digraph, rng: random.Random) -> Digraph:
    """Shuffle each node's out-neighbor priority order uniformly."""
    orders = []
    for j in range(g.n):
        order = sorted(g.out_order[j])
        rng.shuffle(order)
        orders.append(tuple(order))
    return Digraph(g.n, tuple(orders))


# Edge-list text format: first line "n m", then m lines "src dst" where src
# is the sender and dst the receiver (the reverse of digraph_from_edges' pairs).
def parse_edge_list(text: str) -> Digraph:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty edge-list file")
    header = lines[0].split()
    if len(header) != 2:
        raise ValueError(f"bad header {lines[0]!r}, expected 'n m'")
    n, m = int(header[0]), int(header[1])
    if len(lines) - 1 != m:
        raise ValueError(f"header announces {m} edges, found {len(lines) - 1}")
    edges = set()
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"bad edge line {ln!r}")
        src, dst = int(parts[0]), int(parts[1])
        if src == dst:
            raise ValueError(f"self-loop {src} -> {dst}")
        if not (0 <= src < n and 0 <= dst < n):
            raise ValueError(f"edge {src} -> {dst} out of range for n={n}")
        if (dst, src) in edges:
            raise ValueError(f"duplicate edge {src} -> {dst}")
        edges.add((dst, src))
    return digraph_from_edges(n, edges)


def load_edge_list(path) -> Digraph:
    return parse_edge_list(Path(path).read_text(encoding="ascii"))
