"""The hand-built topologies the tests share, the reproduction scenario's
edge density, and the inputs of acceptance-07's pair cases."""

import random

from privavg.graph import assign_edge_order, digraph_from_edges, max_out_degree
from privavg.schedule import NodeRole, decompose_initial_state

# Edge density for generated reproduction digraphs; the reference scenario
# uses directed G(n, p) because the comparison data names no model.  At
# p = 0.1 the per-trial fan-out transmission count lands within a few
# percent of the published 808.4 for 20 nodes.
REFERENCE_EDGE_PROBABILITY = 0.1


def cycle3():
    # v0 -> v1 -> v2 -> v0, given as (receiver, sender)
    return digraph_from_edges(3, [(1, 0), (2, 1), (0, 2)])


def star(leaves):
    """Center 0 and leaves 1..leaves, each leaf <-> 0."""
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


def pair_inputs(index: int):
    """Acceptance-07's pair case `index`: graph, roles, states and schedules,
    all drawn from the stream `caseCD:{index}`."""
    rng = random.Random(f"caseCD:{index}")
    spokes = rng.randint(1, 3)
    g = assign_edge_order(hub_pair(spokes), rng)
    dmax = max_out_degree(g)
    roles = [NodeRole.PRIVATE] * 2 + [NodeRole.CURIOUS] * spokes
    states = [rng.randint(-100, 100) for _ in range(g.n)]
    schedules = [
        decompose_initial_state(states[j], dmax, roles[j], 100, rng) for j in range(g.n)
    ]
    return g, roles, states, schedules
