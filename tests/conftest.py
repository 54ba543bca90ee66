import random

import pytest

from privavg.engine import run_simulation
from privavg.graph import digraph_from_edges
from privavg.schedule import SubstateSchedule


@pytest.fixture
def two_node_fixture():
    """Bidirectional pair with neutral splits of 4 and 6; hand-traced oracle."""
    g = digraph_from_edges(2, [(0, 1), (1, 0)])
    schedules = (
        SubstateSchedule(y0=4, uy=(4, 4, 4), uz=(1, 1, 1)),
        SubstateSchedule(y0=6, uy=(6, 6, 6), uz=(1, 1, 1)),
    )
    return g, schedules


@pytest.fixture
def two_node_run(two_node_fixture):
    g, schedules = two_node_fixture
    return run_simulation(g, schedules)


def make_rng(tag: str) -> random.Random:
    return random.Random(tag)


@pytest.fixture
def hub_setup(tmp_path):
    # private pair 0 <-> 1, curious spoke 2 <-> 0; plus a surrounded-target
    # variant for reconstruction
    graph_path = tmp_path / "hub.txt"
    graph_path.write_text("3 4\n0 1\n0 2\n1 0\n2 0\n", encoding="ascii")
    config_path = tmp_path / "hub.cfg"
    config_path.write_text(
        f"graph_file = {graph_path}\n"
        "seed = 6\n"
        "states = 4,7,-3\n"
        "roles = private,private,curious\n",
        encoding="ascii",
    )
    return config_path, tmp_path
