import json
import tracemalloc

import numpy as np
import pytest

from ds_consensus import graph, scenario
from ds_consensus.dst import BodyOfEvidence, Frame
from ds_consensus.errors import InvalidScenario, NodeOutOfRange
from ds_consensus.graph import (MAX_NODES, DirectedGraph, erdos_renyi,
                                erdos_renyi_connected, is_connected, prune)
from ds_consensus.runner import run_simulation

from conftest import random_general_boe


def bayes(frame, x):
    m = np.zeros(frame.n_subsets)
    m[1] = x
    m[2] = (1 - x) / 2
    m[4] = (1 - x) / 2
    return BodyOfEvidence(frame, m)


def table(opinions):
    return np.vstack([boe.masses for boe in opinions])


def test_neighbors_directionality():
    g = DirectedGraph.from_edges(2, [(1, 2)])  # 1 receives from 2
    assert g.adjacency().tolist() == [[False, True], [False, False]]
    with pytest.raises(NodeOutOfRange):
        DirectedGraph.from_edges(2, [(1, 3)])


def test_neighbors_complete_graph():
    g = DirectedGraph.from_mutual_pairs(3, [(1, 2), (1, 3), (2, 3)])
    assert np.array_equal(g.adjacency(), ~np.eye(3, dtype=bool))


def test_no_self_loops():
    with pytest.raises(ValueError):
        DirectedGraph.from_edges(2, [(1, 1)])


def test_prune_epsilon_one_keeps_everything(rng):
    frame = Frame(3)
    g = DirectedGraph.from_mutual_pairs(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    opinions = [random_general_boe(frame, rng) for _ in range(4)]
    view = prune(g, table(opinions), [1.0] * 4, 3)
    assert view.edges == g.edges


def test_prune_epsilon_zero_distinct_opinions():
    frame = Frame(3)
    g = DirectedGraph.from_mutual_pairs(3, [(1, 2), (2, 3)])
    opinions = [bayes(frame, x) for x in (0.2, 0.5, 0.8)]
    view = prune(g, table(opinions), [0.0] * 3, 3)
    assert view.edges == frozenset()


def test_prune_monotone_in_epsilon(rng):
    frame = Frame(3)
    g = DirectedGraph.from_mutual_pairs(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
    opinions = [random_general_boe(frame, rng) for _ in range(5)]
    eps = rng.uniform(0, 1, size=5)
    small = prune(g, table(opinions), eps, 3)
    large = prune(g, table(opinions), np.minimum(eps + 0.2, 1.0), 3)
    assert small.edges <= large.edges


def test_prune_asymmetric_bounds():
    frame = Frame(3)
    g = DirectedGraph.from_mutual_pairs(2, [(1, 2)])
    opinions = [bayes(frame, 0.2), bayes(frame, 0.8)]
    view = prune(g, table(opinions), [1.0, 0.1], 3)
    assert (1, 2) in view.edges and (2, 1) not in view.edges


def test_erdos_renyi_extremes():
    assert erdos_renyi(5, 0.0, 1).edges == frozenset()
    full = erdos_renyi(5, 1.0, 1)
    assert len(full.edges) == 5 * 4


def test_erdos_renyi_reproducible():
    assert erdos_renyi(30, 0.2, 42).edges == erdos_renyi(30, 0.2, 42).edges
    assert erdos_renyi(30, 0.2, 42).edges != erdos_renyi(30, 0.2, 43).edges


def _erdos_renyi_pair_by_pair(n, p, seed):
    rng = np.random.default_rng(seed)
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
             if rng.random() < p]
    return DirectedGraph.from_mutual_pairs(n, pairs)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 30, 100])
def test_erdos_renyi_matches_pair_by_pair_draws(n):
    for seed in range(10):
        for p in (0.0, 0.1, 0.5, 1.0):
            assert erdos_renyi(n, p, seed).edges == _erdos_renyi_pair_by_pair(n, p, seed).edges


def test_erdos_renyi_size_cap():
    for n in (-1, MAX_NODES + 1, 10 ** 12):  # rejected before anything is drawn
        with pytest.raises(InvalidScenario):
            erdos_renyi(n, 0.1, 0)


def test_erdos_renyi_connected_rejects_no_agents(monkeypatch):
    def no_draw(*args):
        raise AssertionError("drew a graph")

    monkeypatch.setattr(graph, "erdos_renyi", no_draw)
    for n in (0, -3):
        with pytest.raises(InvalidScenario, match=f"at least one agent, got n={n}"):
            erdos_renyi_connected(n, 0.5, 1)


def test_erdos_renyi_connected_screening():
    g = erdos_renyi_connected(100, 0.10, 1)
    assert g.n == 100 and is_connected(g)


def test_is_connected_cases():
    assert not is_connected(DirectedGraph.from_edges(0, []))
    assert is_connected(DirectedGraph.from_edges(1, []))
    assert is_connected(DirectedGraph.from_edges(2, [(2, 1)]))  # either direction joins
    assert not is_connected(DirectedGraph.from_mutual_pairs(4, [(1, 2), (3, 4)]))
    assert not is_connected(DirectedGraph.from_edges(2, []))
    assert is_connected(DirectedGraph.from_mutual_pairs(3, [(1, 2), (2, 3)]))


def test_graphs_built_from_arrays_and_from_pairs_agree():
    g = DirectedGraph(3, np.array([0, 1, 2]), np.array([1, 2, 0]))
    assert g == DirectedGraph.from_edges(3, [(1, 2), (2, 3), (3, 1)])
    assert g.edges == frozenset({(1, 2), (2, 3), (3, 1)})
    assert g != DirectedGraph.from_edges(3, [(1, 2), (2, 3)])
    with pytest.raises(NodeOutOfRange, match=r"^edge \(3, 4\) outside \[1, 3\]$"):
        DirectedGraph(3, np.array([0, 2]), np.array([1, 3]))
    with pytest.raises(ValueError, match=r"^self-loop \(2, 2\) not allowed"):
        DirectedGraph(3, np.array([1]), np.array([1]))
    with pytest.raises(NodeOutOfRange, match=r"^edge \(1, 10{30}\) outside"):
        DirectedGraph.from_edges(3, [(1, 10 ** 30)])


def test_one_way_edge_has_no_mutual_pair():
    with pytest.raises(ValueError, match="^edge between 1 and 2 is not mutual$"):
        DirectedGraph.from_edges(3, [(1, 2), (2, 3), (3, 2)]).mutual_pairs()


def test_prune_needs_one_opinion_and_one_bound_per_node():
    frame = Frame(3)
    g = DirectedGraph.from_mutual_pairs(3, [(1, 2), (2, 3)])
    masses = table([bayes(frame, x) for x in (0.2, 0.5, 0.8)])
    with pytest.raises(ValueError, match="^need 3 opinions, got 2$"):
        prune(g, masses[:2], [0.5] * 3, frame.size)
    with pytest.raises(ValueError, match=r"^need 3 bounds, got shape \(2,\)$"):
        prune(g, masses, [0.5] * 2, frame.size)


def test_a_run_at_the_node_limit_stays_within_its_memory_budget(tmp_path):
    # the budget that MAX_NODES is chosen by: 128 MiB for a whole run
    data = {"frame_size": 3, "graph": {"er": {"n": MAX_NODES, "p": 20 / MAX_NODES, "seed": 1}},
            "engine": "pmf", "max_iterations": 5, "n_agents": MAX_NODES,
            "defaults": {"sample": {"dirichlet": [1, 1, 1], "targets": ["1", "2", "3"]}}}
    tracemalloc.start()
    try:
        result = run_simulation(scenario.scenario_from_dict(data, "limit", tmp_path), 0.3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.iterations == 5 and result.report.cluster_count > 1
    assert peak <= 128 * 2 ** 20


def test_graph_json_round_trip(tmp_path):
    g = DirectedGraph.from_mutual_pairs(4, [(1, 2), (3, 4)])
    (tmp_path / "g.json").write_text(json.dumps(g.to_dict()))
    back = scenario._graph({"file": "g.json"}, tmp_path, 0)  # a scenario's graph file
    assert back == DirectedGraph.from_edges(back.n, g.edges)
    assert g.to_dict() == {"n": 4, "edges": [[1, 2], [3, 4]]}
