"""The array loader against the per-agent loader it replaced (``conftest.oracle_load``).

Both must give the same mass table, edge set, strategies, self-weights and
bounds bit for bit, and on a bad scenario the same error for the same first
bad agent.
"""

import copy

import numpy as np
import pytest

from ds_consensus import dst, dynamics, scenario
from ds_consensus.errors import DSConsensusError
from ds_consensus.scenario import list_assets, load_scenario, scenario_from_dict

from conftest import asset_data, oracle_load

SEEDED = ("er100-noleader", "er100-oneleader", "er100-twoleader",
          "ds7-noleader", "ds7-oneleader", "ds7-twoleader", "dirichlet-7")


def assert_loads_as_oracle(loaded: scenario.Scenario, expected: dict) -> None:
    state = loaded.state
    assert state.masses.tobytes() == expected["masses"].tobytes()
    assert loaded.graph.edges == expected["edges"]
    assert state.receptive.tolist() == expected["receptive"].tolist()
    assert state.alphas.tobytes() == expected["alphas"].tobytes()
    assert state.bounds.tobytes() == expected["bounds"].tobytes()


@pytest.mark.parametrize("name", list_assets())
def test_every_asset_loads_as_the_oracle(name):
    assert_loads_as_oracle(load_scenario(name), oracle_load(asset_data(name)))


@pytest.mark.parametrize("name", SEEDED)
def test_seeded_assets_load_as_the_oracle(name):
    data = asset_data(name)
    for seed in range(1, 21):
        assert_loads_as_oracle(load_scenario(name, seed=seed), oracle_load(data, seed))


NINE_DRAWS = {"dirichlet": [0.5, 2, 0.5, 3, 1, 1, 2, 0.7, 4],
              "targets": ["1", "2", "1", "*", "2,3", "3", "1", "1,3", "2"]}
SHARED = {"sample": NINE_DRAWS}  # one config object that two agents use
HAND = {
    "frame_size": 3,
    "graph": {"n": 6, "edges": [[1, 2], [2, 3], [3, 4], [4, 5], [5, 6], [1, 6]]},
    "seed": 5,
    "defaults": {"alpha": 0.25, "epsilon": 0.6},
    "agents": [
        SHARED,
        {"strategy": "cautious", "alpha": 0.75,
         "boe": {"masses": {"1": 0.5, "2,3": 0.25, "*": 0.25}}},
        {"epsilon": 0.1, "sample": {"dirichlet": [1, 1], "targets": ["1", "1"]}},
        SHARED,
        {"boe": {"masses": {"2": 1.0}}},
        {"sample": {"dirichlet": [2, 2, 2, 2], "targets": ["1", "2", "3", "*"]}},
    ],
    "random_leaders": {"count": 2},
}


def test_a_hand_made_mix_loads_as_the_oracle(tmp_path):
    # explicit and sampled agents, repeated targets (nine draws, so the sum
    # runs pairwise), one config object shared by two agents, random leaders
    for seed in range(1, 21):
        loaded = scenario_from_dict(HAND, "hand", tmp_path, seed=seed)
        assert_loads_as_oracle(loaded, oracle_load(HAND, seed))
        assert loaded.engine == "general" and 2 <= len(loaded.leaders) <= 3


def _with_agents(changes: dict) -> dict:
    """HAND with the agents at the given places changed (no longer shared)."""
    data = copy.deepcopy(HAND)
    for k, change in changes.items():
        data["agents"][k] = {**data["agents"][k], **change}
    return data


def assert_rejected_as_the_oracle(data: dict, tmp_path) -> str:
    with np.errstate(divide="ignore", invalid="ignore"):  # a 0 / 0 draw reads as NaN
        with pytest.raises(DSConsensusError) as expected:
            oracle_load(data)
        with pytest.raises(type(expected.value)) as got:
            scenario_from_dict(data, "hand", tmp_path)
    assert str(got.value) == str(expected.value)
    return str(got.value)


BAD_AGENTS = [
    (1, {"boe": {"masses": {"1": 0.5}}}),                         # total below 1
    (1, {"boe": {"masses": {"1": 1.5, "2": -0.5}}}),              # a negative mass
    (1, {"boe": {"masses": {"1": float("nan")}}}),
    (1, {"boe": {"masses": {"9": 1.0}}}),                         # outside the frame
    (3, {"strategy": "bold"}),
    (3, {"alpha": 1.5}),
    (5, {"epsilon": -0.5}),
    (0, {"sample": {"dirichlet": [1, 0], "targets": ["1", "2"]}}),
    (2, {"sample": {"dirichlet": [1, 1], "targets": ["1", ""]}}),
    (2, {"sample": {"dirichlet": [1], "targets": ["1", "2"]}}),
    (5, {"sample": {"dirichlet": [1e-320, 1e-320], "targets": ["1", "2"]}}),  # 0 / 0
    (2, {"sample": {"dirichlet": [], "targets": []}}),           # no draws
    (5, {"sample": {"dirichlet": [], "targets": []}}),           # none, last
    (4, {"boe": {"masses": {"1": 0.5}}, "alpha": 2.0}),           # the opinion first
    (2, {"sample": {"dirichlet": [1, 1], "targets": ["", "9"]}}),  # the empty set first
    (2, {"sample": {"dirichlet": [0], "targets": ["1", "2"]}}),    # the count first
    (2, {"sample": {"dirichlet": [float("nan"), 1], "targets": ["1", "2"]}}),
]


@pytest.mark.parametrize("k,change", BAD_AGENTS)
def test_a_bad_agent_is_rejected_as_the_oracle_rejects_it(k, change, tmp_path):
    assert assert_rejected_as_the_oracle(_with_agents({k: change}), tmp_path).startswith(
        f"agents[{k}]: ")


def test_the_first_bad_agent_names_the_fault(tmp_path):
    opinion, strategy = {"boe": {"masses": {"1": 0.5}}}, {"strategy": "bold"}
    message = assert_rejected_as_the_oracle(_with_agents({1: opinion, 3: strategy}), tmp_path)
    assert message.startswith("agents[1]: bad opinion: ")
    message = assert_rejected_as_the_oracle(
        _with_agents({0: {"alpha": 3.0}, 1: opinion, 3: strategy}), tmp_path)
    assert message == "agents[0]: alpha must be in [0, 1], got 3.0"


def test_loading_builds_no_opinion_or_agent_objects(monkeypatch):
    made = {"BodyOfEvidence": 0, "AgentSpec": 0}
    for module, name in ((dst, "BodyOfEvidence"), (dynamics, "AgentSpec")):
        cls = getattr(module, name)
        original = cls.__post_init__

        def counted(self, _original=original, _name=name):
            made[_name] += 1
            _original(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    loaded = load_scenario("er100-oneleader")
    assert made == {"BodyOfEvidence": 0, "AgentSpec": 0}
    assert loaded.agents[0].boe.masses.tobytes() == loaded.state.masses[0].tobytes()
    assert made == {"BodyOfEvidence": 100, "AgentSpec": 100}
