"""Scenario configuration: JSON loading, sampling, and built-in assets.

A scenario file is a JSON object:

    {
      "name": "...",                      // optional
      "frame_size": 3,
      "graph": {"n": 7, "edges": [[1,2], ...]}     // mutual pairs
               | {"file": "graph.json"}
               | {"er": {"n": 100, "p": 0.1, "seed": 7}},
      "engine": "general" | "pmf" | "dirichlet" | "auto",
      "seed": 0,
      "max_iterations": 10000,
      "tolerances": {"step": 1e-10, "persistence": 10, "cluster": 1e-3},
      "defaults": { ... agent fields ... },        // template, optional
      "agents": [ {"strategy": "receptive", "alpha": 0.5, "epsilon": 1.0,
                   "boe": {"masses": {"1": 0.8, "2": 0.1, "3": 0.1}}},
                  ... ],
      "n_agents": 100,                    // alternative to "agents": n copies
                                          // of "defaults"
      "random_leaders": {"count": 1}      // turn this many randomly chosen
                                          // agents cautious (recorded)
    }

Agent opinions come either from explicit masses or from a sampling spec
``{"sample": {"dirichlet": [1,1,1], "targets": ["1","2","3"]}}`` drawn with
the scenario RNG.  Materialization order is fixed for reproducibility:
ER graph (own seed, regenerated until connected), then leader choice, then
per-agent draws in agent order.

Built-in assets live in the package ``assets/`` directory; the environment
variable ``DS_CONSENSUS_ASSETS`` overrides the location.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import dst
from .dst import BodyOfEvidence, Frame
from .dynamics import AgentSpec, NetworkState, Strategy
from .errors import InvalidScenario, NodeOutOfRange, ScenarioParseError
from .graph import DirectedGraph, erdos_renyi_connected

DEFAULT_MAX_ITERATIONS = 10_000
DEFAULT_STEP_TOL = 1e-10
DEFAULT_PERSISTENCE = 10
DEFAULT_CLUSTER_TOL = 1e-3

ENGINE_NAMES = ("general", "pmf", "dirichlet", "auto")


@dataclass(frozen=True)
class SamplingSpec:
    """Dirichlet draw assigned to target propositions in declared order."""

    concentrations: tuple[float, ...]
    targets: tuple[str, ...]

    def __post_init__(self):
        if len(self.concentrations) != len(self.targets):
            raise InvalidScenario("sampling needs one concentration per target")
        if any(c <= 0 for c in self.concentrations):
            raise InvalidScenario("dirichlet concentrations must be positive")


def sample_boe(spec: SamplingSpec, frame: Frame, rng: np.random.Generator) -> BodyOfEvidence:
    """Draw one opinion: normalized gamma variates on the target propositions."""
    draws = rng.gamma(shape=np.asarray(spec.concentrations, dtype=float), scale=1.0)
    coords = draws / draws.sum()
    masses = np.zeros(frame.n_subsets)
    for value, target in zip(coords, spec.targets):
        mask = dst.prop_from_str(target, frame)
        if mask == 0:
            raise InvalidScenario("cannot assign sampled mass to the empty set")
        masses[mask] += value
    return BodyOfEvidence(frame, masses)


@dataclass(frozen=True)
class Scenario:
    """Fully materialized configuration: graph built, opinions drawn."""

    name: str
    frame: Frame
    graph: DirectedGraph
    agents: tuple[AgentSpec, ...]
    engine: str
    max_iterations: int = DEFAULT_MAX_ITERATIONS
    step_tol: float = DEFAULT_STEP_TOL
    persistence: int = DEFAULT_PERSISTENCE
    cluster_tol: float = DEFAULT_CLUSTER_TOL
    seed: int = 0
    leaders: tuple[int, ...] = ()   # 1-based cautious agents, recorded

    def __post_init__(self):
        if self.max_iterations < 0:
            raise InvalidScenario(f"max_iterations must be >= 0, got {self.max_iterations}")
        if self.persistence < 1:
            raise InvalidScenario(f"persistence must be >= 1, got {self.persistence}")

    def initial_state(self, epsilon: float | None = None) -> NetworkState:
        state = NetworkState.from_specs(self.frame, self.graph, self.agents)
        if epsilon is not None:
            state = state.with_epsilon(epsilon)
        return state

    def resolved_engine(self) -> str:
        """Tightest engine all opinions satisfy, when set to auto."""
        if self.engine != "auto":
            return self.engine
        rows = np.vstack([a.boe.masses for a in self.agents])
        if dst.is_bayesian_table(rows, self.frame):
            return "pmf"
        if dst.is_dirichlet_table(rows, self.frame):
            return "dirichlet"
        return "general"


def assets_dir() -> Path:
    override = os.environ.get("DS_CONSENSUS_ASSETS")
    if override:
        return Path(override)
    return Path(__file__).parent / "assets"


def list_assets() -> list[str]:
    root = assets_dir()
    if not root.is_dir():
        return []
    return sorted(p.stem for p in root.glob("*.json"))


def _resolve(source: str) -> Path:
    path = Path(source)
    if path.is_file():
        return path
    candidate = assets_dir() / f"{source}.json"
    if candidate.is_file():
        return candidate
    raise ScenarioParseError(f"no such scenario file or asset: {source}")


def _agent_from_config(cfg: dict, defaults: dict, frame: Frame,
                       rng: np.random.Generator, where: str) -> AgentSpec:
    merged = dict(defaults)
    merged.update(cfg)
    try:
        strategy = Strategy(merged.get("strategy", "receptive"))
    except ValueError:
        raise InvalidScenario(f"{where}: unknown strategy {merged.get('strategy')!r}")
    alpha = float(merged.get("alpha", 0.5))
    epsilon = float(merged.get("epsilon", 1.0))
    if "boe" in merged and "sample" in merged:
        raise InvalidScenario(f"{where}: give either masses or a sampling spec, not both")
    if "boe" in merged:
        try:
            boe = BodyOfEvidence(frame, dst.masses_from_dict(frame, merged["boe"]["masses"]))
        except (KeyError, ValueError) as exc:
            raise InvalidScenario(f"{where}: bad opinion: {exc}")
    elif "sample" in merged:
        s = merged["sample"]
        try:
            spec = SamplingSpec(tuple(float(c) for c in s["dirichlet"]),
                                tuple(str(t) for t in s["targets"]))
        except KeyError as exc:
            raise InvalidScenario(f"{where}: sampling spec missing {exc}")
        boe = sample_boe(spec, frame, rng)
    else:
        raise InvalidScenario(f"{where}: agent has neither masses nor a sampling spec")
    try:
        return AgentSpec(strategy, alpha, epsilon, boe)
    except ValueError as exc:
        raise InvalidScenario(f"{where}: {exc}")


def _build_graph(cfg: dict, base: Path, default_seed: int) -> DirectedGraph:
    if "er" in cfg:
        er = cfg["er"]
        seed = int(er.get("seed", default_seed))
        return erdos_renyi_connected(int(er["n"]), float(er["p"]), seed)
    if "file" in cfg:
        with open(base / cfg["file"], encoding="utf-8") as fh:
            return DirectedGraph.from_dict(json.load(fh))
    return DirectedGraph.from_dict(cfg)


def scenario_from_dict(data: dict, name: str, base: Path,
                       seed: int | None = None) -> Scenario:
    if not isinstance(data, dict):
        raise ScenarioParseError(f"scenario must be a JSON object, got {type(data).__name__}")
    if "alias" in data:
        return load_scenario(data["alias"], seed=seed)
    engine = data.get("engine", "auto")
    if engine not in ENGINE_NAMES:
        raise InvalidScenario(f"engine must be one of {ENGINE_NAMES}, got {engine!r}")
    effective_seed = int(data.get("seed", 0)) if seed is None else int(seed)
    try:
        frame = Frame(int(data["frame_size"]))
        graph_cfg = data["graph"]
    except KeyError as exc:
        raise ScenarioParseError(f"missing field {exc}")
    if not isinstance(graph_cfg, dict):
        raise ScenarioParseError(f"graph must be an object, got {type(graph_cfg).__name__}")
    try:
        graph = _build_graph(graph_cfg, base, effective_seed)
    except KeyError as exc:
        raise ScenarioParseError(f"graph misses field {exc}")
    except (TypeError, AttributeError) as exc:  # a nested value of the wrong JSON type
        raise ScenarioParseError(f"malformed graph: {exc}")
    except NodeOutOfRange as exc:
        raise InvalidScenario(f"graph: {exc}")
    rng = np.random.default_rng(effective_seed)

    defaults = data.get("defaults", {})
    if "agents" in data:
        agent_cfgs = data["agents"]
    elif "n_agents" in data:
        agent_cfgs = [{} for _ in range(int(data["n_agents"]))]
    else:
        raise ScenarioParseError("scenario needs 'agents' or 'n_agents'")
    if len(agent_cfgs) != graph.n:
        raise InvalidScenario(
            f"agent count {len(agent_cfgs)} does not match node count {graph.n}")

    leaders: tuple[int, ...] = ()
    forced_cautious: set[int] = set()
    if "random_leaders" in data:
        count = int(data["random_leaders"]["count"])
        if count > graph.n:
            raise InvalidScenario("more random leaders than agents")
        chosen = rng.choice(graph.n, size=count, replace=False)
        forced_cautious = {int(c) + 1 for c in chosen}

    agents = []
    for k, cfg in enumerate(agent_cfgs):
        agent = _agent_from_config(cfg, defaults, frame, rng, where=f"agents[{k}]")
        if (k + 1) in forced_cautious:
            agent = replace(agent, strategy=Strategy.CAUTIOUS)
        agents.append(agent)
    leaders = tuple(i + 1 for i, a in enumerate(agents)
                    if a.strategy is Strategy.CAUTIOUS)

    tol = data.get("tolerances", {})
    return Scenario(
        name=data.get("name", name),
        frame=frame,
        graph=graph,
        agents=tuple(agents),
        engine=engine,
        max_iterations=int(data.get("max_iterations", DEFAULT_MAX_ITERATIONS)),
        step_tol=float(tol.get("step", DEFAULT_STEP_TOL)),
        persistence=int(tol.get("persistence", DEFAULT_PERSISTENCE)),
        cluster_tol=float(tol.get("cluster", DEFAULT_CLUSTER_TOL)),
        seed=effective_seed,
        leaders=leaders,
    )


def load_scenario(source: str, seed: int | None = None) -> Scenario:
    """Load and materialize a scenario from a file path or a built-in asset name."""
    path = _resolve(source)
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(f"{path}: {exc}")
    return scenario_from_dict(data, name=path.stem, base=path.parent, seed=seed)
