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
from functools import cached_property
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
        if not all(0.0 < c < np.inf for c in self.concentrations):
            raise InvalidScenario("dirichlet concentrations must be positive and finite")


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

    def __post_init__(self):
        if self.max_iterations < 0:
            raise InvalidScenario(f"max_iterations must be >= 0, got {self.max_iterations}")
        if self.persistence < 1:
            raise InvalidScenario(f"persistence must be >= 1, got {self.persistence}")
        if not (np.isfinite(self.step_tol) and self.step_tol > 0.0):
            raise InvalidScenario(f"step tolerance must be finite and > 0, got {self.step_tol}")
        if not (np.isfinite(self.cluster_tol) and self.cluster_tol >= 0.0):
            raise InvalidScenario(
                f"cluster tolerance must be finite and >= 0, got {self.cluster_tol}")
        if self.engine == "auto":  # the tightest engine all opinions satisfy
            rows = self.state.masses
            engine = ("pmf" if dst.is_bayesian_table(rows, self.frame) else
                      "dirichlet" if dst.is_dirichlet_table(rows, self.frame) else "general")
            object.__setattr__(self, "engine", engine)

    @cached_property
    def state(self) -> NetworkState:
        """The state every run starts from, built on first use."""
        return NetworkState.from_specs(self.frame, self.graph, self.agents)

    @property
    def leaders(self) -> tuple[int, ...]:
        """1-based indices of the cautious agents."""
        return tuple(i + 1 for i, a in enumerate(self.agents) if a.strategy is Strategy.CAUTIOUS)


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


def _object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ScenarioParseError(f"{where} must be an object, got {type(value).__name__}")
    return value


def _array(value, where: str) -> list:
    if not isinstance(value, list):
        raise ScenarioParseError(f"{where} must be an array, got {type(value).__name__}")
    return value


def _string(value, where: str) -> str:
    if not isinstance(value, str):
        raise ScenarioParseError(f"{where} must be a string, got {type(value).__name__}")
    return value


def _number(kind, value, where: str):
    # Python would read true as 1 and "0.5" as 0.5; neither is a JSON number
    if isinstance(value, (bool, str)):
        raise ScenarioParseError(f"{where} must be a number, got {value!r}")
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ScenarioParseError(f"{where} must be a number, got {value!r}") from None


def _integer(value, where: str) -> int:
    """An integer field: a boolean, a string or a number with a fractional
    part is a parse error."""
    if isinstance(value, (bool, str)) or (isinstance(value, float) and not value.is_integer()):
        raise ScenarioParseError(f"{where} must be an integer, got {value!r}")
    return _number(int, value, where)


def _agent_from_config(cfg, defaults: dict, frame: Frame,
                       rng: np.random.Generator, where: str) -> AgentSpec:
    merged = dict(defaults)
    merged.update(_object(cfg, where))
    try:
        strategy = Strategy(_string(merged.get("strategy", "receptive"), f"{where}.strategy"))
    except ValueError:
        raise InvalidScenario(f"{where}: unknown strategy {merged.get('strategy')!r}")
    alpha = _number(float, merged.get("alpha", 0.5), f"{where}.alpha")
    epsilon = _number(float, merged.get("epsilon", 1.0), f"{where}.epsilon")
    if "boe" in merged and "sample" in merged:
        raise InvalidScenario(f"{where}: give either masses or a sampling spec, not both")
    if "boe" in merged:
        boe_cfg = _object(merged["boe"], f"{where}.boe")
        if "masses" not in boe_cfg:
            raise InvalidScenario(f"{where}: bad opinion: no masses")
        entries = {key: _number(float, value, f"{where}.boe.masses")
                   for key, value in _object(boe_cfg["masses"], f"{where}.boe.masses").items()}
        try:
            boe = BodyOfEvidence(frame, dst.masses_from_dict(frame, entries))
        except ValueError as exc:
            raise InvalidScenario(f"{where}: bad opinion: {exc}")
    elif "sample" in merged:
        s = _object(merged["sample"], f"{where}.sample")
        try:
            concentrations = _array(s["dirichlet"], f"{where}.sample.dirichlet")
            targets = _array(s["targets"], f"{where}.sample.targets")
        except KeyError as exc:
            raise InvalidScenario(f"{where}: sampling spec missing {exc}")
        concentrations = tuple(_number(float, c, f"{where}.sample.dirichlet")
                               for c in concentrations)
        targets = tuple(_string(t, f"{where}.sample.targets") for t in targets)
        try:
            boe = sample_boe(SamplingSpec(concentrations, targets), frame, rng)
        except (ValueError, InvalidScenario) as exc:
            raise InvalidScenario(f"{where}: bad sample: {exc}")
    else:
        raise InvalidScenario(f"{where}: agent has neither masses nor a sampling spec")
    try:
        return AgentSpec(strategy, alpha, epsilon, boe)
    except ValueError as exc:
        raise InvalidScenario(f"{where}: {exc}")


def _build_graph(cfg: dict, base: Path, default_seed: int) -> DirectedGraph:
    if "er" in cfg:
        er = _object(cfg["er"], "graph.er")
        seed = _integer(er.get("seed", default_seed), "graph.er.seed")
        n = _integer(er["n"], "graph.er.n")
        return erdos_renyi_connected(n, _number(float, er["p"], "graph.er.p"), seed)
    if "file" in cfg:
        with open(base / _string(cfg["file"], "graph.file"), encoding="utf-8") as fh:
            cfg = _object(json.load(fh), "graph file")
    n = _integer(cfg["n"], "graph.n")
    pairs = _array(cfg["edges"], "graph.edges")
    for pair in pairs:
        if not (isinstance(pair, list) and len(pair) == 2):
            raise ScenarioParseError(f"graph.edges must hold [i, j] pairs, got {pair!r}")
    return DirectedGraph.from_mutual_pairs(
        n, [[_integer(node, "graph.edges") for node in pair] for pair in pairs])


def _graph(cfg, base: Path, seed: int) -> DirectedGraph:
    cfg = _object(cfg, "graph")
    try:
        graph = _build_graph(cfg, base, seed)
    except KeyError as exc:
        raise ScenarioParseError(f"graph misses field {exc}")
    except (TypeError, AttributeError, OverflowError) as exc:  # a value of the wrong JSON type
        raise ScenarioParseError(f"malformed graph: {exc}")
    except (OSError, json.JSONDecodeError) as exc:
        raise ScenarioParseError(f"graph file: {exc}")
    except (ValueError, NodeOutOfRange) as exc:
        raise InvalidScenario(f"graph: {exc}")
    if graph.n < 1:
        raise InvalidScenario(f"graph needs at least one node, got {graph.n}")
    return graph


def scenario_from_dict(data: dict, name: str, base: Path,
                       seed: int | None = None) -> Scenario:
    """Materialize a parsed scenario file.

    A missing field or a value of the wrong JSON type raises
    :class:`ScenarioParseError`; a well-typed value that breaks an invariant
    raises :class:`InvalidScenario`.  An ``alias`` field names the scenario
    file or asset to load instead; aliases that lead back to a file already
    on the chain are a :class:`ScenarioParseError`.
    """
    data = _object(data, "scenario")
    chain: list[Path] = []
    while "alias" in data:
        path = _resolve(_string(data["alias"], "alias"))
        seen = path.resolve() in chain
        chain.append(path.resolve())
        if seen:
            raise ScenarioParseError("alias cycle: " + " -> ".join(map(str, chain)))
        data, name, base = _object(_read(path), "scenario"), path.stem, path.parent
    name = _string(data.get("name", name), "name")
    engine = _string(data.get("engine", "auto"), "engine")
    if engine not in ENGINE_NAMES:
        raise InvalidScenario(f"engine must be one of {ENGINE_NAMES}, got {engine!r}")
    effective_seed = _integer(data.get("seed", 0) if seed is None else seed, "seed")
    if effective_seed < 0:
        raise InvalidScenario(f"seed must be >= 0, got {effective_seed}")
    for key in ("frame_size", "graph"):
        if key not in data:
            raise ScenarioParseError(f"missing field {key!r}")
    try:
        frame = Frame(_integer(data["frame_size"], "frame_size"))
    except ValueError as exc:
        raise InvalidScenario(str(exc))
    graph = _graph(data["graph"], base, effective_seed)
    rng = np.random.default_rng(effective_seed)

    defaults = _object(data.get("defaults", {}), "defaults")
    if "agents" in data:
        agent_cfgs = _array(data["agents"], "agents")
        count = len(agent_cfgs)
    elif "n_agents" in data:
        count = _integer(data["n_agents"], "n_agents")
        agent_cfgs = None
    else:
        raise ScenarioParseError("scenario needs 'agents' or 'n_agents'")
    if count != graph.n:
        raise InvalidScenario(f"agent count {count} does not match node count {graph.n}")
    if agent_cfgs is None:
        agent_cfgs = [{} for _ in range(count)]

    forced_cautious: set[int] = set()
    if "random_leaders" in data:
        leaders_cfg = _object(data["random_leaders"], "random_leaders")
        if "count" not in leaders_cfg:
            raise ScenarioParseError("random_leaders misses field 'count'")
        count = _integer(leaders_cfg["count"], "random_leaders.count")
        if not 0 <= count <= graph.n:
            raise InvalidScenario(f"random leader count {count} outside [0, {graph.n}]")
        chosen = rng.choice(graph.n, size=count, replace=False)
        forced_cautious = {int(c) + 1 for c in chosen}

    agents = []
    for k, cfg in enumerate(agent_cfgs):
        agent = _agent_from_config(cfg, defaults, frame, rng, where=f"agents[{k}]")
        if (k + 1) in forced_cautious:
            agent = replace(agent, strategy=Strategy.CAUTIOUS)
        agents.append(agent)

    tol = _object(data.get("tolerances", {}), "tolerances")
    return Scenario(
        name=name,
        frame=frame,
        graph=graph,
        agents=tuple(agents),
        engine=engine,
        max_iterations=_integer(data.get("max_iterations", DEFAULT_MAX_ITERATIONS),
                                "max_iterations"),
        step_tol=_number(float, tol.get("step", DEFAULT_STEP_TOL), "tolerances.step"),
        persistence=_integer(tol.get("persistence", DEFAULT_PERSISTENCE),
                             "tolerances.persistence"),
        cluster_tol=_number(float, tol.get("cluster", DEFAULT_CLUSTER_TOL),
                            "tolerances.cluster"),
        seed=effective_seed,
    )


def _read(path: Path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(f"{path}: {exc}")


def load_scenario(source: str, seed: int | None = None) -> Scenario:
    """Load and materialize a scenario from a file path or a built-in asset name."""
    path = _resolve(source)
    return scenario_from_dict(_read(path), name=path.stem, base=path.parent, seed=seed)
