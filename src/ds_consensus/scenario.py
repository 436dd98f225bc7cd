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
the draws.  A scenario is compiled into arrays as it loads: each distinct
agent config is parsed once (a sampling spec into its concentration array
and its target-mask array), every sampled opinion comes from one
``rng.gamma`` call over the concentrations of the sampled agents laid end
to end in agent order (the same numbers as one call per agent in turn),
the whole (N, 2**M) mass table is checked once, and the start state
(:class:`NetworkState`) is built from that table, the strategies, the
self-weights and the bounds.  A failure names the first bad agent, with
the message a check agent by agent would give.  ``Scenario.agents`` builds
one :class:`AgentSpec` per agent on first read; no load or run needs them.

Built-in assets live in the package ``assets/`` directory; the environment
variable ``DS_CONSENSUS_ASSETS`` overrides the location.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from functools import cache, partial
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import dst
from .dst import Frame
from .dynamics import AgentSpec, NetworkState, Strategy, check_unit_interval
from .errors import InvalidScenario, NodeOutOfRange, ScenarioParseError
from .graph import DirectedGraph, erdos_renyi_connected

DEFAULT_MAX_ITERATIONS = 10_000
DEFAULT_STEP_TOL = 1e-10
DEFAULT_PERSISTENCE = 10
DEFAULT_CLUSTER_TOL = 1e-3

ENGINE_NAMES = ("general", "pmf", "dirichlet", "auto")


def sample_opinions(concentrations: Sequence[np.ndarray], targets: Sequence[np.ndarray],
                    frame: Frame, rng: np.random.Generator) -> np.ndarray:
    """Draw one opinion per entry, as the rows of a (len(concentrations),
    2**M) mass table: opinion k's Dirichlet concentrations are
    ``concentrations[k]`` and ``targets[k]`` holds the subset masks its
    draws land on, in the same order.

    One ``rng.gamma`` call draws the concentrations of every opinion laid
    end to end in order, which gives the numbers one call per opinion in
    turn would.  An opinion's draws, normalized by their sum, land on its
    targets; a repeated target sums its shares in declared order.  The rows
    are not checked against the mass axioms.
    """
    sizes = np.array([len(c) for c in concentrations], dtype=np.intp)
    draws = rng.gamma(np.concatenate(concentrations), 1.0)
    starts = np.cumsum(sizes) - sizes
    for size in np.unique(sizes).tolist():  # rows of one size sum as one opinion's draws do
        at = starts[sizes == size][:, None] + np.arange(size)
        block = draws[at]
        draws[at] = block / block.sum(axis=1, keepdims=True)
    rows = np.zeros((len(sizes), frame.n_subsets))
    np.add.at(rows, (np.repeat(np.arange(len(sizes)), sizes), np.concatenate(targets)), draws)
    return rows


@dataclass(frozen=True, eq=False)
class Scenario:
    """A compiled configuration: the start state built, opinions drawn."""

    name: str
    state: NetworkState
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
            object.__setattr__(self, "engine", self.state.opinion_class)

    @property
    def frame(self) -> Frame:
        return self.state.frame

    @property
    def graph(self) -> DirectedGraph:
        return self.state.graph

    @property
    def agents(self) -> tuple[AgentSpec, ...]:
        """Every agent as an :class:`AgentSpec`, built on first read."""
        return self.state.specs

    @property
    def leaders(self) -> tuple[int, ...]:
        """1-based indices of the cautious agents."""
        return tuple((np.flatnonzero(~self.state.receptive) + 1).tolist())


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


class _AgentConfig(NamedTuple):
    """One parsed agent config: its parameters and its explicit masses or
    the Dirichlet concentrations and target masks it samples its opinion from."""

    receptive: bool
    alpha: float
    epsilon: float
    masses: np.ndarray | None
    concentrations: np.ndarray | None
    targets: np.ndarray | None
    late: InvalidScenario | None  # a bad alpha or bound, raised after the opinion's checks


def _parse_agent(cfg, defaults: dict, frame: Frame, where: str) -> _AgentConfig:
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
    masses = concentrations = targets = late = None
    if "boe" in merged:
        boe_cfg = _object(merged["boe"], f"{where}.boe")
        if "masses" not in boe_cfg:
            raise InvalidScenario(f"{where}: bad opinion: no masses")
        entries = {key: _number(float, value, f"{where}.boe.masses")
                   for key, value in _object(boe_cfg["masses"], f"{where}.boe.masses").items()}
        try:
            masses = dst.masses_from_dict(frame, entries)
        except ValueError as exc:
            raise InvalidScenario(f"{where}: bad opinion: {exc}")
    elif "sample" in merged:
        s = _object(merged["sample"], f"{where}.sample")
        try:
            concentrations = _array(s["dirichlet"], f"{where}.sample.dirichlet")
            targets = _array(s["targets"], f"{where}.sample.targets")
        except KeyError as exc:
            raise InvalidScenario(f"{where}: sampling spec missing {exc}")
        concentrations = np.array([_number(float, c, f"{where}.sample.dirichlet")
                                   for c in concentrations])
        targets = [_string(t, f"{where}.sample.targets") for t in targets]
        try:
            if len(concentrations) != len(targets):
                raise ValueError("sampling needs one concentration per target")
            if not ((0.0 < concentrations) & (concentrations < np.inf)).all():
                raise ValueError("dirichlet concentrations must be positive and finite")
            masks = []
            for target in targets:  # a target outside the frame raises ValueError
                masks.append(dst.prop_from_str(target, frame))
                if masks[-1] == 0:
                    raise ValueError("cannot assign sampled mass to the empty set")
        except ValueError as exc:
            raise InvalidScenario(f"{where}: bad sample: {exc}")
        targets = np.array(masks, dtype=np.intp)
    else:
        raise InvalidScenario(f"{where}: agent has neither masses nor a sampling spec")
    try:
        check_unit_interval("alpha", alpha)
        check_unit_interval("epsilon", epsilon)
    except ValueError as exc:
        late = InvalidScenario(f"{where}: {exc}")
    return _AgentConfig(strategy is Strategy.RECEPTIVE, alpha, epsilon, masses, concentrations,
                        targets, late)


def _agents(cfgs: list, defaults: dict, frame: Frame, rng: Callable[[], np.random.Generator]):
    """The mass table, self-weights, bounds and strategies of the agents.

    Each distinct config object is parsed once, at the first agent that
    uses it.  The first agent whose config fails, or whose row of the table
    breaks the mass axioms, raises, in the order a check agent by agent
    would meet them: its config up to the opinion, its opinion, then its
    alpha and bound.  ``rng()`` gives the scenario's generator; it is asked
    for only when some agent samples its opinion.
    """
    configs, first_use, which, error = [], {}, [], None
    for k, cfg in enumerate(cfgs):
        at = first_use.get(id(cfg))
        if at is None:
            try:
                config = _parse_agent(cfg, defaults, frame, f"agents[{k}]")
            except (ScenarioParseError, InvalidScenario) as exc:
                error = exc
                break
            at = first_use[id(cfg)] = len(configs)
            configs.append(config)
        which.append(at)
        if configs[at].late:
            error = configs[at].late
            break
    which = np.array(which, dtype=np.intp)
    blank = np.zeros(frame.n_subsets)
    table = np.array([blank if c.masses is None else c.masses for c in configs]
                     ).reshape(-1, frame.n_subsets)[which]
    is_sampled = np.array([c.targets is not None for c in configs], dtype=bool)[which]
    if is_sampled.any():
        sampled = [configs[at] for at in which[is_sampled].tolist()]
        table[is_sampled] = sample_opinions([c.concentrations for c in sampled],
                                            [c.targets for c in sampled], frame, rng())
    fault = dst.mass_table_fault(table)
    if fault:
        k, why = fault
        raise InvalidScenario(f"agents[{k}]: bad {'sample' if is_sampled[k] else 'opinion'}: {why}")
    if error:
        raise error
    return (dst.clamped_masses(table), np.array([c.alpha for c in configs])[which],
            np.array([c.epsilon for c in configs])[which],
            np.array([c.receptive for c in configs], dtype=bool)[which])


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
    rng = cache(partial(np.random.default_rng, effective_seed))  # seeded on first use

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
        agent_cfgs = [{}] * count  # one config object: parsed once

    cautious = []
    if "random_leaders" in data:
        leaders_cfg = _object(data["random_leaders"], "random_leaders")
        if "count" not in leaders_cfg:
            raise ScenarioParseError("random_leaders misses field 'count'")
        count = _integer(leaders_cfg["count"], "random_leaders.count")
        if not 0 <= count <= graph.n:
            raise InvalidScenario(f"random leader count {count} outside [0, {graph.n}]")
        cautious = rng().choice(graph.n, size=count, replace=False)

    masses, alphas, bounds, receptive = _agents(agent_cfgs, defaults, frame, rng)
    receptive[cautious] = False

    tol = _object(data.get("tolerances", {}), "tolerances")
    return Scenario(
        name=name,
        state=NetworkState(frame, graph, masses, alphas, bounds, receptive),
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
