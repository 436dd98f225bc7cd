import json
from dataclasses import replace
from types import SimpleNamespace
from typing import Sequence

import numpy as np
import pytest

from ds_consensus import dst, graph, scenario
from ds_consensus.dst import BodyOfEvidence, Frame
from ds_consensus.dynamics import (AgentSpec, NetworkState, Strategy, _term_structure,
                                   _term_weights)
from ds_consensus.errors import FrameMismatch, InvalidScenario
from ds_consensus.graph import DirectedGraph, PrunedView


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)


def at_bound(state: NetworkState, epsilon: float | None) -> NetworkState:
    """``state`` with every agent's bound set to ``epsilon`` (None keeps them)."""
    return state if epsilon is None else replace(
        state, bounds=np.full(state.graph.n, epsilon))


# ---------------------------------------------------------------------------
# The per-opinion layer: no run uses it, the tests check the kernel against it
# ---------------------------------------------------------------------------

def belief_table(masses: np.ndarray) -> np.ndarray:
    """Belief of every subset from a mass table (subset-sum zeta transform)."""
    bl = np.array(masses, dtype=float, copy=True, order="C")
    dst._zeta(dst._lattice_steps(bl))
    return bl


def mass_table(beliefs: np.ndarray) -> np.ndarray:
    """Invert :func:`belief_table` (Moebius inversion over the subset lattice)."""
    m = np.array(beliefs, dtype=float, copy=True, order="C")
    dst._moebius(dst._lattice_steps(m))
    return m


def masses_from_beliefs(frame: Frame, beliefs: np.ndarray) -> BodyOfEvidence:
    """Recover the mass function whose belief table equals ``beliefs``, by
    the general engine's own recovery (:func:`dst._recover_masses`)."""
    bl = np.asarray(beliefs, dtype=float)
    if bl.shape != (frame.n_subsets,):
        raise ValueError(f"expected {frame.n_subsets} belief values, got shape {bl.shape}")
    if abs(bl[0]) > dst.ALGEBRAIC_TOL:
        raise ValueError(f"belief of the empty set must be 0, got {bl[0]!r}")
    if abs(bl[frame.full_set] - 1.0) > dst.ITERATED_TOL:
        raise ValueError(f"belief of the full frame must be 1, got {bl[frame.full_set]!r}")
    m = np.array(bl, copy=True, order="C")
    dst._recover_masses(m, dst._lattice_steps(m))
    return BodyOfEvidence(frame, m)


def _quadratic_distance(diff: np.ndarray, size: int) -> float:
    if size <= dst._DENSE_JACCARD_LIMIT:
        q = 0.5 * float(diff @ dst.jaccard_matrix(size) @ diff)
    else:
        support = np.nonzero(diff)[0]
        sub = diff[support]
        q = 0.5 * float(sub @ dst.jaccard_block(support) @ sub)
    return float(np.sqrt(min(max(q, 0.0), 1.0)))


def jousselme_distance(e1: BodyOfEvidence, e2: BodyOfEvidence) -> float:
    """Jaccard-weighted quadratic-form distance between two opinions, in
    [0, 1], on their difference: the reference of the Gram form."""
    if e1.frame != e2.frame:
        raise FrameMismatch(f"frames differ: {e1.frame} vs {e2.frame}")
    return _quadratic_distance(e1.masses - e2.masses, e1.frame.size)


def state_from_specs(frame: Frame, graph: DirectedGraph,
                     specs: Sequence[AgentSpec]) -> NetworkState:
    """The start state of agents given one spec each, in node order."""
    if len(specs) != graph.n:
        raise ValueError(f"need {graph.n} agent specs, got {len(specs)}")
    for k, spec in enumerate(specs):
        if spec.boe.frame != frame:
            raise ValueError(f"agent {k + 1} opinion not on the shared frame")
    return NetworkState(
        frame, graph, np.reshape([s.boe.masses for s in specs], (-1, frame.n_subsets)),
        [s.alpha for s in specs], [s.epsilon for s in specs],
        [s.strategy is Strategy.RECEPTIVE for s in specs])


def pruned(state: NetworkState) -> PrunedView:
    """The state's dense pruning, through ``graph.prune`` as a module
    attribute, where the benchmark's tracer sits."""
    return graph.prune(state.graph, state.masses, state.bounds, state.frame.size)


def view_edges(view: PrunedView) -> frozenset[tuple[int, int]]:
    """The 1-based ``(i, j)`` pairs a pruned view keeps."""
    return graph.kept_edges(*np.nonzero(view.kept))


def neighbors(view: PrunedView, i: int) -> set[int]:
    """The 1-based agents that agent ``i`` still hears in the view."""
    return {int(j) + 1 for j in np.nonzero(view.kept[i - 1])[0]}


def random_general_boe(frame: Frame, rng) -> BodyOfEvidence:
    """Strictly positive mass on every non-empty subset."""
    m = np.zeros(frame.n_subsets)
    m[1:] = rng.gamma(shape=1.0, size=frame.n_subsets - 1) + 1e-6
    m /= m.sum()
    return BodyOfEvidence(frame, m)


def random_bayesian_boe(frame: Frame, rng) -> BodyOfEvidence:
    m = np.zeros(frame.n_subsets)
    draw = rng.gamma(shape=1.0, size=frame.size) + 1e-6
    draw /= draw.sum()
    for p in range(frame.size):
        m[1 << p] = draw[p]
    return BodyOfEvidence(frame, m)


def random_dirichlet_boe(frame: Frame, rng) -> BodyOfEvidence:
    m = np.zeros(frame.n_subsets)
    draw = rng.gamma(shape=1.0, size=frame.size + 1) + 1e-6
    draw /= draw.sum()
    for p in range(frame.size):
        m[1 << p] = draw[p]
    m[frame.full_set] = draw[frame.size]
    return BodyOfEvidence(frame, m)


def general_weights(state: NetworkState, view: PrunedView) -> SimpleNamespace:
    """The weights of one general step, read off the engine's term structure:
    every agent's self-weight (``alpha``) and each term's agent, neighbor,
    conditioning subset and weight (``beta``), in the structure's order."""
    masses = state.masses
    terms = _term_structure(*np.nonzero(view.kept), masses > 0.0,
                            belief_table(masses) > 0.0, state.alphas, state.receptive)
    self_weight, _ = _term_weights(terms, masses)
    return SimpleNamespace(alpha=self_weight[:, 0].copy(), agent=terms.agent,
                           neighbor=terms.neighbor, subset=terms.subset,
                           beta=terms.weight_cells[terms.cell])


def theta_weight_matrix(state: NetworkState, view: PrunedView) -> np.ndarray:
    """Self-weights plus full-frame conditional weights, as one matrix.

    Row sums bound the decay of the full-frame ("complete ambiguity") mass:
    while every row sum stays at most rho < 1, the largest full-frame mass
    shrinks at least geometrically with ratio rho.
    """
    w = general_weights(state, view)
    gamma = np.diag(w.alpha)
    full = w.subset == state.frame.full_set
    gamma[w.agent[full], w.neighbor[full]] = w.beta[full]
    return gamma


# ---------------------------------------------------------------------------
# The per-agent loader, kept as the oracle of the array loader
# ---------------------------------------------------------------------------

def _oracle_sample(concentrations, targets, frame: Frame, rng) -> BodyOfEvidence:
    """One opinion: its own gamma draw, normalized, added target by target."""
    if len(concentrations) != len(targets):
        raise InvalidScenario("sampling needs one concentration per target")
    if not all(0.0 < c < np.inf for c in concentrations):
        raise InvalidScenario("dirichlet concentrations must be positive and finite")
    draws = rng.gamma(shape=np.asarray(concentrations, dtype=float), scale=1.0)
    coords = draws / draws.sum()
    masses = np.zeros(frame.n_subsets)
    for value, target in zip(coords, targets):
        mask = dst.prop_from_str(target, frame)
        if mask == 0:
            raise InvalidScenario("cannot assign sampled mass to the empty set")
        masses[mask] += value
    return BodyOfEvidence(frame, masses)


def _oracle_agent(cfg, defaults: dict, frame: Frame, rng, where: str) -> AgentSpec:
    """One agent config, parsed, drawn and checked on its own."""
    merged = dict(defaults)
    merged.update(scenario._object(cfg, where))
    try:
        strategy = Strategy(scenario._string(merged.get("strategy", "receptive"),
                                             f"{where}.strategy"))
    except ValueError:
        raise InvalidScenario(f"{where}: unknown strategy {merged.get('strategy')!r}")
    alpha = scenario._number(float, merged.get("alpha", 0.5), f"{where}.alpha")
    epsilon = scenario._number(float, merged.get("epsilon", 1.0), f"{where}.epsilon")
    if "boe" in merged and "sample" in merged:
        raise InvalidScenario(f"{where}: give either masses or a sampling spec, not both")
    if "boe" in merged:
        boe_cfg = scenario._object(merged["boe"], f"{where}.boe")
        if "masses" not in boe_cfg:
            raise InvalidScenario(f"{where}: bad opinion: no masses")
        entries = {key: scenario._number(float, value, f"{where}.boe.masses")
                   for key, value in scenario._object(boe_cfg["masses"],
                                                      f"{where}.boe.masses").items()}
        try:
            boe = BodyOfEvidence(frame, dst.masses_from_dict(frame, entries))
        except ValueError as exc:
            raise InvalidScenario(f"{where}: bad opinion: {exc}")
    elif "sample" in merged:
        s = scenario._object(merged["sample"], f"{where}.sample")
        try:
            concentrations = scenario._array(s["dirichlet"], f"{where}.sample.dirichlet")
            targets = scenario._array(s["targets"], f"{where}.sample.targets")
        except KeyError as exc:
            raise InvalidScenario(f"{where}: sampling spec missing {exc}")
        concentrations = tuple(scenario._number(float, c, f"{where}.sample.dirichlet")
                               for c in concentrations)
        targets = tuple(scenario._string(t, f"{where}.sample.targets") for t in targets)
        try:
            boe = _oracle_sample(concentrations, targets, frame, rng)
        except (ValueError, InvalidScenario) as exc:
            raise InvalidScenario(f"{where}: bad sample: {exc}")
    else:
        raise InvalidScenario(f"{where}: agent has neither masses nor a sampling spec")
    try:
        return AgentSpec(strategy, alpha, epsilon, boe)
    except ValueError as exc:
        raise InvalidScenario(f"{where}: {exc}")


def _oracle_er_edges(n: int, p: float, seed: int) -> frozenset:
    """The first connected draw, pair by pair in row-major upper-triangle order."""
    for attempt in range(1000):
        hits = iter(np.random.default_rng(seed + attempt).random(n * (n - 1) // 2) < p)
        edges = {e for i in range(1, n + 1) for j in range(i + 1, n + 1) if next(hits)
                 for e in ((i, j), (j, i))}
        seen, todo = {1}, [1]
        while todo:
            i = todo.pop()
            for a, b in edges:
                if a == i and b not in seen:
                    seen.add(b)
                    todo.append(b)
        if len(seen) == n:
            return frozenset(edges)
    raise AssertionError("no connected draw")


def oracle_load(data: dict, seed: int | None = None) -> dict:
    """What the per-agent loader made of a valid scenario dict (aliases
    resolved): the mass table, the edge set, the strategies, the
    self-weights and the bounds, or the error its first bad agent raised."""
    seed = data.get("seed", 0) if seed is None else seed
    frame = Frame(data["frame_size"])
    graph = data["graph"]
    if "er" in graph:
        n = graph["er"]["n"]
        edges = _oracle_er_edges(n, graph["er"]["p"], graph["er"].get("seed", seed))
    else:
        n = graph["n"]
        edges = frozenset(e for i, j in graph["edges"] for e in ((i, j), (j, i)))
    rng = np.random.default_rng(seed)
    cfgs = data["agents"] if "agents" in data else [{}] * data["n_agents"]
    forced = set()
    if "random_leaders" in data:
        chosen = rng.choice(n, size=data["random_leaders"]["count"], replace=False)
        forced = {int(c) for c in chosen}
    specs = [_oracle_agent(cfg, data.get("defaults", {}), frame, rng, f"agents[{k}]")
             for k, cfg in enumerate(cfgs)]
    return {"masses": np.vstack([s.boe.masses for s in specs]), "edges": edges,
            "receptive": np.array([s.strategy is Strategy.RECEPTIVE and k not in forced
                                   for k, s in enumerate(specs)]),
            "alphas": np.array([s.alpha for s in specs]),
            "bounds": np.array([s.epsilon for s in specs])}


def asset_data(name: str) -> dict:
    """An asset's scenario dict, its aliases followed."""
    data = {"alias": name}
    while "alias" in data:
        data = json.loads(scenario._resolve(data["alias"]).read_text(encoding="utf-8"))
    return data
