"""Directed network layer: base graphs, bounded-confidence pruning, connectivity.

Edge ``(i, j)`` means agent ``i`` receives information from agent ``j``.
Node indices are 1-based.  Base topologies store mutual edges; asymmetry of
influence comes from the per-agent update weights and bounds of confidence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from . import dst
from .errors import InvalidScenario, NodeOutOfRange

# Largest Erdos-Renyi graph: an (N, N) float matrix, which a run forms as the
# Gram product of each pruning and the weights of each kept set, stays within
# 128 MiB.
MAX_ER_NODES = 4096
ER_ATTEMPTS = 1000  # seeds an Erdos-Renyi draw tries before it gives up on connectivity


@dataclass(frozen=True)
class DirectedGraph:
    n: int
    edges: frozenset[tuple[int, int]]
    _adj: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        for i, j in self.edges:
            if not (1 <= i <= self.n and 1 <= j <= self.n):
                raise NodeOutOfRange(f"edge ({i}, {j}) outside [1, {self.n}]")
            if i == j:
                raise ValueError(f"self-loop ({i}, {i}) not allowed; self-weight lives per agent")

    def adjacency(self) -> np.ndarray:
        """Boolean receive matrix, 0-based: ``adj[i, j]`` iff edge (i+1, j+1)."""
        if self._adj is None:
            adj = np.zeros((self.n, self.n), dtype=bool)
            for i, j in self.edges:
                adj[i - 1, j - 1] = True
            adj.setflags(write=False)
            object.__setattr__(self, "_adj", adj)
        return self._adj

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> "DirectedGraph":
        return DirectedGraph(n, frozenset((int(i), int(j)) for i, j in edges))

    @staticmethod
    def from_mutual_pairs(n: int, pairs: Iterable[tuple[int, int]]) -> "DirectedGraph":
        """Build from undirected pairs, materializing both directions."""
        e = set()
        for i, j in pairs:
            e.add((int(i), int(j)))
            e.add((int(j), int(i)))
        return DirectedGraph.from_edges(n, e)

    def mutual_pairs(self) -> list[tuple[int, int]]:
        pairs = sorted({(min(i, j), max(i, j)) for i, j in self.edges})
        for i, j in pairs:
            if (i, j) not in self.edges or (j, i) not in self.edges:
                raise ValueError(f"edge between {i} and {j} is not mutual")
        return pairs

    def to_dict(self) -> dict:
        """The graph-file form that a scenario's ``graph`` field reads back."""
        return {"n": self.n, "edges": [list(p) for p in self.mutual_pairs()]}


def kept_edges(rows: np.ndarray, cols: np.ndarray) -> frozenset[tuple[int, int]]:
    """1-based ``(i, j)`` pairs of the 0-based edges ``rows[e]`` hears ``cols[e]``."""
    return frozenset(zip((rows + 1).tolist(), (cols + 1).tolist()))


@dataclass(frozen=True)
class PrunedView:
    """Bounded-confidence view: only edges whose opinion distance fits the bound."""

    kept: np.ndarray  # boolean receive matrix, 0-based
    _edges: frozenset[tuple[int, int]] | None = field(default=None, init=False, repr=False,
                                                      compare=False)

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        if self._edges is None:
            object.__setattr__(self, "_edges", kept_edges(*np.nonzero(self.kept)))
        return self._edges

    def neighbors(self, i: int) -> set[int]:
        return {int(j) + 1 for j in np.nonzero(self.kept[i - 1])[0]}


def prune(g: DirectedGraph, masses: np.ndarray, epsilon: Sequence[float],
          frame_size: int) -> PrunedView:
    """Keep edge ``(i, j)`` iff the opinion distance is within agent i's bound.

    ``masses`` is the (N, 2**frame_size) mass table, rows in node order.
    Retention can be asymmetric when bounds differ per agent.
    """
    if masses.shape[0] != g.n:
        raise ValueError(f"need {g.n} opinions, got {masses.shape[0]}")
    eps = np.asarray(epsilon, dtype=float)
    if eps.shape != (g.n,):
        raise ValueError(f"need {g.n} bounds, got shape {eps.shape}")
    dist = dst.pairwise_jousselme(masses, frame_size)
    return PrunedView(g.adjacency() & (dist <= eps[:, None]))


def is_connected(g: DirectedGraph) -> bool:
    """Connectivity of the underlying undirected graph."""
    if g.n == 1:
        return True
    arcs: dict[int, list[int]] = {}
    for i, j in g.edges:
        arcs.setdefault(i, []).append(j)
        arcs.setdefault(j, []).append(i)
    seen = {1}
    stack = [1]
    while stack:
        for v in arcs.get(stack.pop(), ()):
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == g.n


def erdos_renyi(n: int, p: float, seed: int) -> DirectedGraph:
    """Mutual-link Erdos-Renyi graph: each pair joined with probability ``p``.

    Pairs draw one uniform each, in row-major upper-triangle order.
    """
    if not 0 <= n <= MAX_ER_NODES:
        raise InvalidScenario(f"n must be in [0, {MAX_ER_NODES}], got {n}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    rng = np.random.default_rng(seed)
    hit = rng.random(n * (n - 1) // 2) < p
    rows, cols = np.triu_indices(n, 1)
    return DirectedGraph.from_mutual_pairs(n, zip((rows[hit] + 1).tolist(),
                                                  (cols[hit] + 1).tolist()))


def erdos_renyi_connected(n: int, p: float, seed: int) -> DirectedGraph:
    """Regenerate with incremented seed until the sample is connected."""
    if n < 1:  # no graph without agents is connected: fail before drawing
        raise InvalidScenario(f"a connected graph needs at least one agent, got n={n}")
    for attempt in range(ER_ATTEMPTS):
        g = erdos_renyi(n, p, seed + attempt)
        if is_connected(g):
            return g
    raise InvalidScenario(f"no connected sample in {ER_ATTEMPTS} attempts (n={n}, p={p})")
