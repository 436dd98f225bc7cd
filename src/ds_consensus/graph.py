"""Directed network layer: base graphs, bounded-confidence pruning, components.

Edge ``(i, j)`` means agent ``i`` receives information from agent ``j``.
Node indices are 1-based.  Base topologies store mutual edges; asymmetry of
influence comes from the per-agent update weights and bounds of confidence.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from . import dst
from .errors import InvalidScenario, NodeOutOfRange

# Largest graph of any form: a whole run at this size, from the Erdos-Renyi
# draw through its cluster report, peaks within 128 MiB (tracemalloc); the
# (N, N) float matrices it holds at once peak at 149 MiB at 2048 nodes.
MAX_NODES = 1024
ER_ATTEMPTS = 1000  # seeds an Erdos-Renyi draw tries before it gives up on connectivity


@dataclass(frozen=True, eq=False)
class DirectedGraph:
    """A base graph on ``n`` nodes, held as its boolean receive matrix.

    ``DirectedGraph(n, rows, cols)`` takes the 0-based edges ``rows[e]``
    hears ``cols[e]`` as two index arrays and checks them as one array;
    :meth:`from_edges` and :meth:`from_mutual_pairs` take 1-based pairs.
    ``edges``, the 1-based pairs as a frozenset, is built on first read.
    Two graphs are equal when their nodes and edges are.
    """

    n: int
    rows: InitVar[np.ndarray]
    cols: InitVar[np.ndarray]
    _adj: np.ndarray = field(init=False, repr=False)

    def __post_init__(self, rows, cols):
        _check_node_count(self.n)
        n, i, j = self.n, np.asarray(rows), np.asarray(cols)
        fine = np.asarray((i >= 0) & (i < n) & (j >= 0) & (j < n) & (i != j), dtype=bool)
        if not fine.all():  # the first bad edge names the fault
            e = int(fine.argmin())
            a, b = i[e] + 1, j[e] + 1
            if not (1 <= a <= n and 1 <= b <= n):
                raise NodeOutOfRange(f"edge ({a}, {b}) outside [1, {n}]")
            raise ValueError(f"self-loop ({a}, {a}) not allowed; self-weight lives per agent")
        adj = np.zeros((n, n), dtype=bool)
        adj[np.asarray(i, dtype=np.intp), np.asarray(j, dtype=np.intp)] = True
        adj.setflags(write=False)
        object.__setattr__(self, "_adj", adj)

    def __eq__(self, other) -> bool:
        return (isinstance(other, DirectedGraph) and self.n == other.n
                and np.array_equal(self._adj, other._adj))

    def adjacency(self) -> np.ndarray:
        """Boolean receive matrix, 0-based: ``adj[i, j]`` iff edge (i+1, j+1)."""
        return self._adj

    @cached_property
    def edges(self) -> frozenset[tuple[int, int]]:
        """The 1-based ``(i, j)`` pairs, ``i`` hearing ``j``."""
        return kept_edges(*np.nonzero(self._adj))

    @cached_property
    def edge_index(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(i, j, i * n + j)`` of the 0-based edges, ``i`` hearing ``j``, in
        the row-major order of ``np.nonzero`` on the adjacency."""
        i, j = np.nonzero(self._adj)
        return i, j, i * self.n + j

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> "DirectedGraph":
        """From 1-based ``(i, j)`` pairs; a pair given twice counts once."""
        pairs = list(frozenset((int(i), int(j)) for i, j in edges))
        try:
            ends = np.array(pairs, dtype=np.int64).reshape(-1, 2) - 1
        except OverflowError:  # as Python ints, a node of any size is merely out of range
            ends = np.array(pairs, dtype=object).reshape(-1, 2) - 1
        return DirectedGraph(n, ends[:, 0], ends[:, 1])

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


def _check_node_count(n: int) -> None:
    if not 0 <= n <= MAX_NODES:
        raise InvalidScenario(f"n must be in [0, {MAX_NODES}], got {n}")


def kept_edges(rows: np.ndarray, cols: np.ndarray) -> frozenset[tuple[int, int]]:
    """1-based ``(i, j)`` pairs of the 0-based edges ``rows[e]`` hears ``cols[e]``."""
    return frozenset(zip((rows + 1).tolist(), (cols + 1).tolist()))


@dataclass(frozen=True, eq=False)
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


def components(relation: np.ndarray) -> np.ndarray:
    """0-based component of every node, components ordered by their first node.

    Each node is labelled with the smallest node that reaches it along
    ``relation[u, v]`` (itself included), by min-label propagation.  That
    smallest node starts the node's component in a walk that repeatedly
    takes the smallest unassigned node and everything reachable from it that
    is still unassigned, also when ``relation`` is not symmetric.  The labels
    are 32-bit, so the (N, N) table each round forms holds half of what an
    (N, N) float matrix does.
    """
    n = len(relation)
    labels = np.arange(n, dtype=np.int32)
    while True:
        heard = np.where(relation, labels[:, None], n).min(axis=0)
        new = np.minimum(labels, heard)
        new = new.take(new)  # a label's own label also reaches the node
        if np.array_equal(new, labels):
            starts = labels == np.arange(n)  # each component's first node
            return (np.cumsum(starts) - 1)[labels]
        labels = new


def is_connected(g: DirectedGraph) -> bool:
    """Connectivity of the underlying undirected graph; a graph of no node is not connected."""
    adj = g.adjacency()
    return g.n > 0 and not components(adj | adj.T).any()


def erdos_renyi(n: int, p: float, seed: int) -> DirectedGraph:
    """Mutual-link Erdos-Renyi graph: each pair joined with probability ``p``.

    Pairs draw one uniform each, in row-major upper-triangle order.
    """
    _check_node_count(n)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    rng = np.random.default_rng(seed)
    hit = rng.random(n * (n - 1) // 2) < p
    rows, cols = np.triu_indices(n, 1)
    rows, cols = rows[hit], cols[hit]
    return DirectedGraph(n, np.concatenate((rows, cols)), np.concatenate((cols, rows)))


def erdos_renyi_connected(n: int, p: float, seed: int) -> DirectedGraph:
    """Regenerate with incremented seed until the sample is connected."""
    if n < 1:  # no graph without agents is connected: fail before drawing
        raise InvalidScenario(f"a connected graph needs at least one agent, got n={n}")
    for attempt in range(ER_ATTEMPTS):
        g = erdos_renyi(n, p, seed + attempt)
        if is_connected(g):
            return g
    raise InvalidScenario(f"no connected sample in {ER_ATTEMPTS} attempts (n={n}, p={p})")
