"""Opinion-update engines.

Three engines share one contract (state in, state out, synchronous update,
bounded-confidence pruning recomputed from current opinions each step):

- ``general_step``: the conditional update rule for arbitrary opinions.
  Each agent mixes its own belief table with Fagin-Halpern-conditioned
  neighbor beliefs; updated masses are recovered by Moebius inversion.
  Update weights are proportional to the neighbor's masses (receptive
  agents) or the agent's own masses (cautious agents), normalized so that
  self-weight plus all conditional weights equals 1.
- ``pmf_step``: closed form when every opinion is Bayesian; reduces to a
  row-stochastic confidence-matrix product per singleton profile.
  Cautious Bayesian agents are invariant (identity rows).
- ``dirichlet_step``: closed form when opinions put mass only on singletons
  and the full frame; the confidence matrix need not be row-stochastic and
  the full-frame mass is whatever the singletons leave over.

A step is a pure function; states are immutable and shareable.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import NamedTuple, Sequence

import numpy as np

from . import dst
from .dst import BodyOfEvidence, Frame
from .errors import EngineMismatch, NotABeliefFunction, NotBayesian, NotDirichlet
from .graph import DirectedGraph, PrunedView, kept_edges, prune


class Strategy(Enum):
    RECEPTIVE = "receptive"  # follows: weights track the neighbor's masses
    CAUTIOUS = "cautious"    # leads: weights track the agent's own masses


@dataclass(frozen=True)
class AgentSpec:
    strategy: Strategy
    alpha: float = 0.5
    epsilon: float = 1.0
    boe: BodyOfEvidence | None = None

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError(f"epsilon must be in [0, 1], got {self.epsilon}")


@dataclass(frozen=True)
class NetworkState:
    """Opinions of all agents at one step: a stacked mass table plus specs."""

    frame: Frame
    graph: DirectedGraph
    specs: tuple[AgentSpec, ...]
    masses: np.ndarray  # (N, 2**M), row i = agent i+1
    step: int = 0

    def __post_init__(self):
        m = np.asarray(self.masses, dtype=float)
        n = self.graph.n
        if m.shape != (n, self.frame.n_subsets):
            raise ValueError(f"mass table must be ({n}, {self.frame.n_subsets}), got {m.shape}")
        if len(self.specs) != n:
            raise ValueError(f"need {n} agent specs, got {len(self.specs)}")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "masses", m)

    @staticmethod
    def from_specs(frame: Frame, graph: DirectedGraph,
                   specs: Sequence[AgentSpec]) -> "NetworkState":
        rows = []
        for k, spec in enumerate(specs):
            if spec.boe is None:
                raise ValueError(f"agent {k + 1} has no initial opinion")
            if spec.boe.frame != frame:
                raise ValueError(f"agent {k + 1} opinion not on the shared frame")
            rows.append(spec.boe.masses)
        return NetworkState(frame, graph, tuple(specs), np.vstack(rows))

    def epsilons(self) -> np.ndarray:
        return np.array([s.epsilon for s in self.specs])

    def alphas(self) -> np.ndarray:
        return np.array([s.alpha for s in self.specs])

    def with_masses(self, masses: np.ndarray) -> "NetworkState":
        return replace(self, masses=masses, step=self.step + 1)

    def with_epsilon(self, epsilon: float) -> "NetworkState":
        specs = tuple(replace(s, epsilon=epsilon) for s in self.specs)
        return replace(self, specs=specs)

    def pruned(self) -> PrunedView:
        return prune(self.graph, self.masses, self.epsilons(), self.frame.size)


@dataclass(frozen=True)
class ConfidenceMatrix:
    """Per-step weight matrix driving the opinion-profile iteration."""

    matrix: np.ndarray
    row_stochastic: bool

    def __post_init__(self):
        w = np.asarray(self.matrix, dtype=float)
        if self.row_stochastic:
            gaps = np.abs(w.sum(axis=1) - 1.0)
            if gaps.max() > dst.ALGEBRAIC_TOL:
                raise ValueError(f"row sums deviate from 1 by {gaps.max()!r}")
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "matrix", w)


# ---------------------------------------------------------------------------
# Conditional-update weights (general engine)
# ---------------------------------------------------------------------------

# The update sums its conditional terms in blocks of slots, so its working
# set does not grow with the number of terms: a block holds at most this many
# (slot, agent, subset) products, or one slot when that is already more.
TERM_BLOCK = 1 << 20


class ConditionalWeights(NamedTuple):
    """Self-weights of all agents plus their conditional terms, one per entry.

    Agent ``agent[t]`` (0-based) weights the conditional of neighbor
    ``neighbor[t]`` given subset ``subset[t]`` by ``beta[t]``.  Terms are
    ordered by agent, then neighbor, then subset mask; ``slot[t]`` is the
    term's position among its agent's terms.  ``alpha`` is 1 for agents
    with no term (they keep their opinion).
    """

    alpha: np.ndarray
    agent: np.ndarray
    neighbor: np.ndarray
    subset: np.ndarray
    beta: np.ndarray
    slot: np.ndarray


def conditional_weights(masses: np.ndarray, kept: np.ndarray, alphas: np.ndarray,
                        receptive: np.ndarray, bl: np.ndarray | None = None
                        ) -> ConditionalWeights:
    """Weights every agent applies this step, given the kept receive matrix.

    Receptive: each kept neighbor gets an equal share of ``1 - alpha``,
    spread over that neighbor's focal elements in proportion to its masses.
    Cautious: weights are proportional to the agent's own masses, restricted
    to sets the neighbor assigns positive belief, with one common factor
    solved from the normalization constraint.  No kept neighbor (or no
    usable conditioning set) collapses to self-preservation.
    """
    n = len(alphas)
    if bl is None:
        bl = dst.belief_table(masses)
    src, nbr = np.nonzero(kept)  # agent ascending, then neighbor ascending
    rec = receptive[src]
    pos = masses > 0.0
    use = np.where(rec[:, None], pos[nbr], pos[src] & (bl[nbr] > 0.0))
    edge, subset = np.nonzero(use)
    agent, neighbor, rec = src[edge], nbr[edge], rec[edge]
    terms = np.bincount(agent, minlength=n)
    slot = np.arange(len(agent)) - (np.cumsum(terms) - terms)[agent]
    own = masses[agent, subset]
    # a cautious agent's normalizer: its covered own masses, summed in term
    # order (over the slot axis, never the contiguous one: left to right)
    covered = np.zeros((slot.max(initial=-1) + 1, n))
    covered[slot, agent] = own
    covered = np.add.reduce(covered, axis=0)
    # a receptive agent splits 1 - alpha equally over its kept neighbors
    parts = np.where(rec, np.bincount(src, minlength=n)[agent], covered[agent])
    beta = (1.0 - alphas[agent]) / parts * np.where(rec, masses[neighbor, subset], own)
    alpha = np.where(terms > 0, alphas, 1.0)
    return ConditionalWeights(alpha, agent, neighbor, subset, beta, slot)


def _general_update(masses: np.ndarray, kept: np.ndarray, alphas: np.ndarray,
                    receptive: np.ndarray) -> np.ndarray:
    """New mass table after one synchronous conditional update of every agent."""
    n, k = masses.shape
    bl = dst.belief_table(masses)
    w = conditional_weights(masses, kept, alphas, receptive, bl)

    # Fagin-Halpern conditionals Bl_j(b | a) = Bl_j(a & b) / (Bl_j(a & b) +
    # Pl_j(a & ~b)) of the (neighbor j, subset a) pairs in use, keyed j * k + a,
    # one row per pair and a last row of zeros
    key = w.neighbor * k + w.subset
    used = np.zeros(n * k, dtype=bool)
    used[key] = True
    pairs = np.flatnonzero(used)
    row = np.zeros(n * k, dtype=np.intp)
    row[pairs] = np.arange(len(pairs))
    a = (pairs & (k - 1))[:, None]
    bs = np.arange(k)
    num = bl.take(pairs[:, None] - a + (a & bs))
    den = num + dst.plausibility_table(bl).take(pairs[:, None] - a + (a & ~bs))
    cond = np.zeros((len(pairs) + 1, k))
    np.divide(num, den, out=cond[:-1], where=den > 0.0)

    # alpha * bl + sum of beta * conditional, term by term in the agent's
    # order: padded (slot, agent) tables reduced over the leading axis
    depth = int(w.slot.max(initial=-1)) + 1
    pick = np.full((depth, n), len(pairs))
    pick[w.slot, w.agent] = row[key]
    beta = np.zeros((depth, n, 1))
    beta[w.slot, w.agent, 0] = w.beta
    new_bl = w.alpha[:, None] * bl
    block = max(1, TERM_BLOCK // (n * k))
    for lo in range(0, depth, block):
        hi = min(lo + block, depth)
        stack = np.empty((hi - lo + 1, n, k))
        stack[0] = new_bl
        np.take(cond, pick[lo:hi], axis=0, out=stack[1:])
        stack[1:] *= beta[lo:hi]
        new_bl = np.add.reduce(stack, axis=0)

    new_masses = dst.mass_table(new_bl)
    worst = new_masses.min()
    if worst < -dst.ITERATED_TOL:
        raise NotABeliefFunction(f"update produced mass {worst!r}")
    np.clip(new_masses, 0.0, None, out=new_masses)
    new_masses[:, 0] = 0.0
    new_masses /= new_masses.sum(axis=1, keepdims=True)
    unchanged = np.bincount(w.agent, minlength=n) == 0
    new_masses[unchanged] = masses[unchanged]
    return new_masses


def general_step(state: NetworkState, pruned: PrunedView | None = None) -> NetworkState:
    """One synchronous conditional update of every agent (any opinion class)."""
    if pruned is None:
        pruned = state.pruned()
    return state.with_masses(_general_update(state.masses, pruned.kept, state.alphas(),
                                             _receptive(state.specs)))


# ---------------------------------------------------------------------------
# Closed-form engines
# ---------------------------------------------------------------------------

def _receptive(specs: Sequence[AgentSpec]) -> np.ndarray:
    return np.array([s.strategy is Strategy.RECEPTIVE for s in specs])


def _profiles(masses: np.ndarray, frame: Frame,
              dirichlet: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """Singleton profiles (N, M) and, for Dirichlet, the full-frame masses (N,).

    A frame of size 1 has no full-frame column apart from its singleton, so
    its Dirichlet opinions are Bayesian and carry no separate full-frame mass.
    """
    cols = dst.support_columns(frame, with_full=dirichlet)
    p = masses[:, cols[:frame.size]]
    theta = masses[:, cols[frame.size]] if len(cols) > frame.size else None
    return p, theta


def _pmf_weights(i: np.ndarray, flat: np.ndarray, alphas: np.ndarray,
                 receptive: np.ndarray) -> ConfidenceMatrix:
    """Weights of the kept edges: agent i[e] hears j[e], flat[e] = i[e] * N + j[e]."""
    n = len(alphas)
    counts = np.bincount(i, minlength=n)
    active = receptive & (counts > 0)
    share = np.where(active, (1.0 - alphas) / np.maximum(counts, 1), 0.0)
    w = np.zeros((n, n))
    cells = w.reshape(-1)  # a view: writes land in w
    cells[flat] = share[i]
    cells[::n + 1] = np.where(active, alphas, 1.0)
    return ConfidenceMatrix(w, row_stochastic=True)


def _pmf_matrix(kept: np.ndarray, alphas: np.ndarray,
                receptive: np.ndarray) -> ConfidenceMatrix:
    """:func:`_pmf_weights` of the edges a receive matrix keeps."""
    flat = np.flatnonzero(kept)
    return _pmf_weights(flat // len(kept), flat, alphas, receptive)


def _dirichlet_weights(kept: np.ndarray, alphas: np.ndarray, receptive: np.ndarray,
                       theta: np.ndarray) -> ConfidenceMatrix:
    n = kept.shape[0]
    counts = kept.sum(axis=1)
    has = counts > 0
    safe = np.maximum(counts, 1)
    # receptive rows amplify each neighbor by that neighbor's full-frame mass;
    # cautious rows keep the diagonal at 1 and leak by their own full-frame mass
    rec_rows = (kept * ((1.0 - alphas) / safe)[:, None]) * (1.0 + theta)[None, :]
    cau_rows = kept * ((1.0 - alphas) * theta / safe)[:, None]
    w = np.where((receptive & has)[:, None], rec_rows,
                 np.where(has[:, None], cau_rows, 0.0))
    w[np.arange(n), np.arange(n)] = np.where(receptive & has, alphas, 1.0)
    return ConfidenceMatrix(w, row_stochastic=False)


def _dirichlet_update(w: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """New singleton profiles and the full-frame mass they leave over."""
    new_p = w @ p
    leftover = 1.0 - new_p.sum(axis=1)
    if leftover.min() < -1e-10:
        raise NotDirichlet(f"mass conservation violated by {leftover.min()!r}")
    return new_p, np.clip(leftover, 0.0, None)


def pmf_confidence_matrix(state: NetworkState, pruned: PrunedView) -> ConfidenceMatrix:
    """Row-stochastic weights for Bayesian opinions.

    Receptive row: self-weight on the diagonal, the rest split equally over
    in-bound neighbors; with no neighbors the row is the identity row.
    Cautious row: identity (a cautious Bayesian agent never moves).
    """
    if not dst.is_bayesian_table(state.masses, state.frame):
        raise NotBayesian("pmf engine requires Bayesian opinions")
    return _pmf_matrix(pruned.kept, state.alphas(), _receptive(state.specs))


def dirichlet_confidence_matrix(state: NetworkState, pruned: PrunedView) -> ConfidenceMatrix:
    """Singleton-profile weights for Dirichlet opinions (not row-stochastic).

    Receptive rows amplify each neighbor share by that neighbor's
    full-frame mass; cautious rows keep the diagonal at 1 and leak in
    neighbor opinions scaled by the agent's own full-frame mass.
    """
    if not dst.is_dirichlet_table(state.masses, state.frame):
        raise NotDirichlet("dirichlet engine requires Dirichlet opinions")
    _, theta = _profiles(state.masses, state.frame, dirichlet=True)
    if theta is None:
        return _pmf_matrix(pruned.kept, state.alphas(), _receptive(state.specs))
    return _dirichlet_weights(pruned.kept, state.alphas(), _receptive(state.specs), theta)


def pmf_step(state: NetworkState, pruned: PrunedView | None = None) -> NetworkState:
    if pruned is None:
        pruned = state.pruned()
    w = pmf_confidence_matrix(state, pruned).matrix
    p, _ = _profiles(state.masses, state.frame, dirichlet=False)
    new_masses = np.zeros_like(state.masses)
    new_masses[:, dst.support_columns(state.frame)] = w @ p
    return state.with_masses(new_masses)


def dirichlet_step(state: NetworkState, pruned: PrunedView | None = None) -> NetworkState:
    if pruned is None:
        pruned = state.pruned()
    w = dirichlet_confidence_matrix(state, pruned).matrix
    p, theta = _profiles(state.masses, state.frame, dirichlet=True)
    if theta is None:
        return pmf_step(state, pruned)
    new_p, new_theta = _dirichlet_update(w, p)
    new_masses = np.zeros_like(state.masses)
    new_masses[:, dst.support_columns(state.frame)] = new_p
    new_masses[:, state.frame.full_set] = new_theta
    return state.with_masses(new_masses)


def theta_weight_matrix(state: NetworkState, pruned: PrunedView) -> np.ndarray:
    """Self-weights plus full-frame conditional weights, as one matrix.

    Row sums bound the decay of the full-frame ("complete ambiguity") mass:
    while every row sum stays at most rho < 1, the largest full-frame mass
    shrinks at least geometrically with ratio rho.
    """
    w = conditional_weights(state.masses, pruned.kept, state.alphas(),
                            _receptive(state.specs))
    gamma = np.diag(w.alpha)
    full = w.subset == state.frame.full_set
    gamma[w.agent[full], w.neighbor[full]] = w.beta[full]
    return gamma


# ---------------------------------------------------------------------------
# Whole runs
# ---------------------------------------------------------------------------

# Certified pruning.  A full pruning keeps edge (i, j) iff the computed
# distance d_ij <= eps_i.  DISTANCE_ERROR bounds the error of one computed
# distance: profile rows are non-negative with sum 1 and Jaccard entries lie
# in [0, 1], so every Gram entry g_ij = x_i J x_j lies in [0, 1] and is off
# by at most 2 gamma_K <= 4e-15 for K <= 17 columns (gamma_K = K u / (1 - K u),
# u = 2**-53).  The squared distance 0.5 (g_ii + g_jj - 2 g_ij) is then off by
# at most 0.5 (4 * 4e-15 + 2 * 2u) < 8.3e-15, and since
# |sqrt(a) - sqrt(b)| <= sqrt(|a - b|) the distance by less than 9.2e-8;
# clipping to [0, 1] only moves toward the exact value.  The rest of
# DISTANCE_ERROR covers the rounding of the gaps below.
#
# The Jousselme distance is a metric, so if every agent has moved along a
# path of length at most r since the last pruning, the exact d_ij has moved
# by at most 2 r, or by r when one of i and j has not moved, and the
# computed one by at most that plus 2 DISTANCE_ERROR.  So with gap_ij =
# |d_ij - eps_i| - 2 DISTANCE_ERROR, no computed distance can have crossed
# its bound while 2 r stays below gap_ij on edges between two moving agents
# and below 2 gap_ij on edges with one: the kept edges are those a full
# pruning would give, and the pruning is skipped.  An edge between two
# agents that do not move keeps its computed distance bit for bit (the same
# rows give the same Gram entries) and needs no budget.  A pmf agent does
# not move while its weight row is the identity (it is cautious, keeps no
# edge or has self-weight 1), which holds until the kept edges change;
# Dirichlet agents are all counted as moving.  One step moves an agent by
# sqrt(0.5 dx J dx) <= sqrt(0.5 K lambda_max(J)) max|dx|, and lambda_max(J)
# is at most J's largest row sum (its entries are non-negative), so each
# step spends twice that bound times the step's largest mass change.
# MOVE_SLACK covers the relative rounding of that product, and
# MOVE_ROUNDING the rounding of each subtraction, at most 2**-53 while the
# budget is positive (it starts below 2).
DISTANCE_ERROR = 1e-7
MOVE_SLACK = 1e-6
MOVE_ROUNDING = 2.0 ** -52


class ProfileRun:
    """A pmf or Dirichlet run on singleton profiles, stepped one step at a time.

    State is the (N, M) singleton profile, plus the full-frame masses for
    Dirichlet.  The opinion class is checked once, here; adjacency, bounds,
    self-weights, strategies and the Jaccard block of the profile columns
    are fixed for the run.  Pruning computes distances on the base edges
    only, and is recomputed only when the certificate above no longer holds;
    the pmf weight matrix is rebuilt only when the kept edges change.  So
    every step gives the same masses, kept edges and weights as
    :func:`pmf_step` / :func:`dirichlet_step` would.  (Distances on the
    profile columns equal those of the dense mass table bit for bit up to
    four singletons; beyond that they agree to about 4e-16, so a kept edge
    could differ only for a distance that close to its bound.)
    """

    def __init__(self, state: NetworkState, engine: str):
        if engine not in ("pmf", "dirichlet"):
            raise EngineMismatch(f"no profile engine {engine!r}")
        dirichlet = engine == "dirichlet"
        if dirichlet and not dst.is_dirichlet_table(state.masses, state.frame):
            raise EngineMismatch("dirichlet engine requires Dirichlet opinions")
        if not dirichlet and not dst.is_bayesian_table(state.masses, state.frame):
            raise EngineMismatch("pmf engine requires Bayesian opinions")
        self.frame = state.frame
        self.p, self.theta = _profiles(state.masses, state.frame, dirichlet)
        self._cols = dst.support_columns(state.frame, with_full=self.theta is not None)
        self._jaccard = dst.jaccard_block(self._cols)
        self._adj = state.graph.adjacency()
        src, nbr = np.nonzero(self._adj)     # base edge e: agent src[e] hears nbr[e]
        self._pairs = src, nbr, src * len(self._adj) + nbr
        self._edge_eps = state.epsilons()[src]
        self._alphas = state.alphas()
        self._receptive = _receptive(state.specs)
        self._kept_mask: np.ndarray | None = None  # per base edge, at the last pruning
        self._kept: np.ndarray | None = None       # the same as a receive matrix, on demand
        # per base edge: whether an endpoint moves, and 2 if only one of them does
        self._watched = np.ones(len(src), dtype=bool)
        self._gap_scale = np.ones(len(src))
        self._w: np.ndarray | None = None      # pmf weights of the kept edges
        self._edges: frozenset | None = None
        bound = np.sqrt(0.5 * len(self._cols) * self._jaccard.sum(axis=1).max())
        self._spend_per_change = 2.0 * (1.0 + MOVE_SLACK) * float(bound)
        self._budget = 0.0  # what 2 r may still grow to before a re-pruning
        self._stale = True
        self.prunes = 0

    def _rows(self) -> np.ndarray:
        return self.p if self.theta is None else np.column_stack((self.p, self.theta))

    def _certify(self) -> None:
        """Redo the pruning unless the certificate still holds."""
        if not self._stale:
            return
        dist = dst.gram_distances(self._rows(), self._jaccard, self._pairs)
        kept = dist <= self._edge_eps
        if self._kept_mask is None or kept.tobytes() != self._kept_mask.tobytes():
            self._kept_mask, self._kept, self._edges = kept, None, None
            if self.theta is None:
                self._adopt_pmf_weights()
        gaps = np.abs(dist - self._edge_eps)
        gaps -= 2.0 * DISTANCE_ERROR
        gaps *= self._gap_scale
        self._budget = float(np.min(gaps, where=self._watched, initial=np.inf))
        self._stale = False
        self.prunes += 1

    def _adopt_pmf_weights(self) -> None:
        """Weights of the new kept edges, and the edges whose distance they can move."""
        src, _, flat = self._pairs
        kept = np.flatnonzero(self._kept_mask)
        self._w = _pmf_weights(src.take(kept), flat.take(kept), self._alphas,
                               self._receptive).matrix
        # a diagonal of 1 leaves every neighbour a share of exactly 0: the row
        # is the identity and w @ p returns that agent's profile bit for bit
        moves = (self._w.diagonal() != 1.0).view(np.int8)
        movers = moves[src] + moves[self._pairs[1]]
        self._watched = movers > 0
        self._gap_scale = 2.0 / np.maximum(movers, 1)

    @property
    def kept(self) -> np.ndarray:
        """Receive matrix of the edges kept at the current opinions."""
        self._certify()
        if self._kept is None:
            src, nbr, _ = self._pairs
            self._kept = np.zeros_like(self._adj)
            self._kept[src[self._kept_mask], nbr[self._kept_mask]] = True
        return self._kept

    def edges(self) -> frozenset[tuple[int, int]]:
        kept = self.kept
        if self._edges is None:
            self._edges = kept_edges(kept)
        return self._edges

    def weights(self) -> np.ndarray:
        """This step's confidence matrix (read-only)."""
        if self.theta is not None:
            return _dirichlet_weights(self.kept, self._alphas, self._receptive,
                                      self.theta).matrix
        self._certify()
        return self._w

    def step(self) -> float:
        """Advance every agent one synchronous step; return the largest mass change."""
        w = self.weights()
        if self.theta is None:
            new_p = w @ self.p
            change = float(np.max(np.abs(new_p - self.p)))
        else:
            new_p, new_theta = _dirichlet_update(w, self.p)
            change = max(float(np.max(np.abs(new_p - self.p))),
                         float(np.max(np.abs(new_theta - self.theta))))
            self.theta = new_theta
        # column-major like the column selection in pmf_step, so the matrix
        # product runs the same BLAS kernel and rounds the same way
        self.p = np.asfortranarray(new_p)
        self._budget -= self._spend_per_change * change + MOVE_ROUNDING
        self._stale = self._budget <= 0.0
        return change

    def masses(self) -> np.ndarray:
        """Current opinions as a dense (N, 2**M) mass table."""
        out = np.zeros((self.p.shape[0], self.frame.n_subsets))
        out[:, self._cols[:self.frame.size]] = self.p
        if self.theta is not None:
            out[:, self.frame.full_set] = self.theta
        out.setflags(write=False)
        return out


class GeneralRun:
    """A general-engine run, stepped like :class:`ProfileRun`.

    State is the (N, 2**M) mass table; adjacency, bounds, self-weights and
    strategies are fixed for the run.  Pruning is recomputed after every
    step, so each step gives the masses and kept edges of
    :func:`general_step`.
    """

    def __init__(self, state: NetworkState):
        self.frame = state.frame
        self._m = state.masses
        self._adj = state.graph.adjacency()
        self._eps = state.epsilons()[:, None]
        self._alphas = state.alphas()
        self._receptive = _receptive(state.specs)
        self._kept: np.ndarray | None = None
        self._edges: frozenset | None = None

    @property
    def kept(self) -> np.ndarray:
        """Receive matrix of the edges kept at the current opinions."""
        if self._kept is None:
            dist = dst.pairwise_jousselme(self._m, self.frame.size)
            self._kept = self._adj & (dist <= self._eps)
        return self._kept

    def edges(self) -> frozenset[tuple[int, int]]:
        if self._edges is None:
            self._edges = kept_edges(self.kept)
        return self._edges

    def step(self) -> float:
        """Advance every agent one synchronous step; return the largest mass change."""
        new = _general_update(self._m, self.kept, self._alphas, self._receptive)
        change = float(np.max(np.abs(new - self._m)))
        new.setflags(write=False)
        self._m, self._kept, self._edges = new, None, None
        return change

    def masses(self) -> np.ndarray:
        """Current opinions (read-only)."""
        return self._m
