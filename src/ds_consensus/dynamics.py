"""Opinion-update engines.

Three engines share one contract (synchronous update, bounded-confidence
pruning recomputed from current opinions each step):

- ``general``: the conditional update rule for arbitrary opinions.
  Each agent mixes its own belief table with Fagin-Halpern-conditioned
  neighbor beliefs; updated masses are recovered by Moebius inversion.
  Update weights are proportional to the neighbor's masses (receptive
  agents) or the agent's own masses (cautious agents), normalized so that
  self-weight plus all conditional weights equals 1.
- ``pmf``: closed form when every opinion is Bayesian; reduces to a
  row-stochastic confidence-matrix product per singleton profile.
  Cautious Bayesian agents are invariant (identity rows).
- ``dirichlet``: closed form when opinions put mass only on singletons
  and the full frame; the confidence matrix need not be row-stochastic and
  the full-frame mass is whatever the singletons leave over.

All three step through one kernel, :class:`ProfileRun`, which holds its
states in the rows of one stack, prunes under a metric certificate and
steps pmf and Dirichlet runs in chunks (see its docstring).  No run calls
:func:`pmf_step`, :func:`dirichlet_step`, :func:`general_step` or the
confidence-matrix builders, one-step views of the kernel on an immutable
:class:`NetworkState`, nor reads :class:`AgentSpec` or :attr:`NetworkState.specs`:
the benchmark names them, so they stay until it is re-based on the kernel.
The tests build states from specs and prune densely through
``tests/conftest.py``, the oracle the kernel is checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from functools import cache, cached_property
from typing import NamedTuple

import numpy as np

from . import dst
from .dst import BodyOfEvidence, Frame
from .errors import EngineMismatch, NotDirichlet, check_unit_interval
from .graph import DirectedGraph, kept_edges


class Strategy(Enum):
    RECEPTIVE = "receptive"  # follows: weights track the neighbor's masses
    CAUTIOUS = "cautious"    # leads: weights track the agent's own masses


@dataclass(frozen=True, eq=False)
class AgentSpec:
    strategy: Strategy
    alpha: float
    epsilon: float
    boe: BodyOfEvidence

    def __post_init__(self):
        check_unit_interval("alpha", self.alpha)
        check_unit_interval("epsilon", self.epsilon)


# the engines from the tightest opinion class to the widest
ENGINES = ("pmf", "dirichlet", "general")


@dataclass(frozen=True, eq=False)
class NetworkState:
    """Every agent's opinion at one step and the parameters fixed for a run.

    Row i of every array is agent i+1: ``masses`` is the (N, 2**M) mass
    table, ``alphas`` the self-weights, ``bounds`` the bounds of confidence
    and ``receptive`` the strategies (False: cautious).  The arrays are
    copied read-only.
    """

    frame: Frame
    graph: DirectedGraph
    masses: np.ndarray
    alphas: np.ndarray
    bounds: np.ndarray
    receptive: np.ndarray

    def __post_init__(self):
        n, k = self.graph.n, self.frame.n_subsets
        for name, dtype in (("masses", float), ("alphas", float), ("bounds", float),
                            ("receptive", bool)):
            values = np.array(getattr(self, name), dtype=dtype)
            if name == "masses" and values.shape != (n, k):
                raise ValueError(f"mass table must be ({n}, {k}), got {values.shape}")
            if name != "masses" and values.shape != (n,):
                raise ValueError(f"need {n} {name}, got shape {values.shape}")
            values.setflags(write=False)
            object.__setattr__(self, name, values)
        for name, values in (("alpha", self.alphas), ("epsilon", self.bounds)):
            inside = (values >= 0.0) & (values <= 1.0)
            if not inside.all():
                check_unit_interval(name, float(values[inside.argmin()]))

    @cached_property
    def specs(self) -> tuple[AgentSpec, ...]:
        """Every agent as an :class:`AgentSpec`, built on first read; no run reads them."""
        return tuple(AgentSpec(Strategy.RECEPTIVE if r else Strategy.CAUTIOUS, a, e,
                               BodyOfEvidence(self.frame, m))
                     for r, a, e, m in zip(self.receptive.tolist(), self.alphas.tolist(),
                                           self.bounds.tolist(), self.masses))

    @cached_property
    def opinion_class(self) -> str:
        """The tightest engine every opinion fits: "pmf" when only singletons
        carry mass, "dirichlet" when the full frame may too, else "general"."""
        return ("pmf" if dst.is_bayesian_table(self.masses, self.frame) else
                "dirichlet" if dst.is_dirichlet_table(self.masses, self.frame) else "general")


@dataclass(frozen=True, eq=False)
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
# set stays in cache: a block holds at most this many (slot, agent, subset)
# products, or one slot when that is already more.  Each block's sum is
# carried into the next in slot order, so the block size never changes the
# bits.  The gather writes straight into its block: with numpy's default
# mode a take into ``out`` is buffered, and at N = 100, M = 3 (2-vCPU host)
# a buffered 2**20 block made the update cost 1.4 ms against 0.37 ms at
# 2**16; unbuffered ("clip": every index is in range) it costs 0.25-0.31 ms
# at any block size from 2**14 to 2**20.
TERM_BLOCK = 1 << 16


class _Terms(NamedTuple):
    """Where every conditional term of a step sits; its weight comes per step.

    The structure depends on the kept edges, the agents' supports and, while
    a cautious agent hears someone, the positive-belief pattern, so a run
    builds it once per change of those (:meth:`ProfileRun._general_terms`)
    and every step only reads masses and beliefs through its indices.

    Term t is agent ``agent[t]`` conditioning neighbor ``neighbor[t]`` on
    ``subset[t]``, at ``cell[t]`` = slot * N + agent in the padded (slot,
    agent) ``weight`` table (its slot is its rank among its agent's terms;
    empty cells stay 0).  Its weight is ``share[t]`` times the mass at flat
    index ``mass_at[t]``: a receptive agent's equal share of ``1 - alpha``
    times the neighbor's mass.  A cautious term gathers its agent's own mass
    (share 1), and each step then scales the columns of the agents in
    ``cautious`` by ``free`` (``1 - alpha``) over the own masses their terms
    cover.  Without cautious terms (``cautious`` is None) the weights fix
    which agents move, so ``self_weight`` (alpha for an agent that moves, 1
    otherwise) and ``frozen`` (the agents that keep their opinion, None when
    all move) are formed here, not per step.  Per-agent values are (N, 1)
    columns.  Only a structure with cautious terms depends on the belief
    pattern.

    The conditionals of the (neighbor, subset) pairs in use gather, in one
    take at ``gather_at``, the beliefs of their numerators into the first
    half of ``gathered`` (``num``) and, for the plausibilities, those of
    the complements into the second (``den``).  ``blocks`` cuts the slots
    into runs of at most ``TERM_BLOCK // (N * 2**M)`` (one at least), each
    with its rows of ``stack`` under the running sum, the pair row of each
    of its padded cells (the last row of ``cond``, zeros, for an empty one)
    and its weights.  The buffers are overwritten by every step with this
    structure.
    """

    agent: np.ndarray
    neighbor: np.ndarray
    subset: np.ndarray
    cell: np.ndarray
    mass_at: np.ndarray
    share: np.ndarray
    beta: np.ndarray
    weight: np.ndarray        # (slot, agent, 1)
    weight_cells: np.ndarray  # ``weight`` as one flat view
    alphas: np.ndarray
    moves: np.ndarray         # receptive agents with a kept neighbor: they always move
    cautious: np.ndarray | None
    free: np.ndarray | None
    self_weight: np.ndarray | None
    frozen: np.ndarray | None
    gather_at: np.ndarray
    gathered: np.ndarray
    num: np.ndarray
    den: np.ndarray
    cond: np.ndarray
    stack: np.ndarray
    blocks: list


def _term_structure(src: np.ndarray, nbr: np.ndarray, support: np.ndarray,
                    bl_pos: np.ndarray, alphas: np.ndarray, receptive: np.ndarray) -> _Terms:
    """The terms of every agent, given the kept edges and mass supports.

    Kept edge e is agent ``src[e]`` hearing ``nbr[e]`` (0-based), ordered by
    agent, then neighbor, as ``np.nonzero`` lists a receive matrix.  A
    receptive agent gets a term for each subset in a kept neighbor's
    support; a cautious one for each subset in its own support where the
    neighbor's belief is positive (``bl_pos``).
    """
    n, k = support.shape
    rec = receptive[src]
    use = np.where(rec[:, None], support[nbr], support[src] & bl_pos[nbr])
    edge, subset = np.nonzero(use)
    agent, neighbor, rec = src[edge], nbr[edge], rec[edge]
    terms = np.bincount(agent, minlength=n)
    slot = np.arange(len(agent)) - (np.cumsum(terms) - terms)[agent]
    depth = int(slot.max(initial=-1)) + 1
    heard = np.bincount(src, minlength=n)
    share = np.where(rec, (1.0 - alphas[agent]) / heard[agent], 1.0)
    moves, alphas = (receptive & (heard > 0))[:, None], alphas[:, None]
    if rec.all():  # which agents move is fixed
        cautious = free = None
        self_weight = np.where(moves, alphas, 1.0)
        frozen = None if moves.all() else ~moves
    else:
        cautious = ~receptive[:, None]
        free = np.where(cautious, 1.0 - alphas, 1.0)
        self_weight = frozen = None

    # the (neighbor j, subset a) pairs in use, keyed j * k + a, one row each;
    # Pl_j(c) = 1 - Bl_j(~c), and ~c is c ^ (k - 1), at flat index key ^ (k - 1)
    key = neighbor * k + subset
    used = np.zeros(n * k, dtype=bool)
    used[key] = True
    pairs = np.flatnonzero(used)
    row = np.zeros(n * k, dtype=np.intp)
    row[pairs] = np.arange(len(pairs))
    a = (pairs & (k - 1))[:, None]
    bs = np.arange(k)
    base = pairs[:, None] - a
    gather_at = np.concatenate((base + (a & bs), (base + (a & ~bs)) ^ (k - 1)))
    gathered = np.empty(gather_at.shape)
    num, den = gathered[:len(pairs)], gathered[len(pairs):]
    pick = np.full((depth, n), len(pairs))
    pick[slot, agent] = row[key]
    cell = slot * n + agent

    weight = np.zeros((depth, n, 1))
    block = max(1, TERM_BLOCK // (n * k))
    stack = np.empty((min(block, depth) + 1, n, k))
    blocks = []
    for lo in range(0, depth, block):
        rows = min(block, depth - lo)
        blocks.append((stack[1:rows + 1], stack[:rows + 1], pick[lo:lo + rows],
                       weight[lo:lo + rows]))
    return _Terms(agent, neighbor, subset, cell, np.where(rec, key, agent * k + subset), share,
                  np.empty(len(agent)), weight, weight.reshape(-1), alphas, moves, cautious,
                  free, self_weight, frozen, gather_at, gathered, num, den,
                  np.zeros((len(pairs) + 1, k)), stack, blocks)


def _term_weights(terms: _Terms, masses: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """Write each term's weight at these masses into ``terms.weight``; return
    each agent's self-weight and the agents that keep their opinion (None
    when every agent moves), as (N, 1) columns.

    With its self-weight (alpha for an agent that moves, 1 otherwise) an
    agent's weights sum to 1.  An agent with no kept neighbor keeps its
    opinion, and a cautious agent moves only while the own masses its terms
    cover sum above 0; otherwise its terms weigh 0.
    """
    beta = terms.beta
    masses.take(terms.mass_at, out=beta, mode="clip")
    beta *= terms.share
    terms.weight_cells[terms.cell] = beta
    if terms.cautious is None:
        return terms.self_weight, terms.frozen
    # a cautious agent's column holds its own masses in term order, then
    # zeros: summed over the slot axis (never the contiguous one), left to
    # right.  The column is then scaled by 1 - alpha over that sum, as each
    # weight (1 - alpha) / covered * own mass; every other column by 1,
    # which leaves it as it is.
    weight = terms.weight
    covered = np.add.reduce(weight, axis=0)
    positive = covered > 0.0
    moving = terms.moves | positive  # a receptive agent's column sums to 0 unless it moves
    weight *= terms.free / np.where(positive & terms.cautious, covered, 1.0)
    return np.where(moving, terms.alphas, 1.0), ~moving


def _general_update(masses: np.ndarray, bl: np.ndarray, terms: _Terms, out: np.ndarray,
                    lattice: list[tuple[np.ndarray, np.ndarray]]) -> None:
    """Write the mass table after one synchronous conditional update of every
    agent into ``out``, a C-order table whose lattice plan is ``lattice``.

    ``bl`` is the belief table of ``masses``; ``terms`` may hold terms whose
    mass is now 0.  Such a term adds a signed zero to a running sum that
    starts at alpha * bl >= +0.0 and only grows, so it is never -0.0 and
    the zero leaves every bit as it was.  ``out`` shares no memory with
    ``masses`` or ``bl``.
    """
    self_weight, frozen = _term_weights(terms, masses)

    # Fagin-Halpern conditionals Bl_j(b | a) = Bl_j(a & b) / (Bl_j(a & b) +
    # Pl_j(a & ~b)) of the pairs in use, one row per pair and a last row of
    # zeros; Pl_j(x) is 1 - Bl_j at the complement of x
    num, den, cond = terms.num, terms.den, terms.cond
    bl.take(terms.gather_at, out=terms.gathered, mode="clip")
    np.subtract(1.0, den, out=den)
    den += num  # num + Pl, the same sum (addition commutes bit for bit)
    ratio = cond[:-1]
    ratio.fill(0.0)
    np.divide(num, den, out=ratio, where=den > 0.0)

    # alpha * bl + sum of beta * conditional, term by term in the agent's
    # order: padded (slot, agent) tables reduced over the leading axis, which
    # adds left to right.  np.add.reduceat over the unpadded terms would not:
    # on random segments about a third of its sums differ from a left-to-right loop.
    # The self term goes straight into the first block's first row, and each
    # later block starts from the running sum.
    np.multiply(self_weight, bl, out=terms.stack[0] if terms.blocks else out)
    for b, (rows, stack, pick, weight) in enumerate(terms.blocks):
        if b:
            np.copyto(stack[0], out)
        np.take(cond, pick, axis=0, out=rows, mode="clip")
        rows *= weight
        np.add.reduce(stack, axis=0, out=out)

    dst._recover_masses(out, lattice)
    if frozen is not None:
        np.copyto(out, masses, where=frozen)


# ---------------------------------------------------------------------------
# Closed-form engines
# ---------------------------------------------------------------------------

class _WeightPlan:
    """The weights of one kept set but for the full-frame masses.

    Agent i[e] hears j[e], flat[e] = i[e] * N + j[e].  A receptive agent
    with kept neighbours keeps self-weight alpha and gives each neighbour an
    equal share of 1 - alpha; every other diagonal is 1.  ``matrix`` starts
    as the pmf weights, where cautious rows are identity rows and every row
    sums to 1; Dirichlet weights differ on the edges only, and :meth:`fill`
    rewrites those cells in place.
    """

    def __init__(self, i: np.ndarray, flat: np.ndarray, alphas: np.ndarray,
                 receptive: np.ndarray):
        n = len(alphas)
        counts = np.bincount(i, minlength=n)
        safe = np.maximum(counts, 1)
        rec = receptive.take(i)
        share = ((1.0 - alphas) / safe).take(i)
        self.matrix = np.zeros((n, n))
        self._cells = cells = self.matrix.reshape(-1)  # a view: writes land in the matrix
        cells[flat[rec]] = share[rec]
        cells[::n + 1] = np.where(receptive & (counts > 0), alphas, 1.0)
        self._at = flat
        self._edge_terms = (i, rec, share, safe, alphas)  # for the refill, if one comes

    @cached_property
    def _refill(self) -> tuple[np.ndarray, ...]:
        # formed on the first fill, so a pmf plan is only its matrix.  Dirichlet
        # edge e gathers 1 + theta of its neighbour (receptive) or theta of its
        # agent (cautious) from the (1 + theta, theta) buffer, then scales by
        # its share or 1 - alpha and divides by 1 or the count
        i, rec, share, safe, alphas = self._edge_terms
        n = len(alphas)
        return (np.where(rec, self._at - i * n, n + i),
                np.where(rec, share, (1.0 - alphas).take(i)),
                np.where(rec, 1.0, safe.take(i)), np.empty(2 * n), np.empty(len(i)))

    def fill(self, theta: np.ndarray) -> None:
        """Write the Dirichlet edge weights at the full-frame masses ``theta``:
        receptive rows amplify each share by that neighbour's full-frame mass,
        cautious rows leak in their neighbours by their own."""
        n = len(theta)
        gather, scale, divide, buffer, values = self._refill
        np.add(theta, 1.0, out=buffer[:n])
        buffer[n:] = theta
        buffer.take(gather, out=values, mode="clip")
        values *= scale
        values /= divide
        self._cells[self._at] = values


# The most negative full-frame mass a Dirichlet step may leave before it
# counts as a broken mass conservation rather than rounding.
CONSERVATION_TOL = 1e-10


def _update(wt: np.ndarray, x: np.ndarray, out: np.ndarray, full: np.ndarray | None,
            leftover: np.ndarray | None) -> None:
    """One step: ``wt``, the transposed view of the weights ``w``, moves the
    singleton rows ``x`` (M, N) of a state into ``out``, the same rows of the
    next one, and ``full``, the next one's full-frame row (None when it has
    none), takes the mass they leave over, clipped at 0; ``leftover`` keeps
    it unclipped, for the conservation check.  ``np.dot(x, wt)`` into the
    C-order ``out`` is the BLAS call of ``w @ x.T`` with its operands named
    the other way: the gemm ``np.matmul`` runs, with its bits (the tests
    check M 1-16), minus the gufunc dispatch.  It keeps the bits of ``w @
    x.T`` and of its row sums up to seven singletons (a contiguous copy of
    ``wt`` rounds differently), and may differ in the last bit beyond.
    ``out`` must be C-contiguous, as a stack row's first M rows are:
    ``np.dot`` raises ValueError for a strided one."""
    np.dot(x, wt, out=out)
    if full is not None:
        np.add.reduce(out, axis=0, out=leftover)
        np.subtract(1.0, leftover, out=leftover)
        np.maximum(leftover, 0.0, out=full)


# ---------------------------------------------------------------------------
# Whole runs
# ---------------------------------------------------------------------------

# Certified pruning.  A full pruning keeps edge (i, j) iff the computed
# distance d_ij <= eps_i.  distance_error(K) bounds the error of one distance
# computed over K columns, for any K up to 2**16: rows are non-negative with
# sum 1 and Jaccard entries lie in [0, 1], so every Gram entry
# g_ij = x_i J x_j lies in [0, 1] and, as two chained sums of K products, is
# off by at most gamma_2K (gamma_n = n u / (1 - n u), u = 2**-53).  The
# squared distance 0.5 (g_ii + g_jj - 2 g_ij) is then off by at most
# 0.5 (4 gamma_2K + 2 * 2u), and since |sqrt(a) - sqrt(b)| <= sqrt(|a - b|)
# the distance by at most the root of that: 8.8e-8 at K = 17, 1.2e-7 at
# K = 32, 5.4e-6 at K = 2**16.  Clipping to [0, 1] only moves toward the
# exact value, and the 4u added covers the rounding of the root and of the
# gaps below.
#
# The Jousselme distance is a metric, so if every agent has moved along a
# path of length at most r since the last pruning, the exact d_ij has moved
# by at most 2 r, or by r when one of i and j has not moved, and the
# computed one by at most that plus 2 distance_error(K).  So with gap_ij =
# |d_ij - eps_i| - 2 distance_error(K), no computed distance can have crossed
# its bound while 2 r stays below gap_ij on edges between two moving agents
# and below 2 gap_ij on edges with one: the kept edges are those a full
# pruning would give, and the pruning is skipped.  An edge between two
# agents that do not move keeps its computed distance bit for bit (the same
# rows give the same Gram entries) and needs no budget.  A pmf agent does
# not move while its weight row is the identity (it is cautious, keeps no
# edge or has self-weight 1), which holds until the kept edges change;
# Dirichlet and general agents are all counted as moving.  One step moves an
# agent by sqrt(0.5 dx J dx) <= sqrt(0.5 K lambda_max(J)) max|dx|, and
# lambda_max(J) is at most J's largest row sum (its entries are
# non-negative), so each step spends twice that bound times the step's
# largest mass change.  Over all 2**M subsets that row sum is the full
# frame's, 2**(M-1), so the general engine never forms J: the row of a
# subset of size a sums to a 2**(a-1) * integral_0^1 t**(a-1) (1+t)**(M-a) dt,
# at most 2**(M-1).  MOVE_SLACK covers the relative rounding of that
# product, and MOVE_ROUNDING the rounding of each subtraction, at most
# 2**-53 while the budget is positive (it starts below 2).
MOVE_SLACK = 1e-6
MOVE_ROUNDING = 2.0 ** -52


# The longest chunk of steps a pmf or Dirichlet run forms ahead (see ProfileRun.advance).
CHUNK = 64


def distance_error(k: int) -> float:
    """Bound on the error of one Jousselme distance computed over ``k`` columns."""
    u = 2.0 ** -53
    gamma = 2 * k * u / (1.0 - 2 * k * u)
    return float(np.sqrt(2.0 * gamma + 2.0 * u)) + 4.0 * u


@cache
def _engine_columns(size: int, engine: str) -> tuple[np.ndarray, np.ndarray | None, float, float]:
    """What an engine's runs on a frame of ``size`` singletons share: the
    columns a state holds, their Jaccard block (None for general, which lets
    dst pick per pruning), the error bound of one distance over them and
    the certificate budget a unit mass change spends (see above)."""
    frame = Frame(size)
    if engine == "general":
        cols, jaccard = np.arange(frame.n_subsets), None
        row_sum = 2.0 ** (size - 1)  # the full frame's (see above)
    else:
        cols = dst.support_columns(frame, with_full=engine == "dirichlet")
        jaccard = dst.jaccard_block(cols)
        jaccard.setflags(write=False)
        row_sum = jaccard.sum(axis=1).max()
    cols.setflags(write=False)
    bound = np.sqrt(0.5 * len(cols) * row_sum)
    return cols, jaccard, distance_error(len(cols)), 2.0 * (1.0 + MOVE_SLACK) * float(bound)


class ProfileRun:
    """A run of any engine, stepped by :meth:`advance` (``advance(1)`` is one step).

    State is one (N, K) array ``x`` of the columns the engine can fill: the
    M singletons for pmf, plus the full frame for Dirichlet, and all 2**M
    subsets for general.  Every state the run forms is a row of one C-order
    ``(R, K * N)`` stack, and ``x`` is the view of row ``_at`` (a general
    run's ``_profiles[0]``).  A general row is a C-order mass table with its own
    lattice plan, as a column-major copy could round the Gram product
    differently.  A closed-form row is the transpose of an (N, K) profile,
    and a step writes its first M rows times ``w.T``, the transposed view of
    the plan's matrix, into the next row's (:func:`_update`: the bits of
    ``w @ x`` up to M = 7).  A step writes a row its state is not in
    (:meth:`_products`, :meth:`_general_step`), so a step that raises leaves
    ``x`` as it was, and a table taken by :meth:`masses` is a copy.  A pmf
    or Dirichlet run keeps CHUNK + 1 rows, so a chunk of its steps
    (:meth:`advance`) runs the same ``np.dot`` on the same layouts (the
    gemm of ``np.matmul``, bit for bit: see :func:`_update`), refills the
    Dirichlet weights at the same states, and re-prunes at a row inside a
    chunk on the same Gram product, as single steps would.  A
    general run keeps two rows, which swap roles at every step: it takes its
    steps one by one (:meth:`_general_step`), with no chunk to plan.

    Adjacency, bounds (a uniform ``epsilon`` replaces the per-agent ones),
    self-weights and strategies are fixed for the run, and a run derives
    none of them: it takes from the compiled state the opinion class
    (:attr:`NetworkState.opinion_class`, found once per state), the base
    edges as index pairs (:attr:`graph.DirectedGraph.edge_index`, once per
    graph) and the self-weight, bound and strategy arrays, and from a cache
    per frame size and engine the columns, their Jaccard block and the
    certificate's constants.  Its own set-up is the stack of rows, the
    per-edge bounds and the start profile.  Pruning computes
    distances on the base edges only, and is recomputed only when the
    certificate above no longer holds; the weight plan (:class:`_WeightPlan`)
    is built only when the kept edges change, and a Dirichlet step only
    refills its edge cells at the full-frame masses it formed; the general
    term structure is rebuilt only when its key changes (see
    :meth:`_general_terms`).  The kept set is held as a mask over the base
    edges and, taken when it changes, the kept edges as index pairs, in the
    row-major order of ``np.nonzero`` on a receive matrix: the weights, the
    term structure and :meth:`edges` are all built from those pairs.
    ``prunes`` counts the prunings, ``rebuilds`` the plans and term
    structures built and ``discarded`` the products formed ahead but never
    taken.  A chunk gives the same masses, kept edges and weights as single
    steps, and the tests check single steps bit for bit against a dense loop
    that prunes with :func:`graph.prune` and multiplies by the weights
    written on its receive matrix (the general engine against a per-agent
    loop).  (Distances on the profile columns equal those of the dense mass
    table bit for bit up to four singletons; beyond that they agree to about
    4e-16, so a kept edge could differ only for a distance that close to its
    bound.)
    """

    def __init__(self, state: NetworkState, engine: str, epsilon: float | None = None):
        if epsilon is not None:
            check_unit_interval("epsilon", epsilon)
        if engine not in ENGINES:
            raise EngineMismatch(f"unknown engine {engine!r}")
        if ENGINES.index(state.opinion_class) > ENGINES.index(engine):
            raise EngineMismatch("dirichlet engine requires Dirichlet opinions"
                                 if engine == "dirichlet" else
                                 "pmf engine requires Bayesian opinions")
        self.frame = state.frame
        self._general = engine == "general"
        self._cols, self._jaccard, self._distance_error, self._spend_per_change = \
            _engine_columns(self.frame.size, engine)
        # weights that scale with a full-frame column (one-singleton Dirichlet has none)
        self._scaled = engine == "dirichlet" and len(self._cols) > self.frame.size
        (n, k), m = (len(state.masses), len(self._cols)), self.frame.size
        self._stack = np.empty((2 if self._general else CHUNK + 1, k * n))
        if self._general:  # a step's beliefs go to a table of the run's own
            self._profiles = list(self._stack.reshape(-1, n, k))  # [state, next]
            self._flats = list(self._stack)
            self._lattices = [dst._lattice_steps(t) for t in self._profiles]
            self._bl = np.empty((n, k))
            self._bl_steps = dst._lattice_steps(self._bl)
        else:
            blocks = self._stack.reshape(-1, k, n)
            self._profiles = list(blocks.transpose(0, 2, 1))
            self._singles = list(blocks[:, :m])  # pmf rows hold only singletons
            self._fulls = list(blocks[:, m]) if self._scaled else [None] * len(blocks)
            # each step's unclipped full-frame masses (pmf profiles have none)
            self._leftover = np.empty((CHUNK, n)) if self._scaled else [None] * CHUNK
        self._diff = np.empty((len(self._stack) - 1, k * n))
        np.copyto(self._profiles[0], state.masses[:, self._cols])
        self.x, self._at = self._profiles[0], 0
        self._pairs = state.graph.edge_index  # base edge e: src[e] hears nbr[e]
        src = self._pairs[0]
        self._edge_eps = (state.bounds[src] if epsilon is None
                          else np.full(len(src), epsilon, dtype=float))
        self._alphas, self._receptive = state.alphas, state.receptive
        self._kept_mask: np.ndarray | None = None  # per base edge, at the last pruning
        self._kept: tuple[np.ndarray, ...] | None = None  # (i, j, i * N + j) of the kept edges
        # per base edge: whether an endpoint moves, and 2 if only one of them does
        self._watched = np.ones(len(src), dtype=bool)
        self._gap_scale = np.ones(len(src))
        self._plan: _WeightPlan | None = None  # weights of the kept edges
        self._edges: frozenset | None = None
        self._budget = 0.0  # what 2 r may still grow to before a re-pruning
        self._stale = True
        self._terms: _Terms | None = None  # general terms, dropped when the kept edges change
        # the subsets each agent's terms cover (see _general_terms)
        self._support = np.zeros(self.x.shape, dtype=bool)
        self._unseen = np.ones(k * n)  # 1.0 where the support is False, flat
        self._bl_pos = b""  # the positive-belief pattern the terms were built at
        self.prunes = 0
        self.rebuilds = 0
        self.discarded = 0  # products formed ahead but never taken

    def _certify(self) -> None:
        """Redo the pruning unless the certificate still holds."""
        if not self._stale:
            return
        if self._general:  # dst picks the dense table or the used columns
            dist = dst.pairwise_jousselme(self.x, self.frame.size, self._pairs)
        else:
            dist = dst.gram_distances(self.x, self._jaccard, self._pairs)
        kept = dist <= self._edge_eps
        if self._kept_mask is None or kept.tobytes() != self._kept_mask.tobytes():
            on = np.flatnonzero(kept)
            self._kept_mask, self._edges, self._terms = kept, None, None
            self._kept = tuple(index.take(on) for index in self._pairs)
            if not self._general:
                self._plan_weights()
        gaps = np.abs(dist - self._edge_eps)
        gaps -= 2.0 * self._distance_error
        gaps *= self._gap_scale
        self._budget = float(np.minimum.reduce(gaps, where=self._watched, initial=np.inf))
        self._stale = False
        self.prunes += 1

    def _plan_weights(self) -> None:
        """Plan the new kept edges' weights; for pmf, watch the edges they can move."""
        i, _, flat = self._kept
        self._plan = _WeightPlan(i, flat, self._alphas, self._receptive)
        self.rebuilds += 1
        if self._scaled:  # every Dirichlet agent counts as moving
            self._plan.fill(self.x[:, -1])
            return
        w = self._plan.matrix
        w.setflags(write=False)
        # a diagonal of 1 leaves every neighbour a share of exactly 0: the row
        # is the identity and w @ x returns that agent's profile bit for bit
        moves = (w.diagonal() != 1.0).view(np.int8)
        src, nbr, _ = self._pairs
        movers = moves[src] + moves[nbr]
        self._watched = movers > 0
        self._gap_scale = 2.0 / np.maximum(movers, 1)

    def edges(self) -> frozenset[tuple[int, int]]:
        """1-based ``(i, j)`` pairs of the edges kept at the current opinions."""
        self._certify()
        if self._edges is None:
            self._edges = kept_edges(*self._kept[:2])
        return self._edges

    def weights(self) -> np.ndarray:
        """This step's confidence matrix (read-only); pmf and Dirichlet only."""
        if self._general:
            raise EngineMismatch("the general engine has no confidence matrix")
        self._certify()
        if not self._scaled:
            return self._plan.matrix  # read-only; a new kept set gets a new plan
        w = self._plan.matrix.copy()  # the next step refills the plan's
        w.setflags(write=False)
        return w

    def _general_terms(self, bl: np.ndarray) -> _Terms:
        """The term structure at the current masses, rebuilt only when its key changes.

        The key is the kept edges, each agent's support and, while a
        cautious agent hears someone, the positive-belief pattern (receptive
        terms never read it).  The support is every subset where the agent's
        mass has been positive at some step of the run.  Moebius round-off
        leaves masses of about 1e-17 that come and go, so the exact
        positive-mass pattern would change on most steps; a grow-only
        support changes a few times per run, and a term whose mass is back
        at 0 weighs 0 and leaves the bits unchanged (see
        :func:`_general_update`).  The support grows exactly when the dot
        product of the masses, all >= 0, with the 0/1 mask of the subsets
        outside it is positive, so no support array is formed per step.  The
        table-1 and ``ds7-*`` reference runs (231 runs, 47592 steps) build it
        509 times, 231 of them at the first step.
        """
        terms = self._terms
        if (terms is not None and self._flats[0].dot(self._unseen) <= 0.0
                and not (terms.cautious is not None and (bl > 0.0).tobytes() != self._bl_pos)):
            return terms
        self._support |= self.x > 0.0
        self._unseen = np.where(self._support, 0.0, 1.0).reshape(-1)
        bl_pos = bl > 0.0
        self._bl_pos = bl_pos.tobytes()
        self._terms = _term_structure(*self._kept[:2], self._support, bl_pos, self._alphas,
                                      self._receptive)
        self.rebuilds += 1
        return self._terms

    def _general_step(self) -> float:
        """Form a general run's next state in its other row and take it (the
        two rows swap roles); return the step's largest mass change, read as
        old - new, whose absolute value has the same bits as new - old's."""
        x, new = self._profiles
        bl = self._bl
        np.copyto(bl, x)
        dst._zeta(self._bl_steps)
        _general_update(x, bl, self._general_terms(bl), new, self._lattices[1])
        for rows in (self._profiles, self._flats, self._lattices):
            rows.reverse()
        self.x = new
        d = self._diff[0]
        np.subtract(self._flats[1], self._flats[0], out=d)
        return float(np.maximum.reduce(np.abs(d, out=d)))

    def _products(self, count: int, weights: list | None = None) -> list[float]:
        """Form up to ``count`` closed-form states in the rows after the
        state's; return each formed step's largest mass change.  The steps
        multiply by the plan's matrix, which a Dirichlet step then refills at
        the state it formed.  A Dirichlet chunk checks the unclipped
        full-frame masses of all its products at once, after the loop: a
        product that breaks mass conservation cuts the chunk just before it
        (the plan is refilled at the last state kept, and it and the products
        past it count as discarded), so the error is raised only if the run
        takes that step, as the first of a later chunk.  ``weights``, given,
        gets the confidence matrix of each state formed, as :meth:`weights`
        reads it there.  Where the chunk does not fit, the state is first
        copied to the first row.  The change is read from the rows in the
        stack's order."""
        stack = self._stack
        if self._at + count >= len(stack):
            np.copyto(self._profiles[0], self.x)
            self.x, self._at = self._profiles[0], 0
        at = self._at
        wt, singles, fulls = self._plan.matrix.T, self._singles, self._fulls
        fill = self._plan.fill if self._scaled else None
        leftover = self._leftover
        for s in range(at, at + count):
            _update(wt, singles[s], singles[s + 1], fulls[s + 1], leftover[s - at])
            if fill:  # the plan's matrix follows the full-frame masses
                fill(fulls[s + 1])
            if weights is not None:
                weights.append(self.weights())
        if fill and np.minimum.reduce(leftover[:count], axis=None) < -CONSERVATION_TOL:
            worst = np.minimum.reduce(leftover[:count], axis=1)
            broken = int(np.argmax(worst < -CONSERVATION_TOL))  # the first broken step
            self.discarded += count - broken  # it and the products formed past it
            count = broken
            fill(fulls[at + count])  # the chunk ends at the state before it
            if not count:
                raise NotDirichlet(f"mass conservation violated by {worst[0]!r}")
        d = self._diff[:count]
        np.subtract(stack[at + 1:at + count + 1], stack[at:at + count], out=d)
        return np.maximum.reduce(np.abs(d, out=d), axis=1).tolist()

    def advance(self, limit: int, step_tol: float = 0.0, persistence: int = 1,
                edges: list | None = None, matrices: list | None = None,
                frames: list | None = None) -> tuple[int, bool]:
        """Step until the largest mass change stayed below ``step_tol`` for
        ``persistence`` steps in a row, or for ``limit`` steps; return the
        steps taken and whether the run converged.

        The lists given are extended, per step taken, by the kept edges, the
        confidence matrix and the dense masses it started from, read from the
        rows of the steps taken: recording never changes how a run steps.
        While the kept set holds, :meth:`_products` forms a chunk of steps at
        once (a pmf chunk with fixed weights, a Dirichlet one refilling them
        per step), and this walks the certificate budget and the convergence
        rule over their changes step by step, in the one-step order.  Where
        the budget runs out inside a chunk, it re-prunes at that step's
        state, as the next step would: an unchanged kept set leaves the same
        plan, so the later products stand; a new one drops them
        (``discarded`` counts those, and those past convergence).  Where the
        walk stops inside a Dirichlet chunk with the plan unchanged, the plan
        is refilled at the state taken.  Every product is the same
        ``np.dot`` on the same layouts as a single step (the bits of
        ``np.matmul``'s, see :func:`_update`), so a chunk keeps every bit.
        Chunks start at one step after a change of the kept set and double
        while it holds, up to the stack's rows less one.  A chunk ends where
        the run is predicted to converge: while the last change
        taken is at least ``step_tol`` and below the one before, the changes
        are taken to keep falling at that ratio, and a chunk is no longer
        than the steps until one would drop below ``step_tol`` plus the
        ``persistence - 1`` quiet steps after it; once the last steps were
        quiet, it is no longer than the quiet steps still needed.

        The engine selects the walk: a general run, whose chunks could only
        be one step long, takes its steps through :meth:`_advance_singly`,
        the same budget and convergence rule with no chunk to predict, cut
        or copy back.  Through this walk instead, a general step costs 3-10 %
        more.
        """
        if self._general:
            return self._advance_singly(limit, step_tol, persistence, edges, matrices, frames)
        steps = quiet = 0
        span, plan = 1, None
        prev = last = 0.0  # the changes of the last two steps taken
        while steps < limit:
            self._certify()
            kept = self.edges() if edges is not None else None
            weights = [self.weights()] if matrices is not None else None
            span = min(2 * span, len(self._diff)) if self._plan is plan else 1
            count, plan = min(span, limit - steps), self._plan
            if quiet:  # all quiet, the run converges in persistence - quiet steps
                count = min(count, persistence - quiet)
            elif 0.0 < step_tol <= last < prev:  # quiet in about `ahead` steps
                ahead = math.ceil((math.log(step_tol) - math.log(last)) / math.log(last / prev))
                count = min(count, max(1, ahead + persistence - 1))
            changes = self._products(count, weights)
            at, taken = self._at, 0
            for change in changes:
                taken += 1
                self._budget -= self._spend_per_change * change + MOVE_ROUNDING
                self._stale = self._budget <= 0.0
                quiet = quiet + 1 if change < step_tol else 0
                if quiet >= persistence or taken == len(changes):
                    break
                if self._stale:  # re-prune here, as the next single step would
                    self.x = self._profiles[at + taken]
                    self._certify()
                    if self._plan is not plan:
                        break
            self.discarded += len(changes) - taken
            if frames is not None:
                frames += map(self._dense, self._profiles[at:at + taken])
            self._at = at + taken
            self.x = self._profiles[self._at]
            if self._scaled and taken < len(changes) and self._plan is plan:
                self._plan.fill(self.x[:, -1])  # the chunk filled it further on
            prev, last = ([prev, last] + changes[:taken])[-2:]
            steps += taken
            if edges is not None:
                edges += [kept] * taken
            if matrices is not None:
                matrices += weights[:taken]
            if quiet >= persistence:
                return steps, True
        return steps, False

    def _advance_singly(self, limit: int, step_tol: float, persistence: int,
                        edges: list | None, matrices: list | None,
                        frames: list | None) -> tuple[int, bool]:
        """:meth:`advance` of a general run: the same walk, one step at a time
        (the certificate budget, the re-pruning and the quiet-step rule are
        :meth:`advance`'s; keep the two alike)."""
        steps = quiet = 0
        while steps < limit:
            self._certify()
            kept = self.edges() if edges is not None else None
            if matrices is not None:
                self.weights()  # a general run has none: this raises EngineMismatch
            change = self._general_step()
            self._budget -= self._spend_per_change * change + MOVE_ROUNDING
            self._stale = self._budget <= 0.0
            quiet = quiet + 1 if change < step_tol else 0
            steps += 1
            if edges is not None:
                edges.append(kept)
            if frames is not None:  # the state the step started from, in the other row now
                frames.append(self._dense(self._profiles[1]))
            if quiet >= persistence:
                return steps, True
        return steps, False

    def masses(self) -> np.ndarray:
        """Current opinions as a dense (N, 2**M) mass table (read-only)."""
        return self._dense(self.x)

    def _dense(self, x: np.ndarray) -> np.ndarray:
        out = np.zeros((len(x), self.frame.n_subsets))
        out[:, self._cols] = x
        out.setflags(write=False)
        return out


# ---------------------------------------------------------------------------
# One-step views of the kernel
# ---------------------------------------------------------------------------

def _one_step(state: NetworkState, engine: str) -> NetworkState:
    run = ProfileRun(state, engine)
    run.advance(1)
    return replace(state, masses=run.masses())


def general_step(state: NetworkState) -> NetworkState:
    """One synchronous conditional update of every agent (any opinion class)."""
    return _one_step(state, "general")


def pmf_step(state: NetworkState) -> NetworkState:
    """One step of the pmf engine: the singleton profile times its weights."""
    return _one_step(state, "pmf")


def dirichlet_step(state: NetworkState) -> NetworkState:
    """One step of the Dirichlet engine: the singleton profile times its
    weights, the full frame taking the mass they leave over."""
    return _one_step(state, "dirichlet")


def pmf_confidence_matrix(state: NetworkState) -> ConfidenceMatrix:
    """Row-stochastic weights for Bayesian opinions.

    Receptive row: self-weight on the diagonal, the rest split equally over
    in-bound neighbors; with no neighbors the row is the identity row.
    Cautious row: identity (a cautious Bayesian agent never moves).
    """
    return ConfidenceMatrix(ProfileRun(state, "pmf").weights(), row_stochastic=True)


def dirichlet_confidence_matrix(state: NetworkState) -> ConfidenceMatrix:
    """Singleton-profile weights for Dirichlet opinions (not row-stochastic).

    Receptive rows amplify each neighbor share by that neighbor's
    full-frame mass; cautious rows keep the diagonal at 1 and leak in
    neighbor opinions scaled by the agent's own full-frame mass.  On a
    one-singleton frame the opinions are Bayesian and the weights the pmf ones.
    """
    return ConfidenceMatrix(ProfileRun(state, "dirichlet").weights(),
                            row_stochastic=state.frame.size == 1)
