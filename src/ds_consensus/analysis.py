"""Convergence, consensus, and cluster analysis for recorded runs.

The verifiers here consume the sequence of per-step confidence matrices
recorded by a simulation and check, numerically, the structure that makes
consensus provable:

- a *one-group-driven chain*: after reordering, every step's matrix is block
  lower triangular with a central block (the driving group) that never hears
  the outer agents; if the central group's accumulated product becomes
  rank-one and the outer block stays a strict infinity-norm contraction, the
  whole network adopts the central group's consensus.
- a *two-groups-driven chain*: two driving groups that hear neither each
  other nor the outer agents.  The outer agents reach their own consensus
  when every step splits its weight between the two groups in one common
  proportion (the weight-proportion condition), landing at the
  correspondingly weighted mix of the two groups' consensus opinions.

A chain (:class:`DrivenChain`) holds each agent once, in a central group or
among the outer agents, and :meth:`DrivenChain.check` is the one test of a
matrix against it.  One verifier, :func:`verify_chain`, checks either
theorem.  It walks the recorded matrices once, in runs of consecutive equal
matrices: each run is checked, cut into blocks and normed once, and for two
groups each run's weight split is taken once.

Reports are plain dicts, JSON-serializable as
``{"hypotheses": ..., "prediction": ..., "observed": ..., "match": ...}``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import dst
from .dst import Frame
from .errors import NotDrivenChain, NotRankOne
from .graph import components

CONTRACTION_SLACK = 1e-12   # row sums this close to 1 count as non-contractive
RANK_ONE_TOL = 1e-8
ZERO_BLOCK_TOL = 1e-14
ONE_GROUP_MATCH_TOL = 1e-6   # largest deviation of a final profile from the prediction
TWO_GROUP_MATCH_TOL = 1e-3   # the same for two groups; a wider spread is no consensus
LAMBDA_TOL = 1e-10           # largest spread of a common weight split


def infinity_norm(x: np.ndarray) -> float:
    """Maximum absolute row sum."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    return float(np.abs(x).sum(axis=1).max())


def rank_one_rows(w: np.ndarray) -> np.ndarray:
    """Common row of a numerically rank-one stochastic limit, else NotRankOne."""
    w = np.asarray(w, dtype=float)
    gap = float(np.max(np.abs(w - w.mean(axis=0, keepdims=True))))
    if gap > RANK_ONE_TOL:
        raise NotRankOne(f"rows differ by {gap!r} (tol {RANK_ONE_TOL})")
    return w.mean(axis=0)


# ---------------------------------------------------------------------------
# Cluster detection
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ClusterReport:
    """Where a run ended: its agents partitioned into opinion clusters."""

    frame: Frame
    clusters: tuple[tuple[int, ...], ...]   # 1-based agent ids, sorted
    representatives: np.ndarray             # one mean mass row per cluster
    tolerance: float

    @property
    def cluster_count(self) -> int:
        return len(self.clusters)

    @property
    def consensus(self) -> bool:
        return len(self.clusters) == 1

    @property
    def near_tolerance(self) -> bool:
        """Two clusters' representatives lie within twice the tolerance."""
        if len(self.clusters) < 2:
            return False
        rep_dist = dst.pairwise_jousselme(self.representatives, self.frame.size)
        off = rep_dist[~np.eye(len(self.clusters), dtype=bool)]
        return bool(off.min() <= 2.0 * self.tolerance)

    def cluster_of(self, agent: int) -> int:
        """1-based cluster id of a 1-based agent."""
        for c, members in enumerate(self.clusters):
            if agent in members:
                return c + 1
        raise ValueError(f"agent {agent} not in any cluster")

    def to_dict(self, converged: bool, iterations: int) -> dict:
        """The report's JSON form, with how the run that reached it stopped."""
        return {
            "clusters": [list(c) for c in self.clusters],
            "representatives": [dst.masses_to_dict(self.frame, row)
                                for row in self.representatives],
            "cluster_count": self.cluster_count,
            "consensus": self.consensus,
            "converged": converged,
            "iterations": iterations,
            "tolerance": self.tolerance,
            "near_tolerance": self.near_tolerance,
        }


def detect_clusters(rows: np.ndarray, tol: float, frame: Frame) -> ClusterReport:
    """Partition agents by transitive closure of pairwise distance <= tol.

    ``rows`` is the (N, 2**M) mass table on ``frame``, one row per agent.
    """
    ids = components(dst.pairwise_jousselme(rows, frame.size) <= tol)
    sizes = np.bincount(ids)
    agents = (np.argsort(ids, kind="stable") + 1).tolist()
    clusters = [tuple(agents[end - size:end])
                for size, end in zip(sizes.tolist(), np.cumsum(sizes).tolist())]
    # each cluster's mean row, its members summed in agent order
    sums = np.zeros((len(sizes), rows.shape[1]))
    np.add.at(sums, ids, rows)
    return ClusterReport(frame, tuple(clusters), sums / sizes[:, None], tol)


# ---------------------------------------------------------------------------
# Group-driven chain structure
# ---------------------------------------------------------------------------

def _agent_index(agents: Sequence[int]) -> np.ndarray:
    """Read-only 0-based integer index of 1-based agent ids (empty stays integer)."""
    idx = np.array([a - 1 for a in agents], dtype=np.intp)
    idx.flags.writeable = False
    return idx


@dataclass(frozen=True)
class DrivenChain:
    """Index bookkeeping for a block-triangular confidence structure: the
    central groups and the outer agents hold each of the agents 1..n once,
    as integer ids, which the chain keeps as Python ints."""

    groups: tuple[tuple[int, ...], ...]       # central groups, 1-based ids
    outer: tuple[int, ...]                    # remaining agents, 1-based
    _group_idx: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)
    _outer_idx: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 1 <= len(self.groups) <= 2:
            raise NotDrivenChain(f"need one or two central groups, got {len(self.groups)}")
        if not all(self.groups):
            raise NotDrivenChain("every central group must hold at least one agent")
        object.__setattr__(self, "groups", tuple(tuple(map(_agent_id, g)) for g in self.groups))
        object.__setattr__(self, "outer", tuple(_agent_id(a, "outer") for a in self.outer))
        agents = sorted([*(a for g in self.groups for a in g), *self.outer])
        if agents != list(range(1, len(agents) + 1)):
            raise NotDrivenChain(f"the groups and the outer agents must hold each of the "
                                 f"agents 1..{len(agents)} once, got {agents}")
        object.__setattr__(self, "_group_idx", tuple(_agent_index(g) for g in self.groups))
        object.__setattr__(self, "_outer_idx", _agent_index(self.outer))

    @property
    def kind(self) -> str:
        return "one-group" if len(self.groups) == 1 else "two-groups"

    def group_idx(self, g: int) -> np.ndarray:
        return self._group_idx[g]

    @property
    def outer_idx(self) -> np.ndarray:
        return self._outer_idx

    def blocks(self, w: np.ndarray):
        """Extract (central blocks, coupling blocks, outer block) of one matrix."""
        w = np.asarray(w, dtype=float)
        out = self._outer_idx
        a_blocks = [w[np.ix_(idx, idx)] for idx in self._group_idx]
        c_blocks = [w[np.ix_(out, idx)] for idx in self._group_idx]
        d = w[np.ix_(out, out)]
        return a_blocks, c_blocks, d

    def check(self, w: np.ndarray) -> None:
        """Raise NotDrivenChain unless ``w`` is a square, finite matrix over
        the chain's agents in which every central agent gives zero weight to
        the outer agents and (for two groups) to the other central group."""
        w = _square_finite(w)
        n = len(self.outer) + sum(len(g) for g in self.groups)
        if w.shape[0] != n:
            raise NotDrivenChain(f"the chain does not cover the matrix's {w.shape[0]} agents")
        idx = self._group_idx
        for g, rows in enumerate(idx):
            for cols in (self._outer_idx, *idx[:g], *idx[g + 1:]):
                if cols.size and rows.size:
                    block = np.abs(w[np.ix_(rows, cols)])
                    if block.max() > ZERO_BLOCK_TOL:
                        raise NotDrivenChain(
                            f"central group {g + 1} hears outside agents "
                            f"(weight {float(block.max())!r})")


def _square_finite(w) -> np.ndarray:
    w = np.asarray(w, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise NotDrivenChain(f"the confidence matrix must be square, got shape {w.shape}")
    if not np.isfinite(w).all():
        raise NotDrivenChain("the confidence matrix holds a value that is not finite")
    return w


def _agent_id(a, role: str = "central") -> int:
    """An agent id given as an integer (not a bool, a float or a string), as
    a Python int."""
    if isinstance(a, bool) or not isinstance(a, (int, np.integer)):
        raise NotDrivenChain(f"{role} agent {a!r} is not an integer agent id")
    return int(a)


def classify_chain(w: np.ndarray, central_groups: Sequence[Sequence[int]]) -> DrivenChain:
    """The chain whose driving groups are ``central_groups``, checked on ``w``.

    Every central agent must give zero weight to all outer agents and (for
    two groups) to the other central group.  Raises NotDrivenChain otherwise,
    when ``w`` is not a square matrix or holds a value that is not finite,
    and when a central agent is not an integer id of one of its agents.
    """
    n = len(_square_finite(w))
    groups = tuple(tuple(sorted(_agent_id(a) for a in g)) for g in central_groups)
    central = {a for g in groups for a in g}
    for a in sorted(central):
        if not 1 <= a <= n:
            raise NotDrivenChain(f"central agent {a} is not one of the agents 1..{n}")
    if len(central) != sum(len(g) for g in groups):
        raise NotDrivenChain("central groups overlap")
    chain = DrivenChain(groups, tuple(a for a in range(1, n + 1) if a not in central))
    chain.check(w)
    return chain


def _contraction_profile(runs: list[tuple[int, float]], product_norm: float) -> dict:
    """How strongly the outer block forgets its own history.

    ``runs`` holds ``(steps, norm)`` for each run of consecutive steps whose
    outer block has one infinity norm.  ``per_step`` reports the sufficient
    condition (every step's norm at most rho < 1): it fails whenever some
    outer agent hears no central agent directly at some step.
    ``product_vanishes`` is the weaker working condition: the accumulated
    product of outer blocks tends to zero, i.e. central influence reaches
    every outer agent through paths over time.
    """
    norms = [norm for _, norm in runs]
    tail = len(runs)  # first run of the contractive tail
    while tail and norms[tail - 1] < 1.0 - CONTRACTION_SLACK:
        tail -= 1
    holds_from = sum(steps for steps, _ in runs[:tail]) if tail < len(runs) else None
    return {
        "per_step": holds_from == 0,
        "holds_from_step": holds_from,
        "rho": max(norms[tail:]) if holds_from is not None else None,
        "max_norm": max(norms) if norms else None,
        "product_norm": product_norm,
        "product_vanishes": product_norm < 1e-6,
    }


def _walk_chain(chain: DrivenChain, ws: Sequence[np.ndarray]):
    """One pass over a recorded run, checking the chain structure at every step.

    Returns each central group's left product (newest factor on the left),
    the outer block's contraction profile, and ``(steps, coupling blocks)``
    for each run of consecutive equal matrices (outer rows, one block per
    group's columns).  A run continues while a step records the previous
    step's object (a pmf run records one object per kept set), or else a
    matrix of the same shape and bytes (a Dirichlet run records a fresh
    copy at every step); :meth:`DrivenChain.check`, the blocks and the outer
    norm are taken once per run.  Each left product alternates between two
    buffers of its own.  A product that is still exactly the identity is
    kept, with no product formed, while its blocks are byte-equal to the
    identity (a cautious pmf leader's 1x1 block): identity times identity
    is exact, so every bit is as the plain products give.
    """
    runs = []  # [steps, matrix] per run of consecutive equal matrices
    last = key = None
    for w in ws:
        if w is not last:
            last = w
            w = np.asarray(w, dtype=float)
            step_key = (w.shape, w.tobytes())
            if step_key != key:
                key = step_key
                runs.append([0, w])
        runs[-1][0] += 1
    sizes = [len(idx) for idx in (*chain._group_idx, chain._outer_idx)]
    eyes = [np.eye(n).tobytes() for n in sizes]
    bufs = [(np.empty((n, n)), np.empty((n, n))) for n in sizes]
    prods = [None] * len(sizes)   # each central group's left product, then the outer block's
    unit = [False] * len(sizes)   # the product is still exactly the identity
    norms, couplings = [], []
    for count, w in runs:
        chain.check(w)  # raises if the structure broke in this run
        a_blocks, c_blocks, d = chain.blocks(w)
        norms.append((count, infinity_norm(d) if d.size else 0.0))
        couplings.append((count, c_blocks))
        for g, block in enumerate((*a_blocks, d)):
            eye = block.tobytes() == eyes[g]
            prod, todo = prods[g], count
            if prod is None:
                prod, todo, unit[g] = block, count - 1, eye
            if todo and not (unit[g] and eye):
                unit[g] = False
                one, two = bufs[g]
                for _ in range(todo):
                    prod = np.dot(block, prod, two if prod is one else one)
            prods[g] = prod
    d_prod = prods.pop()
    contraction = _contraction_profile(
        norms, infinity_norm(d_prod) if d_prod is not None and d_prod.size else 0.0)
    return prods, contraction, couplings


def _group_consensus(a_prod: np.ndarray, profiles: np.ndarray):
    """A driving group's consensus profile, or None when its product is not rank one."""
    try:
        return rank_one_rows(a_prod) @ profiles
    except NotRankOne:
        return None


def _weight_split(couplings: list) -> dict:
    """The two-group weight-proportion fields of a walk's coupling runs.

    A run is constrained when some outer agent hears either group; its
    split is the share of that weight given to the second group, common to
    every such agent within LAMBDA_TOL and strictly between 0 and 1, else
    the condition fails at that run.  ``lambda_1`` is the last run's split.
    """
    lambdas: list[float] = []  # one per run of constrained steps
    every_step, constrained_steps = True, 0
    for steps, (c1, c2) in couplings:
        c1, c2 = c1.sum(axis=1), c2.sum(axis=1)
        total = c1 + c2
        defined = total > 0.0
        if not defined.any():
            continue
        constrained_steps += steps
        lam = c2[defined] / total[defined]
        value = float(lam.mean())
        if lam.max() - lam.min() > LAMBDA_TOL or not 0.0 < value < 1.0:
            every_step = False
        else:
            lambdas.append(value)
    return {
        "weight_proportion_every_step": every_step,
        "weight_proportion_constant": bool(lambdas) and (max(lambdas) - min(lambdas) <= LAMBDA_TOL),
        "constrained_steps": constrained_steps,
        "lambda_1": lambdas[-1] if lambdas else None,
    }


def verify_chain(chain: DrivenChain, ws: Sequence[np.ndarray],
                 initial_profiles: np.ndarray, final_profiles: np.ndarray) -> dict:
    """Check the chain's theorem against a recorded run.

    ``ws`` holds the run's matrices, at least one; the profiles are the
    (agents, singletons) arrays of its first and last states.  Both theorems
    need every driving group's left product to converge to rank one (each
    group reaches its own consensus).  One group: if the outer block is also
    a strict contraction from some step on (every outer agent keeps hearing
    the central group, at least eventually), everyone adopts the central
    consensus.  Two groups: consensus iff the groups' consensus opinions
    agree; otherwise the outer agents still reach their own cluster when
    every step splits outer weight between the groups in one common
    proportion, landing at that proportion's mix of the group opinions.
    """
    n = len(chain.outer) + sum(len(g) for g in chain.groups)
    initial = np.asarray(initial_profiles, dtype=float)
    finals = np.asarray(final_profiles, dtype=float)
    if not (len(ws) and initial.ndim == 2 and initial.shape == finals.shape
            and initial.shape[0] == n and initial.shape[1] >= 1):
        raise NotDrivenChain(f"need a matrix and ({n}, singletons) profiles, got {len(ws)} "
                             f"matrices and profiles of shape {initial.shape} and {finals.shape}")
    a_prods, contraction, couplings = _walk_chain(chain, ws)
    etas = [_group_consensus(prod, initial[chain.group_idx(g)])
            for g, prod in enumerate(a_prods)]
    rank_one = all(eta is not None for eta in etas)
    one_group = len(etas) == 1
    hypotheses = {"central_product_rank_one" if one_group else "group_products_rank_one": rank_one,
                  "outer_contraction": contraction}
    hypotheses.update({"satisfied": rank_one and contraction["product_vanishes"]} if one_group
                      else _weight_split(couplings))
    report = {
        "kind": chain.kind,
        "central": [list(g) for g in chain.groups],
        "outer": list(chain.outer),
        "steps": len(ws),
        "hypotheses": hypotheses,
        "prediction": None,
        "observed": None,
        "match": False,
    }
    if not rank_one:
        return report
    eta = etas[0]
    if one_group or np.max(np.abs(eta - etas[1])) <= 1e-9:  # everyone adopts eta
        dev = float(np.max(np.abs(finals - eta)))
        report["prediction"] = {"consensus_profile": [float(e) for e in eta]}
        report["observed"] = {"max_deviation_from_prediction": dev}
        if one_group:
            report["match"] = bool(hypotheses["satisfied"] and dev <= ONE_GROUP_MATCH_TOL)
        else:  # equal leaders: full consensus
            report["prediction"] = {"full_consensus": True, **report["prediction"]}
            report["match"] = bool(dev <= TWO_GROUP_MATCH_TOL)
        return report
    spread = float(np.max(finals.max(axis=0) - finals.min(axis=0)))
    prediction = report["prediction"] = {
        "full_consensus": False, "group_profiles": [[float(e) for e in g] for g in etas]}
    observed = report["observed"] = {
        "all_agent_spread": spread, "no_consensus_observed": bool(spread > TWO_GROUP_MATCH_TOL)}
    match = observed["no_consensus_observed"]
    lam = hypotheses["lambda_1"]
    if hypotheses["weight_proportion_every_step"] and lam is not None and chain.outer:
        follower = (1.0 - lam) * eta + lam * etas[1]
        prediction["outer_cluster_profile"] = [float(e) for e in follower]
        dev = float(np.max(np.abs(finals[chain.outer_idx] - follower)))
        observed["outer_max_deviation"] = dev
        match = match and dev <= TWO_GROUP_MATCH_TOL
    report["match"] = bool(match)
    return report


def verify_one_group_chain(chain: DrivenChain, ws: Sequence[np.ndarray],
                           initial_profiles: np.ndarray,
                           final_profiles: np.ndarray) -> dict:
    """:func:`verify_chain` on a one-group chain; kept because the benchmark's tracer wraps it."""
    if chain.kind != "one-group":
        raise NotDrivenChain("expected a one-group chain")
    return verify_chain(chain, ws, initial_profiles, final_profiles)


def verify_two_group_chain(chain: DrivenChain, ws: Sequence[np.ndarray],
                           initial_profiles: np.ndarray,
                           final_profiles: np.ndarray) -> dict:
    """:func:`verify_chain` on a two-groups chain; kept because the benchmark's tracer wraps it."""
    if chain.kind != "two-groups":
        raise NotDrivenChain("expected a two-groups chain")
    return verify_chain(chain, ws, initial_profiles, final_profiles)
