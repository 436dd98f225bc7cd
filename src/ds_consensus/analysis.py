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

@dataclass(frozen=True)
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
    """Index bookkeeping for a block-triangular confidence structure."""

    groups: tuple[tuple[int, ...], ...]       # central groups, 1-based ids
    outer: tuple[int, ...]                    # remaining agents, 1-based
    _group_idx: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)
    _outer_idx: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
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


def classify_chain(w: np.ndarray,
                   central_groups: Sequence[Sequence[int]] | DrivenChain) -> DrivenChain:
    """Check the zero blocks that make ``central_groups`` driving groups.

    Every central agent must give zero weight to all outer agents and (for
    two groups) to the other central group.  Raises NotDrivenChain otherwise.
    ``central_groups`` may also be a chain built before, which is then
    checked against ``w`` as it stands.  A ``w`` that is not a square matrix,
    or holds a value that is not finite, raises NotDrivenChain too.
    """
    w = np.asarray(w, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise NotDrivenChain(f"the confidence matrix must be square, got shape {w.shape}")
    if not np.isfinite(w).all():
        raise NotDrivenChain("the confidence matrix holds a value that is not finite")
    n = w.shape[0]
    if isinstance(central_groups, DrivenChain):
        chain = central_groups
        if len(chain.outer) + sum(len(g) for g in chain.groups) != n:
            raise NotDrivenChain(f"the chain does not cover the matrix's {n} agents")
    else:
        groups = tuple(tuple(sorted(int(a) for a in g)) for g in central_groups)
        if not 1 <= len(groups) <= 2:
            raise NotDrivenChain(f"need one or two central groups, got {len(groups)}")
        central = {a for g in groups for a in g}
        for a in sorted(central):
            if not 1 <= a <= n:
                raise NotDrivenChain(f"central agent {a} is not one of the agents 1..{n}")
        if len(central) != sum(len(g) for g in groups):
            raise NotDrivenChain("central groups overlap")
        outer = tuple(a for a in range(1, n + 1) if a not in central)
        chain = DrivenChain(groups, outer)
    idx = chain._group_idx
    for g, rows in enumerate(idx):
        for cols in (chain._outer_idx, *idx[:g], *idx[g + 1:]):
            if cols.size and rows.size:
                block = np.abs(w[np.ix_(rows, cols)])
                if block.max() > ZERO_BLOCK_TOL:
                    raise NotDrivenChain(
                        f"central group {g + 1} hears outside agents "
                        f"(weight {float(block.max())!r})")
    return chain


def _contraction_profile(norms: list[float], product_norm: float) -> dict:
    """How strongly the outer block forgets its own history.

    ``per_step`` reports the sufficient condition (every step's norm at most
    rho < 1): it fails whenever some outer agent hears no central agent
    directly at some step.  ``product_vanishes`` is the weaker working
    condition: the accumulated product of outer blocks tends to zero, i.e.
    central influence reaches every outer agent through paths over time.
    """
    start = len(norms)  # first step of the contractive tail
    while start and norms[start - 1] < 1.0 - CONTRACTION_SLACK:
        start -= 1
    holds_from = start if start < len(norms) else None
    rho = max(norms[start:]) if holds_from is not None else None
    return {
        "per_step": holds_from == 0,
        "holds_from_step": holds_from,
        "rho": rho,
        "max_norm": max(norms) if norms else None,
        "product_norm": product_norm,
        "product_vanishes": product_norm < 1e-6,
    }


def _object_runs(ws: Sequence[np.ndarray]) -> list[list]:
    """``[w, count]`` for each run of consecutive steps recording the same object."""
    runs = []
    for w in ws:
        if runs and w is runs[-1][0]:
            runs[-1][1] += 1
        else:
            runs.append([w, 1])
    return runs


def _walk_chain(chain: DrivenChain, ws: Sequence[np.ndarray]):
    """One pass over a recorded run, checking the chain structure at every step.

    Returns each central group's left product (newest factor on the left),
    the outer block's contraction profile, and every step's coupling blocks
    (outer rows, one block per group's columns).  The structure check, the
    block extraction and the outer norm run once per run of consecutive
    byte-equal matrices (a pmf simulation's matrix changes only when its
    kept edges do, and it records one object per kept set, so a step whose
    matrix is the previous step's object is not even compared); the steps of
    such a run share one list of coupling blocks.  Each left product
    alternates between two buffers of its own.  A product that is still
    exactly the identity is kept, with no product formed, while its blocks
    are byte-equal to the identity (a cautious pmf leader's 1x1 block):
    identity times identity is exact, so every bit is as the plain products
    give.
    """
    sizes = [len(idx) for idx in (*chain._group_idx, chain._outer_idx)]
    eyes = [np.eye(n).tobytes() for n in sizes]
    bufs = [(np.empty((n, n)), np.empty((n, n))) for n in sizes]
    prods = [None] * len(sizes)   # each central group's left product, then the outer block's
    unit = [False] * len(sizes)   # the product is still exactly the identity
    norms = []
    couplings = []
    key = None
    for w, count in _object_runs(ws):
        w = np.asarray(w, dtype=float)
        step_key = (w.shape, w.tobytes())
        if step_key != key:
            key = step_key
            # raises if the structure broke at this step
            a_blocks, c_blocks, d = classify_chain(w, chain).blocks(w)
            blocks = (*a_blocks, d)
            eye = [b.tobytes() == e for b, e in zip(blocks, eyes)]
            norm = infinity_norm(d) if d.size else 0.0
        norms += [norm] * count
        couplings += [c_blocks] * count
        for g, block in enumerate(blocks):
            prod, todo = prods[g], count
            if prod is None:
                prod, todo, unit[g] = block, count - 1, eye[g]
            if todo and not (unit[g] and eye[g]):
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


def _report(chain: DrivenChain, ws: Sequence[np.ndarray], hypotheses: dict) -> dict:
    """A theorem report on the chain and its recorded steps, its prediction not yet checked."""
    return {
        "kind": chain.kind,
        "central": [list(g) for g in chain.groups],
        "outer": list(chain.outer),
        "steps": len(ws),
        "hypotheses": hypotheses,
        "prediction": None,
        "observed": None,
        "match": False,
    }


def verify_one_group_chain(chain: DrivenChain, ws: Sequence[np.ndarray],
                           initial_profiles: np.ndarray,
                           final_profiles: np.ndarray) -> dict:
    """Check the one-group consensus theorem against a recorded run.

    Hypotheses: the central block's left product converges to rank one
    (the driving group reaches its own consensus), and the outer block is a
    strict contraction from some step on (every outer agent keeps hearing
    the central group, at least eventually).  Prediction: everyone adopts
    the central consensus.
    """
    if chain.kind != "one-group":
        raise NotDrivenChain("expected a one-group chain")
    (a_prod,), contraction, _ = _walk_chain(chain, ws)
    eta = _group_consensus(a_prod, np.asarray(initial_profiles)[chain.group_idx(0)])
    central_rank_one = eta is not None
    satisfied = central_rank_one and contraction["product_vanishes"]
    report = _report(chain, ws, {
        "central_product_rank_one": central_rank_one,
        "outer_contraction": contraction,
        "satisfied": satisfied,
    })
    finals = np.asarray(final_profiles, dtype=float)
    if eta is not None:
        report["prediction"] = {"consensus_profile": [float(e) for e in np.atleast_1d(eta)]}
        dev = float(np.max(np.abs(finals - eta)))
        report["observed"] = {"max_deviation_from_prediction": dev}
        report["match"] = bool(satisfied and dev <= ONE_GROUP_MATCH_TOL)
    return report


def _step_lambda(c_blocks: list[np.ndarray]):
    """Common split of outer weight between the two groups at one step.

    Returns (lambda_1, constrained) where ``constrained`` is False when no
    outer agent heard either group; None means no common split exists.
    """
    c1 = c_blocks[0].sum(axis=1)
    c2 = c_blocks[1].sum(axis=1)
    total = c1 + c2
    defined = total > 0.0
    if not defined.any():
        return None, False
    lam = c2[defined] / total[defined]
    if lam.max() - lam.min() > LAMBDA_TOL:
        return None, True
    value = float(lam.mean())
    if not 0.0 < value < 1.0:
        return None, True
    return value, True


def verify_two_group_chain(chain: DrivenChain, ws: Sequence[np.ndarray],
                           initial_profiles: np.ndarray,
                           final_profiles: np.ndarray) -> dict:
    """Check the two-group theorem: consensus iff the groups' consensus
    opinions agree; otherwise the outer agents still reach their own cluster
    when every step splits outer weight between the groups in one common
    proportion, landing at that proportion's mix of the group opinions.
    """
    if chain.kind != "two-groups":
        raise NotDrivenChain("expected a two-groups chain")
    a_prods, contraction, couplings = _walk_chain(chain, ws)
    lambdas: list[float] = []
    condition_every_step = True
    constrained_steps = 0
    shared = None
    for c_blocks in couplings:
        if c_blocks is not shared:  # the walk shares one list per run of equal matrices
            shared = c_blocks
            lam, constrained = _step_lambda(c_blocks)
        if constrained:
            constrained_steps += 1
            if lam is None:
                condition_every_step = False
            else:
                lambdas.append(lam)
    initial = np.asarray(initial_profiles, dtype=float)
    group_eta = [_group_consensus(a_prods[g], initial[chain.group_idx(g)]) for g in range(2)]
    groups_rank_one = all(eta is not None for eta in group_eta)
    lam_constant = bool(lambdas) and (max(lambdas) - min(lambdas) <= LAMBDA_TOL)
    lam_final = lambdas[-1] if lambdas else None
    report = _report(chain, ws, {
        "group_products_rank_one": groups_rank_one,
        "outer_contraction": contraction,
        "weight_proportion_every_step": condition_every_step,
        "weight_proportion_constant": lam_constant,
        "constrained_steps": constrained_steps,
        "lambda_1": lam_final,
    })
    if not groups_rank_one:
        return report
    finals = np.asarray(final_profiles, dtype=float)
    eta1, eta2 = np.atleast_1d(group_eta[0]), np.atleast_1d(group_eta[1])
    if np.max(np.abs(eta1 - eta2)) <= 1e-9:  # equal leaders: full consensus
        report["prediction"] = {
            "full_consensus": True,
            "consensus_profile": [float(e) for e in eta1],
        }
        dev = float(np.max(np.abs(finals - eta1)))
        report["observed"] = {"max_deviation_from_prediction": dev}
        report["match"] = bool(dev <= TWO_GROUP_MATCH_TOL)
        return report
    spread = float(np.max(finals.max(axis=0) - finals.min(axis=0))) if finals.size else 0.0
    prediction: dict = {"full_consensus": False, "group_profiles":
                        [[float(e) for e in eta1], [float(e) for e in eta2]]}
    observed: dict = {"all_agent_spread": spread,
                      "no_consensus_observed": bool(spread > TWO_GROUP_MATCH_TOL)}
    match = observed["no_consensus_observed"]
    if condition_every_step and lam_final is not None and chain.outer:
        follower = (1.0 - lam_final) * eta1 + lam_final * eta2
        prediction["outer_cluster_profile"] = [float(e) for e in follower]
        outer_final = finals[chain.outer_idx]
        dev = float(np.max(np.abs(outer_final - follower)))
        observed["outer_max_deviation"] = dev
        match = match and dev <= TWO_GROUP_MATCH_TOL
    report["prediction"] = prediction
    report["observed"] = observed
    report["match"] = bool(match)
    return report
