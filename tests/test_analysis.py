import itertools
import json
import re

import numpy as np
import pytest

from ds_consensus.analysis import (CONTRACTION_SLACK, DrivenChain, _contraction_profile,
                                   _walk_chain, classify_chain, detect_clusters, infinity_norm,
                                   rank_one_rows, verify_chain, verify_one_group_chain,
                                   verify_two_group_chain)
from ds_consensus import analysis, dst
from ds_consensus.dst import BodyOfEvidence, Frame
from ds_consensus.dynamics import AgentSpec, Strategy
from ds_consensus.errors import NotDrivenChain, NotRankOne
from ds_consensus.graph import DirectedGraph, components
from ds_consensus.runner import run_simulation, sweep_grid, verify_run
from ds_consensus.scenario import Scenario, assets_dir, load_scenario, scenario_from_dict

from conftest import random_general_boe, state_from_specs


F3 = Frame(3)


def bayes(x, frame=F3):
    m = np.zeros(frame.n_subsets)
    m[1] = x
    m[2] = (1 - x) / 2
    m[4] = (1 - x) / 2
    return BodyOfEvidence(frame, m)


def table(opinions):
    return np.vstack([boe.masses for boe in opinions])


def test_infinity_norm():
    assert infinity_norm(np.eye(4)) == 1.0
    assert infinity_norm(np.array([[0.2, 0.3], [0.4, 0.5]])) == pytest.approx(0.9)
    assert infinity_norm(np.array([[0.1, -0.9], [0.0, 0.2]])) == pytest.approx(1.0)


def test_left_product_identity_and_order():
    # a two-agent central group whose blocks do not commute
    a = np.array([[0.5, 0.5, 0.0], [0.0, 1.0, 0.0], [0.2, 0.3, 0.5]])
    b = np.array([[1.0, 0.0, 0.0], [0.5, 0.5, 0.0], [0.1, 0.1, 0.8]])
    chain = classify_chain(a, [[1, 2]])
    (prod,), _, _ = _walk_chain(chain, [a])
    assert np.array_equal(prod, a[:2, :2])
    (prod,), _, couplings = _walk_chain(chain, [a, b])
    assert np.array_equal(prod, b[:2, :2] @ a[:2, :2])  # newest factor multiplies on the left
    assert [steps for steps, _ in couplings] == [1, 1]
    assert np.array_equal(couplings[1][1][0], b[2:, :2])


def test_left_product_rank_one_idempotent():
    v = np.array([0.3, 0.7])
    w = np.zeros((3, 3))
    w[:2, :2] = np.outer(np.ones(2), v)
    w[2] = [0.25, 0.25, 0.5]
    (prod,), contraction, _ = _walk_chain(classify_chain(w, [[1, 2]]), [w] * 5)
    assert np.allclose(prod, w[:2, :2])
    assert contraction["product_norm"] == pytest.approx(0.5 ** 5)


def test_rank_one_consensus_value():
    v = np.array([0.3, 0.7])
    w = np.outer(np.ones(2), v)
    assert rank_one_rows(w) @ np.array([1.0, 0.0]) == pytest.approx(0.3)
    eta = rank_one_rows(np.outer(np.ones(2), [1.0, 0.0])) @ np.array([0.4, 0.9])
    assert eta == pytest.approx(0.4)  # single absorbing agent


def test_rank_one_rejects_identity():
    with pytest.raises(NotRankOne):
        rank_one_rows(np.eye(2))


def test_detect_clusters_identical_and_distinct():
    same = [bayes(0.5)] * 4
    rep = detect_clusters(table(same), 1e-3, F3)
    assert rep.consensus and rep.cluster_count == 1
    distinct = [bayes(x) for x in (0.1, 0.5, 0.9)]
    rep = detect_clusters(table(distinct), 1e-3, F3)
    assert rep.cluster_count == 3 and not rep.consensus


def test_detect_clusters_partition_and_order_invariance(rng):
    frame = Frame(3)
    boes = [bayes(0.10), bayes(0.11), bayes(0.60), bayes(0.61), bayes(0.95)]
    rep = detect_clusters(table(boes), 0.05, F3)
    members = sorted(a for c in rep.clusters for a in c)
    assert members == [1, 2, 3, 4, 5]
    assert rep.clusters == ((1, 2), (3, 4), (5,))
    perm = [boes[i] for i in (4, 2, 0, 3, 1)]
    rep2 = detect_clusters(table(perm), 0.05, F3)
    assert sorted(len(c) for c in rep2.clusters) == sorted(len(c) for c in rep.clusters)


def test_detect_clusters_near_tolerance_flag():
    rep = detect_clusters(table([bayes(0.500), bayes(0.5015)]), 1e-3, F3)
    assert rep.cluster_count == 2 and rep.near_tolerance


def test_cluster_of_an_agent_outside_the_report():
    rep = detect_clusters(table([bayes(0.2), bayes(0.8)]), 1e-3, F3)
    assert [rep.cluster_of(a) for a in (1, 2)] == [1, 2]
    with pytest.raises(ValueError, match="^agent 3 not in any cluster$"):
        rep.cluster_of(3)


def walk_clusters(close):
    """Clusters by walking the closeness graph from the smallest unassigned agent."""
    unassigned = set(range(len(close)))
    clusters = []
    while unassigned:
        start = min(unassigned)
        stack, members = [start], {start}
        while stack:
            u = stack.pop()
            for v in np.nonzero(close[u])[0]:
                if v in members or v not in unassigned:
                    continue
                members.add(int(v))
                stack.append(int(v))
        unassigned -= members
        clusters.append(tuple(sorted(m + 1 for m in members)))
    clusters.sort(key=lambda c: c[0])
    return clusters


def clusters_of(ids):
    return sorted(tuple(int(a) + 1 for a in np.flatnonzero(ids == c)) for c in set(ids))


@pytest.mark.parametrize("symmetric", [True, False])
def test_cluster_labels_match_the_walk(rng, symmetric):
    for _ in range(300):
        n = int(rng.integers(1, 40))
        close = rng.random((n, n)) < rng.uniform(0.0, 0.15)
        if symmetric:
            close |= close.T
        close[np.diag_indices(n)] = rng.random() < 0.8
        ids = components(close)
        assert clusters_of(ids) == walk_clusters(close)
        firsts = [np.flatnonzero(ids == c)[0] for c in range(ids.max() + 1)]
        assert np.all(np.diff(firsts) > 0)  # clusters ordered by their first member


def test_cluster_representatives_are_member_means(rng):
    for _ in range(100):
        frame = Frame(int(rng.integers(1, 4)))
        centers = [random_general_boe(frame, rng).masses for _ in range(int(rng.integers(1, 6)))]
        rows = np.vstack([centers[int(rng.integers(len(centers)))]
                          + rng.normal(0.0, 1e-4, frame.n_subsets)
                          for _ in range(int(rng.integers(1, 60)))])
        rows = np.abs(rows)
        rows[:, 0] = 0.0
        rows /= rows.sum(axis=1, keepdims=True)
        tol = float(rng.choice([1e-4, 1e-3, 0.05]))
        rep = detect_clusters(rows, tol, frame)
        close = dst.pairwise_jousselme(rows, frame.size) <= tol
        assert list(rep.clusters) == walk_clusters(close)
        assert all(type(a) is int for c in rep.clusters for a in c)
        want = np.vstack([rows[[m - 1 for m in c]].mean(axis=0) for c in rep.clusters])
        assert rep.representatives.tobytes() == want.tobytes()


def test_classify_chain_blocks():
    w = np.array([
        [1.0, 0.0, 0.0],
        [0.3, 0.5, 0.2],
        [0.1, 0.4, 0.5],
    ])
    chain = classify_chain(w, [[1]])
    assert chain.kind == "one-group" and chain.outer == (2, 3)
    a_blocks, c_blocks, d = chain.blocks(w)
    assert np.allclose(a_blocks[0], [[1.0]])
    assert np.allclose(c_blocks[0], [[0.3], [0.1]])
    assert np.allclose(d, [[0.5, 0.2], [0.4, 0.5]])


def test_classify_chain_rejects_coupled():
    w = np.full((3, 3), 1 / 3)
    with pytest.raises(NotDrivenChain):
        classify_chain(w, [[1]])


def test_classify_chain_two_groups():
    w = np.array([
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [0.2, 0.2, 0.5, 0.1],
        [0.1, 0.1, 0.3, 0.5],
    ])
    chain = classify_chain(w, [[1], [2]])
    assert chain.kind == "two-groups" and chain.outer == (3, 4)
    w_bad = w.copy()
    w_bad[0, 1] = 0.1
    with pytest.raises(NotDrivenChain):
        classify_chain(w_bad, [[1], [2]])


@pytest.mark.parametrize("groups, message", [
    ([[1], [2], [3]], r"^need one or two central groups, got 3$"),
    ([[1, 2], [2]], r"^central groups overlap$"),
])
def test_classify_chain_rejects_bad_groups(groups, message):
    with pytest.raises(NotDrivenChain, match=message):
        classify_chain(np.eye(4), groups)


def test_a_hand_built_chain_needs_one_or_two_groups():
    # a third group would be read as "two-groups" and ignored by its verifier
    with pytest.raises(NotDrivenChain, match=r"^need one or two central groups, got 3$"):
        DrivenChain(((1,), (2,), (3,)), (4,))
    with pytest.raises(NotDrivenChain, match=r"^need one or two central groups, got 0$"):
        DrivenChain((), (1, 2))


@pytest.mark.parametrize("groups, outer, agents", [
    (((1,), (5,)), (2, 3), "1..4 once, got [1, 2, 3, 5]"),   # agent 4 missing, 5 not an agent
    (((1,),), (1, 2), "1..3 once, got [1, 1, 2]"),            # agent 1 in two places
])
def test_a_hand_built_chain_must_hold_each_agent_once(groups, outer, agents):
    with pytest.raises(NotDrivenChain) as err:
        DrivenChain(groups, outer)
    assert str(err.value) == f"the groups and the outer agents must hold each of the agents {agents}"


@pytest.mark.parametrize("groups, verify, message", [
    (((1,), (2,)), verify_one_group_chain, "^expected a one-group chain$"),
    (((1,),), verify_two_group_chain, "^expected a two-groups chain$"),
], ids=["two-groups-to-one-group", "one-group-to-two-groups"])
def test_a_verifier_rejects_a_chain_of_the_other_kind(groups, verify, message):
    chain = DrivenChain(groups, tuple(range(len(groups) + 1, 4)))
    with pytest.raises(NotDrivenChain, match=message):
        verify(chain, [np.eye(3)], np.eye(3), np.eye(3))


@pytest.mark.parametrize("name, epsilon", [("fig4a-pmf", 0.5), ("fig5a-pmf", 0.35),
                                           ("fig6a-pmf", 0.5)])
def test_a_kind_named_verifier_is_verify_chain_for_its_kind(name, epsilon):
    groups, ws, initial, final = recorded(load_scenario(name), epsilon)
    chain = classify_chain(ws[0], groups)
    verify = {"one-group": verify_one_group_chain, "two-groups": verify_two_group_chain}
    got = verify[chain.kind](chain, ws, initial, final)
    assert json.dumps(got) == json.dumps(verify_chain(chain, ws, initial, final))


def _one_leader_chain():
    """Agent 1 leads, agent 2 hears it half: the outer product vanishes."""
    w = np.array([[1.0, 0.0], [0.5, 0.5]])
    return classify_chain(w, [[1]]), [w] * 60, np.array([[0.8, 0.2], [0.1, 0.9]])


def _two_leader_chain():
    """Agents 1 and 2 lead, agent 3 hears each a quarter."""
    w = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.25, 0.25, 0.5]])
    return classify_chain(w, [[1], [2]]), [w] * 60


@pytest.mark.parametrize("offset, match", [(1e-7, True), (1e-4, False)])
def test_one_group_match_takes_the_tight_tolerance(offset, match):
    chain, ws, initial = _one_leader_chain()
    report = verify_chain(chain, ws, initial, np.array([[0.8, 0.2]] * 2) + offset)
    assert list(report["prediction"]) == ["consensus_profile"]
    assert report["observed"]["max_deviation_from_prediction"] == pytest.approx(offset)
    assert report["hypotheses"]["satisfied"] and report["match"] is match


def test_one_group_match_needs_the_hypotheses():
    # agent 2 hears no one but already holds the leader's opinion: no deviation,
    # but its outer product never vanishes, so the theorem does not apply
    w = np.eye(2)
    profiles = np.array([[0.8, 0.2], [0.8, 0.2]])
    report = verify_chain(classify_chain(w, [[1]]), [w] * 5, profiles, profiles)
    assert report["observed"] == {"max_deviation_from_prediction": 0.0}
    assert report["hypotheses"]["satisfied"] is False and report["match"] is False


@pytest.mark.parametrize("leaders, offset, match", [
    ([0.8, 0.8], 1e-4, True), ([0.8, 0.8], 2e-3, False),   # equal leaders: full consensus
    ([0.8, 0.4], 1e-4, True), ([0.8, 0.4], 2e-3, False),   # the outer agent between them
])
def test_two_group_match_takes_the_wide_tolerance(leaders, offset, match):
    chain, ws = _two_leader_chain()
    initial = np.array([[leaders[0], 1 - leaders[0]], [leaders[1], 1 - leaders[1]], [0.1, 0.9]])
    final = initial.copy()
    final[2] = (initial[0] + initial[1]) / 2 + offset
    if leaders[0] == leaders[1]:
        final[:2] += offset
    report = verify_chain(chain, ws, initial, final)
    assert report["prediction"]["full_consensus"] is (leaders[0] == leaders[1])
    assert report["match"] is match


_PROFILES = np.array([[0.8, 0.2], [0.1, 0.9], [0.5, 0.5]])


@pytest.mark.parametrize("groups, ws, initial, final, shapes", [
    ([[1]], [], _PROFILES, _PROFILES, "0 matrices and profiles of shape (3, 2) and (3, 2)"),
    ([[1], [2]], [], _PROFILES, _PROFILES, "0 matrices"),
    ([[1], [2]], [np.eye(3)], _PROFILES, _PROFILES[:2], "shape (3, 2) and (2, 2)"),
    ([[1]], [np.eye(3)], _PROFILES[:2], _PROFILES, "shape (2, 2) and (3, 2)"),
    ([[1], [2]], [np.eye(3)], _PROFILES[:2], _PROFILES[:2], "shape (2, 2) and (2, 2)"),
    ([[1]], [np.eye(3)], _PROFILES[:, 0], _PROFILES[:, 0], "shape (3,) and (3,)"),
    ([[1]], [np.eye(3)], _PROFILES, _PROFILES[:, :1], "shape (3, 2) and (3, 1)"),
    ([[1], [2]], [np.eye(3)], _PROFILES[:, :0], _PROFILES[:, :0], "shape (3, 0) and (3, 0)"),
], ids=["one-group-no-matrix", "two-groups-no-matrix", "final-rows", "initial-rows",
        "both-rows", "one-dimensional", "widths", "no-column"])
def test_verify_chain_rejects_malformed_inputs(groups, ws, initial, final, shapes):
    chain = classify_chain(np.eye(3), groups)
    with pytest.raises(NotDrivenChain, match=r"^need a matrix and \(3, singletons\) profiles, "
                                             r"got .*" + re.escape(shapes)):
        verify_chain(chain, ws, initial, final)


@pytest.mark.parametrize("agent", [1.5, 1.0, "a", True, None])
def test_classify_chain_takes_integer_agent_ids(agent):
    with pytest.raises(NotDrivenChain, match=rf"^central agent {re.escape(repr(agent))} "
                                             r"is not an integer agent id$"):
        classify_chain(np.eye(3), [[agent]])
    assert classify_chain(np.eye(3), [[np.int64(2)], [3]]).groups == ((2,), (3,))


@pytest.mark.parametrize("groups", [[[]], [[1], []], [[], [2]]])
def test_a_central_group_holds_an_agent(groups):
    with pytest.raises(NotDrivenChain, match="^every central group must hold at least one agent$"):
        classify_chain(np.eye(3), groups)


def test_two_group_report_without_rank_one_groups():
    # the first group's agents hear only themselves: its product stays the identity
    w = np.eye(4)
    w[3] = 0.25
    chain = classify_chain(w, [[1, 2], [3]])
    profiles = np.array([[0.9, 0.1], [0.2, 0.8], [0.5, 0.5], [0.4, 0.6]])
    report = verify_two_group_chain(chain, [w] * 5, profiles, profiles)
    assert list(report) == ["kind", "central", "outer", "steps", "hypotheses", "prediction",
                            "observed", "match"]
    assert report["hypotheses"]["group_products_rank_one"] is False
    assert (report["prediction"], report["observed"], report["match"]) == (None, None, False)


@pytest.mark.parametrize("groups, bad", [
    ([[5]], 5), ([[0]], 0), ([[-1]], -1),        # one group
    ([[1], [4]], 4), ([[0], [2]], 0), ([[1, 2], [-3]], -3),  # two groups
])
def test_classify_chain_rejects_unknown_agents(groups, bad):
    with pytest.raises(NotDrivenChain, match=rf"^central agent {bad} is not one of the agents 1\.\.3$"):
        classify_chain(np.eye(3), groups)


@pytest.mark.parametrize("w, message", [
    (np.eye(3)[:, :2], r"must be square, got shape \(3, 2\)"),
    (np.zeros((3, 4)), r"must be square, got shape \(3, 4\)"),
    (np.ones(3), r"must be square, got shape \(3,\)"),
    (np.float64(1.0), r"must be square, got shape \(\)"),
    (np.full((3, 3), np.nan), "holds a value that is not finite"),
    (np.where(np.eye(3) == 1, 1.0, np.inf), "holds a value that is not finite"),
    (np.array([[np.nan, 0, 0], [0.5, 0.5, 0], [0, 0.5, 0.5]]), "holds a value that is not finite"),
])
def test_classify_chain_rejects_malformed_matrices(w, message):
    with pytest.raises(NotDrivenChain, match=message):
        classify_chain(w, [[1]])
    chain = classify_chain(np.eye(3), [[1]])
    with pytest.raises(NotDrivenChain, match=message):
        chain.check(w)


def test_walk_checks_malformed_matrices_once_per_run(monkeypatch):
    w = np.eye(3)
    bad = np.full((3, 3), np.nan)
    assert walk_calls(monkeypatch, [[1]], [w, w, bad, bad, w]) == 2
    with pytest.raises(NotDrivenChain, match="not finite"):
        _walk_chain(classify_chain(w, [[1]]), [w, w, bad, bad, w])


def _leader_scenario(leaders, fig6a=False, pi1=(0.80, 0.78, 0.76, 0.40, 0.80, 0.10, 0.20)):
    pairs = [(1, 3), (2, 3), (3, 4), (3, 6), (3, 7), (4, 5)] if fig6a else \
        [(1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (3, 4), (3, 6), (4, 5), (5, 7), (6, 7)]
    g = DirectedGraph.from_mutual_pairs(7, pairs)
    specs = tuple(AgentSpec(Strategy.CAUTIOUS if i + 1 in leaders else Strategy.RECEPTIVE,
                            0.5, 1.0, bayes(x)) for i, x in enumerate(pi1))
    return Scenario(name="t", state=state_from_specs(F3, g, specs), engine="pmf")


def test_verify_one_group_chain_leader_adoption():
    report = verify_run(_leader_scenario({1}), 0.5)["theorem"]
    assert report["hypotheses"]["central_product_rank_one"]
    assert report["hypotheses"]["outer_contraction"]["product_vanishes"]
    assert report["hypotheses"]["satisfied"]
    assert report["prediction"]["consensus_profile"] == pytest.approx([0.8, 0.1, 0.1])
    assert report["match"]


def test_verify_one_group_block_recursion_equals_accumulated():
    # accumulated product blocks obey P_next = C_next @ A_prod + D_next @ P
    run = run_simulation(_leader_scenario({1}), 0.5, record_matrices=True)
    chain = classify_chain(run.matrices[0], [[1]])
    a_prod, p = None, None
    for w in run.matrices:
        a_blocks, c_blocks, d = chain.blocks(w)
        a, c = a_blocks[0], c_blocks[0]
        p = c if p is None else c @ a_prod + d @ p
        a_prod = a if a_prod is None else a @ a_prod
    acc = np.eye(7)
    for w in run.matrices:
        acc = w @ acc
    outer = chain.outer_idx
    central = chain.group_idx(0)
    assert np.max(np.abs(acc[np.ix_(outer, central)] - p)) < 1e-10


def test_verify_two_group_chain_different_leaders():
    report = verify_run(_leader_scenario({1, 7}), 0.35)["theorem"]
    assert report["hypotheses"]["group_products_rank_one"]
    assert report["prediction"]["full_consensus"] is False
    assert report["observed"]["no_consensus_observed"]
    assert report["match"]


def test_verify_two_group_chain_weight_proportion():
    report = verify_run(_leader_scenario({1, 7}, fig6a=True), 0.5)["theorem"]
    hyp = report["hypotheses"]
    assert hyp["weight_proportion_every_step"] and hyp["weight_proportion_constant"]
    assert hyp["lambda_1"] == pytest.approx(0.5)
    assert report["prediction"]["outer_cluster_profile"] == pytest.approx([0.5, 0.25, 0.25])
    assert report["observed"]["outer_max_deviation"] < 1e-3
    assert report["match"]


def test_verify_two_group_chain_equal_leaders_consensus():
    # both leaders share the same opinion: everyone adopts it
    scenario = _leader_scenario({1, 7}, fig6a=True,
                                pi1=(0.80, 0.78, 0.76, 0.40, 0.80, 0.10, 0.80))
    report = verify_run(scenario, 0.9)["theorem"]
    assert report["prediction"]["full_consensus"] is True
    assert report["prediction"]["consensus_profile"] == pytest.approx([0.8, 0.1, 0.1])
    assert report["match"]


# ---------------------------------------------------------------------------
# The segmented walk against the per-step walk
# ---------------------------------------------------------------------------

def contraction_profile_by_suffix(norms, product_norm):
    """The contraction profile with the tail found by testing every suffix."""
    contractive = [n < 1.0 - CONTRACTION_SLACK for n in norms]
    holds_from = None
    for k in range(len(norms)):
        if all(contractive[k:]):
            holds_from = k
            break
    rho = max(norms[holds_from:]) if holds_from is not None and norms[holds_from:] else None
    return {
        "per_step": bool(norms) and all(contractive),
        "holds_from_step": holds_from,
        "rho": rho,
        "max_norm": max(norms) if norms else None,
        "product_norm": product_norm,
        "product_vanishes": product_norm < 1e-6,
    }


def per_step_walk(chain, ws):
    """The walk with the structure rebuilt, checked and cut into blocks at
    every step, each step its own run."""
    norms = []
    a_prods = [None] * len(chain.groups)
    d_prod = None
    couplings = []
    for w in ws:
        a_blocks, c_blocks, d = classify_chain(w, chain.groups).blocks(w)
        norms.append(infinity_norm(d) if d.size else 0.0)
        d_prod = d if d_prod is None else d @ d_prod
        a_prods = [a if prod is None else a @ prod for a, prod in zip(a_blocks, a_prods)]
        couplings.append((1, c_blocks))
    contraction = contraction_profile_by_suffix(
        norms, infinity_norm(d_prod) if d_prod is not None and d_prod.size else 0.0)
    return a_prods, contraction, couplings


def runs_of_equal(ws):
    """Number of runs of consecutive byte-equal matrices."""
    return 1 + sum(a.tobytes() != b.tobytes() for a, b in zip(ws, ws[1:]))


def split_by_step(couplings):
    """The two-group weight-proportion fields with the split taken at every
    step, agent by agent."""
    lambdas, every_step, constrained_steps = [], True, 0
    for _, (c1, c2) in couplings:
        shares = [(float(a.sum()), float(b.sum())) for a, b in zip(c1, c2)]
        split = [b / (a + b) for a, b in shares if a + b > 0.0]
        if not split:
            continue
        constrained_steps += 1
        lam = float(np.mean(split))
        if max(split) - min(split) > 1e-10 or not 0.0 < lam < 1.0:
            every_step = False
        else:
            lambdas.append(lam)
    return {"weight_proportion_every_step": every_step,
            "weight_proportion_constant": bool(lambdas) and max(lambdas) - min(lambdas) <= 1e-10,
            "constrained_steps": constrained_steps,
            "lambda_1": lambdas[-1] if lambdas else None}


def verify_both_ways(monkeypatch, groups, ws, initial, final):
    """The theorem report (or NotDrivenChain message) of the walk and of the oracle."""
    chain = classify_chain(ws[0], groups)
    outcomes = []
    for walk in (_walk_chain, per_step_walk):
        with monkeypatch.context() as m:
            m.setattr(analysis, "_walk_chain", walk)
            try:
                outcomes.append(json.dumps(verify_chain(chain, ws, initial, final)))
            except NotDrivenChain as exc:
                outcomes.append(f"NotDrivenChain: {exc}")
    if not outcomes[0].startswith("NotDrivenChain"):
        assert walk_bits(_walk_chain(chain, ws)) == walk_bits(per_step_walk(chain, ws))
        if chain.kind == "two-groups":
            want = split_by_step(per_step_walk(chain, ws)[2])
            hypotheses = json.loads(outcomes[0])["hypotheses"]
            assert {key: hypotheses[key] for key in want} == want
    return outcomes


def walk_bits(walk):
    """A walk's left products, contraction profile and every step's coupling
    blocks (its runs expanded), as bytes."""
    prods, contraction, couplings = walk
    return ([p.tobytes() for p in prods], json.dumps(contraction),
            [[c.tobytes() for c in cs] for steps, cs in couplings for _ in range(steps)])


def walk_calls(monkeypatch, groups, ws):
    """DrivenChain.check calls made by one walk over ``ws``."""
    chain = classify_chain(ws[0], groups)
    calls = []
    real = DrivenChain.check

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(DrivenChain, "check", counting)
        try:
            _walk_chain(chain, ws)
        except NotDrivenChain:
            pass
    return len(calls)


def recorded(scenario, epsilon):
    run = run_simulation(scenario, epsilon, record_matrices=True)
    return ([[leader] for leader in scenario.leaders], list(run.matrices),
            run.singleton_profiles(run.initial_masses), run.singleton_profiles())


def bayesian_leader_dirichlet():
    data = json.loads((assets_dir() / "fig4a-dirichlet.json").read_text())
    data["agents"][0]["boe"]["masses"] = {"1": 0.8, "2": 0.1, "3": 0.1}
    return scenario_from_dict(data, "fig4a-dirichlet-bayesian-leader", assets_dir())


@pytest.mark.parametrize("name", ["fig3a-pmf", "fig4a-pmf", "fig5a-pmf", "fig6a-pmf"])
def test_walk_matches_per_step_walk_on_recorded_runs(monkeypatch, name):
    # fig3a has no cautious agent: the whole network is one receptive central group
    scenario = load_scenario(name)
    for epsilon in (*sweep_grid(0.0, 1.0, 0.1), 0.35, 0.75):
        groups, ws, initial, final = recorded(scenario, epsilon)
        groups = groups or [range(1, len(scenario.agents) + 1)]
        got, want = verify_both_ways(monkeypatch, groups, ws, initial, final)
        assert got == want, (name, epsilon)
        assert walk_calls(monkeypatch, groups, ws) == runs_of_equal(ws)


def test_walk_matches_per_step_walk_on_fresh_copies(monkeypatch):
    # the Dirichlet engine records a fresh matrix object at every step
    for epsilon in (0.3, 1.0):
        groups, ws, initial, final = recorded(bayesian_leader_dirichlet(), epsilon)
        assert len({id(w) for w in ws}) == len(ws)
        got, want = verify_both_ways(monkeypatch, groups, ws, initial, final)
        assert got == want
        assert walk_calls(monkeypatch, groups, ws) == runs_of_equal(ws) < len(ws)


def _hand_matrices():
    a = np.array([[1.0, 0.0, 0.0], [0.3, 0.5, 0.2], [0.1, 0.4, 0.5]])
    b = np.array([[1.0, 0.0, 0.0], [0.2, 0.8, 0.0], [0.0, 0.5, 0.5]])
    b_neg = b.copy()
    b_neg[1, 2] = -0.0  # equal to b under ==, not byte-equal
    broken = a.copy()
    broken[0] = [0.875, 0.125, 0.0]
    return a, b, b_neg, broken


def _hand_sequences():
    a, b, b_neg, broken = _hand_matrices()
    return {
        "A A B A": [a, a, b, a],
        "equal but distinct objects": [a, a.copy(), a.copy(), np.array(a.tolist())],
        "+-0.0": [b, b, b_neg, b_neg, b],
        "break in a later run": [a, a, b, b, broken, broken, a],
    }


@pytest.mark.parametrize("label", list(_hand_sequences()))
def test_walk_matches_per_step_walk_on_hand_built_sequences(monkeypatch, label):
    ws = _hand_sequences()[label]
    initial = np.array([[0.8, 0.2], [0.5, 0.5], [0.1, 0.9]])
    final = np.array([[0.8, 0.2]] * 3)
    got, want = verify_both_ways(monkeypatch, [[1]], ws, initial, final)
    assert got == want
    assert walk_calls(monkeypatch, [[1]], ws) == (
        3 if label == "break in a later run" else runs_of_equal(ws))  # stops at the break


def test_walk_names_the_breaking_weight():
    ws = _hand_sequences()["break in a later run"]
    with pytest.raises(NotDrivenChain, match=r"^central group 1 hears outside agents "
                                             r"\(weight 0\.125\)$"):
        _walk_chain(classify_chain(ws[0], [[1]]), ws)


def test_walk_keys_runs_on_bytes(monkeypatch):
    a, b, b_neg, _ = _hand_matrices()
    assert walk_calls(monkeypatch, [[1]], [a, a.copy(), a.copy()]) == 1
    assert walk_calls(monkeypatch, [[1]], [a, a, b, a]) == 3
    assert walk_calls(monkeypatch, [[1]], [b, b_neg, b_neg]) == 2
    _, _, couplings = _walk_chain(classify_chain(a, [[1]]), [a, a.copy(), b, b])
    assert [steps for steps, _ in couplings] == [2, 2]
    with pytest.raises(NotDrivenChain, match="does not cover the matrix's 4 agents"):
        _walk_chain(classify_chain(a, [[1]]), [np.eye(4)])


def test_two_group_walk_matches_per_step_walk_on_hand_built_sequences(monkeypatch):
    w = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0],
                  [0.2, 0.2, 0.5, 0.1], [0.1, 0.1, 0.3, 0.5]])
    v = w.copy()
    v[2] = [0.3, 0.1, 0.6, 0.0]
    initial = np.array([[0.9, 0.1], [0.2, 0.8], [0.5, 0.5], [0.4, 0.6]])
    final = np.array([[0.9, 0.1], [0.2, 0.8], [0.55, 0.45], [0.55, 0.45]])
    for ws in ([w, w, v, w.copy(), w], [w] * 6, [v, v.copy()]):
        got, want = verify_both_ways(monkeypatch, [[1], [2]], ws, initial, final)
        assert got == want
        assert walk_calls(monkeypatch, [[1], [2]], ws) == runs_of_equal(ws)


def _two_agent_group_matrices():
    """Central group {1, 2} (cautious, receptive, == but not byte-equal to
    cautious) over the outer agents 3, 4, 5."""
    cautious = np.array([[1.0, 0.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0, 0.0],
                         [0.2, 0.1, 0.5, 0.2, 0.0], [0.0, 0.3, 0.3, 0.4, 0.0],
                         [0.1, 0.0, 0.0, 0.4, 0.5]])
    receptive = cautious.copy()
    receptive[:2, :2] = [[0.5, 0.5], [0.25, 0.75]]
    other = cautious.copy()
    other[:2, :2] = [[0.875, 0.125], [0.375, 0.625]]
    signed = cautious.copy()
    signed[0, 1] = -0.0
    return cautious, receptive, other, signed


def _two_agent_group_sequences():
    c, r, o, s = _two_agent_group_matrices()
    return {
        "cautious throughout": [c] * 6,
        "cautious, then receptive, then cautious": [c, c, c.copy(), r, r, c, c, r],
        "receptive throughout": [r, r, r.copy(), o, o, r],
        "receptive, then cautious": [r, c, c.copy(), r],
        "signed zero": [c, s, s, c],
    }


def walk_products(monkeypatch, groups, ws):
    """Shapes of the left products one walk over ``ws`` forms, in order."""
    shapes = []

    class Counting:
        def __getattr__(self, name):
            return getattr(np, name)

        def dot(self, a, b, out):
            shapes.append(a.shape)
            return np.dot(a, b, out)

    chain = classify_chain(ws[0], groups)
    with monkeypatch.context() as m:
        m.setattr(analysis, "np", Counting())
        _walk_chain(chain, ws)
    return shapes


@pytest.mark.parametrize("label", list(_two_agent_group_sequences()))
def test_two_agent_group_walk_matches_per_step_walk(monkeypatch, label):
    ws = _two_agent_group_sequences()[label]
    initial = np.array([[0.9, 0.1], [0.2, 0.8], [0.5, 0.5], [0.4, 0.6], [0.3, 0.7]])
    final = np.array([[0.9, 0.1], [0.2, 0.8], [0.55, 0.45], [0.55, 0.45], [0.6, 0.4]])
    got, want = verify_both_ways(monkeypatch, [[1, 2]], ws, initial, final)
    assert got == want
    # the outer block multiplies at every step after the first; the central
    # block only once its product or its block is no longer exactly the identity
    central = {"cautious throughout": 0, "cautious, then receptive, then cautious": 5,
               "receptive throughout": 5, "receptive, then cautious": 3,
               "signed zero": 3}[label]
    shapes = walk_products(monkeypatch, [[1, 2]], ws)
    assert shapes.count((3, 3)) == len(ws) - 1
    assert shapes.count((2, 2)) == central


def test_identity_skip_stops_at_the_first_other_block():
    c, r, _, _ = _two_agent_group_matrices()
    (prod,), _, _ = _walk_chain(classify_chain(c, [[1, 2]]), [c, c, c])
    assert prod.tobytes() == np.eye(2).tobytes()
    (prod,), _, _ = _walk_chain(classify_chain(c, [[1, 2]]), [c, c, r, c, c, r])
    eye, a = np.eye(2), r[:2, :2]
    assert prod.tobytes() == (a @ (eye @ (eye @ (a @ eye)))).tobytes()


def test_contraction_profile_matches_the_suffix_definition(rng):
    patterns = [[], [0.5] * 4, [0.5, 0.5, 1.0], [1.0, 0.5], [1.0 - CONTRACTION_SLACK / 2],
                [0.2, 1.0, 0.3, 0.4], [1.0, 1.0]]
    for _ in range(300):
        n = int(rng.integers(0, 30))
        patterns.append(rng.choice([0.0, 0.4, 0.9, 1.0, 1.0 - CONTRACTION_SLACK, 1.2],
                                   size=n).tolist())
    for norms in patterns:
        want = contraction_profile_by_suffix(norms, 0.5)
        assert _contraction_profile([(1, n) for n in norms], 0.5) == want
        runs = [(len(list(steps)), n) for n, steps in itertools.groupby(norms)]
        assert _contraction_profile(runs, 0.5) == want
