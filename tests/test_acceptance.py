"""Acceptance suite: the reference scenarios and randomized property gates.

Each test prints one ``ACCEPTANCE criterion N`` line so a full run reads as a
checklist.  Two checks assert published reference values that this
implementation provably does not reach; they state the expected windows
faithfully and stay red rather than being loosened.  The obstruction is
explained inline at each test.
"""

import time

import numpy as np
import pytest

from ds_consensus.analysis import classify_chain, verify_one_group_chain, verify_two_group_chain
from ds_consensus.dst import BodyOfEvidence, Frame
from ds_consensus.dynamics import AgentSpec, Strategy, dirichlet_step, general_step, pmf_step
from ds_consensus.graph import DirectedGraph, prune
from ds_consensus.runner import run_simulation, run_sweep
from ds_consensus.scenario import load_scenario

from conftest import (belief_table, jousselme_distance, masses_from_beliefs, neighbors, pruned,
                      state_from_specs, theta_weight_matrix)

GRID = (0.0, 1.0, 0.01)
FOLLOWERS_7 = {2, 3, 4, 5, 6}


def report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


# ---------------------------------------------------------------------------
# criteria 1-4: probabilistic seven-agent scenarios
# ---------------------------------------------------------------------------

def test_criterion_1_no_leader_bifurcation():
    start = time.time()
    sweep = run_sweep(load_scenario("fig3a-pmf"), *GRID)
    elapsed = time.time() - start
    smallest = sweep.smallest_consensus_epsilon()
    ok = smallest is not None and 0.43 <= smallest <= 0.49 and elapsed < 5.0
    assert report("criterion 1", ok,
                  f"smallest consensus eps {smallest} in [0.43, 0.49], {elapsed:.1f}s < 5s")


def test_criterion_2_single_leader():
    sweep = run_sweep(load_scenario("fig4a-pmf"), *GRID)
    smallest = sweep.smallest_consensus_epsilon()
    run = run_simulation(load_scenario("fig4a-pmf"), 0.5)
    dev = float(np.max(np.abs(run.final_masses[:, 1] - 0.80)))
    ok = (smallest is not None and 0.43 <= smallest <= 0.49
          and run.report.consensus and dev <= 1e-6)
    assert report("criterion 2", ok,
                  f"smallest eps {smallest} in [0.43, 0.49]; "
                  f"limit deviation from leader 0.80 at eps=0.5: {dev:.2e} <= 1e-6")


def test_criterion_3_two_leaders_cluster_window():
    sweep = run_sweep(load_scenario("fig5a-pmf"), *GRID)
    never_consensus = not any(sweep.consensus)
    min_clusters = min(sweep.cluster_counts)
    two_eps = [e for e, c in zip(sweep.grid, sweep.cluster_counts) if c == 2]
    overlap = any(0.31 < e < 0.42 for e in two_eps)
    ok = never_consensus and min_clusters == 2 and overlap
    assert report("criterion 3", ok,
                  f"no consensus at any eps: {never_consensus}; min clusters "
                  f"{min_clusters} == 2; two-cluster eps range "
                  f"[{min(two_eps)}, {max(two_eps)}] overlaps (0.31, 0.42): {overlap}")


def test_criterion_4_altered_topology_follower_cluster():
    sweep = run_sweep(load_scenario("fig6a-pmf"), *GRID)
    bad = []
    for gi, eps in enumerate(sweep.grid):
        if eps <= 0.46:
            continue
        ids = {int(sweep.cluster_ids[gi, a - 1]) for a in FOLLOWERS_7}
        masses = sweep.limit_masses[gi, [a - 1 for a in FOLLOWERS_7]]
        if len(ids) != 1 or not np.all((masses >= 0.45) & (masses <= 0.55)):
            bad.append(eps)
    ok = not bad
    assert report("criterion 4", ok,
                  "follower cluster with limit mass in [0.45, 0.55] at every "
                  f"eps > 0.46 (violations: {bad[:5]})")


# ---------------------------------------------------------------------------
# criterion 5: general-evidence seven-agent run against the published table
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def table1_run():
    return run_simulation(load_scenario("table1-general"), 0.30)


def test_criterion_5_structure_and_ambiguous_cluster(table1_run):
    run = table1_run
    ok_clusters = run.report.clusters == ((1, 2, 3, 4, 5), (6, 7))
    rep2 = run.report.representatives[1] if len(run.report.representatives) > 1 else None
    ok_vals = (rep2 is not None
               and abs(rep2[0b001] - 0.15) <= 0.01
               and abs(rep2[0b110] - 0.85) <= 0.01)
    ok = ok_clusters and ok_vals
    assert report("criterion 5 (clusters and ambiguous-pair cluster)", ok,
                  f"clusters {run.report.clusters}; second cluster "
                  f"(m1, m23) = ({rep2[0b001]:.4f}, {rep2[0b110]:.4f}) within 0.01 "
                  "of (0.15, 0.85)")


def test_criterion_5_probabilistic_cluster_values(table1_run):
    # Published converged values for the first cluster.  Under the
    # conditional-update rule implemented here, ambiguous pair mass flows
    # toward the singleton already holding more belief; exhaustive search over
    # all admissible topologies (and over self-weights and column relabelings)
    # bounds the reachable m(theta3) below 0.12, so the published 0.18 cannot
    # be produced.  The check documents the discrepancy rather than hiding it.
    run = table1_run
    rep1 = run.report.representatives[0]
    got = (float(rep1[0b001]), float(rep1[0b010]), float(rep1[0b100]))
    ok = all(abs(g - want) <= 0.01 for g, want in zip(got, (0.63, 0.19, 0.18)))
    assert report("criterion 5 (probabilistic cluster values)", ok,
                  f"first cluster (m1, m2, m3) = {tuple(round(g, 4) for g in got)} "
                  "vs published (0.63, 0.19, 0.18) within 0.01")


# ---------------------------------------------------------------------------
# criterion 6: Dirichlet-opinion thresholds
# ---------------------------------------------------------------------------

def test_criterion_6_dirichlet_thresholds():
    s0 = run_sweep(load_scenario("fig3a-dirichlet"), *GRID)
    t0 = s0.smallest_consensus_epsilon()
    s1 = run_sweep(load_scenario("fig4a-dirichlet"), *GRID)
    t1 = s1.smallest_consensus_epsilon()
    s2 = run_sweep(load_scenario("fig5a-dirichlet"), *GRID)
    never = not any(s2.consensus)
    s3 = run_sweep(load_scenario("fig6a-dirichlet"), *GRID)
    t3 = None
    for gi, eps in enumerate(s3.grid):
        ids = {int(s3.cluster_ids[gi, a - 1]) for a in FOLLOWERS_7}
        if len(ids) == 1:
            t3 = eps
            break
    ok = (t0 is not None and 0.48 <= t0 <= 0.54
          and t1 is not None and 0.47 <= t1 <= 0.53
          and never
          and t3 is not None and 0.43 <= t3 <= 0.49)
    assert report("criterion 6", ok,
                  f"no-leader {t0} in [0.48, 0.54]; one-leader {t1} in [0.47, 0.53]; "
                  f"two-leader no consensus: {never}; altered-topology follower "
                  f"consensus from {t3} in [0.43, 0.49]")


# ---------------------------------------------------------------------------
# criterion 7: 100-agent random-graph statistics
# ---------------------------------------------------------------------------

N_INSTANCES = 20


def _smallest_consensus(scenario, grid_step=0.01):
    eps = 0.0
    while eps <= 1.0 + 1e-9:
        run = run_simulation(scenario, round(eps, 10))
        if run.report.consensus:
            return round(eps, 10)
        eps += grid_step
    return None


@pytest.fixture(scope="module")
def er_results():
    start = time.time()
    out = {"noleader": [], "oneleader": [], "twoleader_consensus": []}
    for seed in range(1, N_INSTANCES + 1):
        out["noleader"].append(_smallest_consensus(load_scenario("er100-noleader", seed=seed)))
        out["oneleader"].append(_smallest_consensus(load_scenario("er100-oneleader", seed=seed)))
        two = load_scenario("er100-twoleader", seed=seed)
        hit = any(run_simulation(two, round(0.1 * k, 10)).report.consensus
                  for k in range(11))
        out["twoleader_consensus"].append(hit)
    out["elapsed"] = time.time() - start
    return out


@pytest.mark.slow
def test_criterion_7_runtime_and_two_leaders(er_results):
    never = not any(er_results["twoleader_consensus"])
    ok = never and er_results["elapsed"] < 600.0
    assert report("criterion 7 (two-leader, runtime)", ok,
                  f"two-leader consensus never: {never}; "
                  f"elapsed {er_results['elapsed']:.0f}s < 600s")


@pytest.mark.slow
def test_criterion_7_no_leader_median(er_results):
    # The bulk of the network (90+ agents) merges within the window, but full
    # 100-agent consensus is governed by outlier agents whose every neighbor
    # sits beyond the bound from step 0; such agents never move, so the
    # measured median lands slightly above the stated window (about 0.375).
    med = float(np.median([t for t in er_results["noleader"] if t is not None]))
    ok = len([t for t in er_results["noleader"] if t is None]) == 0 and 0.15 <= med <= 0.35
    assert report("criterion 7 (no-leader median)", ok,
                  f"median smallest consensus eps {med} in [0.15, 0.35] "
                  f"over {N_INSTANCES} instances")


@pytest.mark.slow
def test_criterion_7_one_leader_median(er_results):
    med = float(np.median([t for t in er_results["oneleader"] if t is not None]))
    ok = len([t for t in er_results["oneleader"] if t is None]) == 0 and 0.15 <= med <= 0.35
    assert report("criterion 7 (one-leader median)", ok,
                  f"median smallest consensus eps {med} in [0.15, 0.35] "
                  f"over {N_INSTANCES} instances")


# ---------------------------------------------------------------------------
# criterion 8: randomized property suites (seeded, >= 100 cases each)
# ---------------------------------------------------------------------------

def _random_network(rng, kind, n_max=8, m_max=4, eps=None):
    n = int(rng.integers(2, n_max + 1))
    size = int(rng.integers(2, m_max + 1))
    frame = Frame(size)
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
             if rng.random() < 0.6]
    g = DirectedGraph.from_mutual_pairs(n, pairs) if pairs else DirectedGraph.from_edges(n, [])
    specs = []
    for _ in range(n):
        m = np.zeros(frame.n_subsets)
        if kind == "bayesian":
            cols = [1 << p for p in range(size)]
        elif kind == "dirichlet":
            cols = [1 << p for p in range(size)] + [frame.full_set]
        else:
            cols = list(range(1, frame.n_subsets))
        draw = rng.gamma(1.0, size=len(cols)) + 1e-6
        m[cols] = draw / draw.sum()
        strategy = Strategy.RECEPTIVE if rng.random() < 0.7 else Strategy.CAUTIOUS
        e = float(rng.uniform(0.1, 1.0)) if eps is None else eps
        specs.append(AgentSpec(strategy, 0.5, e, BodyOfEvidence(frame, m)))
    return state_from_specs(frame, g, tuple(specs))


def test_criterion_8a_update_validity():
    rng = np.random.default_rng(801)
    for _ in range(100):
        state = _random_network(rng, "general")
        state = general_step(state)
        assert np.max(np.abs(state.masses.sum(axis=1) - 1.0)) <= 1e-10
        assert state.masses.min() >= -1e-9
    assert report("criterion 8a", True,
                  "100 random conditional updates: masses >= -1e-9, sums within 1e-10")


def test_criterion_8b_cautious_pmf_invariance():
    rng = np.random.default_rng(802)
    worst = 0.0
    for _ in range(100):
        state = _random_network(rng, "bayesian")
        if not any(s.strategy is Strategy.CAUTIOUS for s in state.specs):
            continue
        cautious = [i for i, s in enumerate(state.specs)
                    if s.strategy is Strategy.CAUTIOUS]
        first = state.masses[cautious].copy()
        for _ in range(100):
            state = general_step(state)
        worst = max(worst, float(np.max(np.abs(state.masses[cautious] - first))))
    ok = worst <= 1e-12
    assert report("criterion 8b", ok,
                  f"cautious probabilistic agents drift {worst:.2e} <= 1e-12 "
                  "over 100 steps")


def test_criterion_8c_engine_equivalence():
    rng = np.random.default_rng(803)
    worst = 0.0
    for kind, matrix_step in (("bayesian", pmf_step), ("dirichlet", dirichlet_step)):
        for _ in range(100):
            state = _random_network(rng, kind, m_max=3)
            a = general_step(state)
            b = matrix_step(state)
            worst = max(worst, float(np.max(np.abs(a.masses - b.masses))))
    ok = worst <= 1e-10
    assert report("criterion 8c", ok,
                  f"general vs matrix engines: max mass difference {worst:.2e} <= 1e-10")


def test_criterion_8d_dirichlet_preservation():
    rng = np.random.default_rng(804)
    worst = 0.0
    for _ in range(100):
        state = _random_network(rng, "dirichlet")
        frame = state.frame
        keep = np.zeros(frame.n_subsets, dtype=bool)
        for p in range(frame.size):
            keep[1 << p] = True
        keep[frame.full_set] = True
        for _ in range(5):
            state = general_step(state)
            worst = max(worst, float(np.max(np.abs(state.masses[:, ~keep]))))
    ok = worst <= 1e-12
    assert report("criterion 8d", ok,
                  f"non-Dirichlet masses stay below {worst:.2e} <= 1e-12")


def test_criterion_8e_ambiguity_decay_bound():
    rng = np.random.default_rng(805)
    checked = 0
    for _ in range(100):
        state = _random_network(rng, "dirichlet", eps=1.0)
        if min(len(neighbors(prune(state.graph, state.masses, state.bounds,
                                   state.frame.size), i))
               for i in range(1, state.graph.n + 1)) == 0:
            continue
        full = state.frame.full_set
        peak0 = float(state.masses[:, full].max())
        rho = 0.0
        ok_instance = True
        current = state
        for n in range(1, 31):
            gamma = theta_weight_matrix(current, pruned(current))
            rho = max(rho, float(np.abs(gamma).sum(axis=1).max()))
            current = dirichlet_step(current)
            if rho < 1.0:
                bound = rho ** n * peak0 + 1e-12
                ok_instance &= float(current.masses[:, full].max()) <= bound
        assert ok_instance
        checked += 1
    assert report("criterion 8e", True,
                  f"ambiguity mass decayed within rho^n bound on {checked} networks")


def test_criterion_8f_metric_axioms():
    rng = np.random.default_rng(806)
    for _ in range(100):
        size = int(rng.integers(1, 5))
        frame = Frame(size)
        boes = []
        for _ in range(3):
            m = np.zeros(frame.n_subsets)
            draw = rng.gamma(1.0, size=frame.n_subsets - 1) + 1e-9
            m[1:] = draw / draw.sum()
            boes.append(BodyOfEvidence(frame, m))
        d01 = jousselme_distance(boes[0], boes[1])
        d10 = jousselme_distance(boes[1], boes[0])
        d02 = jousselme_distance(boes[0], boes[2])
        d12 = jousselme_distance(boes[1], boes[2])
        assert 0.0 <= d01 <= 1.0
        assert abs(d01 - d10) <= 1e-12
        assert d02 <= d01 + d12 + 1e-9
    assert report("criterion 8f", True, "distance symmetry, range, triangle inequality")


def test_criterion_8g_mobius_round_trip():
    rng = np.random.default_rng(807)
    worst = 0.0
    for _ in range(100):
        size = int(rng.integers(1, 5))
        frame = Frame(size)
        m = np.zeros(frame.n_subsets)
        draw = rng.gamma(1.0, size=frame.n_subsets - 1)
        m[1:] = draw / draw.sum()
        rebuilt = masses_from_beliefs(frame, belief_table(m))
        worst = max(worst, float(np.max(np.abs(rebuilt.masses - m))))
    ok = worst <= 1e-12
    assert report("criterion 8g", ok, f"mass-belief-mass round trip {worst:.2e} <= 1e-12")


def test_criterion_8h_block_recursion():
    rng = np.random.default_rng(808)
    worst = 0.0
    for _ in range(100):
        state = _random_network(rng, "bayesian")
        leader = int(rng.integers(1, state.graph.n + 1))
        specs = list(state.specs)
        specs[leader - 1] = AgentSpec(Strategy.CAUTIOUS, specs[leader - 1].alpha,
                                      specs[leader - 1].epsilon, specs[leader - 1].boe)
        state = state_from_specs(state.frame, state.graph, specs)
        ws = []
        current = state
        for _ in range(20):
            from ds_consensus.dynamics import pmf_confidence_matrix
            ws.append(pmf_confidence_matrix(current).matrix)
            current = pmf_step(current)
        chain = classify_chain(ws[0], [[leader]])
        outer, central = chain.outer_idx, chain.group_idx(0)
        a_prod, p, full = None, None, None
        for w in ws:
            a_blocks, c_blocks, d = chain.blocks(w)
            p = c_blocks[0] if p is None else c_blocks[0] @ a_prod + d @ p
            a_prod = a_blocks[0] if a_prod is None else a_blocks[0] @ a_prod
            full = w if full is None else w @ full
        worst = max(worst, float(np.max(np.abs(full[np.ix_(outer, central)] - p))))
    ok = worst <= 1e-10
    assert report("criterion 8h", ok,
                  f"left-product coupling block obeys the recursion, err {worst:.2e}")


def test_criterion_8i_rank_one_limit():
    rng = np.random.default_rng(809)
    checked = 0
    worst = 0.0
    for _ in range(100):
        state = _random_network(rng, "bayesian", eps=1.0)
        pi0 = state.masses[:, [1 << p for p in range(state.frame.size)]]
        acc = np.eye(state.graph.n)
        current = state
        for _ in range(400):
            from ds_consensus.dynamics import pmf_confidence_matrix
            acc = pmf_confidence_matrix(current).matrix @ acc
            new = pmf_step(current)
            if np.max(np.abs(new.masses - current.masses)) < 1e-14:
                current = new
                break
            current = new
        gap = float(np.max(np.abs(acc - acc.mean(axis=0, keepdims=True))))
        if gap < 1e-8:
            v = acc.mean(axis=0)
            final = current.masses[:, [1 << p for p in range(state.frame.size)]]
            worst = max(worst, float(np.max(np.abs(final - v @ pi0))))
            checked += 1
    ok = worst <= 1e-6 and checked >= 20
    assert report("criterion 8i", ok,
                  f"rank-one limits matched v.pi0 within {worst:.2e} on {checked} runs")


# ---------------------------------------------------------------------------
# criterion 9: structural verifiers on the reference scenarios
# ---------------------------------------------------------------------------

def test_criterion_9_verifiers():
    run4 = run_simulation(load_scenario("fig4a-pmf"), 0.5, record_matrices=True)
    chain4 = classify_chain(run4.matrices[0], [[1]])
    rep4 = verify_one_group_chain(chain4, run4.matrices,
                                  run4.singleton_profiles(run4.initial_masses),
                                  run4.singleton_profiles())
    ok4 = rep4["hypotheses"]["satisfied"] and rep4["match"]

    run5 = run_simulation(load_scenario("fig5a-pmf"), 0.35, record_matrices=True)
    chain5 = classify_chain(run5.matrices[0], [[1], [7]])
    rep5 = verify_two_group_chain(chain5, run5.matrices,
                                  run5.singleton_profiles(run5.initial_masses),
                                  run5.singleton_profiles())
    ok5 = (rep5["prediction"]["full_consensus"] is False
           and rep5["observed"]["no_consensus_observed"]
           and rep5["match"])

    run6 = run_simulation(load_scenario("fig6a-pmf"), 0.5, record_matrices=True)
    chain6 = classify_chain(run6.matrices[0], [[1], [7]])
    rep6 = verify_two_group_chain(chain6, run6.matrices,
                                  run6.singleton_profiles(run6.initial_masses),
                                  run6.singleton_profiles())
    ok6 = (rep6["hypotheses"]["weight_proportion_every_step"]
           and rep6["observed"]["outer_max_deviation"] <= 1e-3
           and rep6["match"])

    ok = ok4 and ok5 and ok6
    assert report("criterion 9", ok,
                  f"one-group verified+matched: {ok4}; different leaders imply no "
                  f"consensus, observed agrees: {ok5}; weight-proportion condition "
                  f"held every step and follower prediction matched within 1e-3: {ok6}")
